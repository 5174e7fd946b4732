"""MAE evaluation: the Predictor interface and its one scoring path, the
MAE of a predictor on a test split, and the uniform random baseline."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .core import R_MAX, DatasetError, RatingsDataset, TrainingError, blocks


class Predictor(ABC):
    """Uniform prediction interface: total over in-range (u, i) and always
    within [1, R_MAX]. A subclass implements `scores`, and `cell_bytes` if one
    cell's score takes more than its float64; `predict_many` calls `scores`
    on `core.blocks` of cells and clamps once."""

    @abstractmethod
    def scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Unclamped float scores of the cells (users[k], items[k])."""

    def cell_bytes(self, users: np.ndarray, items: np.ndarray):
        """The bytes that scoring each cell takes: one number for every cell,
        or a fresh array of one per cell, which `predict_many` overwrites
        with its running sum."""
        return 8

    def predict_many(self, users, items) -> np.ndarray:
        """Float predictions in [1, R_MAX] for the cells (users[k], items[k]).
        A non-finite score is a TrainingError: the model it came from diverged."""
        users, items = np.asarray(users), np.asarray(items)
        preds = np.empty(len(users))
        # overflow surfaces as non-finite scores, checked block by block
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in blocks(len(users), self.cell_bytes(users, items)):
                preds[rows] = self.scores(users[rows], items[rows])
                if not np.isfinite(preds[rows]).all():
                    raise TrainingError(f"{type(self).__name__} scored a non-finite value")
        return np.clip(preds, 1.0, R_MAX, out=preds)


def mae(predictor: Predictor, test: RatingsDataset) -> float:
    """Mean absolute error over the observed test cells. A running total in
    row order adds the errors one at a time, so the result does not depend
    on numpy's pairwise summation."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    errors = np.abs(predictor.predict_many(test.users, test.items) - test.values)
    return float(np.cumsum(errors)[-1]) / len(errors)


class RandomPredictor(Predictor):
    """The uniform random baseline: one guess drawn from the integers
    1..R_MAX per requested cell, in request order, from one generator seeded
    once, so a second block or a second call continues the stream."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self.rng.integers(1, R_MAX + 1, size=len(users)).astype(np.float64)
