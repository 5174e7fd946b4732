"""MAE evaluation: single-predictor scoring and the uniform random
baseline."""

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


def _mean_abs(errors: np.ndarray) -> float:
    """Mean of |errors|. A running total in row order adds them one at a time,
    so the result does not depend on numpy's pairwise summation."""
    if len(errors) == 0:
        raise DatasetError("empty test set")
    return float(np.cumsum(np.abs(errors))[-1]) / len(errors)


def mae(predictor: Predictor, test: RatingsDataset) -> float:
    """Mean absolute error over the observed test cells."""
    return _mean_abs(predictor.predict_many(test.users, test.items) - test.values)


def random_baseline_mae(test: RatingsDataset, seed: int) -> float:
    """MAE of guessing a uniform random integer in [1, R_MAX] per cell."""
    guesses = np.random.default_rng(seed).integers(1, R_MAX + 1, size=len(test))
    return _mean_abs(guesses - test.values)
