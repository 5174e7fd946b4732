"""MAE evaluation: single-predictor scoring and the uniform random
baseline."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .core import R_MAX, DatasetError, RatingsDataset


class Predictor(ABC):
    """Uniform prediction interface: total over in-range (u, i) and always
    within [1, R_MAX]."""

    @abstractmethod
    def predict_many(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Float predictions for the cells (users[k], items[k])."""


def mae(predictor: Predictor, test: RatingsDataset) -> float:
    """Mean absolute error over the observed test cells."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    errors = np.abs(predictor.predict_many(test.users, test.items) - test.values)
    # a running total in row order adds the errors one at a time, so the
    # result does not depend on numpy's pairwise summation
    return float(np.cumsum(errors)[-1]) / len(test)


def random_baseline_mae(test: RatingsDataset, seed: int) -> float:
    """MAE of guessing a uniform random integer in [1, R_MAX] per cell."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    rng = np.random.default_rng(seed)
    guesses = rng.integers(1, R_MAX + 1, size=len(test))
    return float(np.mean(np.abs(guesses - test.values)))
