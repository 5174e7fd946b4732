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


def _mean_abs(errors: np.ndarray) -> float:
    """Mean of |errors|. A running total in row order adds them one at a time,
    so the result does not depend on numpy's pairwise summation."""
    return float(np.cumsum(np.abs(errors))[-1]) / len(errors)


def mae(predictor: Predictor, test: RatingsDataset) -> float:
    """Mean absolute error over the observed test cells."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    return _mean_abs(predictor.predict_many(test.users, test.items) - test.values)


def random_baseline_mae(test: RatingsDataset, seed: int) -> float:
    """MAE of guessing a uniform random integer in [1, R_MAX] per cell."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    guesses = np.random.default_rng(seed).integers(1, R_MAX + 1, size=len(test))
    return _mean_abs(guesses - test.values)
