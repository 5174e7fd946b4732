"""MAE evaluation: single-predictor scoring and the uniform random
baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .core import DatasetError, RatingsDataset


class Predictor(Protocol):
    """Uniform prediction interface: total over in-range (u, i) and always
    within [1, r_max]."""

    def predict(self, u: int, i: int) -> float: ...


@dataclass(frozen=True)
class NamedPredictor:
    name: str
    fn: Callable[[int, int], float]

    def predict(self, u: int, i: int) -> float:
        return self.fn(u, i)


def mae(predictor: Predictor, test: RatingsDataset) -> float:
    """Mean absolute error over the observed test cells."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    total = 0.0
    for u, i, v in zip(test.users.tolist(), test.items.tolist(), test.values.tolist()):
        total += abs(predictor.predict(u, i) - v)
    return total / len(test)


def random_baseline_mae(test: RatingsDataset, seed: int) -> float:
    """MAE of guessing a uniform random integer in [1, r_max] per cell."""
    if len(test) == 0:
        raise DatasetError("empty test set")
    rng = np.random.default_rng(seed)
    guesses = rng.integers(1, test.r_max + 1, size=len(test))
    return float(np.mean(np.abs(guesses - test.values)))
