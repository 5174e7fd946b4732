"""Distribution diagnostics: rating-value histograms, log-log power-law
fits, and the two global-diversity counts evaluated in log space."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .core import DatasetError, RatingsDataset


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    log_intercept: float
    r_squared: float


@dataclass(frozen=True)
class DiversityInput:
    """Groups of (people count K_i, movies watched M_i) against a market
    of n_market titles."""

    groups: Tuple[Tuple[int, int], ...]
    n_market: int

    def __post_init__(self):
        object.__setattr__(self, "n_market", _count("n_market", self.n_market, 1))
        if not self.groups:
            raise ValueError("need at least one group")
        object.__setattr__(self, "groups", tuple(
            (_count(f"group {i}: K", k, 1), _count(f"group {i}: M", m, 0))
            for i, (k, m) in enumerate(self.groups)))


def _count(name: str, x, low: int) -> int:
    """x as an int: an integer >= low, not a bool, small enough that its
    float and ln(x!) are finite, since the counts are computed in floats."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    try:
        math.lgamma(x + 1)
    except OverflowError:
        raise ValueError(f"{name} is too large to compute with in floats") from None
    return int(x)


def rating_histogram(dataset: RatingsDataset) -> Dict[int, int]:
    """{rating value: count} over the values that occur, in ascending order."""
    if len(dataset) == 0:
        raise DatasetError("empty dataset")
    values, counts = np.unique(dataset.values, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def fit_power_law(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of ln y on ln x, in closed form (no LAPACK);
    the slope is the fitted exponent."""
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    if np.unique(xs).size < 2:  # else the slope is undetermined
        raise ValueError("need at least 2 points with distinct x to fit")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("all coordinates must be strictly positive")
    lx, ly = np.log(xs), np.log(ys)
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum(dy ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return PowerLawFit(exponent=slope, log_intercept=intercept,
                       r_squared=min(r_squared, 1.0))


def _log_terms(inp: DiversityInput) -> list:
    """ln(K_i * N^{M_i}) per group. A count may exceed int64, so its log is
    taken of its float."""
    return [np.log(float(k)) + m * np.log(float(inp.n_market)) for k, m in inp.groups]


def diversity_ordered(inp: DiversityInput) -> float:
    """ln of sum over groups of K_i * N^{M_i}, via log-sum-exp."""
    return float(np.logaddexp.reduce(_log_terms(inp)))


def diversity_order_invariant(inp: DiversityInput) -> float:
    """ln of sum over groups of K_i * N^{M_i} / N!, the published form."""
    return diversity_ordered(inp) - math.lgamma(inp.n_market + 1)
