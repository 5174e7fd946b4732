"""Distribution diagnostics: rating-value histograms, log-log power-law
fits, and the two global-diversity counts evaluated in log space."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .core import DatasetError, RatingsDataset


@dataclass(frozen=True)
class RatingHistogram:
    counts: Dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def to_json(self) -> str:
        return json.dumps({str(v): c for v, c in sorted(self.counts.items())})

    def to_csv(self) -> str:
        lines = ["value,count"]
        lines.extend(f"{v},{c}" for v, c in sorted(self.counts.items()))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    log_intercept: float
    r_squared: float

    def to_json(self) -> str:
        return json.dumps({"exponent": self.exponent,
                           "log_intercept": self.log_intercept,
                           "r_squared": self.r_squared})


@dataclass(frozen=True)
class DiversityInput:
    """Groups of (people count K_i, movies watched M_i) against a market
    of n_market titles."""

    groups: Tuple[Tuple[int, int], ...]
    n_market: int

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple((int(k), int(m)) for k, m in self.groups))
        if self.n_market < 1:
            raise ValueError("n_market must be >= 1")
        for k, m in self.groups:
            if k < 1:
                raise ValueError("every group needs K >= 1 people")
            if m < 0:
                raise ValueError("movies watched must be >= 0")
        if not self.groups:
            raise ValueError("need at least one group")


def rating_histogram(dataset: RatingsDataset) -> RatingHistogram:
    if len(dataset) == 0:
        raise DatasetError("empty dataset")
    values, counts = np.unique(dataset.values, return_counts=True)
    return RatingHistogram(counts=dict(zip(values.tolist(), counts.tolist())))


def fit_power_law(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of ln y on ln x; the slope is the fitted
    exponent."""
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit")
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("all coordinates must be strictly positive")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, deg=1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return PowerLawFit(exponent=float(slope), log_intercept=float(intercept),
                       r_squared=min(r_squared, 1.0))


def diversity_ordered(inp: DiversityInput) -> float:
    """ln of sum over groups of K_i * N^{M_i}, via log-sum-exp."""
    terms = [np.log(k) + m * np.log(inp.n_market) for k, m in inp.groups]
    return float(np.logaddexp.reduce(terms))


def diversity_order_invariant(inp: DiversityInput,
                              per_group_factorial: bool = False) -> float:
    """ln of sum over groups of K_i * N^{M_i} / N!.

    The N! divisor is the published form. per_group_factorial=True divides
    each term by M_i! instead, the form permutation counting would give;
    it is offered for exploration only and is never the default.
    """
    if per_group_factorial:
        terms = [np.log(k) + m * np.log(inp.n_market) - math.lgamma(m + 1)
                 for k, m in inp.groups]
        return float(np.logaddexp.reduce(terms))
    return diversity_ordered(inp) - math.lgamma(inp.n_market + 1)
