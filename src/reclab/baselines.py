"""Classic data-consuming baselines: item-based CF and SGD matrix
factorization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from .core import FactorModel, RatingsDataset, TrainConfig, TrainingError, clamp_prediction


class SimilarityKind(Enum):
    COSINE = "cosine"
    ADJUSTED_COSINE = "adjusted_cosine"


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric item-item similarity scores; the diagonal is never used
    for neighbor selection."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def to_json(self) -> str:
        return json.dumps(self.values.tolist())

    @classmethod
    def from_json(cls, text: str) -> "SimilarityMatrix":
        return cls(values=np.asarray(json.loads(text), dtype=np.float64))


@dataclass(frozen=True)
class CfConfig:
    neighborhood_size: int = 20
    similarity_kind: SimilarityKind = SimilarityKind.COSINE

    def __post_init__(self):
        if self.neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")


def item_similarities(train: RatingsDataset, kind: SimilarityKind) -> SimilarityMatrix:
    """Dense item-item similarity matrix.

    COSINE treats each item's column of the rating matrix (0 for missing)
    as its vector. ADJUSTED_COSINE first subtracts each user's mean rating
    and restricts norms to the co-rating users. Pairs without co-raters
    score 0.
    """
    if len(train) == 0:
        raise ValueError("train set is empty")
    dense = train.to_dense()
    rated = dense > 0

    if kind is SimilarityKind.COSINE:
        norms = np.linalg.norm(dense, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (dense.T @ dense) / np.outer(norms, norms)
        sims[~np.isfinite(sims)] = 0.0
    else:
        counts = rated.sum(axis=1)
        user_means = np.divide(dense.sum(axis=1), counts,
                               out=np.zeros(train.n_users), where=counts > 0)
        centered = np.where(rated, dense - user_means[:, None], 0.0)
        num = centered.T @ centered
        # sq_on[i, j] = sum over co-raters of centered[u, i]^2
        sq_on = (centered ** 2).T @ rated.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = num / np.sqrt(sq_on * sq_on.T)
        sims[~np.isfinite(sims)] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    return SimilarityMatrix(values=sims)


class CfPredictor:
    """Item-based CF: the similarity-weighted average of u's ratings on i's
    nearest neighbors, clamped to the scale, or the global train mean when
    no neighbor qualifies. Caches per-user rated-item lists."""

    def __init__(self, sims: SimilarityMatrix, train: RatingsDataset,
                 cfg: Optional[CfConfig] = None):
        self.sims = sims
        self.cfg = cfg or CfConfig()
        self.r_max = train.r_max
        self.fallback = train.global_mean()
        users, items, values = train.arrays()
        # user u's rows are bounds[u]:bounds[u + 1] in canonical order
        bounds = np.searchsorted(users, np.arange(train.n_users + 1)).tolist()
        self._user_items = [items[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        self._user_values = [values[a:b].tolist() for a, b in zip(bounds, bounds[1:])]

    def predict(self, u: int, i: int) -> float:
        items = self._user_items[u]
        if not items:
            return clamp_prediction(self.fallback, self.r_max)
        sims_row = self.sims.values[i]
        candidates = [(sims_row[j], j, v)
                      for j, v in zip(items, self._user_values[u])
                      if j != i and sims_row[j] != 0.0]
        if not candidates:
            return clamp_prediction(self.fallback, self.r_max)
        # most similar first; ties broken by lower item index
        candidates.sort(key=lambda t: (-t[0], t[1]))
        top = candidates[: self.cfg.neighborhood_size]
        num = sum(s * v for s, _, v in top)
        den = sum(abs(s) for s, _, _ in top)
        return clamp_prediction(num / den, self.r_max)


def _init_factors(n_rows: int, k: int, rng: np.random.Generator,
                  lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, size=(n_rows, k)) / np.sqrt(k)


def _previous_occurrence(keys: np.ndarray) -> np.ndarray:
    """For each position, the latest earlier position holding the same key,
    or -1."""
    n = len(keys)
    # sorting key * n + position orders by key, then by position
    key, pos = np.divmod(np.sort(keys * n + np.arange(n)), n)
    same = key[1:] == key[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[pos[1:][same]] = pos[:-1][same]
    return prev


def conflict_free_runs(users: np.ndarray, items: np.ndarray) -> List[slice]:
    """Cut a visit order into maximal consecutive runs in which no user and
    no item repeats.

    The SGD steps of one run read and write disjoint rows of U and of V, so
    they commute: one batched update per run is the same algorithm as the
    step-by-step loop (the interchangeable blocks of DSGD, Gemulla et al.
    KDD 2011, applied serially). Each run ends just before the first row
    whose user or item it already holds.
    """
    users, items = np.asarray(users), np.asarray(items)
    n = len(users)
    # last[p]: the latest position before p holding p's user or p's item
    last = np.maximum(_previous_occurrence(users), _previous_occurrence(items))
    # first[v]: the first p with last[p] == v. Its suffix minimum end[s] is
    # the first p with last[p] >= s, where a run that starts at s ends.
    first = np.full(n + 1, n)
    repeats = np.flatnonzero(last >= 0)
    np.minimum.at(first, last[repeats], repeats)
    end = np.minimum.accumulate(first[::-1])[::-1]
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(int(end[bounds[-1]]))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def mf_train(train: RatingsDataset, cfg: TrainConfig) -> FactorModel:
    """Plain squared-loss matrix factorization fitted by SGD.

    Visits the observed ratings once per epoch in a seed-derived shuffled
    order (independent of the input row order), applying
    U_i += gamma * 2e * V_j and V_j += gamma * 2e * U_i with
    e = R_ij - U_i . V_j. No biases, no regularization. Each run of
    `conflict_free_runs` over the order is one batched update, so the
    factors equal those of visiting the ratings one at a time.
    """
    if len(train) == 0:
        raise ValueError("train set is empty")
    rng = np.random.default_rng(cfg.seed)
    U = _init_factors(train.n_users, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    V = _init_factors(train.n_items, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    users, items, values = train.arrays()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(users))
        us, js, rs = users[order], items[order], values[order]
        # overflow surfaces as non-finite factors, checked after each epoch
        with np.errstate(over="ignore", invalid="ignore"):
            for run in conflict_free_runs(us, js):
                u, j = us[run], js[run]
                # take: the same rows as U[u], gathered with less overhead
                u_rows, v_rows = U.take(u, axis=0), V.take(j, axis=0)
                e = rs[run] - np.vecdot(u_rows, v_rows)
                step = (cfg.gamma * 2.0 * e)[:, None]
                U[u] = u_rows + step * v_rows
                V[j] = v_rows + step * u_rows
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise TrainingError(f"mf_train diverged at epoch {epoch}", epoch=epoch)
    return FactorModel(U=U, V=V, k=cfg.k)


def mf_predict(model: FactorModel, u: int, i: int, r_max: int) -> float:
    return clamp_prediction(float(model.U[u] @ model.V[i]), r_max)


def mf_loss(train: RatingsDataset, U: np.ndarray, V: np.ndarray) -> float:
    """Sum of squared reconstruction errors over the observed cells."""
    users, items, values = train.arrays()
    preds = np.einsum("ij,ij->i", U[users], V[items])
    return float(np.sum((values - preds) ** 2))


def mf_gradients(train: RatingsDataset, U: np.ndarray, V: np.ndarray):
    """Analytic gradient of mf_loss with respect to (U, V)."""
    users, items, values = train.arrays()
    errors = values - np.einsum("ij,ij->i", U[users], V[items])
    grad_u = np.zeros_like(U)
    grad_v = np.zeros_like(V)
    np.add.at(grad_u, users, (-2.0 * errors)[:, None] * V[items])
    np.add.at(grad_v, items, (-2.0 * errors)[:, None] * U[users])
    return grad_u, grad_v
