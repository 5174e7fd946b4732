"""Data-free cold-start trainers: ZeroMat, DotMat, PoissonMat, PowerMat,
plus the hybrid composition with matrix factorization.

None of the trainers here ever reads a rating value. The three context-free
ones consume only the matrix shape; PowerMat additionally consumes context
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .baselines import _init_factors, conflict_free_runs, mf_train
from .core import (ContextSample, FactorModel, PowerMatModel, RatingsDataset,
                   TrainConfig, TrainingError)
from .evaluation import Predictor

DOTMAT_P_MAX = 10.0


class ZeroShotAlgo(Enum):
    ZEROMAT = "zeromat"
    DOTMAT = "dotmat"
    POISSONMAT = "poissonmat"


@dataclass
class TrainStats:
    """Debug counters collected during a training run."""

    clamp_activations: int = 0
    epochs_run: int = 0


# The three shape-only step rules take matching rows u_vec, v_vec of shape
# (..., k): one pair of 1-D vectors, or a batch of pairs that share no user
# and no item. They return the updated rows, computed from the pre-update
# ones, and a (...)-shaped mask of the rows whose dot product p was clamped.

def zeromat_step(u_vec: np.ndarray, v_vec: np.ndarray, gamma: float,
                 eps_floor: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U += gamma (V/p - 2U), V += gamma (U/p - 2V), with the dot product p
    floored at eps_floor."""
    p = np.vecdot(u_vec, v_vec)
    clamped = p < eps_floor
    p = np.maximum(p, eps_floor)[..., None]
    new_u = u_vec + gamma * (v_vec / p - 2.0 * u_vec)
    new_v = v_vec + gamma * (u_vec / p - 2.0 * v_vec)
    return new_u, new_v, clamped


def dotmat_step(u_vec: np.ndarray, v_vec: np.ndarray, gamma: float,
                eps_floor: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The simplified rule: with p clamped to [eps_floor, DOTMAT_P_MAX] and
    g = p**p, U -= gamma * g * sign(g - p) * (1 + ln p) * V (and
    symmetrically). p = 1 is an exact fixed point since sign(0) = 0."""
    p = np.vecdot(u_vec, v_vec)
    clamped = (p < eps_floor) | (p > DOTMAT_P_MAX)
    p = np.minimum(np.maximum(p, eps_floor), DOTMAT_P_MAX)
    g = p ** p
    coef = (gamma * g * np.sign(g - p) * (1.0 + np.log(p)))[..., None]
    new_u = u_vec - coef * v_vec
    new_v = v_vec - coef * u_vec
    return new_u, new_v, clamped


def poissonmat_step(u_vec: np.ndarray, v_vec: np.ndarray, gamma: float,
                    eps_floor: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U -= gamma ((p+1)/p + ln p - 1) V (and symmetrically), with p floored
    at eps_floor."""
    p = np.vecdot(u_vec, v_vec)
    clamped = p < eps_floor
    p = np.maximum(p, eps_floor)
    coef = (gamma * ((p + 1.0) / p + np.log(p) - 1.0))[..., None]
    new_u = u_vec - coef * v_vec
    new_v = v_vec - coef * u_vec
    return new_u, new_v, clamped


def powermat_step(u_vec: np.ndarray, v_vec: np.ndarray, alpha: np.ndarray,
                  beta: float, context: np.ndarray, gamma: float,
                  sigma_u: float, sigma_v: float, eps_floor: float):
    """One context-driven update of (U, V, alpha, beta); all four parts are
    computed from the pre-update values."""
    p = float(u_vec @ v_vec)
    clamped = p < eps_floor
    p = max(p, eps_floor)
    s = float(alpha @ context)
    new_u = u_vec - gamma * (beta * p * v_vec + (beta * p + s) * v_vec
                             - (2.0 / sigma_u) * u_vec)
    new_v = v_vec - gamma * (beta * p * u_vec + (beta * p + s) * u_vec
                             - (2.0 / sigma_v) * v_vec)
    new_alpha = alpha - gamma * p * context
    new_beta = beta - gamma * p * p
    return new_u, new_v, new_alpha, new_beta, clamped


_STEP_FN = {
    ZeroShotAlgo.ZEROMAT: zeromat_step,
    ZeroShotAlgo.DOTMAT: dotmat_step,
    ZeroShotAlgo.POISSONMAT: poissonmat_step,
}


def train_zeroshot(algo: ZeroShotAlgo, n_users: int, n_items: int,
                   cfg: TrainConfig, stats: Optional[TrainStats] = None) -> FactorModel:
    """Train ZeroMat, DotMat or PoissonMat from the matrix shape alone: each
    epoch applies the algorithm's step rule to samples_per_epoch uniformly
    drawn grid cells, in draw order. Each run of `conflict_free_runs` over
    the draws is one batched step, which matches stepping one cell at a time
    up to the last bits of numpy's log and power; stats adds up the clamp
    masks."""
    rng = np.random.default_rng(cfg.seed)
    U = _init_factors(n_users, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    V = _init_factors(n_items, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    step = _STEP_FN[algo]
    for epoch in range(cfg.epochs):
        us = rng.integers(0, n_users, size=cfg.samples_per_epoch)
        js = rng.integers(0, n_items, size=cfg.samples_per_epoch)
        # overflow surfaces as non-finite factors, checked after each epoch
        with np.errstate(over="ignore", invalid="ignore"):
            for run in conflict_free_runs(us, js):
                u, j = us[run], js[run]
                U[u], V[j], clamped = step(U.take(u, axis=0), V.take(j, axis=0),
                                            cfg.gamma, cfg.eps_floor)
                if stats is not None:
                    stats.clamp_activations += int(np.count_nonzero(clamped))
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise TrainingError(f"{algo.value} diverged at epoch {epoch}", epoch=epoch)
        if stats is not None:
            stats.epochs_run = epoch + 1
    return FactorModel(U=U, V=V, k=cfg.k)


def powermat_train(contexts: Sequence[ContextSample], cfg: TrainConfig,
                   sigma_u: float = 1.0, sigma_v: float = 1.0,
                   stats: Optional[TrainStats] = None,
                   n_users: Optional[int] = None,
                   n_items: Optional[int] = None) -> PowerMatModel:
    """Train PowerMat from (user, item, context) triples; rating values in
    the samples are never read. n_users / n_items default to one past the
    largest id in contexts; pass the dataset's sizes to cover every id."""
    if not contexts:
        raise ValueError("contexts is empty")
    if sigma_u <= 0 or sigma_v <= 0:
        raise ValueError("sigma_u and sigma_v must be positive")
    d_c = len(contexts[0].context)
    if any(len(c.context) != d_c for c in contexts):
        raise ValueError("context vectors must share one dimensionality")
    if n_users is None:
        n_users = max(c.user_id for c in contexts) + 1
    if n_items is None:
        n_items = max(c.item_id for c in contexts) + 1

    rng = np.random.default_rng(cfg.seed)
    U = _init_factors(n_users, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    V = _init_factors(n_items, cfg.k, rng, cfg.init_lo, cfg.init_hi)
    alpha = rng.uniform(0.0, cfg.init_lo, size=d_c)
    beta = cfg.init_lo

    # canonical order keeps training invariant to input row order
    order = sorted(range(len(contexts)),
                   key=lambda i: (contexts[i].user_id, contexts[i].item_id))
    ctx_arrays = [contexts[i].context_array for i in order]
    users = [contexts[i].user_id for i in order]
    items = [contexts[i].item_id for i in order]

    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in rng.permutation(len(order)):
                u, j = users[idx], items[idx]
                U[u], V[j], alpha, beta, clamped = powermat_step(
                    U[u], V[j], alpha, beta, ctx_arrays[idx],
                    cfg.gamma, sigma_u, sigma_v, cfg.eps_floor)
                if clamped and stats is not None:
                    stats.clamp_activations += 1
        if not (np.isfinite(U).all() and np.isfinite(V).all()
                and np.isfinite(alpha).all() and math.isfinite(beta)):
            raise TrainingError(f"powermat diverged at epoch {epoch}", epoch=epoch)
        if stats is not None:
            stats.epochs_run = epoch + 1
    factors = FactorModel(U=U, V=V, k=cfg.k)
    return PowerMatModel(factors=factors, alpha=alpha, beta=beta,
                         sigma_u=sigma_u, sigma_v=sigma_v)


class ZeroShotPredictor(Predictor):
    """Prediction via the rating-scale-normalized dot-product ratio:
    r_max * (U_u . V_i) / max_j(U_u . V_j), with the per-user maximum
    cached once and floored at eps_floor."""

    def __init__(self, model: FactorModel, r_max: int, eps_floor: float = 1e-6):
        self.model = model
        self.r_max = r_max
        self._scores = model.U @ model.V.T
        self._row_max = np.maximum(self._scores.max(axis=1), eps_floor)

    def predict_many(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        raw = self.r_max * self._scores[users, items] / self._row_max[users]
        return np.clip(raw, 1.0, self.r_max)


def augment_with_zeroshot(train: RatingsDataset, algo: ZeroShotAlgo,
                          cfg: TrainConfig,
                          fill_fraction: float = 1.0) -> RatingsDataset:
    """Densify the training matrix: add rounded zero-shot predictions for a
    seed-determined uniform sample of round(fill_fraction * |train|)
    unobserved cells."""
    if len(train) == 0:
        raise ValueError("train set is empty")
    if not (0.0 < fill_fraction <= 1.0):
        raise ValueError("fill_fraction must be in (0, 1]")
    zs_model = train_zeroshot(algo, train.n_users, train.n_items, cfg)
    predictor = ZeroShotPredictor(zs_model, train.r_max, cfg.eps_floor)

    n_fill = int(round(fill_fraction * len(train)))
    n_fill = min(n_fill, train.n_users * train.n_items - len(train))
    rng = np.random.default_rng(cfg.seed)
    taken = set(train.keys().tolist())
    users, items = [], []
    while len(users) < n_fill:
        u = int(rng.integers(0, train.n_users))
        j = int(rng.integers(0, train.n_items))
        key = u * train.n_items + j
        if key in taken:
            continue
        taken.add(key)
        users.append(u)
        items.append(j)
    users, items = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    # predictions lie in [1, r_max]; rint rounds halves to even, as round() does
    values = np.rint(predictor.predict_many(users, items)).astype(np.int64)
    users = np.concatenate([train.users, users])
    items = np.concatenate([train.items, items])
    values = np.concatenate([train.values, values])
    return RatingsDataset.from_columns(users, items, values, train.n_users,
                                       train.n_items, train.r_max)


def hybrid_train(train: RatingsDataset, algo: ZeroShotAlgo, cfg: TrainConfig,
                 fill_fraction: float = 1.0,
                 mf_cfg: Optional[TrainConfig] = None) -> FactorModel:
    """Sparsity-mitigation hybrid: densify the training matrix with
    zero-shot predictions, then fit plain matrix factorization on the
    augmented data.

    cfg drives the zero-shot stage; mf_cfg (default: cfg) the MF stage.
    The stages want different learning rates, PoissonMat especially.
    """
    augmented = augment_with_zeroshot(train, algo, cfg, fill_fraction)
    return mf_train(augmented, mf_cfg if mf_cfg is not None else cfg)
