"""Data-free cold-start trainers: ZeroMat, DotMat, PoissonMat, PowerMat,
their predictor, and the fill step of the hybrids.

None of the trainers here can read a rating value: no entry point takes
one. The three context-free ones consume only the matrix shape; PowerMat
consumes the id columns of its train rows and their context array.
`augment_with_zeroshot` densifies a train split with a fitted predictor's
fills; `reclab.cli` composes a hybrid from the base algorithm's fit, that
fill and the `mf` fit.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .baselines import MfPredictor, init_factors, sgd_epochs
from .core import (R_MAX, FactorModel, RatingsDataset, TrainConfig, _check_grid, _check_range,
                   _frozen, blocks, first_draws, row_dot)
from .evaluation import Predictor

# The floor of every data-free step rule's dot product p = U_u . V_i and of
# ZeroShotPredictor's row maxima, so that no 1/p or ln p meets zero; DotMat
# also caps p at DOTMAT_P_MAX, so that p**p stays finite.
EPS_FLOOR = 1e-6
DOTMAT_P_MAX = 10.0


# The three shape-only step rules take matching rows u_vec, v_vec of shape
# (..., k): one pair of 1-D vectors, or a batch of pairs that share no user
# and no item. They return the updated rows, computed from the pre-update ones.

def zeromat_step(u_vec: np.ndarray, v_vec: np.ndarray,
                 gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """U += gamma (V/p - 2U), V += gamma (U/p - 2V), with the dot product p
    floored at EPS_FLOOR."""
    p = np.maximum(row_dot(u_vec, v_vec), EPS_FLOOR)[..., None]
    new_u = u_vec + gamma * (v_vec / p - 2.0 * u_vec)
    new_v = v_vec + gamma * (u_vec / p - 2.0 * v_vec)
    return new_u, new_v


def dotmat_step(u_vec: np.ndarray, v_vec: np.ndarray,
                gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """The simplified rule: with p clamped to [EPS_FLOOR, DOTMAT_P_MAX] and
    g = p**p, U -= gamma * g * sign(g - p) * (1 + ln p) * V (and
    symmetrically). p = 1 is an exact fixed point since sign(0) = 0."""
    p = np.minimum(np.maximum(row_dot(u_vec, v_vec), EPS_FLOOR), DOTMAT_P_MAX)
    g = p ** p
    coef = (gamma * g * np.sign(g - p) * (1.0 + np.log(p)))[..., None]
    new_u = u_vec - coef * v_vec
    new_v = v_vec - coef * u_vec
    return new_u, new_v


def poissonmat_step(u_vec: np.ndarray, v_vec: np.ndarray,
                    gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """U -= gamma ((p+1)/p + ln p - 1) V (and symmetrically), with p floored
    at EPS_FLOOR."""
    p = np.maximum(row_dot(u_vec, v_vec), EPS_FLOOR)
    coef = (gamma * ((p + 1.0) / p + np.log(p) - 1.0))[..., None]
    new_u = u_vec - coef * v_vec
    new_v = v_vec - coef * u_vec
    return new_u, new_v


def powermat_step(u_vec: np.ndarray, v_vec: np.ndarray, alpha: np.ndarray,
                  beta: float, context: np.ndarray, gamma: float):
    """Context-driven updates of (U, V, alpha, beta), one per row of u_vec,
    v_vec (..., k) and context (..., d), applied in row order. The rows
    share no user and no item, so each row's part of U and V is computed
    from its pre-update rows, while alpha and beta carry over from row to
    row. The Gaussian priors on U and V have unit variance, so their
    regularization terms are 2U and 2V. Returns the updated rows, and alpha
    and beta after the last row."""
    p = np.maximum(row_dot(u_vec, v_vec), EPS_FLOOR)
    # Row t subtracts gamma p_t (c_t, p_t) from (alpha, beta), and seen[t] is
    # the (alpha, beta) that row t sees. accumulate subtracts in row order,
    # as one row at a time does, so the bits are the same.
    gp = gamma * p
    seen = np.empty((gp.size + 1, len(alpha) + 1))
    seen[0, :-1], seen[0, -1] = alpha, beta
    seen[1:, :-1] = gp[..., None] * context
    seen[1:, -1] = gp * p
    np.subtract.accumulate(seen, out=seen)
    bp = seen[:-1, -1].reshape(np.shape(p)) * p
    bps = (bp + row_dot(seen[:-1, :-1].reshape(np.shape(context)), context))[..., None]
    bp = bp[..., None]
    new_u = u_vec - gamma * (bp * v_vec + bps * v_vec - 2.0 * u_vec)
    new_v = v_vec - gamma * (bp * u_vec + bps * u_vec - 2.0 * v_vec)
    return new_u, new_v, seen[-1, :-1], seen[-1, -1]


def train_zeroshot(rule: Callable[..., tuple], n_users: int, n_items: int,
                   cfg: TrainConfig) -> FactorModel:
    """Train ZeroMat, DotMat or PoissonMat from the matrix shape alone: each
    epoch applies the step rule (`zeromat_step`, `dotmat_step` or
    `poissonmat_step`) to samples_per_epoch uniformly drawn grid cells, in
    draw order. Each of the draws' `dependency_levels` is one batched step,
    which matches stepping one cell at a time up to the last bits of numpy's
    log and power."""
    rng, U, V = init_factors(n_users, n_items, cfg)

    def visit():
        return (rng.integers(0, n_users, size=cfg.samples_per_epoch),
                rng.integers(0, n_items, size=cfg.samples_per_epoch), None)

    def step(u_rows, v_rows, _):
        return rule(u_rows, v_rows, cfg.gamma)

    sgd_epochs("train_zeroshot", U, V, cfg.epochs, visit, step)
    return FactorModel(*_frozen(U, V))


def powermat_train(users: np.ndarray, items: np.ndarray, contexts: np.ndarray,
                   cfg: TrainConfig, n_users: int, n_items: int) -> FactorModel:
    """Train PowerMat on an n_users x n_items grid from the id columns of
    its rows and their contexts, an array with one row per (user, item)
    pair. No rating reaches it.

    Each epoch visits the rows in a seed-derived shuffled order. Each
    run of `conflict_free_runs` over it is one `powermat_step`, so U, V,
    alpha and beta equal those of visiting the rows one at a time. Returns
    the factors; alpha and beta only steer training."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ctx = np.asarray(contexts, dtype=np.float64)
    if not len(users):
        raise ValueError("contexts is empty")
    if ctx.ndim != 2 or not len(users) == len(items) == len(ctx):
        raise ValueError("contexts must be one row per (user, item) pair")
    _check_range("user_id", users, 0, n_users - 1)
    _check_range("item_id", items, 0, n_items - 1)
    _check_grid(n_users, n_items)
    # a stable sort by cell key keeps training invariant to the input row order
    order = np.argsort(users * n_items + items, kind="stable")
    users, items, ctx = users[order], items[order], ctx[order]

    rng, U, V = init_factors(n_users, n_items, cfg)
    # alpha and beta in one array: step writes both in place after each run
    alpha_beta = np.append(rng.uniform(0.0, cfg.init_lo, size=ctx.shape[1]), cfg.init_lo)

    def visit():
        order = rng.permutation(len(users))
        return users[order], items[order], ctx[order]

    def step(u_rows, v_rows, c):
        new_u, new_v, alpha_beta[:-1], alpha_beta[-1] = powermat_step(
            u_rows, v_rows, alpha_beta[:-1], alpha_beta[-1], c, cfg.gamma)
        return new_u, new_v

    sgd_epochs("powermat", U, V, cfg.epochs, visit, step, state=(alpha_beta,))
    return FactorModel(*_frozen(U, V))


class ZeroShotPredictor(MfPredictor):
    """Prediction via the rating-scale-normalized dot-product ratio:
    R_MAX * (U_u . V_i) / max_j(U_u . V_j), that is MfPredictor's score over
    the user's row maximum. `row_max`, each user's maximum floored at
    EPS_FLOOR, is computed from `core.blocks` of users, n_items float64
    scores each, and only the requested cells are scored: memory grows with
    `core.BLOCK_BYTES`, not with n_users * n_items."""

    def __init__(self, model: FactorModel):
        super().__init__(model)
        self.row_max = np.empty(len(model.U))
        for rows in blocks(len(model.U), 8 * len(model.V)):
            # no name holds the block's scores, so they are freed before the next block's
            best = np.einsum("uk,ik->ui", model.U[rows], model.V).max(axis=1)
            np.maximum(best, EPS_FLOOR, out=self.row_max[rows])

    def scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        # the ratio first: a row's maximum cell is max / max = 1, so exactly R_MAX
        return R_MAX * (super().scores(users, items) / self.row_max[users])


def augment_with_zeroshot(train: RatingsDataset, predictor: Predictor,
                          seed: int) -> RatingsDataset:
    """Densify the training matrix: add predictor's rounded predictions for
    min(|train|, free cells) unobserved cells, the first draws of untaken
    cells from the stream seeded with `seed`."""
    if len(train) == 0:
        raise ValueError("train set is empty")
    grid = train.n_users * train.n_items
    n = min(2 * len(train), grid)
    # m draws against [n_users, n_items] tiled m times are the stream of m
    # alternating scalar (user, item) draws, whatever the m; each (u, j) row
    # is the key u * n_items + j. train's keys come first, so their cells stay taken.
    rng = np.random.default_rng(seed)
    draw = lambda m: (rng.integers(0, np.tile([train.n_users, train.n_items], m))
                      .reshape(m, 2) @ [train.n_items, 1])
    users, items = np.divmod(first_draws(train.keys(), n, grid, draw), train.n_items)
    # predictions lie in [1, R_MAX]; rint rounds halves to even, as round() does
    fills = np.rint(predictor.predict_many(users[len(train):], items[len(train):]))
    values = np.concatenate([train.values, fills.astype(np.int64)])
    return RatingsDataset(*_frozen(users, items, values), train.n_users, train.n_items)
