"""Classic data-consuming baselines: item-based CF and SGD matrix
factorization, plus the SGD epoch loop that every factor trainer shares."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .core import (FactorModel, RatingsDataset, TrainConfig, TrainingError, _frozen, _readonly,
                   blocks, row_dot)
from .evaluation import Predictor


class SimilarityKind(Enum):
    COSINE = "cosine"
    ADJUSTED_COSINE = "adjusted_cosine"


# The bytes item-CF holds per (rating, rating) pair it materializes, when it
# builds similarities and when it predicts: measured at 60 to 95, within 12
# int64 or float64 values. Its loops cut `core.blocks` by it.
PAIR_BYTES = 96
# How many of a user's rated items, the most similar first, item-CF averages.
NEIGHBORHOOD_SIZE = 20


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric item-item similarity scores of the co-rated pairs, each
    stored once: scores[k] is the score of (i, j) and of (j, i), where
    keys[k] = i * n_items + j and i <= j. The keys are strictly increasing
    and only nonzero scores are stored; every absent pair scores 0. The
    diagonal is never used for neighbor selection. Read-only int64 keys and
    float64 scores that own their data are kept, anything else copied read-only.
    """

    n_items: int
    keys: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        keys, scores = _readonly(self.keys, np.int64), _readonly(self.scores)
        if keys.ndim != 1 or keys.shape != scores.shape:
            raise ValueError("keys and scores must be 1-d and of one length")
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("keys must be strictly increasing")
        # no key in [i * n_items, i * (n_items + 1)), row i's part below the diagonal
        edges = (np.arange(self.n_items)[:, None] * [self.n_items, self.n_items + 1]).ravel()
        if np.diff(np.searchsorted(keys, edges))[::2].any():
            raise ValueError("keys must lie on or above the diagonal, i <= j")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "scores", scores)

    def lookup(self, i, j) -> np.ndarray:
        """The scores of the pairs (i[k], j[k]); 0.0 for a pair not stored."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        query = np.minimum(i, j) * self.n_items + np.maximum(i, j)
        if not len(self.keys):
            return np.zeros(query.shape)
        pos = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        return np.where(self.keys[pos] == query, self.scores[pos], 0.0)


def _expand(starts: np.ndarray, lengths: np.ndarray):
    """The ranges starts[k]:starts[k] + lengths[k], concatenated, as
    (owner, position): position runs through each range and owner is its k."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    offsets = np.cumsum(lengths) - lengths
    return owner, np.arange(len(owner)) - offsets[owner] + starts[owner]


def item_similarities(train: RatingsDataset, kind: SimilarityKind) -> SimilarityMatrix:
    """Item-item similarities of every co-rated pair.

    COSINE treats each item's column of the rating matrix (0 for missing)
    as its vector. ADJUSTED_COSINE first subtracts each user's mean rating
    and restricts norms to the co-rating users. Pairs without co-raters
    score 0 and are not stored.

    Each rating is paired with its user's ratings of items from its own
    on, a block of anchor items at a time, so each pair (i, j), i <= j, is
    summed once, from anchor i, in user order. Memory grows with the number
    of co-rated pairs, not with n_users * n_items. Cosine numerators and
    norms are sums of integers, so they are exact.
    """
    if len(train) == 0:
        raise ValueError("train set is empty")
    n_items = train.n_items
    users, items, values = train.users, train.items, train.values
    # user u's ratings are bounds[u]:bounds[u + 1], ascending by item
    bounds = np.searchsorted(users, np.arange(train.n_users + 1))
    ahead = bounds[users + 1] - np.arange(len(users))  # rating r pairs with r:bounds[users[r] + 1]
    adjusted = kind is SimilarityKind.ADJUSTED_COSINE
    if adjusted:
        sums = np.bincount(users, weights=values, minlength=train.n_users)
        values = values - (sums / np.maximum(np.diff(bounds), 1))[users]
    else:
        norms = np.sqrt(np.bincount(items, weights=values ** 2, minlength=n_items))

    # anchors: the ratings ordered by (item, user); item i's are
    # anchors[item_bounds[i]:item_bounds[i + 1]]
    anchors = np.argsort(items, kind="stable")
    item_bounds = np.searchsorted(items[anchors], np.arange(n_items + 1))
    pairs_per_item = np.bincount(items, weights=ahead, minlength=n_items)

    # The store grows block by block in its final arrays. resize
    # reallocates, in place where the allocator can (glibc remaps a large
    # block's pages), so the store is not held twice.
    keys = np.empty(0, dtype=np.int64)
    scores = np.empty(0, dtype=np.float64)
    for block in blocks(n_items, pairs_per_item * PAIR_BYTES):
        anchor = anchors[item_bounds[block.start]:item_bounds[block.stop]]
        owner, partner = _expand(anchor, ahead[anchor])
        if not len(owner):
            continue
        anchor = anchor[owner]
        # Sorting key * m + position orders by key, then by position, which
        # is user order within each key. Keys count from the block's first
        # item to keep that product far below 2**63. Blocks hold ascending
        # anchor items, so no key occurs in two blocks.
        m = len(anchor)
        local = (items[anchor] - block.start) * n_items + items[partner]
        local, pos = np.divmod(np.sort(local * m + np.arange(m)), m)
        starts = np.flatnonzero(np.concatenate(([True], local[1:] != local[:-1])))
        block_keys = local[starts] + block.start * n_items
        x, y = values[anchor], values[partner]
        num = np.add.reduceat((x * y)[pos], starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            if adjusted:
                block_scores = num / np.sqrt(np.add.reduceat((x * x)[pos], starts)
                                             * np.add.reduceat((y * y)[pos], starts))
            else:
                i, j = np.divmod(block_keys, n_items)
                block_scores = num / (norms[i] * norms[j])
        block_scores[~np.isfinite(block_scores)] = 0.0
        np.clip(block_scores, -1.0, 1.0, out=block_scores)
        stored = block_scores != 0.0
        n = len(keys)
        size = n + int(np.count_nonzero(stored))
        # no view of keys or scores exists, so no reference check is needed
        keys.resize(size, refcheck=False)
        scores.resize(size, refcheck=False)
        keys[n:] = block_keys[stored]
        scores[n:] = block_scores[stored]
    return SimilarityMatrix(n_items, *_frozen(keys, scores))


class CfPredictor(Predictor):
    """Item-based CF: the similarity-weighted average of u's ratings on i's
    NEIGHBORHOOD_SIZE nearest neighbors, or the global train mean when no
    neighbor qualifies."""

    def __init__(self, sims: SimilarityMatrix, train: RatingsDataset):
        self.sims = sims
        self.fallback = train.global_mean()
        self.train = train
        # user u's rated items are train.items[_bounds[u]:_bounds[u + 1]]
        self._bounds = np.searchsorted(train.users, np.arange(train.n_users + 1))

    def cell_bytes(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        # a cell's candidate pairs, and one pair's worth for the cell itself
        return ((np.diff(self._bounds) + 1) * PAIR_BYTES)[users]

    def scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Each cell's candidates are u's rated items j other than i with a
        nonzero score s_ij. The top NEIGHBORHOOD_SIZE of them, most similar
        first and ties to the lower j, give sum(s * r) / sum(|s|), added in
        that order."""
        first = self._bounds[users]
        row, pos = _expand(first, self._bounds[users + 1] - first)
        target, j = items[row], self.train.items[pos]
        s = self.sims.lookup(target, j)
        keep = (j != target) & (s != 0.0)
        row, s, r = row[keep], s[keep], self.train.values[pos][keep]
        # j ascends within each row and lexsort is stable, so this orders by
        # (row, -s, j)
        order = np.lexsort((-s, row))
        row, s, r = row[order], s[order], r[order]
        rank = np.arange(len(row)) - np.searchsorted(row, row)
        top = rank < NEIGHBORHOOD_SIZE
        # bincount adds each row's terms in array order, as the rank order
        num = np.bincount(row[top], weights=(s * r)[top], minlength=len(users))
        den = np.bincount(row[top], weights=np.abs(s[top]), minlength=len(users))
        preds = np.full(len(users), self.fallback)
        return np.divide(num, den, out=preds, where=den > 0)


def init_factors(n_users: int, n_items: int,
                 cfg: TrainConfig) -> Tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """A trainer's generator, seeded by cfg.seed, and the U and V it draws
    first: uniform in [init_lo, init_hi), scaled by 1/sqrt(k)."""
    rng = np.random.default_rng(cfg.seed)
    U = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n_users, cfg.k)) / np.sqrt(cfg.k)
    V = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n_items, cfg.k)) / np.sqrt(cfg.k)
    return rng, U, V


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


def dependency_levels(users: np.ndarray, items: np.ndarray, n_users: int,
                      n_items: int) -> Tuple[np.ndarray, List[slice]]:
    """Group a visit order into dependency levels.

    A step depends on the latest earlier step with its user and the latest
    earlier step with its item, and level(t) = 1 + max(level(prev_user(t)),
    level(prev_item(t))), counting a missing predecessor as level 0. The
    steps of one level share no user and no item, and every step's
    predecessors lie at lower levels, so applying the levels in order, one
    batched update each, does every step's arithmetic on the same values as
    the step-by-step loop (level scheduling, Anderson & Saad 1989). The
    levels are computed one `conflict_free_runs` run at a time, since the
    steps of a run cannot depend on each other.

    Returns a stable argsort of the levels and, for the order it gives, one
    slice per level.
    """
    users, items = np.asarray(users), np.asarray(items)
    # the level of each user's and each item's latest step so far
    user_level = np.zeros(n_users, dtype=np.int64)
    item_level = np.zeros(n_items, dtype=np.int64)
    level = np.empty(len(users), dtype=np.int64)
    for run in conflict_free_runs(users, items):
        u, j = users[run], items[run]
        l = np.maximum(user_level[u], item_level[j])
        l += 1
        level[run] = user_level[u] = item_level[j] = l
    order = np.argsort(level, kind="stable")
    bounds = np.cumsum(np.bincount(level)).tolist()
    return order, [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def sgd_epochs(name: str, U: np.ndarray, V: np.ndarray, epochs: int,
               visit: Callable[[], tuple], step: Callable[..., tuple],
               state: Sequence[np.ndarray] = ()) -> None:
    """The epoch loop of every SGD trainer; updates U and V in place.

    Each epoch, visit() returns the visit order as user and item columns
    and a column of per-step data (a rating, a context row) or None. The
    order is cut into batches of steps that share no user and no item, and
    each batch is one call step(user_rows, item_rows, data_of_the_batch),
    which returns the updated rows. The batches are the `dependency_levels`
    of the order, each a contiguous slice of the columns permuted once.
    state holds further arrays that step updates in place and that every
    step reads, which orders all steps; with state the batches are the
    consecutive `conflict_free_runs` of the order instead. Either way each
    step computes on the same values as in the step-by-step loop. After
    each epoch every entry of U, V and state must be finite, or
    TrainingError names the epoch.
    """
    for epoch in range(epochs):
        us, js, data = visit()
        if state:
            batches = conflict_free_runs(us, js)
        else:
            order, batches = dependency_levels(us, js, len(U), len(V))
            us, js = us[order], js[order]
            data = None if data is None else data[order]
        # overflow surfaces as non-finite entries, checked after each epoch
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in batches:
                u, j = us[batch], js[batch]
                # take: the same rows as U[u], gathered with less overhead
                U[u], V[j] = step(U.take(u, axis=0), V.take(j, axis=0),
                                  None if data is None else data[batch])
        if not all(np.isfinite(a).all() for a in (U, V, *state)):
            raise TrainingError(f"{name} diverged at epoch {epoch}", epoch=epoch)


def mf_train(train: RatingsDataset, cfg: TrainConfig) -> FactorModel:
    """Plain squared-loss matrix factorization fitted by SGD.

    Visits the observed ratings once per epoch in a seed-derived shuffled
    order (independent of the input row order), applying
    U_i += gamma * 2e * V_j and V_j += gamma * 2e * U_i with
    e = R_ij - U_i . V_j. No biases, no regularization. Each of the
    order's `dependency_levels` is one batched update, so the factors equal
    those of visiting the ratings one at a time, bit for bit.
    """
    if len(train) == 0:
        raise ValueError("train set is empty")
    rng, U, V = init_factors(train.n_users, train.n_items, cfg)
    users, items, values = train.users, train.items, train.values

    def visit():
        order = rng.permutation(len(users))
        return users[order], items[order], values[order]

    def step(u_rows, v_rows, r):
        g = (cfg.gamma * 2.0 * (r - row_dot(u_rows, v_rows)))[:, None]
        return u_rows + g * v_rows, v_rows + g * u_rows

    sgd_epochs("mf_train", U, V, cfg.epochs, visit, step)
    return FactorModel(*_frozen(U, V))


class MfPredictor(Predictor):
    """The factor model's dot product U_u . V_i."""

    def __init__(self, model: FactorModel):
        self.model = model

    def cell_bytes(self, users: np.ndarray, items: np.ndarray) -> int:
        # the cell's two gathered rows of k float64s, and its score
        return 8 * (2 * self.model.U.shape[1] + 1)

    def scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return row_dot(self.model.U[users], self.model.V[items])


def mf_loss(train: RatingsDataset, U: np.ndarray, V: np.ndarray) -> float:
    """Sum of squared reconstruction errors over the observed cells."""
    return float(np.sum((train.values - row_dot(U[train.users], V[train.items])) ** 2))


def mf_gradients(train: RatingsDataset, U: np.ndarray, V: np.ndarray):
    """Analytic gradient of mf_loss with respect to (U, V)."""
    users, items, values = train.users, train.items, train.values
    errors = values - row_dot(U[users], V[items])
    grad_u = np.zeros_like(U)
    grad_v = np.zeros_like(V)
    np.add.at(grad_u, users, (-2.0 * errors)[:, None] * V[items])
    np.add.at(grad_v, items, (-2.0 * errors)[:, None] * U[users])
    return grad_u, grad_v
