"""Shared domain types: datasets, factor models and configs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

# the rating scale: every rating is an integer in [1, R_MAX]
R_MAX = 5

# Every block loop holds at most this many bytes of per-unit work at a time
# (`blocks`). It bounds memory, not results: each unit's outputs are the same
# in every block. Larger budgets measured no faster, at the MovieLens-1M shape too.
BLOCK_BYTES = 1 << 19


class DatasetError(ValueError):
    """A dataset violates its bounds or uniqueness rules."""


class TrainingError(RuntimeError):
    """Training produced a non-finite factor entry."""

    def __init__(self, message: str, epoch: Optional[int] = None):
        super().__init__(message)
        self.epoch = epoch


def _readonly(a, dtype=np.float64) -> np.ndarray:
    """a itself if it is a read-only ndarray of dtype that owns its data (a
    read-only view may have a writable base); else a read-only copy. Passing
    a read-only array hands it over: the caller keeps no writable view of it."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.owndata and not a.flags.writeable):
        return a
    return _frozen(np.array(a, dtype=dtype))[0]


def _frozen(*columns):
    """columns, fresh arrays no caller holds (or None), made read-only for `_readonly` to keep."""
    for c in columns:
        if c is not None:
            c.setflags(write=False)
    return columns


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (..., k), summed over k by numpy's own
    einsum loop, not by BLAS, so their bits do not depend on the BLAS kernel."""
    return np.einsum("...k,...k->...", a, b)


def blocks(n: int, unit_bytes) -> Iterator[slice]:
    """Cut range(n) into consecutive slices whose units take at most
    BLOCK_BYTES together, or that hold a single unit. unit_bytes is what one
    unit takes: one number for every unit, or a fresh array of one per unit,
    which is overwritten with its running sum, so that no second n-long
    array is held."""
    if np.ndim(unit_bytes) == 0:
        step = max(BLOCK_BYTES // max(int(unit_bytes), 1), 1)
        for start in range(0, n, step):
            yield slice(start, min(start + step, n))
        return
    ends = np.cumsum(unit_bytes, out=unit_bytes)
    start = 0
    while start < n:
        reached = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, reached + BLOCK_BYTES, side="right"))
        yield slice(start, max(stop, start + 1))
        start = max(stop, start + 1)


def _check_range(name: str, column: np.ndarray, lo: int, hi: int) -> None:
    bad = np.flatnonzero((column < lo) | (column > hi))
    if bad.size:
        raise DatasetError(f"{name} {column[bad[0]]} outside [{lo}, {hi}] at row {bad[0]}")


def _check_grid(n_users, n_items) -> None:
    """int64 cell keys user * n_items + item need a grid of under 2^63 cells."""
    if int(n_users) * int(n_items) >= 2 ** 63:  # in Python ints, which cannot wrap
        raise DatasetError(f"a {n_users}x{n_items} grid overflows int64 cell keys")


def first_draws(keys: np.ndarray, n: int, grid: int, draw) -> np.ndarray:
    """n distinct cell keys: `keys`, all distinct, then the first draw of each
    untaken cell of a `grid`-cell grid. A round appends draw(m) keys, m sized
    by the untaken share, so draw must give one stream whatever the m. If 200
    rounds leave keys missing, the rest are the first free cells in row-major order."""
    grid = int(grid)  # in Python ints, so 2 * missing * grid cannot wrap
    for _ in range(200):
        if len(keys) == n:
            return keys
        m = max(-(-2 * (n - len(keys)) * grid // (grid - len(keys))), 1024)
        keys = np.concatenate([keys, draw(m)])
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])[:n]]
    # among the cells below n at most len(keys) are taken
    free = np.setdiff1d(np.arange(n), keys)[:n - len(keys)]
    return np.concatenate([keys, free])


@dataclass(frozen=True, eq=False)
class RatingsDataset:
    """Sparse integer rating triples on an n_users x n_items grid: row k is
    (users[k], items[k], values[k]), a rating in [1, R_MAX], given in
    context contexts[k] unless `contexts` is None.

    The rows are stored once, sorted by cell key (`keys()`, that is by
    (user, item)) whatever order they were given in, as read-only int64
    columns `users`, `items`, `values` and a float64 (rows, d) array
    `contexts`. Duplicate (user, item) cells, out-of-range ids or values and
    misshapen contexts are rejected up front. Immutable after construction.
    Datasets compare by identity; compare their columns to compare rows.
    """

    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    n_users: int
    n_items: int
    contexts: Optional[np.ndarray] = None

    def __post_init__(self):
        n_users, n_items = self.n_users, self.n_items
        if n_users < 0 or n_items < 0:
            raise DatasetError("n_users and n_items must be nonnegative")
        _check_grid(n_users, n_items)
        columns = [np.asarray(c) for c in (self.users, self.items, self.values)]
        if len({c.size for c in columns}) > 1:
            raise DatasetError("user, item and value columns differ in length")
        if any(c.size and c.dtype.kind not in "iu" for c in columns):
            raise DatasetError("user ids, item ids and values must be integers")
        users, items, values = (_readonly(c, np.int64) for c in columns)
        _check_range("rating value", values, 1, R_MAX)
        _check_range("user_id", users, 0, n_users - 1)
        _check_range("item_id", items, 0, n_items - 1)
        contexts = None if self.contexts is None else _readonly(self.contexts)
        if contexts is not None and (contexts.ndim != 2 or len(contexts) != len(values)):
            raise DatasetError(f"contexts of shape {contexts.shape} do not give "
                               f"one row to each of {len(values)} ratings")
        keys = users * n_items + items
        if (keys[1:] <= keys[:-1]).any():  # not yet strictly increasing: sort once
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            twice = keys[1:][keys[1:] == keys[:-1]]
            if len(twice):
                raise DatasetError(f"duplicate rating for cell {divmod(int(twice[0]), n_items)}")
            users, items, values = users[order], items[order], values[order]
            contexts = None if contexts is None else contexts[order]
        # each column is a fresh copy, or read-only already
        for name, column in zip(("users", "items", "values", "contexts"),
                                _frozen(users, items, values, contexts)):
            object.__setattr__(self, name, column)

    def __reduce__(self):
        # copy and pickle rebuild through the validator, so columns stay read-only
        return (RatingsDataset, (self.users, self.items, self.values, self.n_users,
                                 self.n_items, self.contexts))

    def __len__(self) -> int:
        return len(self.values)

    def keys(self) -> np.ndarray:
        """One int64 key per row, user * n_items + item."""
        return self.users * self.n_items + self.items

    def global_mean(self) -> float:
        if not len(self):
            raise DatasetError("empty dataset has no mean")
        return float(np.mean(self.values))


@dataclass(frozen=True)
class FactorModel:
    """Latent factor matrices: row U[i] is user i's vector, V[j] item j's."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = _readonly(self.U)
        V = _readonly(self.V)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise ValueError("U and V must be 2-d with one row length")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every trainer.

    samples_per_epoch only matters for the data-free trainers, which visit
    uniformly sampled grid cells rather than observed ratings.
    """

    gamma: float = 0.005
    k: int = 10
    epochs: int = 30
    seed: int = 42
    init_lo: float = 0.1
    init_hi: float = 0.9
    samples_per_epoch: int = 10000

    def __post_init__(self):
        for name in ("k", "epochs", "seed", "samples_per_epoch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("gamma", "init_lo", "init_hi"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_epoch < 1:
            raise ValueError("samples_per_epoch must be >= 1")
        if not (0 < self.init_lo < self.init_hi):
            raise ValueError("need 0 < init_lo < init_hi")
