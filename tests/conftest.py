import os
import tracemalloc

import numpy as np
import pytest

from reclab.cli import BenchConfig
from reclab.core import RatingsDataset
from reclab.ingest import MovieLensFormat, parse_movielens


def make_structured_dataset(n_users=600, n_items=800, n_ratings=40000,
                            seed=7, noise=0.9) -> RatingsDataset:
    """Synthetic stand-in for a MovieLens-style benchmark: planted low-rank
    structure plus user/item biases and calibrated noise, so that a tuned
    factor model reaches the published MAE band."""
    rng = np.random.default_rng(seed)
    mu, d = 3.6, 4
    user_bias = rng.normal(0, 0.4, n_users)
    item_bias = rng.normal(0, 0.4, n_items)
    user_lat = rng.normal(0, 0.3, (n_users, d))
    item_lat = rng.normal(0, 0.3, (n_items, d))
    cells = rng.choice(n_users * n_items, size=n_ratings, replace=False)
    us, js = cells // n_items, cells % n_items
    raw = (mu + user_bias[us] + item_bias[js]
           + np.einsum("ij,ij->i", user_lat[us], item_lat[js])
           + rng.normal(0, noise, n_ratings))
    vals = np.clip(np.rint(raw), 1, 5).astype(int)
    return RatingsDataset(us, js, vals, n_users, n_items)


def from_rows(rows, n_users, n_items) -> RatingsDataset:
    """The dataset of these (user, item, value) rows, given in this order."""
    users, items, values = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return RatingsDataset(users, items, values, n_users, n_items)


def fit_config(**keys) -> BenchConfig:
    """The BenchConfig of a bench config with these top-level keys, to call a
    fit with: its dataset and algorithm list, which no fit reads, are stand-ins."""
    return BenchConfig({"dataset": {"path": "unused"}, "algorithms": ["random"], **keys})


# What one traced call allocates beyond its arrays: numpy's indexing and
# errstate bookkeeping, a few kB whatever the size of the input.
CALL_OVERHEAD = 16 << 10


def traced_peak(call):
    """call()'s result, and the most memory tracemalloc saw it hold above
    what was held when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def rows_of(ds: RatingsDataset) -> list:
    """ds's rows as (user, item, value) tuples, in storage order."""
    return list(zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist()))


@pytest.fixture(scope="session")
def benchmark_dataset() -> RatingsDataset:
    """MovieLens-100K if RECLAB_ML100K points at a u.data file, otherwise
    the structured synthetic surrogate."""
    path = os.environ.get("RECLAB_ML100K")
    if path:
        with open(path, "rb") as fh:
            return parse_movielens(fh, MovieLensFormat.TAB_100K).dataset
    return make_structured_dataset()


@pytest.fixture(scope="session")
def small_dataset() -> RatingsDataset:
    return make_structured_dataset(n_users=120, n_items=150, n_ratings=4000,
                                   seed=11)
