"""Property tests of the columnar rating store: construction, split,
canonical order, MovieLens round trip, validation and immutability."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab.core import DatasetError, Rating, RatingsDataset
from reclab.ingest import (MovieLensFormat, SplitSpec, parse_movielens, split,
                           write_movielens)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def row_sets(draw, min_size=0):
    """(rows, n_users, n_items, r_max): distinct cells in random order."""
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 8))
    r_max = draw(st.integers(1, 5))
    keys = draw(st.lists(st.integers(0, n_users * n_items - 1), unique=True,
                         min_size=min(min_size, n_users * n_items)))
    values = draw(st.lists(st.integers(1, r_max), min_size=len(keys),
                           max_size=len(keys)))
    rows = [Rating(k // n_items, k % n_items, v) for k, v in zip(keys, values)]
    return rows, n_users, n_items, r_max


def columns(rows):
    return ([r.user_id for r in rows], [r.item_id for r in rows],
            [r.value for r in rows])


@SETTINGS
@given(row_sets())
def test_row_and_column_constructors_agree(case):
    rows, n_users, n_items, r_max = case
    a = RatingsDataset(ratings=rows, n_users=n_users, n_items=n_items, r_max=r_max)
    b = RatingsDataset.from_columns(*columns(rows), n_users, n_items, r_max)
    for name in ("users", "items", "values"):
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype == np.int64
        assert not col_a.flags.writeable and not col_b.flags.writeable
        assert np.array_equal(col_a, col_b)
    assert a.ratings == b.ratings == tuple(rows)


@SETTINGS
@given(row_sets(min_size=1), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_split_partitions_rows_in_order(case, fraction, seed):
    rows, n_users, n_items, r_max = case
    ds = RatingsDataset(ratings=rows, n_users=n_users, n_items=n_items, r_max=r_max)
    train, test = split(ds, SplitSpec(fraction, seed))
    assert len(test) == int(round(fraction * len(ds)))
    assert len(train) + len(test) == len(ds)
    position = {key: k for k, key in enumerate(ds.keys().tolist())}
    for part in (train, test):
        assert (part.n_users, part.n_items, part.r_max) == (n_users, n_items, r_max)
        at = [position[key] for key in part.keys().tolist()]
        assert at == sorted(at)
        assert part.ratings == tuple(rows[k] for k in at)
    assert set(train.keys().tolist()).isdisjoint(test.keys().tolist())


@SETTINGS
@given(row_sets())
def test_arrays_are_rows_sorted_by_cell(case):
    rows, n_users, n_items, r_max = case
    ds = RatingsDataset(ratings=rows, n_users=n_users, n_items=n_items, r_max=r_max)
    users, items, values = ds.arrays()
    expected = sorted(rows, key=lambda r: (r.user_id, r.item_id))
    assert users.tolist() == [r.user_id for r in expected]
    assert items.tolist() == [r.item_id for r in expected]
    assert values.dtype == np.float64
    assert values.tolist() == [float(r.value) for r in expected]


@SETTINGS
@given(row_sets(), st.sampled_from(list(MovieLensFormat)))
def test_movielens_round_trip(case, fmt):
    rows, n_users, n_items, r_max = case
    ds = RatingsDataset(ratings=rows, n_users=n_users, n_items=n_items, r_max=r_max)
    back = parse_movielens(write_movielens(ds, fmt), fmt).dataset
    # the parser numbers ids densely in order of first appearance
    user_ids, item_ids = {}, {}
    for r in rows:
        user_ids.setdefault(r.user_id, len(user_ids))
        item_ids.setdefault(r.item_id, len(item_ids))
    assert (back.n_users, back.n_items) == (len(user_ids), len(item_ids))
    assert back.users.tolist() == [user_ids[r.user_id] for r in rows]
    assert back.items.tolist() == [item_ids[r.item_id] for r in rows]
    assert back.values.tolist() == [r.value for r in rows]


@SETTINGS
@given(row_sets(min_size=1),
       st.sampled_from(["value", "user", "item", "duplicate"]), st.data())
def test_invalid_rows_rejected(case, kind, data):
    rows, n_users, n_items, r_max = case
    k = data.draw(st.integers(0, len(rows) - 1))
    bad = list(rows)
    r = rows[k]
    if kind == "value":
        bad[k] = Rating(r.user_id, r.item_id, data.draw(st.sampled_from([0, r_max + 1])))
    elif kind == "user":
        bad[k] = Rating(data.draw(st.sampled_from([-1, n_users])), r.item_id, r.value)
    elif kind == "item":
        bad[k] = Rating(r.user_id, data.draw(st.sampled_from([-1, n_items])), r.value)
    else:
        bad.insert(data.draw(st.integers(0, len(rows))),
                   Rating(r.user_id, r.item_id, data.draw(st.integers(1, r_max))))
    with pytest.raises(DatasetError):
        RatingsDataset(ratings=bad, n_users=n_users, n_items=n_items, r_max=r_max)
    with pytest.raises(DatasetError):
        RatingsDataset.from_columns(*columns(bad), n_users, n_items, r_max)


def test_dataset_is_immutable_and_copies_through_the_validator():
    ds = RatingsDataset.from_columns([0, 1], [1, 0], [3, 5], 2, 2, 5)
    for name in ("users", "n_items", "r_max", "extra"):
        with pytest.raises(AttributeError):
            setattr(ds, name, 1)
    with pytest.raises(AttributeError):
        del ds.users
    with pytest.raises(ValueError):
        ds.values[0] = 1
    for clone in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert clone.ratings == ds.ratings
        assert (clone.n_users, clone.n_items, clone.r_max) == (2, 2, 5)
        assert not clone.users.flags.writeable
