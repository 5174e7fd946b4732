"""Property tests of the columnar rating store: construction, split,
cell-key order, MovieLens round trip, validation and immutability."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab.core import R_MAX, DatasetError, RatingsDataset
from reclab.ingest import (MovieLensFormat, SplitSpec, parse_movielens, split,
                           write_movielens)

from conftest import from_rows, rows_of

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def row_sets(draw, min_size=0):
    """(rows, n_users, n_items): distinct cells in random order, each row a
    (user, item, value) tuple."""
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 8))
    keys = draw(st.lists(st.integers(0, n_users * n_items - 1), unique=True,
                         min_size=min(min_size, n_users * n_items)))
    values = draw(st.lists(st.integers(1, R_MAX), min_size=len(keys),
                           max_size=len(keys)))
    rows = [(k // n_items, k % n_items, v) for k, v in zip(keys, values)]
    return rows, n_users, n_items


def columns(rows):
    """The user, item and value columns of rows, as lists."""
    return [[row[k] for row in rows] for k in range(3)]


@SETTINGS
@given(row_sets())
def test_constructor_from_lists_and_from_arrays(case):
    rows, n_users, n_items = case
    lists = columns(rows)
    a = RatingsDataset(*lists, n_users, n_items)
    b = RatingsDataset(*map(np.array, lists), n_users, n_items)
    # distinct cells, so (user, item) decides the stored order
    for name, stored in zip(("users", "items", "values"), columns(sorted(rows))):
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype == np.int64
        assert not col_a.flags.writeable and not col_b.flags.writeable
        assert np.array_equal(col_a, col_b)
        assert col_a.tolist() == stored


@SETTINGS
@given(row_sets(min_size=1), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_split_partitions_rows_in_order(case, fraction, seed):
    rows, n_users, n_items = case
    # context row k is (k, -k), so the contexts name the rows they came from
    ds = RatingsDataset(*columns(rows), n_users, n_items,
                        contexts=[(k, -k) for k in range(len(rows))])
    assert rows_of(ds) == [rows[k] for k in ds.contexts[:, 0].astype(int).tolist()]
    n_test = int(round(fraction * len(ds)))
    if n_test in (0, len(ds)):  # a side would be empty: an error naming the split
        side = "test" if n_test == 0 else "train"
        with pytest.raises(DatasetError, match=f"^split seed {seed} with test_fraction "
                                               f".* leaves the {side} side empty$"):
            split(ds, SplitSpec(fraction, seed))
        return
    train, test = split(ds, SplitSpec(fraction, seed))
    assert len(test) == n_test
    assert len(train) + len(test) == len(ds)
    position = {key: k for k, key in enumerate(ds.keys().tolist())}
    for part in (train, test):
        assert (part.n_users, part.n_items) == (n_users, n_items)
        at = [position[key] for key in part.keys().tolist()]
        assert at == sorted(at)
        assert rows_of(part) == [rows_of(ds)[k] for k in at]
        assert part.contexts.tolist() == ds.contexts[at].tolist()
    assert set(train.keys().tolist()).isdisjoint(test.keys().tolist())


@SETTINGS
@given(row_sets())
def test_rows_are_stored_sorted_by_cell(case):
    rows, n_users, n_items = case
    ds = from_rows(rows, n_users, n_items)
    assert (np.diff(ds.keys()) > 0).all()
    assert rows_of(ds) == sorted(rows)  # distinct cells, so (user, item) decides the order


@SETTINGS
@given(row_sets(), st.sampled_from(list(MovieLensFormat)))
def test_movielens_round_trip(case, fmt):
    rows, n_users, n_items = case
    ds = from_rows(rows, n_users, n_items)
    back = parse_movielens(write_movielens(ds, fmt), fmt).dataset
    # The parser numbers ids densely in shortlex order of their text. The
    # written ids u + 1 have no leading zeros, so that is numeric order.
    user_ids = {u: k for k, u in enumerate(sorted({u for u, i, v in rows}))}
    item_ids = {i: k for k, i in enumerate(sorted({i for u, i, v in rows}))}
    assert (back.n_users, back.n_items) == (len(user_ids), len(item_ids))
    assert rows_of(back) == [(user_ids[u], item_ids[i], v) for u, i, v in sorted(rows)]


@SETTINGS
@given(row_sets(min_size=1),
       st.sampled_from(["value", "user", "item", "duplicate"]), st.data())
def test_invalid_rows_rejected(case, kind, data):
    rows, n_users, n_items = case
    k = data.draw(st.integers(0, len(rows) - 1))
    bad = list(rows)
    u, i, v = rows[k]
    if kind == "value":
        bad[k] = (u, i, data.draw(st.sampled_from([0, R_MAX + 1])))
    elif kind == "user":
        bad[k] = (data.draw(st.sampled_from([-1, n_users])), i, v)
    elif kind == "item":
        bad[k] = (u, data.draw(st.sampled_from([-1, n_items])), v)
    else:
        bad.insert(data.draw(st.integers(0, len(rows))),
                   (u, i, data.draw(st.integers(1, R_MAX))))
    with pytest.raises(DatasetError):
        RatingsDataset(*columns(bad), n_users, n_items)
    with pytest.raises(DatasetError):
        RatingsDataset(*map(np.array, columns(bad)), n_users, n_items)


@pytest.mark.parametrize("contexts", [[1.0, 2.0], [[1.0]], [[1.0]] * 3, np.ones((2, 1, 1))],
                         ids=["1-d", "short", "long", "3-d"])
def test_misshapen_contexts_rejected(contexts):
    with pytest.raises(DatasetError, match="^contexts of shape .* do not give one row "
                                           "to each of 2 ratings$"):
        RatingsDataset([0, 1], [1, 0], [3, 5], 2, 2, contexts=contexts)


def test_dataset_is_immutable_and_copies_through_the_validator():
    source = np.array([[1, 2], [3, 4]])
    ds = RatingsDataset([0, 1], [1, 0], [3, 5], 2, 2, contexts=source)
    source[0, 0] = 9  # the dataset keeps its own copy
    assert ds.contexts.dtype == np.float64
    assert RatingsDataset([0], [0], [1], 1, 1).contexts is None
    for name in ("users", "n_items", "contexts", "extra"):
        with pytest.raises(AttributeError):
            setattr(ds, name, 1)
    with pytest.raises(AttributeError):
        del ds.users
    with pytest.raises(ValueError):
        ds.values[0] = 1
    with pytest.raises(ValueError):
        ds.contexts[0, 0] = 1.0
    for clone in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert rows_of(clone) == rows_of(ds)
        assert (clone.n_users, clone.n_items) == (2, 2)
        assert not clone.users.flags.writeable
        assert clone.contexts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not clone.contexts.flags.writeable
