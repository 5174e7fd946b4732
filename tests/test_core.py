import itertools
import math

import numpy as np
import pytest

from reclab.core import DatasetError, FactorModel, RatingsDataset, TrainConfig


class TestRatingsDataset:
    def test_valid_construction(self):
        ds = RatingsDataset([0, 0], [0, 1], [5, 3], n_users=1, n_items=2)
        assert len(ds) == 2
        assert ds.global_mean() == 4.0

    @pytest.mark.parametrize("columns, n_users, message", [
        (([0], [0], [3]), -1, "n_users and n_items must be nonnegative"),
        (([0, 1], [0], [3, 4]), 2, "user, item and value columns differ in length"),
        (([0], [0], [3.5]), 1, "user ids, item ids and values must be integers"),
    ], ids=["negative-size", "ragged", "fractional-value"])
    def test_rejects_malformed_columns(self, columns, n_users, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            RatingsDataset(*columns, n_users=n_users, n_items=1)

    def test_empty_dataset_has_no_mean(self):
        with pytest.raises(DatasetError, match="^empty dataset has no mean$"):
            RatingsDataset([], [], [], n_users=1, n_items=1).global_mean()

    def test_rejects_out_of_range_value(self):
        with pytest.raises(DatasetError):
            RatingsDataset([0], [0], [6], n_users=1, n_items=1)
        with pytest.raises(DatasetError):
            RatingsDataset([0], [0], [0], n_users=1, n_items=1)

    def test_rejects_duplicate_cell(self):
        with pytest.raises(DatasetError):
            RatingsDataset([0, 0], [0, 0], [3, 4], n_users=1, n_items=1)

    def test_duplicate_error_names_the_smallest_repeated_cell(self):
        # cells (1, 0) and (0, 1) both repeat, the larger one first
        with pytest.raises(DatasetError, match=r"^duplicate rating for cell \(0, 1\)$"):
            RatingsDataset([1, 1, 0, 0], [0, 0, 1, 1], [3, 4, 5, 2], n_users=2, n_items=2)

    def test_rejects_index_out_of_bounds(self):
        with pytest.raises(DatasetError):
            RatingsDataset([2], [0], [3], n_users=2, n_items=1)
        with pytest.raises(DatasetError):
            RatingsDataset([0], [5], [3], n_users=1, n_items=5)

    def test_rejects_grid_whose_cell_keys_would_collide(self):
        # user 2**24's key 2**64 would wrap to user 0's key 0 in int64
        with pytest.raises(DatasetError,
                           match=f"^a {2 ** 30}x{2 ** 40} grid overflows int64 cell keys$"):
            RatingsDataset([0, 2 ** 24], [0, 0], [1, 1], 2 ** 30, 2 ** 40)

    @pytest.mark.parametrize("n_users, n_items", [(4, 2 ** 62),
                                                  (np.int64(4), np.int64(2 ** 62))])
    def test_rejects_grid_whose_cell_keys_would_go_negative(self, n_users, n_items):
        # user 3's key 3 * 2**62 would wrap negative in int64, and the int64
        # product of numpy sizes wraps to 0
        with pytest.raises(DatasetError, match=f"^a 4x{2 ** 62} grid overflows int64 cell keys$"):
            RatingsDataset([0, 3], [0, 0], [1, 1], n_users, n_items)

    def test_grid_bound_is_2_to_the_63_cells(self):
        ds = RatingsDataset([0], [2 ** 63 - 2], [1], n_users=1, n_items=2 ** 63 - 1)
        assert ds.keys().tolist() == [2 ** 63 - 2]
        with pytest.raises(DatasetError, match="grid overflows int64 cell keys"):
            RatingsDataset([0], [0], [1], n_users=1, n_items=2 ** 63)

    def test_rows_are_stored_in_cell_key_order(self):
        # (user, item, value, context) rows, listed here in cell-key order
        rows = [(0, 0, 4, 0.5), (0, 1, 3, 1.5), (1, 0, 2, 2.5), (1, 1, 5, 3.5)]
        for order in itertools.permutations(rows):
            users, items, values, contexts = zip(*order)
            ds = RatingsDataset(users, items, values, n_users=2, n_items=2,
                                contexts=[[c] for c in contexts])
            assert (np.diff(ds.keys()) > 0).all()
            assert ds.users.tolist() == [0, 0, 1, 1]
            assert ds.items.tolist() == [0, 1, 0, 1]
            assert ds.values.tolist() == [4, 3, 2, 5]
            assert ds.contexts.ravel().tolist() == [0.5, 1.5, 2.5, 3.5]
            columns = (ds.users, ds.items, ds.values, ds.contexts)
            assert not any(c.flags.writeable for c in columns)


class TestFactorModel:
    def test_immutable_matrices(self):
        model = FactorModel(U=np.ones((2, 2)), V=np.ones((2, 2)))
        with pytest.raises(ValueError):
            model.U[0, 0] = 5.0

    @pytest.mark.parametrize("U, V", [
        (np.ones((2, 3)), np.ones((2, 2))),
        (np.ones(3), np.ones((2, 3))),
        (np.ones((2, 3)), np.ones((2, 3, 1))),
    ], ids=["row-lengths-differ", "1-d-U", "3-d-V"])
    def test_shape_mismatch_rejected(self, U, V):
        with pytest.raises(ValueError):
            FactorModel(U=U, V=V)


@pytest.mark.parametrize("writable", [False, True], ids=["read-only", "writable"])
def test_read_only_owning_arrays_are_kept(writable):
    # a dataset's columns and a model's factors are kept as given when they
    # are read-only and own their data, and copied when they are writable
    columns = np.array([0, 1]), np.array([1, 0]), np.array([4, 2])
    factors = np.ones((2, 3)), np.full((2, 3), 0.5)
    for given in (*columns, *factors):
        given.setflags(write=writable)
    ds = RatingsDataset(*columns, n_users=2, n_items=2)
    model = FactorModel(*factors)
    kept = ds.users, ds.items, ds.values, model.U, model.V
    assert [np.shares_memory(k, given) for k, given in zip(kept, (*columns, *factors))] \
        == [not writable] * 5
    assert not any(k.flags.writeable for k in kept)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize("kwargs", [
        {"gamma": -0.1},
        {"k": 0},
        {"epochs": 0},
        {"gamma": math.nan},
        {"init_lo": 0.9, "init_hi": 0.1},
        {"init_lo": 0.0},
        {"seed": -1},
        {"init_hi": "0.9"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
