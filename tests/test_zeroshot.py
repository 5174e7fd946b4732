import inspect
import math

import numpy as np
import pytest

from reclab import cli, core
from reclab.core import DatasetError, FactorModel, RatingsDataset, TrainConfig
from reclab.ingest import generate_zipf
from reclab.zeroshot import (EPS_FLOOR, ZeroShotPredictor, augment_with_zeroshot,
                             dotmat_step, poissonmat_step, powermat_step,
                             powermat_train, train_zeroshot, zeromat_step)

from conftest import CALL_OVERHEAD, fit_config, rows_of, traced_peak


class TestStepOracles:
    def test_zeromat_single_step(self):
        # k=1, U=V=[1], p=1: U <- 1 + 0.1*(1 - 2) = 0.9
        u, v = zeromat_step(np.array([1.0]), np.array([1.0]), 0.1)
        assert abs(u[0] - 0.9) < 1e-12
        assert abs(v[0] - 0.9) < 1e-12

    def test_dotmat_fixed_point_at_p_one(self):
        u0, v0 = np.array([0.5, 0.5]), np.array([1.0, 1.0])  # p = 1
        u, v = dotmat_step(u0, v0, 0.3)
        assert np.array_equal(u, u0)
        assert np.array_equal(v, v0)

    def test_dotmat_half_step_magnitude(self):
        gamma = 0.07
        u, _ = dotmat_step(np.array([0.5]), np.array([1.0]), gamma)
        expected_delta = -gamma * (0.5 ** 0.5) * (1.0 + math.log(0.5))
        assert abs((u[0] - 0.5) - expected_delta) < 1e-12
        # spec-level magnitude: ~ -0.21700 * gamma
        assert abs((u[0] - 0.5) / gamma + 0.21700) < 1e-4

    def test_poissonmat_unit_coefficient_at_p_one(self):
        gamma = 0.11
        v0 = np.array([0.25, 0.75])
        u0 = np.array([1.0, 1.0])
        # scale u so p = 1
        u0 = u0 / float(u0 @ v0)
        u, _ = poissonmat_step(u0, v0, gamma)
        assert np.max(np.abs((u - u0) + gamma * v0)) < 1e-12

    def test_poissonmat_coefficient_at_e(self):
        # ((e+1)/e + 1 - 1) = 1 + 1/e
        p = math.e
        u0 = np.array([p])
        v0 = np.array([1.0])
        gamma = 1.0
        u, _ = poissonmat_step(u0, v0, gamma)
        assert abs((u0[0] - u[0]) - (1.0 + 1.0 / math.e)) < 1e-12

    def test_powermat_beta_step(self):
        u0, v0 = np.array([2.0]), np.array([1.0])  # p = 2
        gamma = 0.05
        _, _, _, beta = powermat_step(u0, v0, np.array([0.3]), 0.5,
                                      np.array([1.0]), gamma)
        assert abs(beta - (0.5 - 4.0 * gamma)) < 1e-12

    def test_steps_use_pre_update_vectors(self):
        u0, v0 = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        u, v = zeromat_step(u0, v0, 0.1)
        p = float(u0 @ v0)
        assert np.allclose(v, v0 + 0.1 * (u0 / p - 2 * v0), atol=1e-15)


def _cfg(**kw):
    defaults = dict(gamma=0.002, k=4, epochs=2, seed=5, samples_per_epoch=500)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainers:
    @pytest.mark.parametrize("rule", [
        pytest.param(zeromat_step, id="zeromat_train"),
        pytest.param(dotmat_step, id="dotmat_train"),
        pytest.param(poissonmat_step, id="poissonmat_train")])
    def test_zero_gamma_keeps_initialization(self, rule):
        cfg = _cfg(gamma=0.0)
        model = train_zeroshot(rule, 30, 20, cfg)
        rng = np.random.default_rng(cfg.seed)
        expected_u = rng.uniform(cfg.init_lo, cfg.init_hi, size=(30, 4)) / 2.0
        expected_v = rng.uniform(cfg.init_lo, cfg.init_hi, size=(20, 4)) / 2.0
        assert np.array_equal(model.U, expected_u)
        assert np.array_equal(model.V, expected_v)

    @pytest.mark.parametrize("rule", [zeromat_step, dotmat_step, poissonmat_step])
    def test_equal_seeds_bit_identical(self, rule):
        cfg = _cfg(gamma=2e-5 if rule is poissonmat_step else 0.002)
        a = train_zeroshot(rule, 25, 30, cfg)
        b = train_zeroshot(rule, 25, 30, cfg)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    def test_rating_values_are_structurally_ignored(self):
        # trainers only see the shape, so two datasets differing in every
        # rating value produce the same model
        cfg = _cfg()
        a = train_zeroshot(zeromat_step, 25, 30, cfg)
        b = train_zeroshot(zeromat_step, 25, 30, cfg)
        assert np.array_equal(a.U, b.U)

    def test_positive_factors_stay_finite(self):
        for rule, gamma in ((zeromat_step, 0.002), (dotmat_step, 0.005),
                            (poissonmat_step, 2e-5)):
            model = train_zeroshot(rule, 40, 50, _cfg(gamma=gamma, epochs=3))
            assert np.isfinite(model.U).all() and np.isfinite(model.V).all()


class TestPowerMat:
    N_USERS, N_ITEMS = 10, 12

    def columns(self, seed=0, n=60, d=3):
        """(users, items, contexts) of n distinct random cells, and the
        ratings that go with them in a parse."""
        rng = np.random.default_rng(seed)
        users, items, contexts, values = [], [], [], []
        seen = set()
        while len(users) < n:
            u = int(rng.integers(0, self.N_USERS))
            j = int(rng.integers(0, self.N_ITEMS))
            if (u, j) in seen:
                continue
            seen.add((u, j))
            users.append(u)
            items.append(j)
            contexts.append([float(rng.integers(0, 4)) for _ in range(d)])
            values.append(int(rng.integers(1, 6)))
        return np.array(users), np.array(items), np.array(contexts), np.array(values)

    def train(self, users, items, contexts, cfg):
        return powermat_train(users, items, contexts, cfg, self.N_USERS, self.N_ITEMS)

    def test_grid_whose_cell_keys_would_wrap_rejected(self):
        # rows are ordered by cell key, checked before any factor is drawn
        with pytest.raises(DatasetError, match="overflows int64 cell keys"):
            powermat_train([0], [0], [[1.0]], _cfg(), 2 ** 32, 2 ** 32)

    def test_zero_gamma_keeps_initialization(self):
        cfg = _cfg(gamma=0.0)
        model = self.train(*self.columns()[:3], cfg)
        rng = np.random.default_rng(cfg.seed)
        expected_u = rng.uniform(cfg.init_lo, cfg.init_hi, size=(10, 4)) / 2.0
        expected_v = rng.uniform(cfg.init_lo, cfg.init_hi, size=(12, 4)) / 2.0
        assert np.array_equal(model.U, expected_u)
        assert np.array_equal(model.V, expected_v)

    def test_rating_values_never_read(self, monkeypatch):
        # no parameter can carry a rating: ids, contexts, sizes and settings
        assert list(inspect.signature(powermat_train).parameters) == [
            "users", "items", "contexts", "cfg", "n_users", "n_items"]
        # and the registry's fit passes none on: two datasets that differ only
        # in their ratings train one model
        users, items, contexts, values = self.columns()
        models = []
        monkeypatch.setattr(cli, "powermat_train",
                            lambda *a, **kw: models.append(powermat_train(*a, **kw)) or models[-1])
        for vals in (values, 1 + (values % 5)):
            dataset = RatingsDataset(users, items, vals, self.N_USERS, self.N_ITEMS, contexts)
            cli.REGISTRY["powermat"].fit("powermat", fit_config(train={"powermat": {"epochs": 3}}),
                                         dataset, 7)
        a, b = models
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    def test_invariant_to_context_row_order(self):
        cfg = _cfg(gamma=0.0005, epochs=2)
        users, items, contexts, _ = self.columns()
        a = self.train(users, items, contexts, cfg)
        b = self.train(users[::-1], items[::-1], contexts[::-1], cfg)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    @pytest.mark.parametrize("contexts", [np.ones((1, 2)), np.ones(2), np.ones((2, 1, 1))],
                             ids=["one-row-short", "one-dimensional", "three-dimensional"])
    def test_context_dimension_mismatch_rejected(self, contexts):
        with pytest.raises(ValueError, match="one row per"):
            self.train(np.array([0, 0]), np.array([0, 1]), contexts, _cfg())

    @pytest.mark.parametrize("column, bad", [("user_id", -1), ("user_id", N_USERS),
                                             ("item_id", -1), ("item_id", N_ITEMS)])
    def test_id_off_the_grid_rejected(self, column, bad):
        # neither wraps around (-1) nor is an IndexError (n_users)
        users, items, contexts, _ = self.columns(n=5)
        (users if column == "user_id" else items)[3] = bad
        with pytest.raises(ValueError, match=rf"^{column} {bad} outside \[0, \d+\] at row 3$"):
            self.train(users, items, contexts, _cfg())

    def test_empty_contexts_rejected(self):
        with pytest.raises(ValueError, match="^contexts is empty$"):
            self.train(np.array([], dtype=int), np.array([], dtype=int), np.ones((0, 2)), _cfg())


class TestZeroShotPredict:
    def model(self):
        U = np.array([[1.0, 0.0], [0.5, 0.5]])
        V = np.array([[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]])
        return FactorModel(U=U, V=V)

    def test_row_maximum_predicts_r_max(self):
        assert ZeroShotPredictor(self.model()).predict_many([0], [0])[0] == 5.0

    def test_half_of_row_maximum(self):
        predictor = ZeroShotPredictor(self.model())
        assert predictor.predict_many([0], [1])[0] == pytest.approx(2.5)

    def test_degenerate_equal_row(self):
        model = FactorModel(U=np.array([[1.0]]),
                            V=np.array([[0.3], [0.3], [0.3]]))
        predictor = ZeroShotPredictor(model)
        for i in range(3):
            assert predictor.predict_many([0], [i])[0] == 5.0

    def test_class_matches_function(self):
        # oracle: R_MAX * (U_u . V_i) / max(max_j U_u . V_j, EPS_FLOOR), clamped
        model = self.model()
        predictor = ZeroShotPredictor(model)
        for u in range(2):
            row = model.U[u] @ model.V.T
            expected = np.clip(5 * row / max(row.max(), EPS_FLOOR), 1.0, 5.0)
            for i in range(3):
                assert predictor.predict_many([u], [i])[0] == expected[i]

    def test_row_maximum_is_floored(self):
        # every score of user 0 is negative, so its row maximum is EPS_FLOOR
        # and each prediction clamps to 1; user 1's row is untouched
        model = FactorModel(U=np.array([[-1.0], [1.0]]), V=np.array([[0.5], [2.0]]))
        predictor = ZeroShotPredictor(model)
        assert predictor.row_max.tolist() == [EPS_FLOOR, 2.0]
        assert predictor.predict_many([0, 0, 1, 1], [0, 1, 0, 1]).tolist() == [1.0, 1.0, 1.25, 5.0]

    def test_output_always_on_scale(self):
        model = train_zeroshot(dotmat_step, 20, 30, _cfg(gamma=0.005))
        predictor = ZeroShotPredictor(model)
        for u in range(20):
            for i in range(30):
                assert 1.0 <= predictor.predict_many([u], [i])[0] <= 5.0

    @pytest.mark.parametrize("k", [4, 10, 100])
    def test_memory_is_bounded_by_one_block(self, k):
        # At the MovieLens-1M shape the row maxima take one block of users'
        # scores at a time, not the 179 MB score matrix. Scoring 200k cells
        # takes one block of cells' gathers at a time, whatever the k: all of
        # them at once would take 32 MB at k 10 and 320 MB at k 100.
        rng = np.random.default_rng(5)
        model = FactorModel(U=rng.uniform(0, 1, (6040, k)), V=rng.uniform(0, 1, (3706, k)))
        predictor, peak = traced_peak(lambda: ZeroShotPredictor(model))
        assert peak <= predictor.row_max.nbytes + core.BLOCK_BYTES + CALL_OVERHEAD
        users, items = rng.integers(0, 6040, 200_000), rng.integers(0, 3706, 200_000)
        preds, peak = traced_peak(lambda: predictor.predict_many(users, items))
        assert peak <= preds.nbytes + core.BLOCK_BYTES + CALL_OVERHEAD


def loop_fill(train, predictor, seed):
    """The fill one scalar (user, item) draw pair at a time: a cell is kept
    at its first draw unless it is in train or kept already."""
    n_fill = min(len(train), train.n_users * train.n_items - len(train))
    rng = np.random.default_rng(seed)
    taken = set(train.keys().tolist())
    users, items = [], []
    while len(users) < n_fill:
        u = int(rng.integers(0, train.n_users))
        j = int(rng.integers(0, train.n_items))
        if u * train.n_items + j in taken:
            continue
        taken.add(u * train.n_items + j)
        users.append(u)
        items.append(j)
    users, items = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    return users, items, np.rint(predictor.predict_many(users, items)).astype(np.int64)


class CellPredictor:
    """A stand-in predictor: a fixed score in [1, 5] per cell, no grid-sized state."""

    def predict_many(self, users, items):
        return 1.0 + (users * 7 + items * 3) % 9 / 2.0


def _grid_train(n_users, n_items, cells):
    users, items = np.divmod(np.asarray(cells, dtype=np.int64), n_items)
    return RatingsDataset(users, items, np.full(len(users), 3), n_users, n_items)


class TestHybrid:
    """augment_with_zeroshot fills from a fitted predictor; the hybrids'
    composition is tested through the registry in test_cli.py."""

    @pytest.mark.parametrize("train", [
        pytest.param(generate_zipf(60, 80, 300, 1.0, seed=41), id="sparse"),
        # every free cell is filled, over several chunks of draws
        pytest.param(_grid_train(40, 40, [c for c in range(1600) if c % 5]), id="dense"),
        pytest.param(_grid_train(7, 3, range(0, 21, 2)), id="dense-7x3"),
        # half the grid taken: every free cell is filled
        pytest.param(_grid_train(60, 60, range(0, 3600, 2)), id="half-60x60"),
        # 1,799 of the 1,800 free cells are filled
        pytest.param(_grid_train(59, 61, range(0, 3598, 2)), id="all-but-one-59x61"),
        pytest.param(generate_zipf(3, 500, 400, 1.0, seed=43), id="non-square"),
        # a bound of 1 draws nothing from the stream
        pytest.param(_grid_train(1, 40, range(0, 40, 3)), id="one-user"),
        # a bound above 2**31 draws from the same stream
        pytest.param(_grid_train(2, 2**31 + 5, [0, 2**31 + 9]), id="wide"),
    ])
    def test_fill_equals_the_scalar_draw_loop(self, train):
        augmented = augment_with_zeroshot(train, CellPredictor(), 17)
        users, items, values = loop_fill(train, CellPredictor(), 17)
        assert len(augmented) == len(train) + len(users) > len(train)
        filled = zip(users.tolist(), items.tolist(), values.tolist())
        assert rows_of(augmented) == sorted([*rows_of(train), *filled])

    @staticmethod
    def _predictor(train, rule, cfg):
        model = train_zeroshot(rule, train.n_users, train.n_items, cfg)
        return ZeroShotPredictor(model)

    def test_augmented_size_arithmetic(self):
        train = generate_zipf(30, 30, 300, 1.0, seed=21)
        predictor = self._predictor(train, zeromat_step, _cfg())
        augmented = augment_with_zeroshot(train, predictor, 5)
        assert len(augmented) == 300 + 300
        assert set(train.keys().tolist()) <= set(augmented.keys().tolist())

    @pytest.mark.parametrize("rule", [zeromat_step, dotmat_step, poissonmat_step])
    def test_augmented_columns_equal_per_cell_reference(self, rule):
        # the oracle draws, rejects and scores one cell at a time
        train = generate_zipf(25, 30, 400, 1.0, seed=26)
        cfg = _cfg(gamma={poissonmat_step: 2e-5}.get(rule, 0.005))
        predictor = ZeroShotPredictor(
            train_zeroshot(rule, train.n_users, train.n_items, cfg))
        augmented = augment_with_zeroshot(train, predictor, cfg.seed)
        rng = np.random.default_rng(cfg.seed)
        taken = set(train.keys().tolist())
        filled = []
        while len(filled) < min(len(train), 25 * 30 - len(train)):
            u = int(rng.integers(0, train.n_users))
            j = int(rng.integers(0, train.n_items))
            if u * train.n_items + j in taken:
                continue
            taken.add(u * train.n_items + j)
            value = int(round(predictor.predict_many([u], [j])[0]))
            filled.append((u, j, min(max(value, 1), 5)))
        assert rows_of(augmented) == sorted([*rows_of(train), *filled])

    def test_filled_values_are_integers_on_scale(self):
        train = generate_zipf(20, 20, 150, 1.0, seed=23)
        predictor = self._predictor(train, poissonmat_step, _cfg(gamma=2e-5))
        augmented = augment_with_zeroshot(train, predictor, 5)
        new = set(rows_of(augmented)) - set(rows_of(train))
        assert len(new) == 150
        assert all(1 <= v <= 5 for u, i, v in new)

    def test_empty_train_rejected(self):
        empty = RatingsDataset([], [], [], n_users=2, n_items=2)
        with pytest.raises(ValueError, match="^train set is empty$"):
            augment_with_zeroshot(empty, CellPredictor(), 5)
