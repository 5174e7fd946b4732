import json
import warnings

import numpy as np
import pytest

from reclab import core
from reclab.cli import run_bench
from reclab.core import R_MAX, DatasetError, RatingsDataset, TrainingError
from reclab.evaluation import Predictor, RandomPredictor, mae
from reclab.ingest import (MovieLensFormat, SplitSpec, generate_zipf,
                           parse_movielens, split, write_movielens)

from conftest import from_rows, rows_of


class CellPredictor(Predictor):
    """A predictor computed cell by cell by fn(u, i)."""

    def __init__(self, fn):
        self.fn = fn

    def scores(self, users, items):
        return np.array([self.fn(u, i) for u, i in zip(users.tolist(), items.tolist())],
                        dtype=np.float64)


def uniform_dataset(n_cells, seed=0):
    rng = np.random.default_rng(seed)
    n_users = 400
    n_items = (n_cells + n_users - 1) // n_users
    ratings = []
    count = 0
    for u in range(n_users):
        for i in range(n_items):
            if count >= n_cells:
                break
            ratings.append((u, i, int(rng.integers(1, R_MAX + 1))))
            count += 1
    return from_rows(ratings, n_users, n_items)


class TestPredictMany:
    def test_scores_bounded_blocks_and_clamps_their_concatenation(self, monkeypatch):
        # a cell takes one float64 unless the predictor says otherwise
        monkeypatch.setattr(core, "BLOCK_BYTES", 56)
        calls = []

        class Spy(Predictor):
            def scores(self, users, items):
                calls.append(len(users))
                return 0.25 * (users * 6 + items) - 1.0

        users, items = np.divmod(np.arange(30), 6)
        got = Spy().predict_many(users.tolist(), items.tolist())
        assert calls == [7, 7, 7, 7, 2]
        # the scores run from -1 to 6.25, so both bounds of the scale clamp
        expected = [min(max(0.25 * k - 1.0, 1.0), R_MAX) for k in range(30)]
        assert got.tolist() == expected

    def test_blocks_hold_the_cells_bytes(self, monkeypatch):
        # in a 48-byte budget: a cell larger than it is a block of its own,
        # and a block may fill it exactly
        monkeypatch.setattr(core, "BLOCK_BYTES", 48)
        calls = []

        class Spy(Predictor):
            def cell_bytes(self, users, items):
                return np.array([8, 8, 200, 8, 8, 8, 40, 40, 8])[items]

            def scores(self, users, items):
                calls.append(items.tolist())
                return np.ones(len(items))

        Spy().predict_many(np.zeros(9, dtype=int), np.arange(9))
        assert calls == [[0, 1], [2], [3, 4, 5], [6], [7, 8]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_is_a_training_error(self, value):
        # the clamp would hide inf as R_MAX, and NaN survives it; overflow
        # on the way there warns nothing
        class Overflowing(Predictor):
            def scores(self, users, items):
                return np.where(items == 3, value, np.full(len(items), 1e300) * 10.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="^Overflowing scored a non-finite value$"):
                Overflowing().predict_many([0, 0, 0, 0], [0, 1, 2, 3])


class TestMae:
    def test_exact_truth_gives_zero(self):
        ds = from_rows([(0, 0, 3), (0, 1, 5)], 1, 2)
        truth = {(u, i): v for u, i, v in rows_of(ds)}
        predictor = CellPredictor(lambda u, i: float(truth[(u, i)]))
        assert mae(predictor, ds) == 0.0

    def test_constant_offset(self):
        ds = from_rows([(0, 0, 2), (0, 1, 4), (1, 0, 3)], 2, 2)
        truth = {(u, i): v for u, i, v in rows_of(ds)}
        predictor = CellPredictor(lambda u, i: truth[(u, i)] + 1.0)
        assert mae(predictor, ds) == pytest.approx(1.0)

    def test_hand_sum(self):
        ds = from_rows([(0, 0, 3), (0, 1, 5)], 1, 2)
        predictor = CellPredictor(lambda u, i: 4.0)
        assert mae(predictor, ds) == pytest.approx(1.0)

    def test_empty_test_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(DatasetError):
            mae(CellPredictor(lambda u, i: 3.0), empty)

    def test_permutation_invariant_over_test_rows(self):
        ds = generate_zipf(30, 30, 300, 1.0, seed=1)
        rev = RatingsDataset(ds.users[::-1], ds.items[::-1], ds.values[::-1],
                             n_users=30, n_items=30)
        predictor = CellPredictor(lambda u, i: 3.0)
        assert mae(predictor, ds) == mae(predictor, rev)

    def test_running_total_in_row_order(self):
        # the oracle adds one row's error at a time, as a Python loop does
        ds = generate_zipf(40, 30, 500, 1.0, seed=3)
        rng = np.random.default_rng(4)
        table = rng.uniform(1.0, 5.0, size=(40, 30))
        predictor = CellPredictor(lambda u, i: float(table[u, i]))
        total = 0.0
        for u, i, v in zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist()):
            one_cell = predictor.predict_many(np.array([u]), np.array([i]))
            total += abs(float(one_cell[0]) - v)
        assert mae(predictor, ds) == total / len(ds)

    def test_bounded_for_clamped_predictor(self):
        ds = generate_zipf(30, 30, 300, 1.0, seed=2)
        predictor = CellPredictor(lambda u, i: 1.0)
        assert 0.0 <= mae(predictor, ds) <= 4.0


class TestRandomBaseline:
    def test_uniform_truth_expectation(self):
        # enumerating all 25 (truth, guess) pairs gives E[MAE] = 40/25 = 1.6
        ds = uniform_dataset(100_000, seed=3)
        assert mae(RandomPredictor(4), ds) == pytest.approx(1.6, abs=0.05)

    def test_constant_truth_expectation(self):
        # truth 3 on a 1..5 scale: (2+1+0+1+2)/5 = 1.2
        ratings = [(u, i, 3) for u in range(250) for i in range(400)]
        ds = from_rows(ratings, 250, 400)
        assert mae(RandomPredictor(5), ds) == pytest.approx(1.2, abs=0.05)

    def test_concentrates_over_seeds(self):
        ds = uniform_dataset(20_000, seed=6)
        maes = [mae(RandomPredictor(s), ds) for s in range(100, 110)]
        assert np.mean(maes) == pytest.approx(1.6, abs=0.02)

    def test_empty_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(DatasetError):
            mae(RandomPredictor(0), empty)


def bench_reports(tmp_path, ds, algorithms, seed):
    """Run the bench comparison on ds with a 0.2 test split; return the
    parsed report files, which are its result, and the test split's size."""
    path = tmp_path / "ratings.data"
    path.write_text(write_movielens(ds))
    config = {"dataset": {"path": str(path), "format": "tab100k"},
              "split": {"test_fraction": 0.2, "seed": seed},
              "algorithms": algorithms}
    assert run_bench(config, tmp_path / "out") is None
    reports = [json.loads(p.read_text())
               for p in sorted((tmp_path / "out").glob("report_seed*.json"))]
    with open(path, "rb") as fh:
        parsed = parse_movielens(fh, MovieLensFormat.TAB_100K)
    _, test = split(parsed.dataset, SplitSpec(test_fraction=0.2, seed=seed))
    return reports, len(test)


class TestCompare:
    def test_random_only(self, tmp_path):
        ds = generate_zipf(20, 20, 100, 1.0, seed=8)
        reports, _ = bench_reports(tmp_path, ds, ["random"], seed=8)
        assert len(reports) == 1
        assert len(reports[0]["rows"]) == 1
        assert reports[0]["rows"][0]["algo"] == "random"

    def test_row_contract(self, tmp_path):
        ds = generate_zipf(20, 20, 100, 1.0, seed=9)
        algorithms = ["zeromat", "random", "dotmat"]
        reports, n_test = bench_reports(tmp_path, ds, algorithms, seed=9)
        report, = reports
        assert [row["algo"] for row in report["rows"]] == algorithms
        assert report["split"] == {"test_fraction": 0.2, "seed": 9}
        for row in report["rows"]:
            assert row["mae"] >= 0.0
            assert row["n"] == n_test
