import math

import numpy as np
import pytest

from reclab import baselines, core
from reclab.baselines import (PAIR_BYTES, CfPredictor, MfPredictor, SimilarityKind,
                              SimilarityMatrix, item_similarities,
                              mf_gradients, mf_loss, mf_train)
from reclab.core import (R_MAX, FactorModel, RatingsDataset, TrainConfig, TrainingError,
                         row_dot)
from reclab.ingest import SplitSpec, generate_zipf, split

from conftest import CALL_OVERHEAD, from_rows, rows_of, traced_peak


def clamp_prediction(raw):
    """A raw prediction clamped onto the rating scale [1, R_MAX], one value
    at a time: the oracle for the predictors' vectorized clip."""
    return min(max(float(raw), 1.0), float(R_MAX))


def dense_ratings(train):
    dense = np.zeros((train.n_users, train.n_items))
    dense[train.users, train.items] = train.values
    return dense


def reference_similarities(train, kind):
    """The dense n_items x n_items similarity matrix, built from the dense
    rating matrix as item_similarities once did: the oracle for the sparse
    build."""
    dense = dense_ratings(train)
    rated = dense > 0
    if kind is SimilarityKind.COSINE:
        norms = np.linalg.norm(dense, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (dense.T @ dense) / np.outer(norms, norms)
        sims[~np.isfinite(sims)] = 0.0
    else:
        counts = rated.sum(axis=1)
        user_means = np.divide(dense.sum(axis=1), counts,
                               out=np.zeros(train.n_users), where=counts > 0)
        centered = np.where(rated, dense - user_means[:, None], 0.0)
        num = centered.T @ centered
        sq_on = (centered ** 2).T @ rated.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = num / np.sqrt(sq_on * sq_on.T)
        sims[~np.isfinite(sims)] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def reference_predict(matrix, train, neighborhood_size, u, i):
    """One item-CF prediction from a dense similarity matrix, with a Python
    candidate sort per call as CfPredictor.predict once did: the oracle for
    predict_many."""
    fallback = clamp_prediction(train.global_mean())
    mine = train.users == u
    items = train.items[mine].tolist()
    values = train.values[mine].astype(np.float64).tolist()
    order = sorted(range(len(items)), key=items.__getitem__)
    candidates = [(matrix[i, items[k]], items[k], values[k]) for k in order
                  if items[k] != i and matrix[i, items[k]] != 0.0]
    if not candidates:
        return fallback
    candidates.sort(key=lambda t: (-t[0], t[1]))
    top = candidates[:neighborhood_size]
    num = sum(s * v for s, _, v in top)
    den = sum(abs(s) for s, _, _ in top)
    return clamp_prediction(num / den)


def sims_from_dense(matrix):
    """A SimilarityMatrix holding the nonzero entries on and above the
    diagonal of a symmetric matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    keys = np.flatnonzero(np.triu(matrix))
    return SimilarityMatrix(n_items=len(matrix), keys=keys,
                            scores=matrix.ravel()[keys])


def dense_scores(sims):
    """Every pair's score, as an n_items x n_items matrix."""
    i, j = np.divmod(np.arange(sims.n_items ** 2), sims.n_items)
    return sims.lookup(i, j).reshape(sims.n_items, sims.n_items)


ORACLE_DATASETS = [
    # (n_users, n_items, n_ratings, seed). The last three leave items with
    # no co-raters (Zipf skew) and the last one users with no train rows.
    (30, 15, 250, 6),
    (40, 25, 500, 5),
    (50, 60, 400, 41),
    (12, 40, 90, 42),
    (60, 20, 80, 43),
]


class TestItemSimilarities:
    def test_identical_ratings_give_one(self):
        ds = from_rows([(0, 0, 4), (0, 1, 4), (1, 0, 2), (1, 1, 2),
                      (2, 0, 5), (2, 1, 5)], 3, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.lookup(0, 1) == pytest.approx(1.0)

    def test_no_common_rater_gives_zero(self):
        ds = from_rows([(0, 0, 4), (1, 1, 3)], 2, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.lookup(0, 1) == 0.0

    def test_hand_computed_cross_pair(self):
        # items rated (1,5) and (5,1) by the same two users
        ds = from_rows([(0, 0, 1), (0, 1, 5), (1, 0, 5), (1, 1, 1)], 2, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.lookup(0, 1) == pytest.approx(10.0 / 26.0)

    def test_symmetry_exact(self):
        for shape in ORACLE_DATASETS:
            ds = generate_zipf(*shape[:3], 1.0, seed=shape[3])
            for kind in SimilarityKind:
                scores = dense_scores(item_similarities(ds, kind))
                assert np.array_equal(scores, scores.T)

    def test_cosine_matches_brute_force(self):
        ds = generate_zipf(30, 15, 250, 1.0, seed=6)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        dense = dense_ratings(ds)
        for i in range(15):
            for j in range(15):
                a, b = dense[:, i], dense[:, j]
                dot = float(a @ b)
                expected = dot / (np.linalg.norm(a) * np.linalg.norm(b)) if dot else 0.0
                assert sims.lookup(i, j) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", ORACLE_DATASETS)
    def test_cosine_equals_dense_reference_exactly(self, shape):
        ds = generate_zipf(*shape[:3], 1.0, seed=shape[3])
        sims = item_similarities(ds, SimilarityKind.COSINE)
        reference = reference_similarities(ds, SimilarityKind.COSINE)
        assert np.array_equal(dense_scores(sims), reference)
        # only the nonzero scores on and above the diagonal are stored
        assert len(sims.keys) == np.count_nonzero(np.triu(reference))

    @pytest.mark.parametrize("shape", ORACLE_DATASETS)
    def test_adjusted_cosine_matches_dense_reference(self, shape):
        ds = generate_zipf(*shape[:3], 1.0, seed=shape[3])
        sims = item_similarities(ds, SimilarityKind.ADJUSTED_COSINE)
        reference = reference_similarities(ds, SimilarityKind.ADJUSTED_COSINE)
        scores = dense_scores(sims)
        assert np.abs(scores - reference).max() <= 1e-12
        assert np.array_equal(scores, scores.T)
        assert (sims.scores != 0.0).all()

    @pytest.mark.parametrize("pairs", [3, 50])
    def test_pair_blocks_do_not_change_scores(self, pairs, monkeypatch):
        # 3 pairs' bytes are below one item's pairs, so every item is its own
        # block; 50 pairs' bytes hold several items
        ds = generate_zipf(50, 60, 400, 1.0, seed=41)
        for kind in SimilarityKind:
            whole = item_similarities(ds, kind)
            monkeypatch.setattr(core, "BLOCK_BYTES", pairs * PAIR_BYTES)
            blocked = item_similarities(ds, kind)
            monkeypatch.undo()
            assert np.array_equal(whole.keys, blocked.keys)
            assert np.array_equal(whole.scores, blocked.scores)

    def test_block_of_unrated_items_is_skipped(self, monkeypatch):
        # items 0-4 have no pairs and item 5's 93 pairs alone exceed the
        # budget, so the first block holds items 0-4 and nothing to score
        rows = [(u, j, 1 + (u * (j + 1)) % 5) for u in range(40) for j in (5, 6, 7)
                if j == 5 or (u + j) % 3]
        ds = from_rows(rows, 40, 8)
        for kind in SimilarityKind:
            whole = item_similarities(ds, kind)
            monkeypatch.setattr(core, "BLOCK_BYTES", 20 * PAIR_BYTES)
            blocked = item_similarities(ds, kind)
            monkeypatch.undo()
            assert len(whole.keys) > 0
            assert np.array_equal(whole.keys, blocked.keys)
            assert np.array_equal(whole.scores, blocked.scores)

    def test_empty_train_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(ValueError, match="^train set is empty$"):
            item_similarities(empty, SimilarityKind.COSINE)

    def test_scores_bounded(self):
        ds = generate_zipf(40, 20, 400, 1.0, seed=7)
        for kind in SimilarityKind:
            sims = item_similarities(ds, kind)
            assert (sims.scores >= -1.0).all() and (sims.scores <= 1.0).all()

    def test_adjusted_cosine_centers_users(self):
        # one user rating both items identically: centered vector is zero,
        # so the pair is degenerate and scores 0
        ds = from_rows([(0, 0, 4), (0, 1, 4)], 1, 2)
        sims = item_similarities(ds, SimilarityKind.ADJUSTED_COSINE)
        assert sims.lookup(0, 1) == 0.0
        assert len(sims.keys) == 0 and sims.lookup(1, 1) == 0.0

    def test_all_zero_adjusted_cosine_stores_nothing(self, monkeypatch):
        # every user rates all their items alike, so every centered
        # vector is zero; small blocks make many empty ones
        ds = generate_zipf(40, 30, 300, 1.0, seed=3)
        flat = RatingsDataset(ds.users, ds.items, 1 + ds.users % 5, ds.n_users, ds.n_items)
        monkeypatch.setattr(core, "BLOCK_BYTES", 50 * PAIR_BYTES)
        sims = item_similarities(flat, SimilarityKind.ADJUSTED_COSINE)
        assert len(sims.keys) == len(sims.scores) == 0
        assert not dense_scores(sims).any()

    def test_store_is_built_once(self):
        # the traced peak is the store plus one block's work, not the store
        # held several times over
        ds = generate_zipf(400, 1200, 30_000, 1.0, seed=1)
        sims, peak = traced_peak(lambda: item_similarities(ds, SimilarityKind.COSINE))
        store = sims.keys.nbytes + sims.scores.nbytes
        assert store >= 4_000_000
        assert peak <= 2 * store

    def test_unsorted_keys_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(n_items=2, keys=[3, 1], scores=[0.5, 0.5])

    def test_keys_below_the_diagonal_rejected(self):
        # key 2 is the pair (1, 0): each pair is stored once, as (0, 1)
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(n_items=2, keys=[1, 2], scores=[0.5, 0.5])


class TestSimilarityMatrix:
    @pytest.mark.parametrize("keys, scores", [([1, 3], [0.5]), ([[1, 3]], [[0.5, 0.5]])],
                             ids=["lengths-differ", "2-d"])
    def test_misshapen_arrays_rejected(self, keys, scores):
        with pytest.raises(ValueError, match="^keys and scores must be 1-d and of one length$"):
            SimilarityMatrix(n_items=2, keys=keys, scores=scores)

    def test_read_only_arrays_are_kept(self):
        keys, scores = np.array([1, 3]), np.array([0.5, -0.25])
        keys.setflags(write=False)
        scores.setflags(write=False)
        sims = SimilarityMatrix(n_items=2, keys=keys, scores=scores)
        assert np.shares_memory(sims.keys, keys)
        assert np.shares_memory(sims.scores, scores)
        assert not sims.keys.flags.writeable and not sims.scores.flags.writeable

    @pytest.mark.parametrize("given", ["writable", "list", "read-only view"])
    def test_other_inputs_are_copied(self, given):
        keys, scores = np.array([1, 3]), np.array([0.5, -0.25])
        if given == "list":
            passed = keys.tolist(), scores.tolist()
        elif given == "writable":
            passed = keys, scores
        else:
            # a view is read-only, but its base can still be written
            passed = keys[:], scores[:]
            for view in passed:
                view.setflags(write=False)
        sims = SimilarityMatrix(n_items=2, keys=passed[0], scores=passed[1])
        keys[0], scores[:] = 2, 0.75
        assert sims.lookup([0, 1, 1], [1, 0, 1]).tolist() == [0.5, 0.5, -0.25]
        assert not sims.keys.flags.writeable and not sims.scores.flags.writeable


class TestCfPredict:
    def sims(self, matrix):
        return sims_from_dense(matrix)

    def test_single_neighbor(self):
        train = from_rows([(0, 1, 4)], 1, 2)
        sims = self.sims([[1.0, 0.8], [0.8, 1.0]])
        assert CfPredictor(sims, train).predict_many([0], [0])[0] == pytest.approx(4.0)

    def test_equal_weights_average(self):
        train = from_rows([(0, 1, 5), (0, 2, 3)], 1, 3)
        sims = self.sims([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        assert CfPredictor(sims, train).predict_many([0], [0])[0] == pytest.approx(4.0)

    def test_hand_computed_weighted_average(self):
        train = from_rows([(0, 1, 5), (0, 2, 2)], 1, 3)
        sims = self.sims([[1, 0.5, 0.25], [0.5, 1, 0], [0.25, 0, 1]])
        assert CfPredictor(sims, train).predict_many([0], [0])[0] == pytest.approx(4.0)

    def test_fallback_is_global_mean(self):
        train = from_rows([(0, 1, 5), (1, 0, 3)], 2, 2)
        sims = self.sims([[1, 0], [0, 1]])  # no cross-similarity
        assert CfPredictor(sims, train).predict_many([0], [0])[0] == pytest.approx(4.0)

    def test_prediction_within_neighbor_range(self):
        ds = generate_zipf(40, 25, 600, 1.0, seed=10)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        predictor = CfPredictor(sims, ds)
        rng = np.random.default_rng(0)
        by_user = {}
        for u, i, v in rows_of(ds):
            by_user.setdefault(u, []).append(v)
        for _ in range(100):
            u = int(rng.integers(0, 40))
            i = int(rng.integers(0, 25))
            pred = predictor.predict_many([u], [i])[0]
            values = by_user.get(u)
            if values:  # nonneg similarities: weighted average of some subset
                assert 1.0 <= pred <= 5.0

    def test_neighborhood_size_limits_neighbors(self, monkeypatch):
        train = from_rows([(0, 1, 5), (0, 2, 1)], 1, 3)
        sims = self.sims([[1, 0.9, 0.5], [0.9, 1, 0], [0.5, 0, 1]])
        monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", 1)
        # only the most similar neighbor (item 1) is used
        assert CfPredictor(sims, train).predict_many([0], [0])[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("size", [1, 5, 20])
    @pytest.mark.parametrize("shape", ORACLE_DATASETS)
    def test_predict_many_equals_reference(self, shape, size, monkeypatch):
        monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", size)
        ds = generate_zipf(*shape[:3], 1.0, seed=shape[3])
        train, test = split(ds, SplitSpec(test_fraction=0.3, seed=shape[3]))
        # every cell of the grid, test cells first
        grid = np.divmod(np.arange(ds.n_users * ds.n_items), ds.n_items)
        users = np.concatenate([test.users, grid[0]])
        items = np.concatenate([test.items, grid[1]])
        for kind in SimilarityKind:
            sims = item_similarities(train, kind)
            got = CfPredictor(sims, train).predict_many(users, items)
            matrix = dense_scores(sims)
            expected = [reference_predict(matrix, train, size, u, i)
                        for u, i in zip(users.tolist(), items.tolist())]
            assert got.tolist() == expected

    def test_predict_many_handles_ties_negatives_and_fallbacks(self, monkeypatch):
        # user 0 rated items 1-4; user 1 rated nothing; item 5 has no
        # co-raters; items 1 and 2 tie for item 0, item 3 scores negative
        train = from_rows([(0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 4),
                         (2, 0, 3)], 3, 6)
        matrix = np.zeros((6, 6))
        for i, j, s in [(0, 1, 0.5), (0, 2, 0.5), (0, 3, -0.75), (0, 4, 0.25),
                        (1, 3, -0.5), (2, 3, -0.9)]:
            matrix[i, j] = matrix[j, i] = s
        sims = sims_from_dense(matrix)
        users = np.array([0, 0, 0, 0, 1, 0, 2])
        items = np.array([0, 0, 5, 1, 0, 2, 5])
        predictor = CfPredictor(sims, train)
        for size in (1, 2, 3, 4, 20):
            monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", size)
            got = predictor.predict_many(users, items)
            expected = [reference_predict(matrix, train, size, u, i)
                        for u, i in zip(users.tolist(), items.tolist())]
            assert got.tolist() == expected
        mean = train.global_mean()
        monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", 1)
        # the tie goes to the lower item; no rows or no co-raters: the mean
        assert predictor.predict_many(users, items).tolist() == [5.0, 5.0, mean, 1.0,
                                                                 mean, 1.0, mean]
        # the negative neighbor ranks last and pulls the average down:
        # (0.5*5 + 0.5*1 + 0.25*4 - 0.75*2) / (0.5 + 0.5 + 0.25 + 0.75)
        monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", 4)
        assert predictor.predict_many([0], [0])[0] == pytest.approx(2.5 / 2.0)

    @pytest.mark.parametrize("pairs", [4, 40])
    def test_pair_blocks_do_not_change_predictions(self, pairs, monkeypatch):
        # 4 pairs' bytes are below most cells' candidates, so those cells are
        # blocks of their own; 40 pairs' bytes hold a few cells
        ds = generate_zipf(50, 60, 400, 1.0, seed=41)
        train, test = split(ds, SplitSpec(test_fraction=0.3, seed=41))
        monkeypatch.setattr(baselines, "NEIGHBORHOOD_SIZE", 5)
        predictor = CfPredictor(item_similarities(train, SimilarityKind.COSINE), train)
        whole = predictor.predict_many(test.users, test.items)
        monkeypatch.setattr(core, "BLOCK_BYTES", pairs * PAIR_BYTES)
        blocked = predictor.predict_many(test.users, test.items)
        assert np.array_equal(whole, blocked)

    def test_memory_is_bounded_by_one_block(self):
        # 200k cells whose users rated 50 items each on average: their 10M
        # candidate pairs at once would take about 1 GB. Cutting the cells
        # into blocks takes one int64 column: their bytes, then their running sum.
        ds = generate_zipf(600, 400, 30_000, 1.0, seed=2)
        predictor = CfPredictor(item_similarities(ds, SimilarityKind.COSINE), ds)
        rng = np.random.default_rng(5)
        users, items = rng.integers(0, 600, 200_000), rng.integers(0, 400, 200_000)
        preds, peak = traced_peak(lambda: predictor.predict_many(users, items))
        assert peak <= 2 * preds.nbytes + core.BLOCK_BYTES + CALL_OVERHEAD


class TestMfTrain:
    def test_scalar_fixed_point(self):
        train = from_rows([(0, 0, 4)], 1, 1)
        cfg = TrainConfig(k=1, gamma=0.05, epochs=400, seed=0,
                          init_lo=0.5, init_hi=0.9)
        model = mf_train(train, cfg)
        assert float(model.U[0] @ model.V[0]) == pytest.approx(4.0, abs=1e-3)

    def test_zero_gamma_keeps_initialization(self):
        train = from_rows([(0, 0, 4), (1, 1, 2)], 2, 2)
        cfg = TrainConfig(k=3, gamma=0.0, epochs=5, seed=12)
        model = mf_train(train, cfg)
        rng = np.random.default_rng(12)
        expected_u = rng.uniform(0.1, 0.9, size=(2, 3)) / np.sqrt(3)
        expected_v = rng.uniform(0.1, 0.9, size=(2, 3)) / np.sqrt(3)
        assert np.array_equal(model.U, expected_u)
        assert np.array_equal(model.V, expected_v)

    def test_gradient_matches_finite_differences(self):
        train = generate_zipf(12, 10, 60, 1.0, seed=13)
        rng = np.random.default_rng(14)
        U = rng.uniform(0.1, 1.0, size=(12, 4))
        V = rng.uniform(0.1, 1.0, size=(10, 4))
        grad_u, grad_v = mf_gradients(train, U, V)
        h = 1e-6
        for _ in range(100):
            side = rng.integers(0, 2)
            M, G = (U, grad_u) if side == 0 else (V, grad_v)
            r = int(rng.integers(0, M.shape[0]))
            c = int(rng.integers(0, M.shape[1]))
            orig = M[r, c]
            M[r, c] = orig + h
            up = mf_loss(train, U, V)
            M[r, c] = orig - h
            down = mf_loss(train, U, V)
            M[r, c] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), 1e-8)
            assert abs(G[r, c] - numeric) / denom < 1e-4

    def test_loss_non_increasing_over_epochs(self):
        train = generate_zipf(40, 30, 600, 1.0, seed=15)
        losses = []
        for epochs in (1, 3, 6, 10):
            model = mf_train(train, TrainConfig(k=8, gamma=0.005,
                                                epochs=epochs, seed=16))
            losses.append(mf_loss(train, np.array(model.U), np.array(model.V)))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_invariant_to_input_row_order(self):
        ds = generate_zipf(20, 15, 150, 1.0, seed=17)
        shuffled = RatingsDataset(ds.users[::-1], ds.items[::-1], ds.values[::-1],
                                  n_users=20, n_items=15)
        cfg = TrainConfig(k=4, gamma=0.01, epochs=3, seed=18)
        a = mf_train(ds, cfg)
        b = mf_train(shuffled, cfg)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    def test_divergence_raises_with_epoch(self):
        train = generate_zipf(10, 10, 80, 1.0, seed=19)
        with pytest.raises(TrainingError) as exc:
            mf_train(train, TrainConfig(k=4, gamma=50.0, epochs=10, seed=20))
        assert exc.value.epoch is not None

    def test_empty_train_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(ValueError):
            mf_train(empty, TrainConfig())


class TestMfPredict:
    def test_dot_product(self):
        model = FactorModel(U=np.array([[2.0, 0.0]]),
                            V=np.array([[1.5, 9.0]]))
        assert MfPredictor(model).predict_many([0], [0])[0] == pytest.approx(3.0)

    def test_upper_clamp(self):
        model = FactorModel(U=np.array([[3.1]]), V=np.array([[2.0]]))
        assert MfPredictor(model).predict_many([0], [0])[0] == 5.0

    def test_lower_clamp_on_zero_vector(self):
        model = FactorModel(U=np.array([[0.0]]), V=np.array([[2.0]]))
        assert MfPredictor(model).predict_many([0], [0])[0] == 1.0

    def test_predict_many_equals_per_cell_dot_products(self):
        # the oracle is one clamped row_dot(U[u], V[i]) per cell
        rng = np.random.default_rng(3)
        model = FactorModel(U=rng.uniform(0, 1, (9, 10)),
                            V=rng.uniform(0, 1, (7, 10)))
        users, items = np.divmod(np.arange(63), 7)
        got = MfPredictor(model).predict_many(users, items)
        expected = [clamp_prediction(float(row_dot(model.U[u], model.V[i])))
                    for u, i in zip(users.tolist(), items.tolist())]
        assert got.tolist() == expected

    @pytest.mark.parametrize("k", [4, 10, 100])
    def test_memory_is_bounded_by_one_block(self, k):
        # 200k cells at the MovieLens-1M shape: gathering every cell's two
        # rows at once would take 32 MB at k 10 and 320 MB at k 100. Each
        # block's gathers and scores fit in the budget, whatever the k.
        rng = np.random.default_rng(5)
        model = FactorModel(U=rng.uniform(0, 1, (6040, k)), V=rng.uniform(0, 1, (3706, k)))
        users, items = rng.integers(0, 6040, 200_000), rng.integers(0, 3706, 200_000)
        predictor = MfPredictor(model)
        preds, peak = traced_peak(lambda: predictor.predict_many(users, items))
        assert peak <= preds.nbytes + core.BLOCK_BYTES + CALL_OVERHEAD
