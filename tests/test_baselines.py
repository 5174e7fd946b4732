import math

import numpy as np
import pytest

from reclab.baselines import (CfConfig, CfPredictor, SimilarityKind,
                              SimilarityMatrix, item_similarities,
                              mf_gradients, mf_loss, mf_predict, mf_train)
from reclab.core import (FactorModel, Rating, RatingsDataset, TrainConfig,
                         TrainingError)
from reclab.ingest import SplitSpec, generate_zipf, split


def dataset(triples, n_users, n_items, r_max=5):
    return RatingsDataset(ratings=tuple(Rating(u, i, v) for u, i, v in triples),
                          n_users=n_users, n_items=n_items, r_max=r_max)


def brute_force_cosine(train, i, j):
    dense = train.to_dense()
    a, b = dense[:, i], dense[:, j]
    dot = float(a @ b)
    if dot == 0.0:
        return 0.0
    return dot / (np.linalg.norm(a) * np.linalg.norm(b))


class TestItemSimilarities:
    def test_identical_ratings_give_one(self):
        ds = dataset([(0, 0, 4), (0, 1, 4), (1, 0, 2), (1, 1, 2),
                      (2, 0, 5), (2, 1, 5)], 3, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.values[0, 1] == pytest.approx(1.0)

    def test_no_common_rater_gives_zero(self):
        ds = dataset([(0, 0, 4), (1, 1, 3)], 2, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.values[0, 1] == 0.0

    def test_hand_computed_cross_pair(self):
        # items rated (1,5) and (5,1) by the same two users
        ds = dataset([(0, 0, 1), (0, 1, 5), (1, 0, 5), (1, 1, 1)], 2, 2)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        assert sims.values[0, 1] == pytest.approx(10.0 / 26.0)

    def test_symmetry_exact(self):
        ds = generate_zipf(40, 25, 500, 1.0, 5, seed=5)
        for kind in SimilarityKind:
            sims = item_similarities(ds, kind)
            assert np.array_equal(sims.values, sims.values.T)

    def test_cosine_matches_brute_force(self):
        ds = generate_zipf(30, 15, 250, 1.0, 5, seed=6)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        for i in range(15):
            for j in range(15):
                assert sims.values[i, j] == pytest.approx(
                    brute_force_cosine(ds, i, j), abs=1e-12)

    def test_scores_bounded(self):
        ds = generate_zipf(40, 20, 400, 1.0, 5, seed=7)
        for kind in SimilarityKind:
            sims = item_similarities(ds, kind)
            assert (sims.values >= -1.0).all() and (sims.values <= 1.0).all()

    def test_adjusted_cosine_centers_users(self):
        # one user rating both items identically: centered vector is zero,
        # so the pair is degenerate and scores 0
        ds = dataset([(0, 0, 4), (0, 1, 4)], 1, 2)
        sims = item_similarities(ds, SimilarityKind.ADJUSTED_COSINE)
        assert sims.values[0, 1] == 0.0

    def test_json_round_trip(self):
        ds = generate_zipf(10, 8, 50, 1.0, 5, seed=8)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        back = SimilarityMatrix.from_json(sims.to_json())
        assert np.array_equal(back.values, sims.values)


class TestCfPredict:
    def sims(self, matrix):
        return SimilarityMatrix(values=np.asarray(matrix, dtype=np.float64))

    def test_single_neighbor(self):
        train = dataset([(0, 1, 4)], 1, 2)
        sims = self.sims([[1.0, 0.8], [0.8, 1.0]])
        assert CfPredictor(sims, train).predict(0, 0) == pytest.approx(4.0)

    def test_equal_weights_average(self):
        train = dataset([(0, 1, 5), (0, 2, 3)], 1, 3)
        sims = self.sims([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        assert CfPredictor(sims, train).predict(0, 0) == pytest.approx(4.0)

    def test_hand_computed_weighted_average(self):
        train = dataset([(0, 1, 5), (0, 2, 2)], 1, 3)
        sims = self.sims([[1, 0.5, 0.25], [0.5, 1, 0], [0.25, 0, 1]])
        assert CfPredictor(sims, train).predict(0, 0) == pytest.approx(4.0)

    def test_fallback_is_global_mean(self):
        train = dataset([(0, 1, 5), (1, 0, 3)], 2, 2)
        sims = self.sims([[1, 0], [0, 1]])  # no cross-similarity
        assert CfPredictor(sims, train).predict(0, 0) == pytest.approx(4.0)

    def test_prediction_within_neighbor_range(self):
        ds = generate_zipf(40, 25, 600, 1.0, 5, seed=10)
        sims = item_similarities(ds, SimilarityKind.COSINE)
        predictor = CfPredictor(sims, ds, CfConfig(neighborhood_size=5))
        rng = np.random.default_rng(0)
        by_user = {}
        for r in ds.ratings:
            by_user.setdefault(r.user_id, []).append(r.value)
        for _ in range(100):
            u = int(rng.integers(0, 40))
            i = int(rng.integers(0, 25))
            pred = predictor.predict(u, i)
            values = by_user.get(u)
            if values:  # nonneg similarities: weighted average of some subset
                assert 1.0 <= pred <= 5.0

    def test_neighborhood_size_limits_neighbors(self):
        train = dataset([(0, 1, 5), (0, 2, 1)], 1, 3)
        sims = self.sims([[1, 0.9, 0.5], [0.9, 1, 0], [0.5, 0, 1]])
        cfg = CfConfig(neighborhood_size=1)
        # only the most similar neighbor (item 1) is used
        assert CfPredictor(sims, train, cfg).predict(0, 0) == pytest.approx(5.0)


class TestMfTrain:
    def test_scalar_fixed_point(self):
        train = dataset([(0, 0, 4)], 1, 1)
        cfg = TrainConfig(k=1, gamma=0.05, epochs=400, seed=0,
                          init_lo=0.5, init_hi=0.9)
        model = mf_train(train, cfg)
        assert float(model.U[0] @ model.V[0]) == pytest.approx(4.0, abs=1e-3)

    def test_zero_gamma_keeps_initialization(self):
        train = dataset([(0, 0, 4), (1, 1, 2)], 2, 2)
        cfg = TrainConfig(k=3, gamma=0.0, epochs=5, seed=12)
        model = mf_train(train, cfg)
        rng = np.random.default_rng(12)
        expected_u = rng.uniform(0.1, 0.9, size=(2, 3)) / np.sqrt(3)
        expected_v = rng.uniform(0.1, 0.9, size=(2, 3)) / np.sqrt(3)
        assert np.array_equal(model.U, expected_u)
        assert np.array_equal(model.V, expected_v)

    def test_gradient_matches_finite_differences(self):
        train = generate_zipf(12, 10, 60, 1.0, 5, seed=13)
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
        train = generate_zipf(40, 30, 600, 1.0, 5, seed=15)
        losses = []
        for epochs in (1, 3, 6, 10):
            model = mf_train(train, TrainConfig(k=8, gamma=0.005,
                                                epochs=epochs, seed=16))
            losses.append(mf_loss(train, np.array(model.U), np.array(model.V)))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_invariant_to_input_row_order(self):
        ds = generate_zipf(20, 15, 150, 1.0, 5, seed=17)
        shuffled = RatingsDataset(ratings=tuple(reversed(ds.ratings)),
                                  n_users=20, n_items=15, r_max=5)
        cfg = TrainConfig(k=4, gamma=0.01, epochs=3, seed=18)
        a = mf_train(ds, cfg)
        b = mf_train(shuffled, cfg)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    def test_divergence_raises_with_epoch(self):
        train = generate_zipf(10, 10, 80, 1.0, 5, seed=19)
        with pytest.raises(TrainingError) as exc:
            mf_train(train, TrainConfig(k=4, gamma=50.0, epochs=10, seed=20))
        assert exc.value.epoch is not None

    def test_empty_train_rejected(self):
        empty = RatingsDataset(ratings=(), n_users=1, n_items=1)
        with pytest.raises(ValueError):
            mf_train(empty, TrainConfig())


class TestMfPredict:
    def test_dot_product(self):
        model = FactorModel(U=np.array([[2.0, 0.0]]),
                            V=np.array([[1.5, 9.0]]), k=2)
        assert mf_predict(model, 0, 0, 5) == pytest.approx(3.0)

    def test_upper_clamp(self):
        model = FactorModel(U=np.array([[3.1]]), V=np.array([[2.0]]), k=1)
        assert mf_predict(model, 0, 0, 5) == 5.0

    def test_lower_clamp_on_zero_vector(self):
        model = FactorModel(U=np.array([[0.0]]), V=np.array([[2.0]]), k=1)
        assert mf_predict(model, 0, 0, 5) == 1.0
