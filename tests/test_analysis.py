import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from reclab.analysis import (DiversityInput, PowerLawFit, diversity_order_invariant,
                             diversity_ordered, fit_power_law, rating_histogram)
from reclab.core import DatasetError, RatingsDataset
from reclab.ingest import generate_zipf


def exact_ln_diversity(groups, n_market, order_invariant=False):
    """Independent oracle: exact rational arithmetic, then one log."""
    total = Fraction(0)
    for k, m in groups:
        term = Fraction(k) * Fraction(n_market) ** m
        if order_invariant:
            term /= Fraction(math.factorial(n_market))
        total += term
    return math.log(total)


class TestRatingHistogram:
    def test_counting(self):
        ds = RatingsDataset([0, 0, 1], [0, 1, 0], [5, 5, 3], n_users=2, n_items=2)
        hist = rating_histogram(ds)
        assert hist == {5: 2, 3: 1}

    def test_total_equals_dataset_size(self):
        ds = generate_zipf(40, 40, 700, 1.0, seed=0)
        assert sum(rating_histogram(ds).values()) == 700

    def test_empty_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(DatasetError):
            rating_histogram(empty)

    def test_zipf_counts_grow_with_value(self):
        ds = generate_zipf(200, 200, 10000, 1.0, seed=1)
        hist = rating_histogram(ds)
        counts = [hist.get(v, 0) for v in range(1, 6)]
        # monotone in expectation; allow small-sample slack
        for lo, hi in zip(counts, counts[1:]):
            assert hi >= lo * 0.9


class TestFitPowerLaw:
    def test_identity_line(self):
        fit = fit_power_law([(x, x) for x in (1.0, 2.0, 4.0, 9.0)])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_quadratic_with_prefactor(self):
        fit = fit_power_law([(x, 7.0 * x ** 2) for x in (1.0, 3.0, 5.0, 11.0)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.log_intercept == pytest.approx(math.log(7.0), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_exact_exponent_recovery(self):
        rng = np.random.default_rng(2)
        for exponent in (-1.3, 0.5, 2.75):
            xs = rng.uniform(0.5, 50.0, size=40)
            points = [(x, 3.1 * x ** exponent) for x in xs]
            fit = fit_power_law(points)
            assert fit.exponent == pytest.approx(exponent, abs=1e-9)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("points", [[(1.0, 1.0)], [(1, 1), (1, 2)]],
                             ids=["single-point", "one-distinct-x"])
    def test_too_few_points_rejected(self, points, capfd):
        # one distinct x leaves the slope undetermined; LAPACK is never asked
        with pytest.raises(ValueError, match="at least 2"):
            fit_power_law(points)
        assert capfd.readouterr() == ("", "")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            fit_power_law([(1.0, -1.0), (2.0, 2.0)])

    def test_zipf_generator_proportionality(self):
        ds = generate_zipf(300, 300, 10000, 1.0, seed=3)
        hist = rating_histogram(ds)
        points = [(float(v), float(c)) for v, c in sorted(hist.items())]
        fit = fit_power_law(points)
        assert fit.r_squared >= 0.9


class TestDiversity:
    def test_single_group_power(self):
        inp = DiversityInput(groups=((1, 3),), n_market=2)
        assert diversity_ordered(inp) == pytest.approx(math.log(8), abs=1e-12)

    def test_two_groups_sum_in_log_space(self):
        inp = DiversityInput(groups=((1, 1), (1, 1)), n_market=10)
        assert diversity_ordered(inp) == pytest.approx(math.log(20), abs=1e-12)

    def test_zero_movies_contributes_k(self):
        inp = DiversityInput(groups=((7, 0),), n_market=100)
        assert diversity_ordered(inp) == pytest.approx(math.log(7), abs=1e-12)

    def test_order_invariant_single_group(self):
        inp = DiversityInput(groups=((1, 3),), n_market=2)
        assert diversity_order_invariant(inp) == pytest.approx(math.log(4), abs=1e-12)

    def test_factorial_identity_for_single_groups(self):
        for n_market, k, m in ((2, 1, 3), (10, 4, 6), (50, 2, 9)):
            inp = DiversityInput(groups=((k, m),), n_market=n_market)
            diff = diversity_ordered(inp) - diversity_order_invariant(inp)
            assert diff == pytest.approx(math.lgamma(n_market + 1), abs=1e-9)

    def test_log_space_matches_exact_rational(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n_market = int(rng.integers(1, 11))
            groups = tuple((int(rng.integers(1, 11)), int(rng.integers(0, 11)))
                           for _ in range(int(rng.integers(1, 5))))
            inp = DiversityInput(groups=groups, n_market=n_market)
            assert diversity_ordered(inp) == pytest.approx(
                exact_ln_diversity(groups, n_market), abs=1e-9)
            assert diversity_order_invariant(inp) == pytest.approx(
                exact_ln_diversity(groups, n_market, order_invariant=True),
                abs=1e-9)

    def test_large_market_value(self):
        # ln(10^5 / 10!) via exact arithmetic
        inp = DiversityInput(groups=((1, 5),), n_market=10)
        expected = exact_ln_diversity([(1, 5)], 10, order_invariant=True)
        assert diversity_order_invariant(inp) == pytest.approx(expected, abs=1e-9)

    def test_huge_inputs_stay_finite(self):
        inp = DiversityInput(groups=((1000, 5000), (20, 30)), n_market=100000)
        assert math.isfinite(diversity_ordered(inp))
        assert math.isfinite(diversity_order_invariant(inp))

    def test_matches_scipy(self):
        # scipy's log-sum-exp and log-gamma as the oracle, on markets up to
        # 10^6 titles and groups of up to 10^6 people watching up to 5000
        rng = np.random.default_rng(8)
        for _ in range(300):
            n_market = int(rng.integers(1, 10 ** int(rng.integers(1, 7))))
            groups = tuple((int(rng.integers(1, 10 ** int(rng.integers(1, 7)))),
                            int(rng.integers(0, 5000)))
                           for _ in range(int(rng.integers(1, 8))))
            inp = DiversityInput(groups=groups, n_market=n_market)
            terms = np.array([math.log(k) + m * math.log(n_market) for k, m in groups])
            ordered = float(logsumexp(terms))
            invariant = ordered - float(gammaln(n_market + 1))
            close = dict(rel=1e-12, abs=1e-12)
            assert diversity_ordered(inp) == pytest.approx(ordered, **close)
            assert diversity_order_invariant(inp) == pytest.approx(invariant, **close)

    def test_numpy_and_big_integers_are_counts(self):
        inp = DiversityInput(groups=((np.int64(3), np.int32(2)), (2 ** 70, 1)),
                             n_market=np.int64(10))
        assert inp.groups == ((3, 2), (2 ** 70, 1)) and type(inp.n_market) is int
        assert all(type(x) is int for group in inp.groups for x in group)
        assert diversity_ordered(inp) == pytest.approx(
            exact_ln_diversity(inp.groups, 10), abs=1e-9)

    @pytest.mark.parametrize("groups, n_market, message", [
        ((), 5, "need at least one group"),
        (((0, 3),), 5, "group 0: K must be an integer >= 1, got 0"),
        (((1, -1),), 5, "group 0: M must be an integer >= 0, got -1"),
        (((1, 2),), 0, "n_market must be an integer >= 1, got 0"),
        (((1.5, 2),), 5, "group 0: K must be an integer >= 1, got 1.5"),
        (((1, 2), (2, 2.0)), 5, "group 1: M must be an integer >= 0, got 2.0"),
        (((True, 2),), 5, "group 0: K must be an integer >= 1, got True"),
        (((1, 2),), 2.5, "n_market must be an integer >= 1, got 2.5"),
        (((1, 2),), True, "n_market must be an integer >= 1, got True"),
        (((1, 10 ** 400),), 5, "group 0: M is too large to compute with in floats"),
        (((10 ** 400, 1),), 5, "group 0: K is too large to compute with in floats"),
        (((1, 10 ** 308),), 100, "group 0: M is too large to compute with in floats"),
        (((1, 2),), 10 ** 400, "n_market is too large to compute with in floats"),
    ], ids=["no-groups", "no-people", "negative-m", "no-market", "float-count",
            "second-group", "bool-count", "float-market", "bool-market", "huge-m",
            "huge-k", "overflowing-m", "huge-market"])
    def test_invalid_inputs_rejected(self, groups, n_market, message):
        # never truncated to an integer, never an OverflowError
        with pytest.raises(ValueError, match=message):
            DiversityInput(groups=groups, n_market=n_market)
