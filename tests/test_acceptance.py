"""End-to-end acceptance checks for the benchmark harness.

Each test prints one "acceptance N ...: PASS/FAIL" line on the real stdout
so the verdicts survive pytest's capture, then asserts the same condition.
The shared harness fixture trains every registered algorithm once on the
benchmark dataset (seed 42 split) and records per-algorithm wall time.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from reclab.analysis import (DiversityInput, diversity_order_invariant,
                             diversity_ordered, fit_power_law,
                             rating_histogram)
from reclab.baselines import mf_gradients, mf_loss
from reclab.cli import REGISTRY, _evaluate_algorithm, run_bench
from reclab.core import RatingsDataset, TrainConfig
from reclab.ingest import (SplitSpec, generate_zipf, parse_comoda, split,
                           write_movielens)
from reclab.zeroshot import (dotmat_step, poissonmat_step, powermat_step,
                             powermat_train, train_zeroshot, zeromat_step,
                             ZeroShotPredictor)

from conftest import fit_config, make_structured_dataset

SPLIT_SEED = 42
ALGOS = ("itemcf", "mf", "random", "zeromat", "dotmat", "poissonmat",
         "zeromat-hybrid", "dotmat-hybrid", "poissonmat-hybrid")


@pytest.fixture(scope="session")
def harness(benchmark_dataset):
    train, test = split(benchmark_dataset, SplitSpec(0.2, SPLIT_SEED))
    maes = {}
    seconds = {}
    for algo in ALGOS:
        start = time.perf_counter()
        maes[algo] = _evaluate_algorithm(algo, fit_config(), train, test, SPLIT_SEED)
        seconds[algo] = time.perf_counter() - start
    return {"maes": maes, "seconds": seconds}


@pytest.fixture
def report(capsys):
    def _report(label, ok, detail=""):
        with capsys.disabled():
            line = f"acceptance {label}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            print(line)
        return ok
    return _report


def test_criterion_1_tuned_baseline_band(harness, report):
    maes, seconds = harness["maes"], harness["seconds"]
    runtime = seconds["mf"] + seconds["itemcf"]
    ok = (0.70 <= maes["mf"] <= 0.90 and 0.70 <= maes["itemcf"] <= 0.90
          and runtime < 120.0)
    assert report(
        "1 tuned-baseline MAE band", ok,
        f"mf={maes['mf']:.3f} itemcf={maes['itemcf']:.3f} "
        f"runtime={runtime:.1f}s")


def test_criterion_2_random_baseline_band(harness, report):
    rand = harness["maes"]["random"]
    rng = np.random.default_rng(3)
    users, items = np.divmod(np.arange(400 * 250), 250)
    values = [int(rng.integers(1, 6)) for _ in range(400 * 250)]
    uniform = RatingsDataset(users, items, values, n_users=400, n_items=250)
    from reclab.evaluation import RandomPredictor, mae
    uniform_mae = mae(RandomPredictor(4), uniform)
    ok = 1.3 <= rand <= 1.9 and abs(uniform_mae - 1.6) <= 0.05
    assert report(
        "2 random-baseline band", ok,
        f"split={rand:.3f} uniform-fixture={uniform_mae:.3f}")


def test_criterion_3_zeroshot_competitiveness(harness, report):
    maes = harness["maes"]
    rand = maes["random"]
    checks = []
    for base in ("zeromat", "dotmat", "poissonmat"):
        checks.append(maes[base] < rand)
        checks.append(maes[f"{base}-hybrid"] <= maes[base])
    ok = all(checks)
    detail = " ".join(f"{a}={maes[a]:.3f}" for a in
                      ("random", "zeromat", "zeromat-hybrid", "dotmat",
                       "dotmat-hybrid", "poissonmat", "poissonmat-hybrid"))
    assert report("3 zero-shot competitiveness", ok, detail)


def test_criterion_4_data_freedom(report):
    cfg = TrainConfig(gamma=0.002, k=4, epochs=2, seed=5,
                      samples_per_epoch=400)
    ok = True
    # shape-only trainers: any two same-shape datasets give one model, so
    # flipping every rating value cannot change anything
    for rule in (zeromat_step, dotmat_step, poissonmat_step):
        a = train_zeroshot(rule, 30, 40, cfg)
        b = train_zeroshot(rule, 30, 40, cfg)
        ok = ok and np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    # PowerMat: one CoMoDa file, and the same file with every rating v
    # turned into 6 - v, fit through the registry, predict alike everywhere
    rng = np.random.default_rng(6)
    rows = []
    seen = set()
    while len(rows) < 80:
        u, j = int(rng.integers(0, 15)), int(rng.integers(0, 20))
        if (u, j) in seen:
            continue
        seen.add((u, j))
        ctx = [int(rng.integers(0, 4)) for _ in range(3)]
        rows.append((u, j, int(rng.integers(1, 6)), ctx))
    config = fit_config(train={"powermat": {"gamma": 0.0005, "k": 4, "epochs": 3,
                                            "samples_per_epoch": 80}})
    predictions = []
    for flip in (False, True):
        text = "userID,itemID,rating,mood,location,weather\n" + "".join(
            f"{u},{j},{6 - v if flip else v},{','.join(map(str, ctx))}\n"
            for u, j, v, ctx in rows)
        ds = parse_comoda(text, ["mood", "location", "weather"]).dataset
        predictor = REGISTRY["powermat"].fit("powermat", config, ds, 5)
        users, items = np.divmod(np.arange(ds.n_users * ds.n_items), ds.n_items)
        predictions.append(predictor.predict_many(users, items))
    ok = ok and np.array_equal(*predictions)
    assert report("4 data-freedom suite", ok)


def test_criterion_5_time_order_invariance(report):
    ds = make_structured_dataset(n_users=80, n_items=90, n_ratings=2000,
                                 seed=19)
    train, test = split(ds, SplitSpec(0.2, 7))
    permuted = RatingsDataset(train.users[::-1], train.items[::-1], train.values[::-1],
                              n_users=train.n_users, n_items=train.n_items)
    config = fit_config(train={"default": {"epochs": 3}})
    results = {}
    for algo in ("itemcf", "mf", "zeromat", "dotmat", "poissonmat",
                 "dotmat-hybrid"):
        a = _evaluate_algorithm(algo, config, train, test, 7)
        b = _evaluate_algorithm(algo, config, permuted, test, 7)
        results[algo] = (a, b)

    # powermat sees (user, item, context) columns; reverse those as well
    users, items = train.users, train.items
    contexts = np.column_stack([users % 4, items % 3]).astype(np.float64)
    cfg = TrainConfig(gamma=0.0005, k=4, epochs=2, seed=7,
                      samples_per_epoch=len(users))
    from reclab.evaluation import mae
    for rows in (slice(None), slice(None, None, -1)):
        model = powermat_train(users[rows], items[rows], contexts[rows], cfg,
                               train.n_users, train.n_items)
        predictor = ZeroShotPredictor(model)
        results.setdefault("powermat", []).append(mae(predictor, test))
    pm_a, pm_b = results.pop("powermat")

    ok = all(a == b for a, b in results.values()) and pm_a == pm_b
    changed = [algo for algo, (a, b) in results.items() if a != b]
    assert report("5 time-order invariance", ok,
                  f"changed={changed or 'none'}")


def test_criterion_6_numerical_suite(report):
    ok = True

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
        ok = ok and abs(G[r, c] - numeric) / max(abs(numeric), 1e-8) < 1e-4

    u, _ = zeromat_step(np.array([1.0]), np.array([1.0]), 0.1)
    ok = ok and abs(u[0] - 0.9) < 1e-12

    u0, v0 = np.array([0.5, 0.5]), np.array([1.0, 1.0])
    u, v = dotmat_step(u0, v0, 0.3)
    ok = ok and np.array_equal(u, u0) and np.array_equal(v, v0)
    gamma = 0.07
    u, _ = dotmat_step(np.array([0.5]), np.array([1.0]), gamma)
    expected = -gamma * (0.5 ** 0.5) * (1.0 + math.log(0.5))
    ok = ok and abs((u[0] - 0.5) - expected) < 1e-12
    ok = ok and abs((u[0] - 0.5) / gamma + 0.21700) < 1e-4

    v0 = np.array([0.25, 0.75])
    u0 = np.array([1.0, 1.0]) / float(np.array([1.0, 1.0]) @ v0)
    u, _ = poissonmat_step(u0, v0, 0.11)
    ok = ok and np.max(np.abs((u - u0) + 0.11 * v0)) < 1e-12

    _, _, _, beta = powermat_step(np.array([2.0]), np.array([1.0]),
                                  np.array([0.3]), 0.5, np.array([1.0]), 0.05)
    ok = ok and abs(beta - (0.5 - 4.0 * 0.05)) < 1e-12

    assert report("6 numerical suite", ok)


def test_criterion_7_analysis_suite(report):
    ok = True
    for n_market, k, m in ((2, 1, 3), (10, 4, 6), (50, 2, 9)):
        inp = DiversityInput(groups=((k, m),), n_market=n_market)
        diff = diversity_ordered(inp) - diversity_order_invariant(inp)
        ok = ok and abs(diff - math.lgamma(n_market + 1)) < 1e-9

    rng = np.random.default_rng(4)
    for _ in range(25):
        n_market = int(rng.integers(1, 11))
        groups = tuple((int(rng.integers(1, 11)), int(rng.integers(0, 11)))
                       for _ in range(int(rng.integers(1, 5))))
        inp = DiversityInput(groups=groups, n_market=n_market)
        exact = Fraction(0)
        for k, m in groups:
            exact += Fraction(k) * Fraction(n_market) ** m
        ok = ok and abs(diversity_ordered(inp) - math.log(exact)) < 1e-9
        exact_inv = exact / Fraction(math.factorial(n_market))
        ok = ok and abs(diversity_order_invariant(inp)
                        - math.log(exact_inv)) < 1e-9

    for exponent in (-1.3, 0.5, 2.75):
        xs = rng.uniform(0.5, 50.0, size=40)
        fit = fit_power_law([(x, 3.1 * x ** exponent) for x in xs])
        ok = ok and abs(fit.exponent - exponent) < 1e-9

    ds = generate_zipf(300, 300, 10000, 1.0, seed=3)
    hist = rating_histogram(ds)
    points = [(float(v), float(c)) for v, c in sorted(hist.items())]
    zipf_fit = fit_power_law(points)
    ok = ok and zipf_fit.r_squared >= 0.9

    assert report("7 analysis suite", ok,
                  f"zipf r2={zipf_fit.r_squared:.3f}")


def test_criterion_8_reproducibility(tmp_path, report):
    data = tmp_path / "ratings.data"
    data.write_text(write_movielens(generate_zipf(80, 60, 2000, 1.0, seed=33)))
    config = {
        "dataset": {"path": str(data), "format": "tab100k"},
        "split": {"test_fraction": 0.2, "seed": 42},
        "algorithms": ["random", "mf", "zeromat", "dotmat-hybrid"],
        "train": {"default": {"k": 4, "epochs": 3}},
    }
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_bench(dict(config), out1)
    run_bench(dict(config), out2)
    ok = ((out1 / "report_seed42.json").read_bytes()
          == (out2 / "report_seed42.json").read_bytes())
    assert report("8 reproducibility", ok)
