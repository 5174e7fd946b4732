"""The SGD schedulers: `conflict_free_runs` and `dependency_levels`, and
`mf_train`, `train_zeroshot` and `powermat_train` against reference copies of
the one-step-at-a-time loops and of the run-scheduled epoch driver they
replace."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reclab import baselines, zeroshot
from reclab.baselines import (conflict_free_runs, dependency_levels, init_factors,
                              mf_train)
from reclab.core import RatingsDataset, TrainConfig, TrainingError, row_dot
from reclab.ingest import generate_zipf
from reclab.zeroshot import (DOTMAT_P_MAX, EPS_FLOOR, dotmat_step, poissonmat_step,
                             powermat_step, powermat_train, train_zeroshot,
                             zeromat_step)

TOL = 1e-12


# --- reference loops: one numpy step per rating or per drawn cell ---------

def reference_mf_train(train, cfg):
    rng, U, V = init_factors(train.n_users, train.n_items, cfg)
    users, items, values = train.users, train.items, train.values
    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in rng.permutation(len(users)):
                u, j, r = users[idx], items[idx], values[idx]
                e = r - row_dot(U[u], V[j])
                step = cfg.gamma * 2.0 * e
                u_old = U[u].copy()
                U[u] += step * V[j]
                V[j] += step * u_old
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise TrainingError(f"mf_train diverged at epoch {epoch}", epoch=epoch)
    return U, V


def scalar_zeromat_step(u_vec, v_vec, gamma):
    p = float(u_vec @ v_vec)
    clamped = p < EPS_FLOOR
    p = max(p, EPS_FLOOR)
    new_u = u_vec + gamma * (v_vec / p - 2.0 * u_vec)
    new_v = v_vec + gamma * (u_vec / p - 2.0 * v_vec)
    return new_u, new_v, clamped


def scalar_dotmat_step(u_vec, v_vec, gamma):
    p = float(u_vec @ v_vec)
    clamped = p < EPS_FLOOR or p > DOTMAT_P_MAX
    p = min(max(p, EPS_FLOOR), DOTMAT_P_MAX)
    g = p ** p
    coef = gamma * g * float(np.sign(g - p)) * (1.0 + math.log(p))
    return u_vec - coef * v_vec, v_vec - coef * u_vec, clamped


def scalar_poissonmat_step(u_vec, v_vec, gamma):
    p = float(u_vec @ v_vec)
    clamped = p < EPS_FLOOR
    p = max(p, EPS_FLOOR)
    coef = gamma * ((p + 1.0) / p + math.log(p) - 1.0)
    return u_vec - coef * v_vec, v_vec - coef * u_vec, clamped


# each batched step rule and its one-pair reference
SCALAR_STEP = {
    zeromat_step: scalar_zeromat_step,
    dotmat_step: scalar_dotmat_step,
    poissonmat_step: scalar_poissonmat_step,
}


def reference_train_zeroshot(rule, n_users, n_items, cfg):
    rng, U, V = init_factors(n_users, n_items, cfg)
    step = SCALAR_STEP[rule]
    clamps = 0
    for epoch in range(cfg.epochs):
        us = rng.integers(0, n_users, size=cfg.samples_per_epoch)
        js = rng.integers(0, n_items, size=cfg.samples_per_epoch)
        with np.errstate(over="ignore", invalid="ignore"):
            for u, j in zip(us, js):
                U[u], V[j], clamped = step(U[u], V[j], cfg.gamma)
                clamps += bool(clamped)
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise TrainingError(f"train_zeroshot diverged at epoch {epoch}", epoch=epoch)
    return U, V, clamps


def scalar_powermat_step(u_vec, v_vec, alpha, beta, context, gamma):
    p = float(row_dot(u_vec, v_vec))
    clamped = p < EPS_FLOOR
    p = max(p, EPS_FLOOR)
    s = float(row_dot(alpha, context))
    new_u = u_vec - gamma * (beta * p * v_vec + (beta * p + s) * v_vec - 2.0 * u_vec)
    new_v = v_vec - gamma * (beta * p * u_vec + (beta * p + s) * u_vec - 2.0 * v_vec)
    new_alpha = alpha - gamma * p * context
    new_beta = beta - gamma * p * p
    return new_u, new_v, new_alpha, new_beta, clamped


def reference_powermat_train(users, items, contexts, cfg, n_users, n_items):
    d_c = len(contexts[0])
    rng, U, V = init_factors(n_users, n_items, cfg)
    alpha = rng.uniform(0.0, cfg.init_lo, size=d_c)
    beta = cfg.init_lo
    order = sorted(range(len(users)), key=lambda i: (users[i], items[i]))
    ctx_arrays = [np.asarray(contexts[i], dtype=np.float64) for i in order]
    users = [int(users[i]) for i in order]
    items = [int(items[i]) for i in order]
    clamps = 0
    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in rng.permutation(len(order)):
                u, j = users[idx], items[idx]
                U[u], V[j], alpha, beta, clamped = scalar_powermat_step(
                    U[u], V[j], alpha, beta, ctx_arrays[idx], cfg.gamma)
                clamps += bool(clamped)
        if not (np.isfinite(U).all() and np.isfinite(V).all()
                and np.isfinite(alpha).all() and math.isfinite(beta)):
            raise TrainingError(f"powermat diverged at epoch {epoch}", epoch=epoch)
    return U, V, clamps


def run_scheduled_sgd_epochs(name, U, V, epochs, visit, step, state=()):
    """The epoch driver as it was before dependency levels: one step call
    per consecutive conflict-free run, for every trainer."""
    for epoch in range(epochs):
        us, js, data = visit()
        with np.errstate(over="ignore", invalid="ignore"):
            for run in conflict_free_runs(us, js):
                u, j = us[run], js[run]
                U[u], V[j] = step(U.take(u, axis=0), V.take(j, axis=0),
                                  None if data is None else data[run])
        if not all(np.isfinite(a).all() for a in (U, V, *state)):
            raise TrainingError(f"{name} diverged at epoch {epoch}", epoch=epoch)


@pytest.fixture
def run_scheduled(monkeypatch):
    """Call run_scheduled(fn, *args) to run a trainer on the run-scheduled
    driver."""
    def call(fn, *args):
        with monkeypatch.context() as patch:
            for module in (baselines, zeroshot):
                patch.setattr(module, "sgd_epochs", run_scheduled_sgd_epochs)
            return fn(*args)
    return call


# --- conflict_free_runs ----------------------------------------------------

def check_runs(users, items):
    users, items = np.asarray(users), np.asarray(items)
    runs = conflict_free_runs(users, items)
    n = len(users)
    if n == 0:
        assert runs == []
        return runs
    # in order, without gaps or overlaps, covering range(n)
    assert runs[0].start == 0 and runs[-1].stop == n
    for a, b in zip(runs, runs[1:]):
        assert a.stop == b.start
    for run in runs:
        assert run.start < run.stop
        u, j = users[run].tolist(), items[run].tolist()
        assert len(set(u)) == len(u) and len(set(j)) == len(j)
    # maximal: the row after a run repeats one of the run's users or items
    for a in runs[:-1]:
        nxt = a.stop
        assert (users[nxt] in users[a].tolist()
                or items[nxt] in items[a].tolist())
    return runs


class TestConflictFreeRuns:
    def test_empty(self):
        check_runs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_single_row(self):
        assert check_runs([3], [7]) == [slice(0, 1)]

    def test_one_user_gives_single_rows(self):
        runs = check_runs([2] * 5, [0, 1, 2, 3, 4])
        assert [(r.start, r.stop) for r in runs] == [(i, i + 1) for i in range(5)]

    def test_distinct_rows_form_one_run(self):
        assert check_runs([0, 1, 2], [2, 0, 1]) == [slice(0, 3)]

    def test_hand_cut(self):
        # item 1 repeats at position 2 and user 2 at position 4; user 0 at
        # position 5 last appeared in an earlier run
        runs = check_runs([0, 1, 2, 3, 2, 0], [0, 1, 1, 2, 3, 4])
        assert [(r.start, r.stop) for r in runs] == [(0, 2), (2, 4), (4, 6)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n_ids: st.lists(
        st.tuples(st.integers(0, n_ids), st.integers(0, n_ids)), max_size=60)))
    def test_property(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([j for _, j in pairs], dtype=np.int64)
        check_runs(users, items)


# --- dependency_levels ------------------------------------------------------

def check_levels(users, items):
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    n = len(users)
    n_users = int(users.max()) + 1 if n else 0
    n_items = int(items.max()) + 1 if n else 0
    order, levels = dependency_levels(users, items, n_users, n_items)
    # the slices cut the permutation into contiguous, non-empty levels
    assert sorted(order.tolist()) == list(range(n))
    bounds = [0] + [s.stop for s in levels]
    assert levels == [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    assert bounds[-1] == n and all(a < b for a, b in zip(bounds, bounds[1:]))
    level = np.empty(n, dtype=np.int64)
    for number, s in enumerate(levels, start=1):
        steps = order[s]
        # stable: the steps of a level keep their visit order
        assert (np.diff(steps) > 0).all()
        u, j = users[steps].tolist(), items[steps].tolist()
        assert len(set(u)) == len(u) and len(set(j)) == len(j)
        level[steps] = number
    # level(t) = 1 + max(level(prev_user(t)), level(prev_item(t))), exactly
    latest_user, latest_item = {}, {}
    for t in range(n):
        prev = [p for p in (latest_user.get(users[t]), latest_item.get(items[t]))
                if p is not None]
        assert all(level[p] < level[t] for p in prev)
        assert level[t] == 1 + max((level[p] for p in prev), default=0)
        latest_user[users[t]] = latest_item[items[t]] = t
    assert len(levels) <= len(conflict_free_runs(users, items))
    return levels


class TestDependencyLevels:
    def test_empty(self):
        assert check_levels([], []) == []

    def test_single_row(self):
        assert check_levels([3], [7]) == [slice(0, 1)]

    def test_one_user_gives_single_steps(self):
        levels = check_levels([2] * 5, [0, 1, 2, 3, 4])
        assert [(s.start, s.stop) for s in levels] == [(i, i + 1) for i in range(5)]

    def test_hand_levels(self):
        # runs (0, 2), (2, 4), (4, 6); step 3 (user 3, item 2) depends on
        # nothing and joins level 1, step 5 (user 0) only on step 0
        users, items = [0, 1, 2, 3, 2, 0], [0, 1, 1, 2, 3, 4]
        order, levels = dependency_levels(np.array(users), np.array(items), 4, 5)
        assert order.tolist() == [0, 1, 3, 2, 5, 4]
        assert [(s.start, s.stop) for s in levels] == [(0, 3), (3, 5), (5, 6)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n_ids: st.lists(
        st.tuples(st.integers(0, n_ids), st.integers(0, n_ids)), max_size=60)))
    def test_property(self, pairs):
        check_levels([u for u, _ in pairs], [j for _, j in pairs])


# --- batched step rules against row-by-row application --------------------

rows = st.integers(1, 12).flatmap(lambda n: st.integers(1, 6).flatmap(
    lambda k: st.tuples(*[hnp.arrays(np.float64, (n, k),
                                     elements=st.floats(-3.0, 3.0))] * 2)))


# rows whose dot products are -0.5, floored at EPS_FLOOR, 12, above
# DOTMAT_P_MAX, and 1, DotMat's fixed point
CLAMPED_ROWS = (np.array([[-1.0, 0.25], [2.0, 2.0], [0.5, 0.5]]),
                np.array([[1.0, 2.0], [3.0, 3.0], [1.0, 1.0]]))


class TestBatchedStepRules:
    @pytest.mark.parametrize("rule", list(SCALAR_STEP))
    @settings(max_examples=100, deadline=None)
    @given(batch=rows, gamma=st.floats(0.0, 0.1))
    @example(batch=CLAMPED_ROWS, gamma=0.05)
    def test_batch_equals_rows(self, rule, batch, gamma):
        U, V = batch
        new_u, new_v = rule(U, V, gamma)
        assert new_u.shape == U.shape and new_v.shape == V.shape
        for i in range(U.shape[0]):
            for row_rule in (rule, SCALAR_STEP[rule]):
                row_u, row_v = row_rule(U[i], V[i], gamma)[:2]
                np.testing.assert_allclose(new_u[i], row_u, rtol=TOL, atol=TOL)
                np.testing.assert_allclose(new_v[i], row_v, rtol=TOL, atol=TOL)


# --- trainers against the reference loops ---------------------------------

def zipf_dataset(seed=3):
    return generate_zipf(40, 60, 900, 1.2, seed=seed)


def uniform_dataset(seed=4):
    rng = np.random.default_rng(seed)
    cells = rng.choice(50 * 70, size=1200, replace=False)
    return RatingsDataset(cells // 70, cells % 70, rng.integers(1, 6, size=1200), 50, 70)


class TestMfMatchesReference:
    @pytest.mark.parametrize("make", [zipf_dataset, uniform_dataset],
                             ids=["zipf", "uniform"])
    @pytest.mark.parametrize("cfg", [
        TrainConfig(gamma=0.01, k=5, epochs=4, seed=9),
        TrainConfig(gamma=0.002, k=10, epochs=3, seed=2, init_lo=1e-9, init_hi=1e-8),
    ], ids=["default-init", "tiny-init"])
    def test_factors_match(self, run_scheduled, make, cfg):
        train = make()
        ref_u, ref_v = reference_mf_train(train, cfg)
        runs = run_scheduled(mf_train, train, cfg)
        model = mf_train(train, cfg)
        for U, V in ((ref_u, ref_v), (runs.U, runs.V)):
            assert np.array_equal(model.U, U)
            assert np.array_equal(model.V, V)

    def test_zipf_runs_are_short(self):
        # the skewed fixture exercises many short runs, not a few long ones
        train = zipf_dataset()
        users, items = train.users, train.items
        order = np.random.default_rng(0).permutation(len(users))
        runs = conflict_free_runs(users[order], items[order])
        assert len(train) / len(runs) < 8

    def test_uniform_levels_are_few(self):
        # Without skew, dependency levels batch far more steps than runs do:
        # 76 levels against 187 runs here. Each user holds 24 ratings on
        # average, and a level holds at most one of them, which keeps this
        # small fixture above a third.
        train = uniform_dataset()
        users, items = train.users, train.items
        order = np.random.default_rng(0).permutation(len(users))
        us, js = users[order], items[order]
        _, levels = dependency_levels(us, js, train.n_users, train.n_items)
        assert 2 * len(levels) < len(conflict_free_runs(us, js))

    def test_divergence_epoch_matches(self):
        train = uniform_dataset()
        cfg = TrainConfig(gamma=80.0, k=4, epochs=5, seed=1)
        with pytest.raises(TrainingError) as ref:
            reference_mf_train(train, cfg)
        with pytest.raises(TrainingError) as got:
            mf_train(train, cfg)
        assert got.value.epoch == ref.value.epoch


ZS_GAMMA = {zeromat_step: 0.002, dotmat_step: 0.005, poissonmat_step: 2e-5}


class TestZeroShotMatchesReference:
    @pytest.mark.parametrize("rule", list(SCALAR_STEP))
    @pytest.mark.parametrize("shape,init", [
        ((40, 60, 2000), {}),
        ((30, 25, 1500), {"init_lo": 1e-9, "init_hi": 1e-8}),
        ((3, 200, 600), {}),
    ], ids=["default-init", "clamp-heavy", "few-users"])
    def test_factors_and_counters_match(self, run_scheduled, rule, shape, init):
        n_users, n_items, samples = shape
        # two epochs: PoissonMat from the tiny init diverges in the third
        cfg = TrainConfig(gamma=ZS_GAMMA[rule], k=6, epochs=2, seed=11,
                          samples_per_epoch=samples, **init)
        ref_u, ref_v, ref_clamps = reference_train_zeroshot(rule, n_users, n_items, cfg)
        model = train_zeroshot(rule, n_users, n_items, cfg)
        np.testing.assert_allclose(model.U, ref_u, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(model.V, ref_v, rtol=TOL, atol=TOL)
        if init:
            assert ref_clamps > 0
        # bit for bit against the run schedule, which batches the same rows
        runs = run_scheduled(train_zeroshot, rule, n_users, n_items, cfg)
        assert np.array_equal(model.U, runs.U)
        assert np.array_equal(model.V, runs.V)

    def test_divergence_epoch_matches(self):
        cfg = TrainConfig(gamma=50.0, k=4, epochs=5, seed=1, samples_per_epoch=400)
        with pytest.raises(TrainingError) as ref:
            reference_train_zeroshot(zeromat_step, 20, 20, cfg)
        with pytest.raises(TrainingError) as got:
            train_zeroshot(zeromat_step, 20, 20, cfg)
        assert got.value.epoch == ref.value.epoch


# --- PowerMat: the batched step and the trainer, bit for bit ---------------

def powermat_rows(n, k, d):
    floats = st.floats(-3.0, 3.0)
    return st.tuples(hnp.arrays(np.float64, (n, k), elements=floats),
                     hnp.arrays(np.float64, (n, k), elements=floats),
                     hnp.arrays(np.float64, (n, d), elements=floats),
                     hnp.arrays(np.float64, (d,), elements=floats), floats)


class TestPowerMatStep:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(0, 5))
           .flatmap(lambda nkd: powermat_rows(*nkd)),
           gamma=st.floats(0.0, 0.1))
    @example(rows=(*CLAMPED_ROWS, np.array([[1.0], [0.5], [2.0]]), np.array([0.3]), 0.5),
             gamma=0.05)
    def test_prefix_differences_equal_sequential_steps(self, rows, gamma):
        U, V, C, alpha, beta = rows
        new_u, new_v, new_alpha, new_beta = powermat_step(U, V, alpha, beta, C, gamma)
        assert new_u.shape == U.shape
        for t in range(len(U)):
            row_u, row_v, alpha, beta, _ = scalar_powermat_step(
                U[t], V[t], alpha, beta, C[t], gamma)
            assert np.array_equal(new_u[t], row_u)
            assert np.array_equal(new_v[t], row_v)
        assert np.array_equal(new_alpha, alpha)
        assert new_beta == beta


def context_columns(seed, n, d, n_users, n_items):
    """(users, items, contexts, n_users, n_items) of n distinct random cells;
    the sizes are one past the largest ids."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(n_users * n_items, size=n, replace=False)
    contexts = np.empty((n, d))
    for row in range(n):
        rng.integers(1, 6)  # a rating draw, never passed on: PowerMat takes none
        contexts[row] = rng.integers(0, 4, size=d)
    users, items = np.divmod(cells, n_items)
    return users, items, contexts, int(users.max()) + 1, int(items.max()) + 1


class TestPowerMatMatchesReference:
    def check(self, columns, cfg):
        users, items, contexts, n_users, n_items = columns
        ref_u, ref_v, ref_clamps = reference_powermat_train(
            users, items, contexts, cfg, n_users, n_items)
        model = powermat_train(users, items, contexts, cfg, n_users, n_items)
        assert np.array_equal(model.U, ref_u)
        assert np.array_equal(model.V, ref_v)
        return ref_clamps

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_context_dimensions(self, d):
        cfg = TrainConfig(gamma=0.0005, k=6, epochs=4, seed=d)
        self.check(context_columns(d, 500, d, 30, 40), cfg)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_clamp_heavy_init(self, d):
        cfg = TrainConfig(gamma=0.0005, k=6, epochs=3, seed=7,
                          init_lo=1e-9, init_hi=1e-8)
        assert self.check(context_columns(d + 10, 400, d, 25, 30), cfg) > 0

    def test_one_user_runs_are_single_steps(self):
        columns = context_columns(3, 60, 2, 1, 80)
        cfg = TrainConfig(gamma=0.0005, k=4, epochs=3, seed=4)
        self.check(columns, cfg)
        users, items = columns[:2]
        assert len(conflict_free_runs(users, items)) == len(users)

    def test_dense_input_keeps_run_order(self):
        # Dependency levels would batch these steps far more widely than
        # runs do, and so reorder the alpha and beta updates; PowerMat's
        # epochs keep consecutive runs and stay bit-identical.
        columns = context_columns(8, 700, 2, 20, 40)
        order = np.random.default_rng(0).permutation(len(columns[0]))
        users, items = columns[0][order], columns[1][order]
        _, levels = dependency_levels(users, items, 20, 40)
        assert 2 * len(levels) < len(conflict_free_runs(users, items))
        cfg = TrainConfig(gamma=0.0005, k=6, epochs=3, seed=12)
        self.check(columns, cfg)

    def test_divergence_epoch_matches(self):
        users, items, contexts, n_users, n_items = context_columns(5, 300, 3, 20, 25)
        cfg = TrainConfig(gamma=0.005, k=4, epochs=6, seed=1)
        with pytest.raises(TrainingError) as ref:
            reference_powermat_train(users, items, contexts, cfg, n_users, n_items)
        with pytest.raises(TrainingError) as got:
            powermat_train(users, items, contexts, cfg, n_users, n_items)
        # a later epoch: the epochs before it must match too
        assert ref.value.epoch > 0
        assert got.value.epoch == ref.value.epoch
        assert str(got.value) == str(ref.value)
