"""Benchmark workloads: seeded input generators and the `reclab bench` ops
each workload runs.

The generators use numpy only and share no code with `reclab`, so no change
to the program can change the bytes the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

R_MAX = 5
TEST_FRACTION = 0.2

# CoMoDa's context columns after userID, itemID, rating. `mood` and
# `location` are the ones reclab reads by default.
COMODA_CONTEXT = ("time", "daytype", "season", "location", "weather", "social",
                  "endEmo", "dominantEmo", "mood", "physical", "decision",
                  "interaction")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _distinct_cells(rng, n_users: int, n_items: int, n_ratings: int,
                    item_p=None):
    """n_ratings distinct (user, item) cells, users uniform, items drawn
    from item_p (uniform when None), in draw order."""
    if n_ratings > n_users * n_items:
        raise ValueError("more ratings than cells")
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < n_ratings:
        batch = 2 * (n_ratings - len(keys)) + 1024
        users = rng.integers(0, n_users, size=batch)
        items = rng.choice(n_items, size=batch, p=item_p)
        keys = np.concatenate([keys, users * n_items + items])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:n_ratings]
    return keys // n_items, keys % n_items


def _zipf_p(n_items: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64)
    return weights / weights.sum()


def _rating_values(rng, n: int) -> np.ndarray:
    """Rating values with P(v) proportional to v."""
    p = np.arange(1, R_MAX + 1, dtype=np.float64)
    return rng.choice(np.arange(1, R_MAX + 1), size=n, p=p / p.sum())


def make_surrogate(seed: int, n_users: int, n_items: int, n_ratings: int):
    """The acceptance surrogate recipe: planted rank-4 structure plus
    user/item biases and noise, cells sampled uniformly."""
    rng = _rng(seed, 1)
    mu, d, noise = 3.6, 4, 0.9
    user_bias = rng.normal(0, 0.4, n_users)
    item_bias = rng.normal(0, 0.4, n_items)
    user_lat = rng.normal(0, 0.3, (n_users, d))
    item_lat = rng.normal(0, 0.3, (n_items, d))
    cells = rng.choice(n_users * n_items, size=n_ratings, replace=False)
    us, js = cells // n_items, cells % n_items
    raw = (mu + user_bias[us] + item_bias[js]
           + np.einsum("ij,ij->i", user_lat[us], item_lat[js])
           + rng.normal(0, noise, n_ratings))
    vals = np.clip(np.rint(raw), 1, R_MAX).astype(np.int64)
    ts = rng.integers(874_724_710, 893_286_638, size=n_ratings)
    lines = [f"{u + 1}\t{j + 1}\t{v}\t{t}" for u, j, v, t in
             zip(us.tolist(), js.tolist(), vals.tolist(), ts.tolist())]
    return "\n".join(lines) + "\n"


def make_zipf(seed: int, n_users: int, n_items: int, n_ratings: int):
    """MovieLens-1M shaped ratings: item popularity proportional to
    rank^-1, P(value v) proportional to v, rows grouped by user as in
    ratings.dat, written with `::` separators."""
    rng = _rng(seed, 2)
    us, js = _distinct_cells(rng, n_users, n_items, n_ratings, _zipf_p(n_items))
    vals = _rating_values(rng, n_ratings)
    ts = rng.integers(956_703_932, 1_046_454_590, size=n_ratings)
    order = np.argsort(us, kind="stable")
    lines = [f"{u + 1}::{j + 1}::{v}::{t}" for u, j, v, t in
             zip(us[order].tolist(), js[order].tolist(),
                 vals[order].tolist(), ts[order].tolist())]
    return "\n".join(lines) + "\n"


def make_comoda(seed: int, n_users: int, n_items: int, n_ratings: int):
    """LDOS-CoMoDa shaped CSV: Zipf item popularity, 12 small-integer
    context columns in which about one value in ten is the -1 missing
    marker."""
    rng = _rng(seed, 3)
    us, js = _distinct_cells(rng, n_users, n_items, n_ratings, _zipf_p(n_items))
    vals = _rating_values(rng, n_ratings)
    levels = rng.integers(2, 8, size=len(COMODA_CONTEXT))
    ctx = rng.integers(1, levels + 1, size=(n_ratings, len(COMODA_CONTEXT)))
    ctx[rng.random(ctx.shape) < 0.1] = -1
    header = ",".join(("userID", "itemID", "rating") + COMODA_CONTEXT)
    lines = [header]
    for u, j, v, row in zip(us.tolist(), js.tolist(), vals.tolist(), ctx.tolist()):
        lines.append(",".join(map(str, [u + 1, j + 1, v] + row)))
    return "\n".join(lines) + "\n"


README_ALGOS = ["itemcf", "mf", "zeromat", "dotmat", "poissonmat",
                "poissonmat-hybrid", "random"]


@dataclass(frozen=True)
class Workload:
    """A generated dataset plus the `reclab bench` configs one pass runs.

    `ops` split seeds are used per pass, each its own `reclab bench` call
    with one repetition. `pass_s` is the nominal wall time of one pass and
    its set-up call on a 2-CPU host at the commit that defined the
    benchmark; it only sets how many passes fill a run. `smoke` holds
    reduced sizes for the self-tests.
    """

    name: str
    why: str
    make: Callable
    filename: str
    fmt: str
    shape: Dict[str, int]
    smoke: Dict[str, int]
    algorithms: List[str]
    train: Dict
    ops: int
    pass_s: float
    extra: Dict


# Each pass takes a few seconds, so that one run holds several. The surrogate
# keeps the acceptance surrogate's density at 6,000 ratings; zipf-1m keeps
# the full ML-1M shape, so item-CF stays dense and dominates memory, with a
# tenth of its ratings; comoda-context keeps the published CoMoDa size and
# averages its MAE over ten split seeds per pass.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="surrogate-readme",
        why="SGD-bound: the README config on the uniform acceptance "
            "surrogate, where MF and the hybrid's MF stage dominate",
        make=make_surrogate, filename="u.data", fmt="tab100k",
        shape=dict(n_users=232, n_items=310, n_ratings=6000),
        smoke=dict(n_users=40, n_items=50, n_ratings=300),
        algorithms=README_ALGOS,
        train={"default": {"k": 10}, "mf": {"epochs": 30}},
        ops=1, pass_s=6.0, extra={}),
    Workload(
        name="zipf-1m",
        why="ingest, dataset, item-CF and prediction bound at the ML-1M "
            "shape; MF under Zipf skew; no zero-shot trainer",
        make=make_zipf, filename="ratings.dat", fmt="colons1m",
        shape=dict(n_users=6040, n_items=3706, n_ratings=100000),
        smoke=dict(n_users=60, n_items=40, n_ratings=400),
        algorithms=["random", "itemcf", "mf"],
        train={"mf": {"epochs": 1}},
        ops=1, pass_s=6.0, extra={}),
    Workload(
        name="comoda-context",
        why="many small ops on the CoMoDa parser and PowerMat: start-up, "
            "imports and report writing are half of each op",
        make=make_comoda, filename="comoda.csv", fmt="comoda",
        shape=dict(n_users=121, n_items=1232, n_ratings=2296),
        smoke=dict(n_users=20, n_items=60, n_ratings=200),
        algorithms=["random", "zeromat", "dotmat", "poissonmat", "powermat"],
        train={},
        ops=10, pass_s=11.0, extra={"context_columns": ["mood", "location"]}),
]}


def split_seeds(workload: Workload, seed: int) -> List[int]:
    """The consecutive split seeds one pass of the workload runs."""
    return [seed * 1000 + k for k in range(workload.ops)]


def test_size(n_ratings: int) -> int:
    """Rows reclab's `split` puts in the test side."""
    return int(round(TEST_FRACTION * n_ratings))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def materialize(workload: Workload, seed: int, root: Path, smoke: bool = False):
    """Write the workload's dataset for `seed` under root (once) and return
    (path, n_ratings)."""
    shape = workload.smoke if smoke else workload.shape
    size = "x".join(str(shape[k]) for k in ("n_users", "n_items", "n_ratings"))
    directory = root / f"{workload.name}-{size}-{seed}"
    path = directory / workload.filename
    if not path.exists():
        text = workload.make(seed, **shape)
        directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    return path, shape["n_ratings"]


def bench_config(workload: Workload, data_path: Path, split_seed: int,
                 algorithms=None) -> dict:
    config = {
        "dataset": {"path": str(data_path), "format": workload.fmt},
        "split": {"test_fraction": TEST_FRACTION, "seed": split_seed},
        "repetitions": 1,
        "algorithms": list(algorithms or workload.algorithms),
        "train": workload.train,
    }
    config.update(workload.extra)
    return config
