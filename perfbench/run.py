"""End-to-end benchmark of `reclab bench`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all`. The benchmark writes
the workload's input for the seed, then runs `python -m reclab.cli bench` on
it as fresh child processes, one at a time, with PYTHONPATH=src and without
RECLAB_THREADS or RECLAB_ML100K. A pass runs every op of the workload back
to back, preceded by one set-up call. A run makes as many passes as fill S
seconds at the workload's nominal pass time (at least two, so that reports
can be compared byte for byte). The count depends on S and the workload
only, so every run of a seed does the same ops, and counts the same ops
attempted and failed, however fast the host happens to be.

End-to-end metrics (--trace 0):
  bench_wall_s  wall time of one pass: the run's passes timed together and
                divided by their number. On a shared host the speed of a
                pass swings by up to half between neighbouring passes, so
                timing all of them together is steadier than their median.
  setup_s       median wall time of one bench call with only the `random`
                algorithm: start-up, imports, parse, one split, reports
  peak_rss_mb   median over passes of the largest max-RSS of a pass's
                processes, from wait4
  mae.mean      mean reported MAE over the pass's completed ops and their
                algorithms; failed ops are left out here and scored
                r_max - 1 in the `mae.scored` summary line instead

--trace 1 runs rounds of the workload's ops instead (as many as fill S
seconds at the nominal time of a round, at least one), each op once untraced
and once under tracing.py right after it, and reports the per-layer metrics:
the median over rounds, with trace.overhead_s the summed difference of each
pair. The last line of stdout is the JSON result; the lines before it give
every metric with median, quartiles and sample count. Each run's full
record, including input hashes and the environment, goes to
.perfbench/results/.

An op fails on a nonzero exit, a traceback on stderr, or a failed output
check. `correct` is false only when the program wrote a wrong report,
repeats of one op disagree (a traced op included), a traced op leaves no
spans, or an exact counter differs between traced runs of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
DEADLINE_S = 170.0
FAILED_MAE = W.R_MAX - 1

END_TO_END = {"bench_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "mae.mean": "MAE"}
# counters that must repeat exactly for one seed and one program version
EXACT_COUNTERS = ("baselines.mf_sgd_steps", "zeroshot.train_steps",
                  "zeroshot.powermat_steps", "zeroshot.augment_fills",
                  "evaluation.predictions", "core.arrays_calls",
                  "ingest.split_calls", "cli.ops")


PER_LAYER = [
    "ingest.parse_s", "ingest.parse_rows_per_s", "ingest.split_s",
    "ingest.split_calls", "ingest.self_s",
    "core.dataset_init_s", "core.dataset_init_calls", "core.arrays_s",
    "core.arrays_calls", "core.cells_s", "core.to_dense_s", "core.self_s",
    "baselines.mf_train_s", "baselines.mf_sgd_steps", "baselines.mf_steps_per_s",
    "baselines.item_similarities_s", "baselines.cf_init_s", "baselines.self_s",
    "zeroshot.train_s", "zeroshot.train_steps", "zeroshot.train_steps_per_s",
    "zeroshot.powermat_train_s", "zeroshot.powermat_steps",
    "zeroshot.predictor_init_s", "zeroshot.augment_self_s",
    "zeroshot.augment_fills", "zeroshot.self_s",
    "evaluation.mae_s", "evaluation.predictions", "evaluation.predict_us",
    "evaluation.random_s", "evaluation.self_s",
    "cli.import_s", "cli.run_bench_self_s", "cli.ops", "cli.ops_failed",
    "cli.self_s",
    "trace.wall_s", "trace.outside_s", "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, or set-up always fails."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RECLAB_THREADS", "RECLAB_ML100K", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(argv: list, out_dir: Path, timeout: float) -> dict:
    """Run argv from the checkout root and wait for it. Returns its wall
    time, exit code, stderr and max RSS (from wait4)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    with open(out_dir / "stdout.txt", "wb") as out, \
            open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, 9)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return {"wall": wall, "rc": proc.returncode, "stderr": stderr,
            "rss_mb": usage.ru_maxrss / 1024.0, "killed": state["killed"]}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def check_reports(out_dir: Path, seed: int, algorithms: list, n_test: int):
    """Problems with the reports of one op, the MAE per algorithm, and the
    bytes of report_seed<seed>.json."""
    problems, maes, data = [], {}, b""
    try:
        data = (out_dir / f"report_seed{seed}.json").read_bytes()
        report = strict_json(data)
        strict_json((out_dir / "aggregate.json").read_bytes())
        rows = report["rows"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"], maes, data
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        return [f"rows are not a list of objects: {rows!r:.200}"], maes, data
    if sorted(r.get("algo") for r in rows) != sorted(algorithms):
        problems.append(f"rows {[r.get('algo') for r in rows]} != {algorithms}")
    for row in rows:
        mae, n = row.get("mae"), row.get("n")
        if n != n_test:
            problems.append(f"{row.get('algo')}: n={n}, test split has {n_test}")
        if not (isinstance(mae, (int, float)) and math.isfinite(mae)
                and 0 <= mae <= FAILED_MAE):
            problems.append(f"{row.get('algo')}: mae={mae!r} outside [0, {FAILED_MAE}]")
        else:
            maes[row["algo"]] = float(mae)
    return problems, maes, data


def scored_mae(ops: list, algorithms: list) -> dict:
    """Mean MAE per algorithm over ops; an op that failed scores
    r_max - 1 for every algorithm it was configured to run."""
    return {a: statistics.fmean(FAILED_MAE if op["failed"] else op["maes"][a]
                                for op in ops)
            for a in algorithms}


class Run:
    """One benchmark run of one workload: its inputs, ops and outcomes."""

    def __init__(self, workload, seed: int, smoke: bool = False):
        self.w = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.data_path, n_ratings = W.materialize(workload, seed, STATE / "inputs", smoke)
        self.input_sha256 = W.sha256(self.data_path)
        self.n_test = W.test_size(n_ratings)
        self.work = STATE / "work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.attempted = self.failed = 0
        self.problems = []      # wrong outputs: make the run incorrect
        self.failures = []      # crashes and wrong outputs, one line each
        self.report_bytes = {}  # split seed -> sha256 of its first report

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def op(self, tag: str, split_seed: int, algorithms=None, traced=False):
        algorithms = list(algorithms or self.w.algorithms)
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.json"
        config.write_text(json.dumps(
            W.bench_config(self.w, self.data_path, split_seed, algorithms)))
        cli = ["bench", "--config", str(config), "--out", str(out / "reports")]
        if traced:
            argv = [sys.executable, str(Path(tracing.__file__)),
                    str(out / "spans.json"), str(split_seed)] + cli
        else:
            argv = [sys.executable, "-m", "reclab.cli"] + cli
        child = launch(argv, out, self.remaining())
        why = None
        if child["killed"]:
            why = "killed at the run deadline"
        elif child["rc"] != 0 or "Traceback" in child["stderr"]:
            last = child["stderr"].strip().splitlines()[-1:] or [""]
            why = f"exit {child['rc']}: {last[0][:200]}"
        maes = {}
        if why is None:
            problems, maes, data = check_reports(out / "reports", split_seed,
                                                 algorithms, self.n_test)
            digest = hashlib.sha256(data).hexdigest()
            key = (split_seed, tuple(algorithms))
            if not problems and self.report_bytes.setdefault(key, digest) != digest:
                problems = [f"report_seed{split_seed}.json differs from its first run"]
            if problems:
                why = "; ".join(problems)
                self.problems.extend(f"{tag}: {p}" for p in problems)
        self.attempted += 1
        if why is not None:
            self.failed += 1
            self.failures.append(f"{tag} (split seed {split_seed}): {why}")
        return {"tag": tag, "seed": split_seed, "wall": child["wall"],
                "rss_mb": child["rss_mb"], "failed": why is not None,
                "maes": maes, "spans": out / "spans.json"}

    def setup_op(self) -> float:
        """Wall time of one random-only bench call."""
        result = self.op(f"setup{self.attempted}", W.split_seeds(self.w, self.seed)[0],
                         ["random"])
        if result["failed"]:
            raise BenchError(f"set-up op failed: {self.failures[-1]}")
        return result["wall"]

    def measure(self, n_passes: int, setup: bool):
        """`n_passes` untraced passes, each preceded by a set-up call when
        `setup` is set, so that both kinds of sample spread over the whole
        run. Returns (passes, set-up times)."""
        passes, setups, last = [], [], 0.0
        while len(passes) < n_passes and self.has_time_for(len(passes), last):
            begin = time.perf_counter()
            if setup:
                setups.append(self.setup_op())
            passes.append([self.op(f"p{len(passes)}op{k}", s)
                           for k, s in enumerate(W.split_seeds(self.w, self.seed))])
            last = time.perf_counter() - begin
        while setup and len(setups) < SETUP_REPEATS:
            setups.append(self.setup_op())
        return passes, setups

    def traced_rounds(self, n_rounds: int) -> list:
        """`n_rounds` rounds of the workload's ops. In a round each op runs
        untraced and then traced, back to back, so the pair sees the same
        host speed and their difference is the cost of tracing. Returns,
        per round, one dict per op."""
        rounds, last = [], 0.0
        while len(rounds) < n_rounds and self.has_time_for(len(rounds), last):
            begin = time.perf_counter()
            ops = []
            for k, s in enumerate(W.split_seeds(self.w, self.seed)):
                plain = self.op(f"r{len(rounds)}op{k}", s)
                traced = self.op(f"r{len(rounds)}traced_op{k}", s, traced=True)
                try:
                    spans = json.loads(traced["spans"].read_text(encoding="utf-8"))["spans"]
                except (OSError, ValueError, KeyError):
                    spans = []
                ops.append({"op": k, "plain": plain, "traced": traced, "spans": spans})
            rounds.append(ops)
            last = time.perf_counter() - begin
        return rounds

    def has_time_for(self, done: int, last: float) -> bool:
        """Whether another pass or round fits before the run's deadline,
        judged by the last one, which took `last` seconds. Only a program or
        host several times slower than the nominal pass time stops a run
        short of its planned count."""
        if self.remaining() >= 2 * last:
            return True
        print(f"  stopped after {done} passes: the next could pass the "
              f"{DEADLINE_S:.0f} s deadline")
        return False


def planned(seconds: float, unit_s: float, least: int) -> int:
    """How many passes (or traced rounds) of nominal length `unit_s` fill
    `seconds`, at least `least`."""
    return max(least, round(seconds / unit_s))


def round_metrics(ops: list) -> dict:
    """Per-layer metrics of one traced round."""
    m = tracing.layer_metrics([{"op": o["op"], "wall": o["traced"]["wall"],
                                "spans": o["spans"]} for o in ops])
    m["cli.ops_failed"] = sum(o["traced"]["failed"] for o in ops)
    m["trace.overhead_s"] = sum(o["traced"]["wall"] - o["plain"]["wall"] for o in ops)
    return m


def trace_problems(rounds: list, per_round: list) -> list:
    """Traced ops that left no closed `cli.main` span or failed where their
    untraced twin did not (or the other way round), and exact counters that
    differ between the rounds of one run."""
    problems = []
    for r, ops in enumerate(rounds):
        for o in ops:
            if not any(s["name"] == "cli.main" and s["end"] is not None
                       for s in o["spans"]):
                problems.append(f"round {r} op {o['op']}: no closed cli.main span")
            if o["plain"]["failed"] != o["traced"]["failed"]:
                problems.append(f"round {r} op {o['op']}: failed="
                                f"{o['traced']['failed']} traced but "
                                f"{o['plain']['failed']} untraced")
    for name in EXACT_COUNTERS:
        values = [m[name] for m in per_round]
        if len(set(values)) > 1:
            problems.append(f"{name} differs between rounds: {values}")
    return problems


def summary(values: list) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def print_metric(name: str, unit: str, values: list) -> None:
    s = summary(values)
    print(f"  {name} [{unit}]: median={s['median']:.6g} q1={s['q1']:.6g} "
          f"q3={s['q3']:.6g} mean={statistics.fmean(values):.6g} n={s['n']}")


def source_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": commit,
            "src_sha256": source_sha256(ROOT / "src"),
            "bench_sha256": source_sha256(Path(__file__).resolve().parent)}


def check_repeat_counters(run: Run, counters: dict, env: dict) -> list:
    """Compare exact counters with an earlier traced run of the same seed,
    input, program and benchmark; store them when there is none."""
    key = (f"{run.w.name}-{run.seed}-{run.input_sha256[:16]}-"
           f"{env['src_sha256'][:16]}-{env['bench_sha256'][:16]}")
    path = STATE / "counters" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        return [f"{k}: {before.get(k)} before, {counters[k]} now"
                for k in EXACT_COUNTERS if before.get(k) != counters[k]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True), encoding="utf-8")
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    if not (ROOT / "src" / "reclab").is_dir():
        raise BenchError(f"no reclab package under {ROOT / 'src'}")
    workload = W.WORKLOADS[name]
    run = Run(workload, seed, smoke)
    env = environment()
    if trace:
        # a round runs every op twice and the traced twin costs a little more
        rounds = run.traced_rounds(planned(seconds, 2.2 * workload.pass_s, 1))
        passes, setup = [[o["plain"] for o in ops] for ops in rounds], []
    else:
        passes, setup = run.measure(planned(seconds, workload.pass_s, 2), setup=True)
    walls = [sum(o["wall"] for o in ops) for ops in passes]
    rss = [max(o["rss_mb"] for o in ops) for ops in passes]
    done = [o for ops in passes for o in ops if not o["failed"]]
    mae_means = [statistics.fmean(v for o in ops if not o["failed"]
                                  for v in o["maes"].values())
                 for ops in passes if any(not o["failed"] for o in ops)] or [FAILED_MAE]
    scored = scored_mae(passes[0], workload.algorithms)

    print(f"workload {name} seed {seed}: {len(passes)} passes of "
          f"{len(passes[0])} ops; input {run.data_path.name} "
          f"sha256 {run.input_sha256}")
    end_to_end = {"bench_wall_s": walls, "setup_s": setup, "peak_rss_mb": rss,
                  "mae.mean": mae_means}
    for metric, unit in END_TO_END.items():
        if end_to_end[metric]:
            print_metric(metric, unit, end_to_end[metric])
    for algo in workload.algorithms:
        print_metric(f"mae.{algo}", "MAE",
                     [o["maes"][algo] for o in done if algo in o["maes"]] or [FAILED_MAE])
    print(f"  mae.scored [MAE]: {statistics.fmean(scored.values()):.6g} "
          f"(failed ops score {FAILED_MAE})")
    print(f"  ops_failed_frac [ratio]: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} ops)")
    for line in run.failures:
        print(f"    failed: {line}")

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "input": str(run.data_path.relative_to(ROOT)),
              "input_sha256": run.input_sha256, "env": env,
              "samples": end_to_end, "mae_scored": scored,
              "failures": run.failures}
    if trace:
        per_round = [round_metrics(ops) for ops in rounds]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        problems = trace_problems(rounds, per_round)
        problems += check_repeat_counters(run, {k: per_round[0][k] for k in EXACT_COUNTERS}, env)
        run.problems += [f"trace: {p}" for p in problems]
        first = per_round[0]
        layer_sum = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"  traced rounds: {len(rounds)}; in the first, self times {layer_sum:.4f} s"
              f" + outside {first['trace.outside_s']:.4f} s = wall {first['trace.wall_s']:.4f} s")
        values = {m: (metrics[m], layer_unit(m)) for m in PER_LAYER}
        for metric, (value, unit) in values.items():
            print(f"  {metric} [{unit}]: {value:.6g} n={len(per_round)}")
        record["per_layer"] = metrics
        record["per_layer_rounds"] = per_round
    else:
        values = {m: (statistics.median(end_to_end[m]), unit)
                  for m, unit in END_TO_END.items()}
        values["bench_wall_s"] = (statistics.fmean(walls), "s")
    for problem in run.problems:
        print(f"  INCORRECT: {problem}")

    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in values.items()}}
    record["result"] = result
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
