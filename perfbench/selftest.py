"""Self-tests of the benchmark itself (not of reclab):

    python3 perfbench/selftest.py

The smoke tests run every workload end to end at reduced size, so they need
the program under src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
import unittest
from pathlib import Path

import run
import tracing
import workloads as W


def _span(name, start, end, parent=None, attrs=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "attrs": attrs}


# cli.import [0,1]; cli.main [1,10] > cli.run_bench [1.5,9.5] >
#   ingest.parse_movielens [2,4] > core.RatingsDataset.__init__ [3,3.5]
#   baselines.mf_train [5,8] > core.RatingsDataset.arrays [5,6]
#   evaluation.mae [8,9]
TREE = [
    _span("cli.import", 0.0, 1.0),
    _span("cli.main", 1.0, 10.0),
    _span("cli.run_bench", 1.5, 9.5, 1),
    _span("ingest.parse_movielens", 2.0, 4.0, 2, {"rows": 50}),
    _span("core.RatingsDataset.__init__", 3.0, 3.5, 3),
    _span("baselines.mf_train", 5.0, 8.0, 2, {"steps": 600}),
    _span("core.RatingsDataset.arrays", 5.0, 6.0, 5),
    _span("evaluation.mae", 8.0, 9.0, 2, {"predictions": 100}),
]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_bytes(self):
        for w in W.WORKLOADS.values():
            with self.subTest(workload=w.name):
                first = w.make(3, **w.smoke)
                self.assertEqual(first, w.make(3, **w.smoke))
                self.assertNotEqual(first, w.make(4, **w.smoke))

    def test_rows_are_distinct_cells_on_the_scale(self):
        for w in W.WORKLOADS.values():
            with self.subTest(workload=w.name):
                lines = w.make(5, **w.smoke).splitlines()
                if w.fmt == "comoda":
                    header, lines = lines[0].split(","), lines[1:]
                    self.assertEqual(len(header), 3 + len(W.COMODA_CONTEXT))
                    rows = [line.split(",") for line in lines]
                else:
                    sep = "\t" if w.fmt == "tab100k" else "::"
                    rows = [line.split(sep) for line in lines]
                self.assertEqual(len(rows), w.smoke["n_ratings"])
                self.assertEqual(len({(r[0], r[1]) for r in rows}), len(rows))
                self.assertTrue(all(1 <= int(r[2]) <= W.R_MAX for r in rows))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_times(self):
        self.assertEqual(tracing.self_times(TREE),
                         [1.0, 1.0, 2.0, 1.5, 0.5, 2.0, 1.0, 1.0])

    def test_layer_self_times_and_outside_add_up_to_wall(self):
        m = tracing.layer_metrics([{"op": 0, "wall": 12.0, "spans": TREE}])
        self.assertEqual({layer: m[f"{layer}.self_s"] for layer in tracing.LAYERS},
                         {"ingest": 1.5, "core": 1.5, "baselines": 2.0,
                          "zeroshot": 0.0, "evaluation": 1.0, "cli": 4.0})
        self.assertEqual(m["trace.outside_s"], 2.0)
        self.assertEqual(m["cli.run_bench_self_s"], 2.0)
        self.assertEqual(m["baselines.mf_train_s"], 3.0)
        self.assertEqual(m["baselines.mf_steps_per_s"], 200.0)
        self.assertEqual(m["ingest.parse_rows_per_s"], 25.0)
        self.assertEqual(m["evaluation.predict_us"], 1e4)
        self.assertEqual(m["cli.ops"], 1)

    def test_ops_are_merged_with_their_own_parents(self):
        ops = [{"op": k, "wall": 12.0, "spans": TREE} for k in range(2)]
        m = tracing.layer_metrics(ops)
        self.assertEqual(m["cli.run_bench_self_s"], 4.0)
        self.assertEqual(m["trace.outside_s"], 4.0)

    def test_nested_call_of_one_name_counts_once(self):
        spans = [_span("core.RatingsDataset.__init__", 0.0, 4.0),
                 _span("core.RatingsDataset.__init__", 1.0, 2.0, 0)]
        self.assertEqual(tracing.inclusive_s(spans, {"core.RatingsDataset.__init__"}), 4.0)



class TracedRoundTest(unittest.TestCase):
    @staticmethod
    def _round(spans, plain_wall=10.0, traced_wall=12.0):
        return [{"op": 0, "spans": spans,
                 "plain": {"wall": plain_wall, "failed": False},
                 "traced": {"wall": traced_wall, "failed": False}}]

    def test_overhead_is_the_paired_difference(self):
        m = run.round_metrics(self._round(TREE))
        self.assertEqual(m["trace.overhead_s"], 2.0)
        self.assertEqual(m["trace.wall_s"], 12.0)
        self.assertEqual(m["cli.ops_failed"], 0)

    def test_missing_spans_and_unequal_counters_are_reported(self):
        rounds = [self._round(TREE), self._round(TREE[:1])]
        per_round = [run.round_metrics(r) for r in rounds]
        problems = run.trace_problems(rounds, per_round)
        self.assertIn("no closed cli.main span", problems[0])
        self.assertIn("cli.ops differs between rounds: [1, 0]", problems)
        rounds = [self._round(TREE), self._round(TREE, 11.0, 11.5)]
        self.assertEqual(run.trace_problems(rounds, [run.round_metrics(r) for r in rounds]), [])
        rounds[1][0]["traced"] = {"wall": 11.5, "failed": True}
        problems = run.trace_problems(rounds, [run.round_metrics(r) for r in rounds])
        self.assertIn("failed=True traced but False untraced", problems[0])


class ScoringTest(unittest.TestCase):
    def test_failed_op_scores_r_max_minus_one(self):
        ops = [{"failed": False, "maes": {"mf": 1.0, "random": 2.0}},
               {"failed": True, "maes": {}}]
        self.assertEqual(run.scored_mae(ops, ["mf", "random"]),
                         {"mf": 2.5, "random": 3.0})
        self.assertEqual(run.FAILED_MAE, 4)

    def test_report_checks(self):
        run.STATE.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
            out = Path(tmp)
            (out / "aggregate.json").write_text("{}")

            def problems(rows):
                (out / "report_seed9.json").write_text(
                    json.dumps({"rows": rows}, allow_nan=True))
                return run.check_reports(out, 9, ["mf", "random"], 10)[0]

            good = [{"algo": "mf", "mae": 0.8, "n": 10},
                    {"algo": "random", "mae": 1.6, "n": 10}]
            self.assertEqual(problems(good), [])
            self.assertEqual(len(problems(good[:1])), 1)
            self.assertEqual(len(problems([good[0], dict(good[1], n=9)])), 1)
            self.assertEqual(len(problems([good[0], dict(good[1], mae=4.5)])), 1)
            self.assertIn("unreadable",
                          problems([good[0], dict(good[1], mae=float("nan"))])[0])


class PassCountTest(unittest.TestCase):
    def test_a_run_makes_its_planned_passes_however_long_ops_take(self):
        self.assertEqual(run.planned(30, 11.0, 2), 3)
        self.assertEqual(run.planned(0, 6.0, 2), 2)

        class SlowOps(run.Run):
            """A run whose every op reports 25 s of wall time."""

            def __init__(self, workload):
                self.w, self.seed, self.attempted = workload, 7, 0
                self.started = time.perf_counter()

            def op(self, tag, split_seed, algorithms=None, traced=False):
                self.attempted += 1
                return {"wall": 25.0, "failed": False,
                        "spans": Path(self.w.name, "no-spans.json")}

        w = W.WORKLOADS["comoda-context"]
        slow = SlowOps(w)
        passes, setups = slow.measure(3, setup=True)
        self.assertEqual((len(passes), len(setups)), (3, run.SETUP_REPEATS))
        self.assertEqual(slow.attempted, 3 * w.ops + run.SETUP_REPEATS)
        self.assertEqual(len(SlowOps(w).traced_rounds(2)), 2)


class SmokeTest(unittest.TestCase):
    def _run(self, name, trace):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(name, seed=7, seconds=0, trace=trace, smoke=True)

    def test_every_workload_end_to_end(self):
        for name in W.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = self._run(name, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if name != "comoda-context":
                        self.assertEqual(result["failed"], 0)
                    expected = run.PER_LAYER if trace else list(run.END_TO_END)
                    self.assertEqual(list(result["metrics"]), expected)

    def test_traced_counters_repeat_exactly(self):
        first = self._run("surrogate-readme", True)
        second = self._run("surrogate-readme", True)
        self.assertTrue(second["correct"], second)
        for name in run.EXACT_COUNTERS:
            self.assertEqual(first["metrics"][name], second["metrics"][name])


if __name__ == "__main__":
    unittest.main()
