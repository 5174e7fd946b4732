"""Spans around calls into reclab's public functions, and the per-layer
metrics derived from them.

Run as a script, this module executes one `reclab` CLI call in its own
process with every name in TRACED wrapped, and writes the spans as JSON when
the call ends:

    PYTHONPATH=src python perfbench/tracing.py SPANS.json OP_ID bench --config C --out D

The wrappers are installed from here, so the program's sources stay
untouched. Functions called once per prediction or per SGD step
(`predict`, `clamp_prediction`, `mf_predict`, the `*_step` rules) are not
traced; prediction counts come from the test-set size instead. A name that
the program no longer defines is skipped, so its metrics read 0.

Importing this module imports neither numpy nor reclab.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback

clock = time.perf_counter

LAYERS = ("ingest", "core", "baselines", "zeroshot", "evaluation", "cli")


def _rows(args, kwargs, result):
    return {"rows": len(result.dataset)}


def _cfg(args, kwargs):
    """The TrainConfig among a trainer's arguments."""
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "samples_per_epoch") and hasattr(value, "epochs"):
            return value
    raise ValueError("no TrainConfig argument")


def _mf_steps(args, kwargs, result):
    train = kwargs.get("train", args[0] if args else None)
    return {"steps": _cfg(args, kwargs).epochs * len(train)}


def _zeroshot_steps(args, kwargs, result):
    cfg = _cfg(args, kwargs)
    return {"steps": cfg.epochs * cfg.samples_per_epoch}


def _powermat_steps(args, kwargs, result):
    contexts = kwargs.get("contexts", args[0] if args else None)
    return {"steps": _cfg(args, kwargs).epochs * len(contexts)}


def _fills(args, kwargs, result):
    train = kwargs.get("train", args[0] if args else None)
    return {"fills": len(result) - len(train)}


def _predictions(args, kwargs, result):
    test = kwargs.get("test", args[1] if len(args) > 1 else None)
    return {"predictions": len(test)}


# (layer, qualified name in the layer's module, counter taken from the call)
TRACED = [
    ("ingest", "parse_movielens", _rows),
    ("ingest", "parse_comoda", _rows),
    ("ingest", "split", None),
    ("core", "RatingsDataset.__init__", None),
    ("core", "RatingsDataset.arrays", None),
    ("core", "RatingsDataset.cells", None),
    ("core", "RatingsDataset.to_dense", None),
    ("core", "RatingsDataset.global_mean", None),
    ("baselines", "item_similarities", None),
    ("baselines", "CfPredictor.__init__", None),
    ("baselines", "mf_train", _mf_steps),
    ("zeroshot", "train_zeroshot", _zeroshot_steps),
    ("zeroshot", "powermat_train", _powermat_steps),
    ("zeroshot", "ZeroShotPredictor.__init__", None),
    ("zeroshot", "augment_with_zeroshot", _fills),
    ("zeroshot", "hybrid_train", None),
    ("evaluation", "mae", _predictions),
    ("evaluation", "random_baseline_mae", None),
    ("cli", "run_bench", None),
]


class Tracer:
    """Spans of one op, kept in memory. The program runs single-threaded
    under the benchmark (it strips RECLAB_THREADS), so one stack gives each
    span its parent."""

    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self._stack = []

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": clock(), "end": None,
                           "parent": parent, "op": self.op, "attrs": None})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = clock()
        self._stack.pop()

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                try:
                    self.spans[index]["attrs"] = count(args, kwargs, result)
                except Exception as exc:  # a changed signature loses the count only
                    self.spans[index]["attrs"] = {"count_error": repr(exc)}
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every TRACED name that exists. A module-level function is
    replaced in every reclab module that bound it by name, because callers
    look it up there (`reclab.cli.mf_train` and `reclab.zeroshot.mf_train`
    are the same function)."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "reclab" or name.startswith("reclab."))]
    for layer, qualname, count in TRACED:
        module = sys.modules.get(f"reclab.{layer}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        replacement = tracer.wrap(f"{layer}.{qualname}", original, count)
        setattr(owner, attr, replacement)
        if not owner_name:
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, replacement)


def run(spans_path: str, op: int, cli_args: list) -> int:
    tracer = Tracer(op)
    index = tracer.start("cli.import")
    try:
        import reclab.cli
    finally:
        tracer.end(index)
    install(tracer)
    code = 0
    index = tracer.start("cli.main")
    try:
        reclab.cli.main.main(args=cli_args, prog_name="reclab",
                             standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.end(index)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op, "spans": tracer.spans}, fh)
    return code


# ---- analysis, run by the benchmark on the spans files ----

def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.
    Spans of one op nest in time, so children never overlap."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ancestors(spans: list, index: int):
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def inclusive_s(spans: list, names: set) -> float:
    """Time inside spans named in `names`, counting a nested call of the
    same set once."""
    return sum(s["end"] - s["start"] for i, s in enumerate(spans)
               if s["name"] in names
               and not any(a in names for a in _ancestors(spans, i)))


def _count(spans, names):
    return sum(1 for s in spans if s["name"] in names)


def _attr(spans, names, key):
    return sum((s["attrs"] or {}).get(key, 0) for s in spans if s["name"] in names)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(ops: list) -> dict:
    """Per-layer metrics of a traced pass. `ops` holds one dict per op with
    its `spans` and the `wall` time the launcher measured for its process.

    The layers' self times plus `trace.outside_s` equal `trace.wall_s`."""
    spans = []
    for op in ops:
        offset = len(spans)
        for s in op["spans"]:
            s = dict(s)
            if s["parent"] is not None:
                s["parent"] += offset
            spans.append(s)
    wall = sum(op["wall"] for op in ops)
    own = self_times(spans)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    def incl(*names):
        return inclusive_s(spans, set(names))

    def self_of(*names):
        return sum(t for t, s in zip(own, spans) if s["name"] in names)

    parse = ("ingest.parse_movielens", "ingest.parse_comoda")
    m = {
        "ingest.parse_s": incl(*parse),
        "ingest.split_s": incl("ingest.split"),
        "ingest.split_calls": _count(spans, {"ingest.split"}),
        "core.dataset_init_s": incl("core.RatingsDataset.__init__"),
        "core.dataset_init_calls": _count(spans, {"core.RatingsDataset.__init__"}),
        "core.arrays_s": incl("core.RatingsDataset.arrays"),
        "core.arrays_calls": _count(spans, {"core.RatingsDataset.arrays"}),
        "core.cells_s": incl("core.RatingsDataset.cells"),
        "core.to_dense_s": incl("core.RatingsDataset.to_dense"),
        "baselines.mf_train_s": incl("baselines.mf_train"),
        "baselines.mf_sgd_steps": _attr(spans, {"baselines.mf_train"}, "steps"),
        "baselines.item_similarities_s": incl("baselines.item_similarities"),
        "baselines.cf_init_s": incl("baselines.CfPredictor.__init__"),
        "zeroshot.train_s": incl("zeroshot.train_zeroshot"),
        "zeroshot.train_steps": _attr(spans, {"zeroshot.train_zeroshot"}, "steps"),
        "zeroshot.powermat_train_s": incl("zeroshot.powermat_train"),
        "zeroshot.powermat_steps": _attr(spans, {"zeroshot.powermat_train"}, "steps"),
        "zeroshot.predictor_init_s": incl("zeroshot.ZeroShotPredictor.__init__"),
        "zeroshot.augment_self_s": self_of("zeroshot.augment_with_zeroshot"),
        "zeroshot.augment_fills": _attr(spans, {"zeroshot.augment_with_zeroshot"}, "fills"),
        "evaluation.mae_s": incl("evaluation.mae"),
        "evaluation.predictions": _attr(spans, {"evaluation.mae"}, "predictions"),
        "evaluation.random_s": incl("evaluation.random_baseline_mae"),
        "cli.import_s": incl("cli.import"),
        "cli.run_bench_self_s": self_of("cli.run_bench"),
        "cli.ops": _count(spans, {"cli.main"}),
    }
    m["ingest.parse_rows_per_s"] = _ratio(_attr(spans, set(parse), "rows"),
                                          m["ingest.parse_s"])
    m["baselines.mf_steps_per_s"] = _ratio(m["baselines.mf_sgd_steps"],
                                           m["baselines.mf_train_s"])
    m["zeroshot.train_steps_per_s"] = _ratio(m["zeroshot.train_steps"],
                                             m["zeroshot.train_s"])
    m["evaluation.predict_us"] = 1e6 * _ratio(m["evaluation.mae_s"],
                                              m["evaluation.predictions"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for t, s in zip(own, spans)
                                   if s["name"].split(".", 1)[0] == layer)
    m["trace.wall_s"] = wall
    m["trace.outside_s"] = wall - covered
    return m


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))
