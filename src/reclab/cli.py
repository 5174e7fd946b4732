"""Command line entry point: `reclab bench`, `reclab analyze`,
`reclab generate`.

Exit codes: 0 success, 1 input/config error, 2 numerical divergence.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

import click
import numpy as np

from . import evaluation, ingest
from .baselines import (CfPredictor, MfPredictor, SimilarityKind,
                        item_similarities, mf_train)
from .core import RatingsDataset, TrainConfig, TrainingError
from .evaluation import Predictor, RandomPredictor
from .ingest import MovieLensFormat, SplitSpec
from .zeroshot import (ZeroShotPredictor, augment_with_zeroshot, dotmat_step,
                       poissonmat_step, powermat_train, train_zeroshot, zeromat_step)

EXIT_INPUT_ERROR = 1
EXIT_DIVERGENCE = 2

_FORMATS = {"tab100k": MovieLensFormat.TAB_100K,
            "colons1m": MovieLensFormat.COLONS_1M}
DATASET_FORMATS = sorted(_FORMATS) + ["comoda"]

def _atomic_write(path: Path, content: str) -> None:
    """Write content to path, making its directory only now, so that a run
    that fails before its first write leaves nothing behind. A failed write
    or rename removes its temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _write_json(path: Path, obj, indent: Optional[int] = None) -> None:
    """obj as JSON with sorted keys and one trailing newline. A NaN or
    infinity is an error naming the file, never written as invalid JSON.
    Every output file but generate's dataset goes through this or _write_csv."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"cannot write {path.name}: {exc}") from None
    _atomic_write(path, text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """The header, then each row, as one line of str() values joined by commas."""
    _atomic_write(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def _read_json(path: Path):
    """The JSON value in path, read as UTF-8 after any leading byte-order
    mark. Nesting deeper than the parser's recursion limit is a ValueError
    naming the file, not a RecursionError."""
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_dataset(path: Path, fmt: str, context_columns) -> RatingsDataset:
    """The dataset in path, in one of DATASET_FORMATS."""
    if fmt == "comoda":
        return ingest.parse_comoda(path.read_bytes(), context_columns).dataset
    return ingest.parse_movielens(path.read_bytes(), _FORMATS[fmt]).dataset


# Fit functions: fit(name, config, train, seed) trains the named algorithm on
# the train split with the settings of BenchConfig `config` and the split
# seed, and returns its predictor. They look trainers and predictor classes up
# by this module's names at call time (REGISTRY holds fits and step rules
# only), so wrappers installed on those names (perfbench/tracing.py) see every call.

def _fit_itemcf(algo, config, train, seed) -> Predictor:
    return CfPredictor(item_similarities(train, config.similarity_kind), train)


def _fit_mf(algo, config, train, seed) -> Predictor:
    model = mf_train(train, config.train_config(algo, seed, len(train)))
    return MfPredictor(model)


def _fit_shape_only(rule, algo, config, train, seed) -> Predictor:
    cfg = config.train_config(algo, seed, len(train))
    model = train_zeroshot(rule, train.n_users, train.n_items, cfg)
    return ZeroShotPredictor(model)


def _fit_powermat(algo, config, train, seed) -> Predictor:
    if train.contexts is None:
        raise ValueError("powermat: context required (use a comoda dataset)")
    cfg = config.train_config(algo, seed, len(train))
    # sized by the dataset, not by the train ids, so test-only ids stay in range
    model = powermat_train(train.users, train.items, train.contexts, cfg, train.n_users,
                           train.n_items)
    return ZeroShotPredictor(model)


def _fit_hybrid(algo, config, train, seed) -> Predictor:
    base = algo.removesuffix("-hybrid")
    zero_shot = REGISTRY[base].fit(base, config, train, seed)
    augmented = augment_with_zeroshot(train, zero_shot, seed)
    return _fit_mf("mf", config, augmented, seed)


def _fit_random(algo, config, train, seed) -> Predictor:
    return RandomPredictor(seed)


class Algorithm(NamedTuple):
    """The TrainConfig fields an algorithm starts from, which the config's
    `train.default` and `train.<name>` sections override (None: it takes
    no `train` section), and its fit function, which returns the Predictor
    that scores it."""

    defaults: Optional[Dict]
    fit: Callable[..., Predictor]


# Stable starting points per trainer. ZeroMat collapses to a uniform fixed
# point if over-trained, and PoissonMat's gradient coefficient is strictly
# positive, so both only tolerate a small step budget. A hybrid takes no
# settings of its own: its stages read train.<base> and train.mf.
REGISTRY: Dict[str, Algorithm] = {
    "itemcf": Algorithm(None, _fit_itemcf),
    "mf": Algorithm({}, _fit_mf),
    "zeromat": Algorithm({"gamma": 0.002, "epochs": 2}, partial(_fit_shape_only, zeromat_step)),
    "dotmat": Algorithm({"gamma": 0.005, "epochs": 5}, partial(_fit_shape_only, dotmat_step)),
    "poissonmat": Algorithm({"gamma": 2e-5, "epochs": 2},
                            partial(_fit_shape_only, poissonmat_step)),
    "powermat": Algorithm({"gamma": 0.0005, "epochs": 5}, _fit_powermat),
    "zeromat-hybrid": Algorithm(None, _fit_hybrid),
    "dotmat-hybrid": Algorithm(None, _fit_hybrid),
    "poissonmat-hybrid": Algorithm(None, _fit_hybrid),
    "random": Algorithm(None, _fit_random),
}

ALGORITHMS = tuple(REGISTRY)


def _evaluate_algorithm(algo: str, config: BenchConfig, train: RatingsDataset,
                        test: RatingsDataset, seed: int) -> float:
    """Fit one registered algorithm on train and return its MAE on test."""
    try:
        return evaluation.mae(REGISTRY[algo].fit(algo, config, train, seed), test)
    except TrainingError as exc:
        # name the registered algorithm and the seed; exc names the stage
        raise TrainingError(f"{algo} (seed {seed}): {exc}", epoch=exc.epoch) from exc


# Every config key `reclab bench` reads, by dotted path, with its JSON type.
# No other key is accepted at the top level or inside `dataset` and `split`.
# A _NUMBER key takes any number; none may be NaN or infinite.
_NUMBER = (int, float)
_CONFIG_TYPES = {
    "dataset": dict, "dataset.path": str, "dataset.format": str,
    "split": dict, "split.test_fraction": _NUMBER, "split.seed": int,
    "train": dict, "algorithms": list, "context_columns": list,
    "similarity_kind": str, "repetitions": int,
}
_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
                    int: "an integer", _NUMBER: "a number"}
# every TrainConfig field but `seed`, which is always the repetition's split seed
_TRAIN_KEYS = sorted(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")


def _train_error(fields: dict) -> Optional[ValueError]:
    """Why TrainConfig rejects fields, or None; an unset samples_per_epoch is 1."""
    try:
        TrainConfig(**{"samples_per_epoch": 1, **fields, "seed": 0})
    except ValueError as exc:
        return exc


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """A `reclab bench` config resolved from its JSON object `raw`, which is
    kept only for the manifest. Building it is the check: a bad config is a
    ValueError naming its key or section. Each default is written here once."""

    raw: dict
    dataset_path: Path = dataclasses.field(init=False)
    dataset_format: str = dataclasses.field(init=False)
    context_columns: list = dataclasses.field(init=False)  # [] unless powermat is listed
    split: SplitSpec = dataclasses.field(init=False)  # repetition r adds r to its seed
    repetitions: int = dataclasses.field(init=False)
    algorithms: tuple = dataclasses.field(init=False)
    train: Dict[str, Dict] = dataclasses.field(init=False)  # TrainConfig fields but seed
    similarity_kind: SimilarityKind = dataclasses.field(init=False)

    def __post_init__(self):
        config = self.raw
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        try:
            json.dumps(config, allow_nan=False)
        except ValueError:
            raise ValueError("config must not contain NaN or infinity") from None
        except RecursionError:  # nested just short of _read_json's limit
            raise ValueError("config nested too deeply") from None
        for key in ("dataset", "algorithms"):
            if key not in config:
                raise ValueError(f"config missing required key {key!r}")
        # the top level first, so `dataset` and `split` are known to be objects
        for parent in ("", "dataset", "split"):
            for key, value in (config.get(parent, {}) if parent else config).items():
                path = f"{parent}.{key}" if parent else key
                if path not in _CONFIG_TYPES:
                    raise ValueError(f"unknown config key {path!r}; the README lists "
                                     f"every key reclab bench reads")
                if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[path]):
                    raise ValueError(f"config key {path!r} must be "
                                     f"{_JSON_TYPE_NAMES[_CONFIG_TYPES[path]]}, got {value!r}")
        dataset, split = config["dataset"], config.get("split", {})
        sections = config.get("train", {})
        if "path" not in dataset:
            raise ValueError("config missing required key 'dataset.path'")
        columns = config.get("context_columns", ["mood", "location"])
        if not columns or not all(isinstance(c, str) for c in columns):
            raise ValueError("config key 'context_columns' must list one or more strings")
        ingest.check_context_columns(columns)
        kind, kinds = config.get("similarity_kind", "cosine"), [k.value for k in SimilarityKind]
        if kind not in kinds:
            raise ValueError(f"config key 'similarity_kind' must be one of {kinds}, got {kind!r}")
        repetitions = config.get("repetitions", 1)
        if repetitions < 1:
            raise ValueError(f"config key 'repetitions' must be >= 1, got {repetitions}")
        algorithms = tuple(config["algorithms"])
        if not algorithms:
            raise ValueError("config key 'algorithms' must name at least one algorithm")
        unknown = [a for a in algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; registry: {ALGORITHMS}")
        # the aggregate pools a report's rows by name, so a repeat would merge two rows
        repeated = sorted({a for a in algorithms if algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithms listed more than once: {repeated}")
        fmt = dataset.get("format", "tab100k")
        if fmt not in DATASET_FORMATS:
            raise ValueError(f"unknown dataset format {fmt!r}; expected one of {DATASET_FORMATS}")
        if "powermat" in algorithms and fmt in _FORMATS:
            raise ValueError("powermat: context required (use a comoda dataset)")
        for section, keys in sections.items():
            if section != "default" and section not in REGISTRY:
                raise ValueError(f"unknown train section {section!r}; expected "
                                 f"'default' or one of {ALGORITHMS}")
            if section != "default" and REGISTRY[section].defaults is None:
                reads = ("takes no training settings" if REGISTRY[section].fit is not _fit_hybrid
                         else f"trains with train.{section.removesuffix('-hybrid')} and train.mf")
                raise ValueError(f"config key 'train.{section}' is not read: {section} {reads}")
            if not isinstance(keys, dict):
                raise ValueError(f"config key 'train.{section}' must be an object")
            unknown = sorted(set(keys) - set(_TRAIN_KEYS))
            if unknown:
                raise ValueError(f"unknown keys {unknown} in train.{section}; "
                                 f"expected some of {_TRAIN_KEYS}")
        # every trainer's settings, the listed ones first: its registry
        # defaults, then train.default, then train.<name>
        train = {}
        for algo in dict.fromkeys([*algorithms, *REGISTRY]):
            if REGISTRY[algo].defaults is not None:
                defaults, own = REGISTRY[algo].defaults, sections.get(algo, {})
                train[algo] = {**defaults, **sections.get("default", {}), **own}
                if exc := _train_error(train[algo]):
                    # blame train.default when the trainer's own section is valid alone
                    section = algo if _train_error({**defaults, **own}) else "default"
                    raise ValueError(f"train.{section}: {exc}")
        try:
            spec = SplitSpec(split.get("test_fraction", 0.2), split.get("seed", 42))
        except ValueError as exc:
            raise ValueError(f"split: {exc}") from None
        if spec.seed + repetitions > 2 ** 63:  # each seed names a report file
            raise ValueError("config key 'split.seed' plus 'repetitions' must be at most 2**63")
        # only powermat reads contexts, so no other bench needs the columns
        columns = columns if "powermat" in algorithms else []
        for name, value in dict(dataset_path=Path(dataset["path"]), dataset_format=fmt,
                                context_columns=columns, split=spec, repetitions=repetitions,
                                algorithms=algorithms, train=train,
                                similarity_kind=SimilarityKind(kind)).items():
            object.__setattr__(self, name, value)

    def train_config(self, algo: str, seed: int, n_train: int) -> TrainConfig:
        """algo's TrainConfig for one repetition: seed is its split seed, and
        samples_per_epoch, where no section sets it, the train split's size."""
        return TrainConfig(**{"samples_per_epoch": n_train, **self.train[algo], "seed": seed})


def _diversity_input(obj):
    """The `analyze --mode diversity` input (an analysis.DiversityInput) from
    its parsed JSON; a ValueError names the first part of the wrong shape."""
    from . import analysis
    if not isinstance(obj, dict):
        raise ValueError("diversity input must be a JSON object with keys "
                         "'groups' and 'n_market'")
    for key in ("groups", "n_market"):
        if key not in obj:
            raise ValueError(f"diversity input missing required key {key!r}")
    groups = obj["groups"]
    if not isinstance(groups, list):
        raise ValueError(f"diversity input 'groups' must be a list of [K, M] "
                         f"pairs, got {json.dumps(groups)}")
    for group in groups:
        if not (isinstance(group, list) and len(group) == 2):
            raise ValueError(f"diversity input group {json.dumps(group)} is not "
                             f"a [K, M] pair of integers")
    # DiversityInput checks the counts themselves
    return analysis.DiversityInput(groups=tuple(groups), n_market=obj["n_market"])


def run_bench(config: dict, out_dir: Optional[Path] = None) -> None:
    """Full benchmark: ingest, split, train and score every configured
    algorithm, once per repetition seed. Writes per-seed and aggregate
    reports plus a manifest into out_dir (default `reclab-out`); these files
    are its result. The config itself is left unchanged."""
    bench = BenchConfig(config)
    dataset = _load_dataset(bench.dataset_path, bench.dataset_format, bench.context_columns)
    # split before the first write: every repetition's sides have these sizes
    train, test = ingest.split(dataset, bench.split)

    out_dir = out_dir or Path("reclab-out")
    _write_json(out_dir / "manifest.json", {**config, "split": dataclasses.asdict(bench.split)},
                indent=2)

    columns = ("algo", "mae", "n")
    maes = []  # one list per repetition, in the listed order
    for rep in range(bench.repetitions):
        spec = SplitSpec(bench.split.test_fraction, bench.split.seed + rep)
        if rep:
            train, test = ingest.split(dataset, spec)
        maes.append([_evaluate_algorithm(a, bench, train, test, spec.seed)
                     for a in bench.algorithms])
        rows = [(algo, mae, len(test)) for algo, mae in zip(bench.algorithms, maes[-1])]
        _write_json(out_dir / f"report_seed{spec.seed}.json", {
            "split": {"test_fraction": spec.test_fraction, "seed": spec.seed},
            "rows": [dict(zip(columns, row)) for row in rows]})
        _write_csv(out_dir / f"report_seed{spec.seed}.csv", columns, rows)

    aggregate = {"repetitions": bench.repetitions, "rows": [
        {"algo": algo, "mae_mean": float(np.mean(vals)), "mae_std": float(np.std(vals))}
        for algo, vals in zip(bench.algorithms, zip(*maes))]}
    _write_json(out_dir / "aggregate.json", aggregate, indent=2)


class _ExitDoor(click.Group):
    """The one exit of every subcommand: divergence (TrainingError) exits 2,
    and a usage, input or config error, or running out of memory, prints one
    `error:` line and exits 1.
    With standalone_mode=False an error still raises SystemExit, and
    success returns instead of exiting."""

    def main(self, args=None, prog_name=None, standalone_mode=True, **extra):
        try:
            code = super().main(args, prog_name, standalone_mode=False, **extra)
        except TrainingError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DIVERGENCE)
        except (click.ClickException, OSError, ValueError, KeyError, TypeError,
                MemoryError) as exc:
            message = (exc.format_message() if isinstance(exc, click.ClickException)
                       else str(exc) or type(exc).__name__)
            click.echo(f"error: {message}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        if standalone_mode:
            sys.exit(code or 0)
        return code


# no_args_is_help=False: a bare `reclab` is the usage error "Missing command."
@click.group(cls=_ExitDoor, no_args_is_help=False)
def main():
    """Recommender benchmark harness: classic baselines, data-free
    cold-start trainers, MAE comparison, and distribution analyses."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=False, path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None)
def bench(config_path: Path, out_dir: Optional[Path]):
    """Run the configured benchmark and write JSON/CSV reports."""
    run_bench(_read_json(config_path), out_dir)


@main.command()
@click.option("--mode", type=click.Choice(["zipf", "diversity"]), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(path_type=Path))
@click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default="tab100k")
@click.option("--input", "input_path", type=click.Path(path_type=Path),
              help="diversity mode: JSON with groups [[K, M], ...] and n_market")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default=Path("reclab-out"))
def analyze(mode, dataset_path, fmt, input_path, out_dir):
    """Zipf proportionality check or log-space diversity computation."""
    from . import analysis  # imported here, not at start-up: bench never reads it
    if mode == "zipf":
        if dataset_path is None:
            raise ValueError("zipf mode requires --dataset")
        dataset = _load_dataset(dataset_path, fmt, [])  # the histogram reads no context
        hist = analysis.rating_histogram(dataset)  # ascending values, counts >= 1
        fit = analysis.fit_power_law(list(hist.items()))
        # rating values are 1-5, so sorting their string keys keeps numeric order
        _write_json(out_dir / "histogram.json", {str(v): c for v, c in hist.items()})
        _write_csv(out_dir / "histogram.csv", ("value", "count"), hist.items())
        _write_json(out_dir / "fit.json", dataclasses.asdict(fit))
    else:
        if input_path is None:
            raise ValueError("diversity mode requires --input")
        inp = _diversity_input(_read_json(input_path))
        # difference_ln is ln N! exactly: the rounded ordered count would
        # cancel it when large
        _write_json(out_dir / "diversity.json", {
            "ordered_ln": analysis.diversity_ordered(inp),
            "invariant_ln": analysis.diversity_order_invariant(inp),
            "difference_ln": math.lgamma(inp.n_market + 1)})


@main.command()
@click.option("--n-users", type=click.IntRange(min=1), required=True)
@click.option("--n-items", type=click.IntRange(min=1), required=True)
@click.option("--n-ratings", type=click.IntRange(min=1), required=True)
@click.option("--exponent", type=float, default=1.0)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def generate(n_users, n_items, n_ratings, exponent, seed, out_path):
    """Write a synthetic Zipf dataset in MovieLens tab format, rated 1-5."""
    dataset = ingest.generate_zipf(n_users, n_items, n_ratings, exponent, seed=seed)
    _atomic_write(out_path, ingest.write_movielens(dataset))


if __name__ == "__main__":
    main()
