import copy
import csv
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import reclab
from reclab import baselines, cli, core
from reclab.cli import ALGORITHMS, REGISTRY, main, run_bench
from reclab.core import R_MAX, RatingsDataset, TrainConfig
from reclab.ingest import SplitSpec, generate_zipf, split, write_movielens
from reclab.zeroshot import (ZeroShotPredictor, dotmat_step, poissonmat_step, train_zeroshot,
                             zeromat_step)

from conftest import fit_config

HYBRIDS = [a for a in ALGORITHMS if a.endswith("-hybrid")]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "ratings.data"
    path.write_text(write_movielens(generate_zipf(60, 50, 1500, 1.0, seed=30)))
    return path


@pytest.fixture
def comoda_file(tmp_path):
    rows = ["userID,itemID,rating,mood,location"]
    rng = np.random.default_rng(0)
    seen = set()
    while len(seen) < 120:
        u, i = int(rng.integers(1, 16)), int(rng.integers(1, 21))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        rows.append(f"{u},{i},{int(rng.integers(1, 6))},"
                    f"{int(rng.integers(0, 4))},{int(rng.integers(1, 4))}")
    path = tmp_path / "comoda.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def comoda_config(comoda_file, tmp_path, algorithms, **extra):
    return bench_config(comoda_file, tmp_path, algorithms,
                        dataset={"path": str(comoda_file), "format": "comoda"},
                        context_columns=["mood", "location"], **extra)


def bench_config(fixture_file, tmp_path, algorithms, **extra):
    config = {
        "dataset": {"path": str(fixture_file), "format": "tab100k"},
        "split": {"test_fraction": 0.2, "seed": 42},
        "algorithms": algorithms,
        "train": {"default": {"k": 4, "epochs": 2}},
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestGenerate:
    def test_writes_exact_line_count(self, runner, tmp_path):
        out = tmp_path / "synth.data"
        result = runner.invoke(main, ["generate", "--n-users", "100",
                                      "--n-items", "50", "--n-ratings", "1000",
                                      "--seed", "42", "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 1000

    def test_deterministic_files(self, runner, tmp_path):
        args = ["generate", "--n-users", "40", "--n-items", "30",
                "--n-ratings", "300", "--seed", "7"]
        a, b = tmp_path / "a.data", tmp_path / "b.data"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--exponent", "nan"], ["--exponent", "inf"], ["--r-max", "7"],
        ["--n-ratings", "0"], ["--n-users", "0"], ["--n-items", "-1"],
        ["--n-users", "-1", "--n-ratings", "0"],
        ["--n-users", "3000000000", "--n-items", "4000000000", "--n-ratings", "1"],
    ], ids=["nan", "inf", "r-max", "no-ratings", "no-users", "negative-items",
            "negative-users", "int64-overflow"])
    def test_unreadable_file_is_not_written(self, runner, tmp_path, args):
        # bench reads every dataset on a 1-5 scale, so generate takes no --r-max;
        # nor does it read an empty file. Later options override earlier ones.
        out = tmp_path / "x.data"
        result = runner.invoke(main, ["generate", "--n-users", "10", "--n-items", "10",
                                      "--n-ratings", "20", "--out", str(out), *args])
        assert result.exit_code == 1
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "x.data"
        result = runner.invoke(main, ["generate", "--n-users", "10", "--n-items", "10",
                                      "--n-ratings", "20", "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == ("error: Invalid value for '--seed': "
                                 "-1 is not in the range x>=0.\n")
        assert not out.exists()

    def test_out_of_memory_is_one_error_line(self, runner, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.8 GiB for an array")
        monkeypatch.setattr(cli.ingest, "generate_zipf", no_memory)
        out = tmp_path / "x.data"
        result = runner.invoke(main, ["generate", "--n-users", "10", "--n-items", "10",
                                      "--n-ratings", "20", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: Unable to allocate 29.8 GiB for an array\n"
        assert not out.exists()

    def test_failed_rename_leaves_no_temporary_file(self, runner, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()
        result = runner.invoke(main, ["generate", "--n-users", "5", "--n-items", "5",
                                      "--n-ratings", "5", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(out.iterdir()) == []

    def test_infeasible_count_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--n-users", "100",
                                      "--n-items", "50", "--n-ratings",
                                      "1000000", "--out",
                                      str(tmp_path / "x.data")])
        assert result.exit_code == 1


class TestBench:
    def test_random_only_report(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path, ["random"])
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report_seed42.json").read_text())
        assert len(report["rows"]) == 1
        assert report["rows"][0]["algo"] == "random"
        assert (out / "report_seed42.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "aggregate.json").exists()

        # run_bench leaves its config alone; the manifest records the split
        config_dict = json.loads(config.read_text())
        del config_dict["split"]
        before = copy.deepcopy(config_dict)
        run_bench(config_dict, tmp_path / "direct")
        assert config_dict == before
        manifest = json.loads((tmp_path / "direct" / "manifest.json").read_text())
        assert manifest["split"] == {"test_fraction": 0.2, "seed": 42}

    def test_manifest_records_the_resolved_split(self, fixture_file, tmp_path):
        config = json.loads(bench_config(fixture_file, tmp_path, ["random"]).read_text())
        run_bench({**config, "split": {"seed": 5}}, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["split"] == {"test_fraction": 0.2, "seed": 5}
        assert (tmp_path / "out" / "report_seed5.json").exists()

    def test_dataset_without_path_names_the_key(self, runner, fixture_file, tmp_path):
        path = bench_config(fixture_file, tmp_path, ["random"], dataset={"format": "tab100k"})
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: config missing required key 'dataset.path'\n"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path,
                              ["random", "mf", "zeromat"])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            result = runner.invoke(main, ["bench", "--config", str(config),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert (out1 / "report_seed42.json").read_bytes() == \
            (out2 / "report_seed42.json").read_bytes()
        # one row per configured algorithm, in config order, over the test split
        report = json.loads((out1 / "report_seed42.json").read_text())
        assert [row["algo"] for row in report["rows"]] == ["random", "mf", "zeromat"]
        assert all(row["n"] == 300 and row["mae"] >= 0.0 for row in report["rows"])

    def test_config_with_byte_order_mark_benches_alike(self, runner, fixture_file, tmp_path):
        # some editors save JSON with a leading UTF-8 byte-order mark
        config = bench_config(fixture_file, tmp_path, ["random", "zeromat"])
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        outputs = []
        for path in (config, marked):
            out = tmp_path / f"out-{path.stem}"
            result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["tab100k", "comoda"])
    def test_line_order_does_not_reach_the_reports(self, runner, fixture_file, comoda_file,
                                                   tmp_path, kind):
        # neither file repeats a cell, so the shuffled copy holds the same ratings
        if kind == "tab100k":
            path, header = fixture_file, 0
            make = lambda p: bench_config(p, tmp_path, ["itemcf", "mf", "zeromat",
                                                        "dotmat-hybrid"])
        else:
            path, header = comoda_file, 1
            make = lambda p: comoda_config(p, tmp_path, ["powermat"], repetitions=2)
        lines = path.read_text().splitlines(keepends=True)
        order = header + np.random.default_rng(1).permutation(len(lines) - header)
        shuffled = tmp_path / f"shuffled-{path.name}"
        shuffled.write_text("".join(lines[:header] + [lines[k] for k in order]))
        outputs = []
        for source in (path, shuffled):
            out = tmp_path / f"out-{source.name}"
            result = runner.invoke(main, ["bench", "--config", str(make(source)),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            # the manifest names the input path
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        assert len(outputs[0]) == 1 + 2 * (1 if kind == "tab100k" else 2)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("module", ["scipy", "reclab.analysis"])
    def test_import_does_not_load(self, module, fixture_file, tmp_path):
        # only `reclab analyze` needs scipy or reads reclab.analysis; neither
        # bench start-up nor an item-CF bench run should pay for them
        config = bench_config(fixture_file, tmp_path, ["itemcf"],
                              similarity_kind="adjusted_cosine")
        code = (f"import json, sys, reclab.cli; print({module!r} in sys.modules); "
                f"reclab.cli.run_bench(json.load(open({str(config)!r})), "
                f"reclab.cli.Path({str(tmp_path / 'out')!r})); "
                f"print({module!r} in sys.modules)")
        src = str(Path(reclab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout.split() == ["False", "False"]
        assert (tmp_path / "out" / "report_seed42.json").exists()

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_reports_do_not_depend_on_the_blas_kernel(self, golden_benches):
        # OpenBLAS picks its kernels by CPU; under each of two forced kernels
        # every golden bench must write its golden bytes
        src = str(Path(reclab.__file__).parents[1])
        kernels = ("Prescott", "Haswell")
        runs = [subprocess.Popen(
            [sys.executable, "-m", "reclab.cli", "bench", "--config", f"{name}.json",
             "--out", f"{name}-{kernel}"], cwd=golden_benches,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for name in GOLDEN_BENCHES for kernel in kernels]
        for run in runs:
            output = run.communicate(timeout=120)[0]
            assert run.returncode == 0, output
        for name in GOLDEN_BENCHES:
            for kernel in kernels:
                assert_golden_bench(golden_benches / f"{name}-{kernel}", name)

    def test_powermat_without_context_exits_one(self, runner, fixture_file,
                                                tmp_path):
        # rejected with the config, before random trains or anything is written
        config = bench_config(fixture_file, tmp_path, ["random", "powermat"])
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == "error: powermat: context required (use a comoda dataset)\n"
        assert not (tmp_path / "out").exists()

    def test_powermat_on_comoda(self, runner, comoda_file, tmp_path):
        config = comoda_config(comoda_file, tmp_path, ["powermat", "random"])
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report_seed42.json").read_text())
        assert {r["algo"] for r in report["rows"]} == {"powermat", "random"}

    def test_powermat_repetitions_match_one_repetition_benches(self, runner, comoda_file,
                                                               tmp_path):
        # each repetition's train split carries its own rows' contexts to powermat
        algorithms = ["random", "powermat"]
        config = comoda_config(comoda_file, tmp_path, algorithms, repetitions=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        maes = []
        for seed in (42, 43):
            config = comoda_config(comoda_file, tmp_path, algorithms,
                                   split={"test_fraction": 0.2, "seed": seed})
            one = tmp_path / f"one{seed}"
            result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(one)])
            assert result.exit_code == 0, result.output
            for name in (f"report_seed{seed}.json", f"report_seed{seed}.csv"):
                assert (out / name).read_text() == (one / name).read_text()
            rows = json.loads((one / f"report_seed{seed}.json").read_text())["rows"]
            maes.append({r["algo"]: r["mae"] for r in rows}["powermat"])
        assert maes[0] != maes[1]  # the second repetition trained on a new split

    def test_comoda_reads_contexts_only_for_powermat(self, runner, comoda_file, tmp_path):
        # a CSV of ids and ratings only, under the default context_columns
        lines = comoda_file.read_text().splitlines()
        comoda_file.write_text("".join(line.rsplit(",", 2)[0] + "\n" for line in lines))
        dataset = {"path": str(comoda_file), "format": "comoda"}
        out = tmp_path / "out"
        config = bench_config(comoda_file, tmp_path, ["random", "itemcf"], dataset=dataset)
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report_seed42.json").read_text())
        assert [r["algo"] for r in report["rows"]] == ["random", "itemcf"]
        config = bench_config(comoda_file, tmp_path, ["random", "powermat"], dataset=dataset)
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: missing columns: ['mood', 'location']\n"

    def test_unknown_algorithm_exits_one(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path, ["svdpp"])
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1

    def test_divergence_exits_two(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path, ["mf"],
                              train={"mf": {"gamma": 80.0, "epochs": 5}})
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == "error: mf (seed 42): mf_train diverged at epoch 0\n"

    def test_shape_only_divergence_names_the_algorithm(self, runner, fixture_file,
                                                       tmp_path):
        config = bench_config(fixture_file, tmp_path, ["zeromat"],
                              train={"zeromat": {"gamma": 50.0, "epochs": 5}})
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == ("error: zeromat (seed 42): "
                                 "train_zeroshot diverged at epoch 0\n")

    def test_hybrid_divergence_names_the_hybrid(self, runner, fixture_file, tmp_path):
        # the MF stage diverges; the message names the registered hybrid
        config = bench_config(fixture_file, tmp_path, ["dotmat-hybrid"],
                              split={"test_fraction": 0.2, "seed": 7},
                              train={"mf": {"gamma": 80.0, "epochs": 5}})
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == ("error: dotmat-hybrid (seed 7): "
                                 "mf_train diverged at epoch 0\n")

    @pytest.mark.parametrize("algo", ["zeromat", "zeromat-hybrid"])
    def test_overflowing_predictions_exit_two(self, algo, runner, fixture_file, tmp_path):
        # the factors stay finite, but their dot products overflow, and the
        # zero-shot score inf / inf is NaN: the predictor diverged, named
        # with the algorithm and the seed, and numpy warns nothing
        config = bench_config(fixture_file, tmp_path, [algo],
                              train={"default": {"init_lo": 1e159, "init_hi": 1e160}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["bench", "--config", str(config),
                                          "--out", str(tmp_path / "out")])
        assert caught == []
        assert result.exit_code == 2
        assert result.output == (f"error: {algo} (seed 42): "
                                 "ZeroShotPredictor scored a non-finite value\n")

    def test_missing_config_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["bench", "--config",
                                      str(tmp_path / "nope.json")])
        assert result.exit_code == 1

    def test_repetitions_write_one_report_per_seed(self, runner, fixture_file,
                                                   tmp_path):
        config = bench_config(fixture_file, tmp_path, ["random"],
                              repetitions=3)
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        for seed in (42, 43, 44):
            assert (out / f"report_seed{seed}.json").exists()
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["repetitions"] == 3

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda c: [c], id="config-not-object"),
        pytest.param(lambda c: {**c, "dataset": "comoda.csv"}, id="dataset-not-object"),
        pytest.param(lambda c: {**c, "split": 0.2}, id="split-not-object"),
        pytest.param(lambda c: {**c, "split": {"test_fraction": "0.2"}},
                     id="string-test-fraction"),
        pytest.param(lambda c: {**c, "repetitions": None}, id="null-repetitions"),
        pytest.param(lambda c: {**c, "algorithms": [["mf"]]}, id="list-algorithm-name"),
        pytest.param(lambda c: {**c, "context_columns": [["mood"]]},
                     id="nested-context-columns"),
        pytest.param(lambda c: {**c, "train": []}, id="train-not-object"),
        pytest.param(lambda c: {**c, "train": {"svdpp": {}}}, id="unknown-train-section"),
        pytest.param(lambda c: {**c, "train": {"mf": [1]}}, id="train-section-not-object"),
        pytest.param(lambda c: {**c, "train": {"default": {"epoch": 2}}},
                     id="unknown-default-key"),
        pytest.param(lambda c: {**c, "train": {"mf": {"lr": 0.1}}}, id="unknown-algo-key"),
        # training always takes the repetition's split seed
        pytest.param(lambda c: {**c, "train": {"default": {"seed": 1}}}, id="default-seed"),
        pytest.param(lambda c: {**c, "train": {"mf": {"seed": 1}}}, id="algo-seed"),
        pytest.param(lambda c: {**c, "train": {"mf": {"epochs": "3"}}}, id="string-epochs"),
        pytest.param(lambda c: {**c, "train": {"mf": {"k": 2.5}}}, id="fractional-k"),
        pytest.param(lambda c: {**c, "train": {"mf": {"gamma": float("nan")}}},
                     id="nan-gamma"),
        pytest.param(lambda c: {**c, "train": {"zeromat": {"samples_per_epoch": 0}}},
                     id="zero-samples-per-epoch"),
        # json.loads accepts NaN, which would make the manifest invalid JSON;
        # train.dotmat is a known section that this config does not read
        pytest.param(lambda c: {**c, "train": {"dotmat": {"gamma": float("nan")}}},
                     id="nan-unread-key"),
        # keys and sections that nothing reads
        pytest.param(lambda c: {**c, "neighbourhood_size": 1}, id="neighbourhood_size"),
        pytest.param(lambda c: {**c, "dataset": {**c["dataset"], "fromat": "tab100k"}},
                     id="dataset.fromat"),
        pytest.param(lambda c: {**c, "split": {"sead": 5}}, id="split.sead"),
        pytest.param(lambda c: {**c, "train": {"itemcf": {"epochs": 3}}}, id="train.itemcf"),
        pytest.param(lambda c: {**c, "train": {"random": {"k": 2}}}, id="train.random"),
        # each would write no report, or pool two rows into one aggregate row
        pytest.param(lambda c: {**c, "repetitions": 0}, id="zero-repetitions"),
        pytest.param(lambda c: {**c, "repetitions": -3}, id="negative-repetitions"),
        pytest.param(lambda c: {**c, "algorithms": []}, id="no-algorithms"),
        pytest.param(lambda c: {**c, "algorithms": ["random", "random"]},
                     id="repeated-algorithm"),
        pytest.param(lambda c: {**c, "context_columns": []},
                     id="empty-context-columns"),
        # checked whenever the key is present, whatever the algorithms:
        # this config does not list itemcf
        pytest.param(lambda c: {**c, "similarity_kind": "pearson"}, id="similarity_kind"),
        # every train section is checked, whether or not a listed algorithm reads it
        pytest.param(lambda c: {**c, "algorithms": ["random"],
                                "train": {"default": {"epochs": "x"}}},
                     id="unread-train-default"),
        pytest.param(lambda c: {**c, "algorithms": ["zeromat"], "train": {"mf": {"k": 0}}},
                     id="unread-train-mf"),
        # --out is the one way to name the output directory
        pytest.param(lambda c: {**c, "out_dir": "elsewhere"}, id="out_dir"),
        # a hybrid trains with train.<base> and train.mf, and has no section
        pytest.param(lambda c: {**c, "train": {"zeromat-hybrid": {"epochs": 1}}},
                     id="train.zeromat-hybrid"),
        # PowerMat is data-free: a rating is never a context column
        pytest.param(lambda c: {**c, "context_columns": ["rating"]},
                     id="rating-context-column"),
        # nor reads one feature twice
        pytest.param(lambda c: {**c, "context_columns": ["mood", "mood"]},
                     id="repeated-context-column"),
        # both are checked whatever the algorithms, like every other key
        pytest.param(lambda c: {**c, "algorithms": ["random"], "context_columns": ["rating"]},
                     id="unread-rating-context-column"),
        pytest.param(lambda c: {**c, "algorithms": ["random"],
                                "context_columns": ["mood", "mood"]},
                     id="unread-repeated-context-column"),
        # powermat reads contexts, which no MovieLens format has
        pytest.param(lambda c: {**c, "dataset": {**c["dataset"], "format": "tab100k"}},
                     id="powermat-on-tab100k"),
        # numpy would reject it only after the manifest is written
        pytest.param(lambda c: {**c, "split": {"seed": -1}}, id="negative-split-seed"),
    ])
    def test_config_error_exits_one(self, runner, comoda_file, tmp_path, edit):
        path = comoda_config(comoda_file, tmp_path,
                             ["random", "mf", "zeromat", "powermat"])
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        # CliRunner also maps an uncaught exception to exit code 1
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_deeply_nested_config_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        out = tmp_path / "out"
        path.write_text("[" * 100000 + "]" * 100000)
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: {path}: JSON nested too deeply\n"
        # just short of the parser's limit, the config check may reach the
        # limit instead; either way the run ends in one error: line
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit + 10):
            path.write_text('{"dataset": {"path": "x"}, "algorithms": [%s]}'
                            % ("[" * depth + "]" * depth))
            result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
            assert result.exit_code == 1 and result.output.count("\n") == 1, depth
            assert result.output.startswith("error:") and not out.exists()

    @pytest.mark.parametrize("edit, section", [
        # a hybrid's zero-shot stage reads train.<base>
        (lambda c: {**c, "train": {"poissonmat": {"k": 0}}},
         "train.poissonmat: k must be >= 1"),
        # a hybrid's MF stage reads train.mf
        (lambda c: {**c, "train": {"mf": {"epochs": 0}}}, "train.mf: epochs must be >= 1"),
        (lambda c: {**c, "split": {"test_fraction": 1.5}}, "split: test_fraction must be"),
        # the message names the section that holds the bad value
        (lambda c: {**c, "algorithms": ["random"], "train": {"default": {"epochs": "x"}}},
         "train.default: epochs must be an integer, got 'x'\n"),
        (lambda c: {**c, "train": {"default": {"k": 4}, "mf": {"epochs": "3"}}},
         "train.mf: epochs must be an integer, got '3'\n"),
        # init_lo 0.95 is valid only next to an init_hi above it in each trainer's section
        (lambda c: {**c, "train": {"default": {"init_lo": 0.95}}},
         "train.default: need 0 < init_lo < init_hi\n"),
        # the bad value is poissonmat's own, whatever train.default holds
        (lambda c: {**c, "algorithms": ["poissonmat"],
                    "train": {"default": {"init_lo": 0.95}, "poissonmat": {"k": 0}}},
         "train.poissonmat: k must be >= 1\n"),
        (lambda c: {**c, "train": {"poissonmat-hybrid": {"epochs": 1}}},
         "config key 'train.poissonmat-hybrid' is not read: "
         "poissonmat-hybrid trains with train.poissonmat and train.mf\n"),
        (lambda c: {**c, "split": {"seed": -1}}, "split: seed must be >= 0, got -1\n"),
        # a seed names its report file: 300 digits are too long a file name
        (lambda c: {**c, "split": {"seed": int("9" * 300)}},
         "config key 'split.seed' plus 'repetitions' must be at most 2**63\n"),
        (lambda c: {**c, "split": {"seed": 2 ** 63 - 1}, "repetitions": 2},
         "config key 'split.seed' plus 'repetitions' must be at most 2**63\n"),
    ], ids=["hybrid-k", "hybrid-mf-stage-epochs", "test-fraction", "default", "trainer",
            "default-pair", "trainer-next-to-bad-default", "hybrid-section", "split-seed",
            "long-split-seed", "last-repetition-seed"])
    def test_bad_value_fails_before_writing(self, runner, fixture_file, tmp_path,
                                            edit, section):
        path = bench_config(fixture_file, tmp_path, ["random", "poissonmat-hybrid"])
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {section}")
        assert result.output.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("section", ["default", "mf", "zeromat", "dotmat", "poissonmat",
                                         "powermat"])
    def test_eps_floor_is_an_unknown_key(self, runner, fixture_file, tmp_path, section):
        # the floor is the constant zeroshot.EPS_FLOOR, not a setting
        path = bench_config(fixture_file, tmp_path, ["random", "zeromat"],
                            train={section: {"eps_floor": 1e-3}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (f"error: unknown keys ['eps_floor'] in train.{section}; "
                                 f"expected some of {cli._TRAIN_KEYS}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sigma_u", 1.0), ("sigma_v", 1.0),
                                            ("fill_fraction", 1.0), ("neighborhood_size", 20)])
    def test_constant_setting_is_an_unknown_key(self, runner, fixture_file, tmp_path,
                                                key, value):
        # PowerMat's unit prior variances, the hybrids' full fill and
        # baselines.NEIGHBORHOOD_SIZE are constants: even the value they
        # hold is not a setting
        path = bench_config(fixture_file, tmp_path, ["random", "zeromat"], **{key: value})
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (f"error: unknown config key '{key}'; the README lists "
                                 f"every key reclab bench reads\n")
        assert not out.exists()

    def test_largest_split_seed_runs(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path, ["random", "zeromat"],
                              split={"test_fraction": 0.2, "seed": 2 ** 63 - 2}, repetitions=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / f"report_seed{2 ** 63 - 1}.json").exists()

    def test_default_and_trainer_sections_may_combine(self, runner, fixture_file, tmp_path):
        # init_lo 0.95 is valid only with each trainer's init_hi above it
        trainers = [a for a in ALGORITHMS if REGISTRY[a].defaults is not None]
        train = {"default": {"init_lo": 0.95, "k": 2, "epochs": 1},
                 **{a: {"init_hi": 0.99} for a in trainers}}
        config = bench_config(fixture_file, tmp_path, ["random", "zeromat"], train=train)
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_empty_split_side_names_the_split(self, runner, tmp_path):
        data = tmp_path / "two.data"
        data.write_text("1\t1\t4\t0\n2\t1\t3\t0\n")
        config = bench_config(data, tmp_path, ["random", "mf"],
                              split={"test_fraction": 0.8, "seed": 42})
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == ("error: split seed 42 with test_fraction 0.8 "
                                 "leaves the train side empty\n")
        assert not out.exists()

    def test_non_finite_context_exits_one(self, runner, comoda_file, tmp_path):
        # bad input (exit 1), not a divergence of PowerMat (exit 2)
        comoda_file.write_text(comoda_file.read_text() + "99,99,3,inf,1\n")
        config = comoda_config(comoda_file, tmp_path, ["powermat"])
        result = runner.invoke(main, ["bench", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "non-finite context value 'inf' in mood" in result.output


    def test_field_over_the_csv_limit_exits_one(self, runner, comoda_file, tmp_path):
        long_field = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        comoda_file.write_text(comoda_file.read_text() + f"99,99,3,{long_field},1\n")
        config = comoda_config(comoda_file, tmp_path, ["random", "powermat"])
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.startswith("error: line ") and result.output.count("\n") == 1
        assert "field larger than field limit" in result.output
        assert not (out / "manifest.json").exists()


def readme_config_table():
    """{key: stated default} from the README's bench config table; a row that
    names two keys states one default for both."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | value | default | read by |") + 2  # past the rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, _, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        table.update(dict.fromkeys((key.strip("`") for key in keys.split(", ")), default))
    return table


def with_key(config, path, value):
    """config with the dotted key path set to value."""
    *parent, key = path.split(".")
    if parent:
        return {**config, parent[0]: {**config.get(parent[0], {}), key: value}}
    return {**config, key: value}


class TestConfigTable:
    MINIMAL = {"dataset": {"path": "u.data"}, "algorithms": ["random"]}

    def test_lists_every_key_the_config_accepts(self):
        # `dataset` and `split` are sections, listed by their keys
        assert set(readme_config_table()) | {"dataset", "split"} == set(cli._CONFIG_TYPES)

    @pytest.mark.parametrize("key, default", readme_config_table().items())
    def test_stated_default_is_the_one_filled_in(self, key, default):
        if default == "required":
            config = copy.deepcopy(self.MINIMAL)
            *parent, last = key.split(".")
            del (config[parent[0]] if parent else config)[last]
            with pytest.raises(ValueError, match=f"^config missing required key '{key}'$"):
                cli.BenchConfig(config)
            return
        try:
            value = json.loads(default.strip("`"))
        except ValueError:
            value = default.strip("`")
        typed = lambda config: [getattr(config, f.name) for f in dataclasses.fields(config)
                                if f.name != "raw"]
        stated = cli.BenchConfig(with_key(self.MINIMAL, key, value))
        assert typed(stated) == typed(cli.BenchConfig(self.MINIMAL))

    def test_unknown_dataset_format_is_a_config_error(self):
        # the constructor is the check, before any file is read
        config = with_key(self.MINIMAL, "dataset.format", "bogus")
        with pytest.raises(ValueError, match=r"^unknown dataset format 'bogus'; expected "
                                             r"one of \['colons1m', 'tab100k', 'comoda'\]$"):
            cli.BenchConfig(config)


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["bench"],
        ["generate", "--n-users", "x", "--n-items", "3", "--n-ratings", "2",
         "--out", "x.data"],
        ["analyze", "--mode", "bogus"],
        [],
    ], ids=["bench-without-config", "generate-non-integer", "analyze-bad-mode",
            "no-command"])
    def test_usage_error_is_one_error_line(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("args", [["--help"], ["bench", "--help"]])
    def test_help_exits_zero(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "Usage:" in result.output

    def test_negative_rating_count_exits_one(self, runner, tmp_path):
        out = tmp_path / "x.data"
        result = runner.invoke(main, ["generate", "--n-users", "3", "--n-items", "3",
                                      "--n-ratings", "-1", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == ("error: Invalid value for '--n-ratings': "
                                 "-1 is not in the range x>=1.\n")
        assert not out.exists()

    def test_not_standalone_raises_system_exit_on_error_only(self, fixture_file,
                                                             tmp_path):
        # how perfbench/tracing.py calls the group
        config = bench_config(fixture_file, tmp_path, ["random"])
        args = ["bench", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main.main(args=args, prog_name="reclab", standalone_mode=False) is None
        with pytest.raises(SystemExit) as exc:
            main.main(args=["bench"], prog_name="reclab", standalone_mode=False)
        assert exc.value.code == 1


def assert_total(fit, n_users, n_items):
    """predict_many over the whole grid of the predictor fit() returns is
    finite and within [1, R_MAX], and equals predict_many of each cell alone,
    in grid order, on a second fit(). (`random` draws per requested cell, so
    its calls continue one stream.)"""
    users, items = np.divmod(np.arange(n_users * n_items), n_items)
    preds = fit().predict_many(users, items)
    assert preds.shape == (n_users * n_items,)
    assert np.isfinite(preds).all()
    assert ((preds >= 1.0) & (preds <= R_MAX)).all()
    predictor = fit()
    assert preds.tolist() == [predictor.predict_many(users[k:k + 1], items[k:k + 1])[0]
                              for k in range(len(users))]


class TestEvaluateAlgorithm:
    @staticmethod
    def train_test():
        return split(generate_zipf(20, 20, 100, 1.0, seed=8), SplitSpec(0.2, 8))

    def test_returns_the_mae_as_a_float(self):
        train, test = self.train_test()
        mae = cli._evaluate_algorithm("random", fit_config(), train, test, 8)
        # one draw per test row, in row order, from the split seed's generator
        guesses = np.random.default_rng(8).integers(1, R_MAX + 1, len(test))
        assert type(mae) is float
        assert mae == np.abs(guesses - test.values).sum() / len(test)


class TestRegistry:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_predictor_is_total_over_the_id_range(self, algo):
        # user 5 and item 6, the largest ids, are rated only in the test split
        cells = [(u, i) for u in range(6) for i in range(7) if (u + i) % 3]
        users, items = np.array(cells).T
        values = 1 + (users * 7 + items) % 5
        contexts = np.array([(u % 2, i % 3) for u, i in cells], float)
        in_train = (users != 5) & (items != 6)
        train = RatingsDataset(users[in_train], items[in_train], values[in_train],
                               n_users=6, n_items=7, contexts=contexts[in_train])
        assert_total(lambda: REGISTRY[algo].fit(algo, fit_config(), train, 3), 6, 7)

    @pytest.mark.parametrize("budget", [1, 2000])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_score_blocks_do_not_change_predictions(self, algo, budget, monkeypatch):
        # 23 users of 30 items at k 3. A 1-byte budget makes every block one
        # unit: a cell, a user's row maximum, an item's pairs. 2,000 bytes
        # hold 8 users' row maxima (240 bytes each) and 35 factor cells (56
        # bytes each), dividing neither the 23 users nor the 690 cells, which
        # one default block holds.
        ds = generate_zipf(23, 30, 300, 1.0, seed=12)
        train = RatingsDataset(ds.users, ds.items, ds.values, 23, 30,
                               contexts=np.column_stack([ds.users % 2, ds.items % 3]))
        config = fit_config(train={"default": {"k": 3, "epochs": 2}})
        users, items = np.divmod(np.arange(23 * 30), 30)
        whole = REGISTRY[algo].fit(algo, config, train, 3)
        expected = whole.predict_many(users, items)
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
        blocked = REGISTRY[algo].fit(algo, config, train, 3)
        got = blocked.predict_many(users, items)
        assert np.array_equal(got, expected)
        assert got.shape == (23 * 30,) and ((got >= 1.0) & (got <= R_MAX)).all()
        if isinstance(blocked, ZeroShotPredictor):
            assert np.array_equal(blocked.row_max, whole.row_max)
            # each user's argmax cell is the ratio max / max, exactly R_MAX
            model = blocked.model
            best = np.einsum("uk,ik->ui", model.U, model.V).argmax(axis=1)
            assert (blocked.predict_many(np.arange(23), best) == R_MAX).all()

    @pytest.mark.parametrize("algo, rule", [("zeromat", zeromat_step),
                                            ("dotmat", dotmat_step),
                                            ("poissonmat", poissonmat_step)])
    def test_shape_only_fit_trains_with_its_step_rule(self, algo, rule, monkeypatch):
        train = generate_zipf(20, 25, 150, 1.0, seed=28)
        models = []
        monkeypatch.setattr(reclab.cli, "train_zeroshot",
                            lambda *args: models.append(train_zeroshot(*args)) or models[-1])
        REGISTRY[algo].fit(algo, fit_config(train={"default": {"k": 3}}), train, 4)
        cfg = TrainConfig(**{**REGISTRY[algo].defaults, "k": 3}, seed=4,
                          samples_per_epoch=len(train))
        expected = train_zeroshot(rule, 20, 25, cfg)
        model, = models
        assert np.array_equal(model.U, expected.U)
        assert np.array_equal(model.V, expected.V)

    def test_powermat_trains_on_the_train_cells_only(self, monkeypatch):
        # each cell's context is (user, item), so a context names its cell
        users, items = np.divmod(np.arange(12), 4)
        dataset = RatingsDataset(users, items, [3] * 12, 3, 4,
                                 contexts=np.column_stack([users, items]).astype(float))
        train, test = split(dataset, SplitSpec(0.5, 3))
        passed = []
        real = reclab.cli.powermat_train
        monkeypatch.setattr(reclab.cli, "powermat_train",
                            lambda *args, **kw: passed.append(args[:3]) or real(*args, **kw))
        REGISTRY["powermat"].fit("powermat", fit_config(), train, 3)
        (fit_users, fit_items, contexts), = passed
        cells = list(zip(fit_users.tolist(), fit_items.tolist()))
        assert cells == list(zip(train.users.tolist(), train.items.tolist()))
        assert not set(cells) & set(zip(test.users.tolist(), test.items.tolist()))
        assert contexts.tolist() == [[float(u), float(i)] for u, i in cells]

    def test_powermat_on_a_dataset_without_contexts_is_an_error(self):
        train = generate_zipf(5, 6, 12, 1.0, seed=3)
        with pytest.raises(ValueError, match=r"^powermat: context required \(use a comoda"):
            REGISTRY["powermat"].fit("powermat", fit_config(), train, 3)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_empty_fill_equals_plain_mf(self, hybrid, monkeypatch):
        # the fits look augment_with_zeroshot up at call time: with no cell
        # filled, the hybrid's MF stage is the mf fit
        monkeypatch.setattr(reclab.cli, "augment_with_zeroshot",
                            lambda train, predictor, seed: train)
        train = generate_zipf(25, 25, 200, 1.0, seed=22)
        config = fit_config(train={"mf": {"k": 4, "epochs": 3}})
        model = REGISTRY[hybrid].fit(hybrid, config, train, 5).model
        plain = REGISTRY["mf"].fit("mf", config, train, 5).model
        assert np.array_equal(model.U, plain.U)
        assert np.array_equal(model.V, plain.V)

    def test_train_sections_drive_their_stages(self, monkeypatch):
        train = generate_zipf(20, 20, 150, 1.0, seed=25)
        hybrid, base = "poissonmat-hybrid", "poissonmat"
        configs = []  # the TrainConfig, the last argument, of each stage's trainer

        def recording(real):
            return lambda *args: configs.append(args[-1]) or real(*args)

        for name in ("train_zeroshot", "mf_train"):
            monkeypatch.setattr(reclab.cli, name, recording(getattr(reclab.cli, name)))

        def factors(sections):
            model = REGISTRY[hybrid].fit(hybrid, fit_config(train=sections), train, 5).model
            return np.concatenate([model.U, model.V])

        sections = {base: {"epochs": 1}, "mf": {"gamma": 0.01, "epochs": 4}}
        reference = factors(sections)
        zs_cfg, mf_cfg = configs
        assert (zs_cfg.gamma, zs_cfg.epochs) == (2e-5, 1)  # the base's defaults and section
        assert (mf_cfg.gamma, mf_cfg.epochs) == (0.01, 4)
        # the zero-shot stage trains as the base algorithm's own fit does
        REGISTRY[base].fit(base, fit_config(train=sections), train, 5)
        assert configs[-1] == zs_cfg
        assert not np.array_equal(factors({**sections, base: {"k": 2}}), reference)
        assert not np.array_equal(factors({**sections, "mf": {"epochs": 4}}), reference)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_fills_come_from_the_base_fit(self, hybrid, monkeypatch):
        train = generate_zipf(20, 25, 150, 1.0, seed=27)
        base = hybrid.removesuffix("-hybrid")
        section = {"gamma": 2e-5 if base == "poissonmat" else 0.004, "epochs": 2, "k": 3}
        # train.mf, which a wrong composition would give the zero-shot stage
        config = fit_config(train={base: section, "mf": {"k": 5}})
        passed = []
        real = reclab.cli.augment_with_zeroshot
        monkeypatch.setattr(reclab.cli, "augment_with_zeroshot",
                            lambda *args: passed.append(args) or real(*args))
        REGISTRY[hybrid].fit(hybrid, config, train, 11)
        (filled_train, predictor, seed), = passed
        expected = REGISTRY[base].fit(base, config, train, 11)
        users, items = np.divmod(np.arange(20 * 25), 25)
        assert filled_train is train and seed == 11
        assert np.array_equal(predictor.predict_many(users, items),
                              expected.predict_many(users, items))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["cosine", "adjusted_cosine"]),
           size=st.integers(1, 6))
    def test_itemcf_is_total_on_random_train_sets(self, data, kind, size):
        n_users = data.draw(st.integers(1, 7), label="n_users")
        n_items = data.draw(st.integers(1, 7), label="n_items")
        cells = data.draw(st.lists(st.integers(0, n_users * n_items - 1),
                                   min_size=1, unique=True), label="cells")
        values = data.draw(st.lists(st.integers(1, R_MAX), min_size=len(cells),
                                    max_size=len(cells)), label="values")
        users, items = np.divmod(np.array(cells), n_items)
        train = RatingsDataset(users, items, values, n_users, n_items)
        config = fit_config(similarity_kind=kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "NEIGHBORHOOD_SIZE", size)
            assert_total(lambda: REGISTRY["itemcf"].fit("itemcf", config, train, 0),
                         n_users, n_items)


class TestAnalyze:
    def test_zipf_mode_reports_good_fit(self, runner, tmp_path):
        data = tmp_path / "zipf.data"
        data.write_text(write_movielens(
            generate_zipf(300, 300, 10000, 1.0, seed=31)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "zipf",
                                      "--dataset", str(data),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        fit = json.loads((out / "fit.json").read_text())
        assert fit["r_squared"] >= 0.9
        hist = json.loads((out / "histogram.json").read_text())
        assert sum(hist.values()) == 10000

    def test_zipf_mode_reads_no_context_column(self, runner, tmp_path):
        data = tmp_path / "ratings.csv"
        data.write_text("userID,itemID,rating\n1,1,5\n1,2,4\n2,1,5\n2,3,3\n3,2,5\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "zipf", "--format", "comoda",
                                      "--dataset", str(data), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "histogram.json").read_text()) == {"3": 1, "4": 1, "5": 3}

    def test_diversity_mode_values(self, runner, tmp_path):
        inp = tmp_path / "groups.json"
        inp.write_text(json.dumps({"groups": [[1, 3]], "n_market": 2}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--input", str(inp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        values = json.loads((out / "diversity.json").read_text())
        assert values["ordered_ln"] == pytest.approx(2.07944, abs=1e-4)
        assert values["invariant_ln"] == pytest.approx(1.38629, abs=1e-4)
        assert values["difference_ln"] == pytest.approx(0.69315, abs=1e-4)

    @pytest.mark.parametrize("text, message", [
        ('{"groups": [[1]], "n_market": 2}',
         "diversity input group [1] is not a [K, M] pair of integers"),
        ('{"groups": {"1": 3}, "n_market": 2}',
         "diversity input 'groups' must be a list of [K, M] pairs, got {\"1\": 3}"),
        ('{"groups": [[1, 3]]}', "diversity input missing required key 'n_market'"),
        ("[1]", "diversity input must be a JSON object with keys 'groups' and 'n_market'"),
        ('{"groups": [[1, 3], [1.5, 2]], "n_market": 2}',
         "group 1: K must be an integer >= 1, got 1.5"),
        ('{"groups": [[true, 2]], "n_market": 2}',
         "group 0: K must be an integer >= 1, got True"),
        ('{"groups": [[1, 3]], "n_market": 2.5}',
         "n_market must be an integer >= 1, got 2.5"),
        ('{"groups": [[1, 1e400]], "n_market": 2}',
         "group 0: M must be an integer >= 0, got inf"),
        ('{"groups": [[1, 3], [1, 1%s]], "n_market": 100}' % ("0" * 400),
         "group 1: M is too large to compute with in floats"),
        ('{"groups": [[1, 1%s]], "n_market": 100}' % ("0" * 308),
         "group 0: M is too large to compute with in floats"),
        ('{"groups": [[1, 3]], "n_market": 1%s}' % ("0" * 400),
         "n_market is too large to compute with in floats"),
    ], ids=["short-group", "groups-not-a-list", "no-n_market", "not-an-object", "float-count",
            "bool-count", "float-n_market", "infinite-count", "huge-count",
            "overflowing-count", "huge-n_market"])
    def test_diversity_input_of_wrong_shape_names_the_problem(self, runner, tmp_path,
                                                               text, message):
        inp = tmp_path / "groups.json"
        inp.write_text(text)
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--input", str(inp), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_input_is_one_error_line(self, runner, tmp_path):
        inp = tmp_path / "deep.json"
        inp.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--input", str(inp), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: {inp}: JSON nested too deeply\n"
        assert not out.exists()

    def test_missing_input_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--input", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert not (tmp_path / "out").exists()

    def test_diversity_without_input_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == "error: diversity mode requires --input\n"
        assert not (tmp_path / "out").exists()

    def test_zipf_without_dataset_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--mode", "zipf",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, difference", [
        # the published form divides by N!, so the difference is ln N! exactly
        ([], math.lgamma(101))],
        ids=["published"])
    def test_large_ordered_count_keeps_the_difference(self, runner, tmp_path, flag,
                                                      difference):
        inp = tmp_path / "groups.json"
        inp.write_text(json.dumps({"groups": [[1, 10 ** 74]], "n_market": 100}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "diversity", "--input", str(inp),
                                      *flag, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert strict_json(out / "diversity.json")["difference_ln"] == difference


GOLDEN = Path(__file__).parent / "golden"


def strict_json(path):
    """Parse a file as strict JSON: NaN, Infinity and -Infinity are errors."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    """The inputs the files under tests/golden were written from, in the
    working directory, so the manifest records relative paths."""
    monkeypatch.chdir(tmp_path)
    Path("ratings.data").write_text(write_movielens(generate_zipf(20, 15, 120, 1.0, seed=4)))
    Path("ratings.csv").write_text("userID,itemID,rating\n1,1,5\n1,2,4\n2,1,5\n"
                                   "2,3,3\n3,2,5\n3,3,4\n4,1,2\n")
    Path("config.json").write_text(json.dumps({
        "dataset": {"path": "ratings.data"}, "algorithms": ["random", "itemcf"],
        "repetitions": 2, "split": {"test_fraction": 0.25, "seed": 5}}))
    Path("groups.json").write_text(json.dumps({"groups": [[1, 3], [2, 4]], "n_market": 5}))
    return tmp_path


GOLDEN_RUNS = {
    "bench": ["bench", "--config", "config.json", "--out", "bench"],
    "zipf-tab100k": ["analyze", "--mode", "zipf", "--dataset", "ratings.data",
                     "--out", "zipf-tab100k"],
    "zipf-comoda": ["analyze", "--mode", "zipf", "--format", "comoda",
                    "--dataset", "ratings.csv", "--out", "zipf-comoda"],
    "diversity": ["analyze", "--mode", "diversity", "--input", "groups.json",
                  "--out", "diversity"],
}


# Benches of every registered algorithm the format allows, two repetitions
# each, whose files are tests/golden/<name>. The tab100k input is denser
# than fixture_file's, so that each path does real work: item-CF builds
# 18,346 and 18,335 pairs, four blocks of items each; each hybrid's fill
# takes two first_draws rounds; MF's epochs have 84 to 189 dependency
# levels; and PowerMat's epochs have 22 to 30 conflict-free runs.
GOLDEN_BENCHES = {
    "bench-tab100k": {"dataset": {"path": "dense.data"},
                      "algorithms": [a for a in ALGORITHMS if a != "powermat"]},
    "bench-comoda": {"dataset": {"path": "comoda.csv", "format": "comoda"},
                     "context_columns": ["mood", "location"], "algorithms": ["powermat", "random"]},
}


@pytest.fixture
def golden_benches(tmp_path, comoda_file):
    """tmp_path, holding the golden benches' inputs (comoda.csv is
    comoda_file's) and their configs <name>.json, whose paths are relative to it."""
    (tmp_path / "dense.data").write_text(write_movielens(generate_zipf(60, 50, 1800, 1.0, seed=30)))
    for name, config in GOLDEN_BENCHES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {**config, "repetitions": 2, "train": {"default": {"k": 4, "epochs": 3}}}))
    return tmp_path


def assert_golden_bench(out: Path, name: str) -> None:
    """out holds the files of golden bench `name`, byte for byte."""
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in (GOLDEN / name).iterdir())
    for file in written:
        assert (out / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


class TestOutputFiles:
    @pytest.mark.parametrize("name", list(GOLDEN_BENCHES))
    def test_every_algorithm_equals_its_golden_bytes(self, golden_benches, monkeypatch, name):
        monkeypatch.chdir(golden_benches)
        run_bench(json.loads(Path(f"{name}.json").read_text()), Path(name))
        assert_golden_bench(golden_benches / name, name)

    @pytest.mark.parametrize("run", list(GOLDEN_RUNS))
    def test_files_equal_their_golden_bytes(self, runner, golden_inputs, run):
        result = runner.invoke(main, GOLDEN_RUNS[run])
        assert result.exit_code == 0, result.output
        written = sorted(p.name for p in (golden_inputs / run).iterdir())
        assert written == sorted(p.name for p in (GOLDEN / run).iterdir())
        for name in written:
            assert (golden_inputs / run / name).read_bytes() == \
                (GOLDEN / run / name).read_bytes(), name

    def test_every_json_file_is_strict_json(self, runner, golden_inputs):
        for args in GOLDEN_RUNS.values():
            assert runner.invoke(main, args).exit_code == 0
        files = sorted(golden_inputs.glob("*/*.json"))
        assert {p.name for p in files} >= {
            "manifest.json", "report_seed5.json", "aggregate.json",
            "histogram.json", "fit.json", "diversity.json"}
        for path in files:
            strict_json(path)
            assert path.read_text(encoding="utf-8").endswith("}\n")

    def test_report_json_and_csv_shapes(self, runner, fixture_file, tmp_path):
        config = bench_config(fixture_file, tmp_path, ["random", "itemcf"])
        out = tmp_path / "out"
        assert runner.invoke(main, ["bench", "--config", str(config),
                                    "--out", str(out)]).exit_code == 0
        report = strict_json(out / "report_seed42.json")
        assert report["split"] == {"seed": 42, "test_fraction": 0.2}
        assert [sorted(row) for row in report["rows"]] == [["algo", "mae", "n"]] * 2
        lines = (out / "report_seed42.csv").read_text().splitlines()
        assert lines[0] == "algo,mae,n"
        assert lines[1:] == [f"{r['algo']},{r['mae']},{r['n']}" for r in report["rows"]]

    def test_histogram_csv_and_json_emission(self, runner, tmp_path):
        data = tmp_path / "ratings.csv"
        data.write_text("userID,itemID,rating\n1,1,2\n1,2,3\n2,1,3\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "zipf", "--format", "comoda",
                                      "--dataset", str(data), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "histogram.csv").read_text() == "value,count\n2,1\n3,2\n"
        assert (out / "histogram.json").read_text() == '{"2": 1, "3": 2}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_json_refuses_nan(self, tmp_path, value):
        # a value that skipped every earlier check still never becomes "NaN"
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="cannot write report.json"):
            cli._write_json(path, {"rows": [{"mae": value}]})
        assert list(tmp_path.iterdir()) == []

    def test_nan_result_is_not_written(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("reclab.analysis.diversity_ordered", lambda inp: float("nan"))
        inp = tmp_path / "groups.json"
        inp.write_text(json.dumps({"groups": [[1, 3]], "n_market": 2}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--mode", "diversity",
                                      "--input", str(inp), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.startswith("error: cannot write diversity.json: ")
        assert result.output.count("\n") == 1
        assert not out.exists()
