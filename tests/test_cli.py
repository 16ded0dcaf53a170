"""Experiment runner: config validation, runs, sweeps, reports, exit codes."""

import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dts_ssl import cli, trainer
from dts_ssl.benchmarks import DESK, benchmark_split, run_benchmark
from dts_ssl.cli import (
    ENV_OUT_ROOT,
    ExperimentConfig,
    RunManifest,
    emit_report,
    load_config,
    main,
    run_experiment,
    sweep,
)
from dts_ssl.data import DatasetSpec, MismatchSplit, load_cifar10_dir, load_dataset, save_dataset
from dts_ssl.errors import CapacityError, ValidationError
from dts_ssl.trainer import TrainConfig, config_hash

TINY_CONFIG = {
    "dataset": {
        "kind": "synthetic",
        "name": "tiny-blobs",
        "k_seen": 3,
        "k_unseen": 1,
        "dim": 5,
        "per_class": 120,
        "separation": 3.0,
        "noise": 1.0,
    },
    "split": {
        "seen_class_ids": [1, 2, 3],
        "mismatch_ratio": 0.4,
        "labeled_size": 24,
        "unlabeled_size": 90,
        "test_fraction": 0.2,
    },
    "train": {
        "pretrain_epochs": 3,
        "epochs_per_iteration": 2,
        "iterations": 2,
        "batch_size": 12,
        "mu": 2,
        "hidden_widths": [10],
        "feature_dim": 5,
        "lr": 0.08,
    },
    "seeds": [0],
}
# how a run of TINY_CONFIG at train.lr=1e300, a rate validation accepts, fails
DIVERGED = "training diverged in phase pretrain, iteration -1, global epoch 0"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture
def csv_config_file(tmp_path):
    """TINY_CONFIG with its synthetic pool written out as a CSV dataset, whose size no config
    states: validation loads it and builds the split from it, as a run does."""
    pool = tmp_path / "pool.csv"
    save_dataset(ExperimentConfig.from_dict(TINY_CONFIG).dataset.load(), pool)
    path = tmp_path / "csv_config.json"
    path.write_text(json.dumps({**TINY_CONFIG, "dataset": {"kind": "csv", "path": str(pool)}}))
    return path


@pytest.fixture
def cifar_config_file(tmp_path):
    """TINY_CONFIG on a CIFAR-10 directory of one batch, ten examples per class."""
    cifar = tmp_path / "cifar"
    cifar.mkdir()
    rng = np.random.default_rng(0)
    with open(cifar / "data_batch_1", "wb") as fh:
        pickle.dump({b"data": rng.integers(0, 256, size=(100, 3072), dtype=np.uint8),
                     b"labels": np.repeat(np.arange(10), 10).tolist()}, fh)
    path = tmp_path / "cifar_config.json"
    path.write_text(json.dumps({**TINY_CONFIG, "dataset": {"kind": "cifar10", "path": str(cifar)}}))
    return path


def assert_rejected(config_path, tmp_path, capsys, message):
    """``validate-config`` and ``run`` both exit 2 naming ``message``, and ``run`` creates no directory."""
    out = tmp_path / "runs"
    assert main(["validate-config", "--config", str(config_path)]) == 2
    assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


class TestConfigLoading:
    def test_valid_config_loads(self, config_file):
        config = load_config(config_file)
        assert config.dataset.k_seen == 3
        assert config.train.iterations == 2

    def test_layering_defaults_under_file(self, config_file):
        config = load_config(config_file)
        # untouched fields keep the reference defaults
        assert config.train.tau == 0.85
        assert config.train.gamma == 0.5

    def test_overrides_applied_and_typed(self, config_file):
        config = load_config(config_file, ["train.tau=0.9", "split.labeled_size=30"])
        assert config.train.tau == 0.9
        assert config.split.labeled_size == 30

    def test_bad_override_field(self, config_file):
        with pytest.raises(ValidationError, match="unknown field"):
            load_config(config_file, ["train.not_a_knob=1"])

    def test_bad_override_type(self, config_file):
        with pytest.raises(ValidationError, match="expected a number"):
            load_config(config_file, ["train.tau=high"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "absent.json")

    def test_schema_violation_reports_field_path(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["split"]["mismatch_ratio"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="split.mismatch_ratio"):
            load_config(bad)

    def test_roundtrip(self, config_file):
        config = load_config(config_file)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.to_dict() == config.to_dict()


class TestDeskBenchmarkConfig:
    """``configs/desk_benchmark.json`` is ``benchmarks.DESK`` in file form, so the CLI replays
    a benchmark run at every seed: the seed draws the split from one pool, and the training."""

    PATH = Path(__file__).resolve().parent.parent / "configs" / "desk_benchmark.json"

    def test_file_is_the_desk_config(self):
        assert load_config(self.PATH) == DESK

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cli_builds_the_benchmark_split(self, seed, tmp_path, monkeypatch):
        class Built(Exception):  # the split is all this test needs, so the run stops there
            pass

        def capture(config, split, out_dir):
            raise Built(split)

        monkeypatch.setattr(trainer, "run_training", capture)  # _execute_single imports it on each call
        with pytest.raises(Built) as built:
            config = load_config(self.PATH)
            cli._execute_single(config, config.dataset.load(), seed, tmp_path / "run")
        split, expected = built.value.args[0], benchmark_split(seed)
        for field in dataclasses.fields(MismatchSplit):
            assert np.array_equal(getattr(split, field.name), getattr(expected, field.name)), field.name

    def test_overflowing_scores_fail_the_run(self, tmp_path, capsys):
        # relu at lr=1e6 overflows the teacher's scores in pre-training epoch 13 while every
        # parameter stays finite: a divergence, recorded as a failed run (exit 3)
        argv = ["run", "--config", str(self.PATH), "--seed", "0", "--set", "train.activation=relu",
                "--set", "train.lr=1e6", "--out-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 3
        assert "1 of 1 runs failed" in capsys.readouterr().err
        (manifest_file,) = tmp_path.rglob("manifest.json")
        (run,) = RunManifest.load(manifest_file).runs
        assert run["status"] == "failed"
        assert run["error"] == ("DivergenceError: training diverged in phase pretrain, iteration -1, global epoch 13: "
                                "2000 non-finite evaluation scores of 2000")

    def test_cli_run_writes_the_benchmark_history(self, tmp_path):
        short = dict(iterations=1, epochs_per_iteration=2, pretrain_epochs=2)
        assert main(["run", "--config", str(self.PATH), "--seed", "1", "--out-dir", str(tmp_path),
                     *(f"--set=train.{k}={v}" for k, v in short.items())]) == 0
        written = next(tmp_path.glob("run-*/seed1/metrics.jsonl")).read_text().splitlines()
        assert [json.loads(line) for line in written] == run_benchmark("full", 1, **short).history


class TestRunVerb:
    def test_run_writes_manifest_and_outputs(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out-dir", str(out),
                     "--ablation", "supervised_only", "--seeds", "2"])
        assert code == 0
        manifest_files = list(out.rglob("manifest.json"))
        assert len(manifest_files) == 1
        manifest = RunManifest.load(manifest_files[0])
        assert [r["seed"] for r in manifest.runs] == [0, 1]
        assert all(r["status"] == "completed" for r in manifest.runs)
        base = manifest_files[0].parent
        with open(base / "report_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for r in manifest.runs:
            run_dir = Path(r["run_dir"])
            assert (run_dir / "metrics.jsonl").exists()
            assert (run_dir / "summary.json").exists()
            assert (run_dir / "effective_config.json").exists()

    def test_override_persisted_in_effective_config(self, config_file, tmp_path):
        out = tmp_path / "out"
        manifest = run_experiment(config_file, ["train.tau=0.9"], out_dir=out)
        effective = json.loads(
            (Path(manifest.runs[0]["run_dir"]) / "effective_config.json").read_text()
        )
        assert effective["train"]["tau"] == 0.9

    def test_effective_config_reproduces_run_bit_exactly(self, config_file, tmp_path):
        manifest = run_experiment(config_file, out_dir=tmp_path / "first")
        run_dir = Path(manifest.runs[0]["run_dir"])
        effective = run_dir / "effective_config.json"
        # the persisted config re-validates and replays to the same metrics stream
        replay = tmp_path / "replay.json"
        replay.write_text(effective.read_text())
        manifest2 = run_experiment(replay, out_dir=tmp_path / "second")
        first = (run_dir / "metrics.jsonl").read_bytes()
        second = (Path(manifest2.runs[0]["run_dir"]) / "metrics.jsonl").read_bytes()
        assert first == second

    def test_effective_config_of_a_later_seed_records_it_in_both_places(self, config_file, tmp_path):
        manifest = run_experiment(config_file, ["seeds=0,1"], out_dir=tmp_path / "first")
        run_dir = Path(manifest.runs[1]["run_dir"])
        effective = json.loads((run_dir / "effective_config.json").read_text())
        assert (effective["seeds"], effective["train"]["seed"]) == ([1], 1)
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(effective))
        manifest2 = run_experiment(replay, out_dir=tmp_path / "second")
        assert [r["seed"] for r in manifest2.runs] == [1]
        second = Path(manifest2.runs[0]["run_dir"]) / "metrics.jsonl"
        assert second.read_bytes() == (run_dir / "metrics.jsonl").read_bytes()

    def test_missing_dataset_path_fails_before_training(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["dataset"] = {"kind": "csv", "path": str(tmp_path / "nope.csv")}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_split_and_dataset_fields_get_their_own_directory(self, config_file, tmp_path):
        """Configs that differ only in one split or one dataset field never share outputs."""
        variants = ([], ["split.mismatch_ratio=0.3"], ["split.mismatch_ratio=0.6"], ["dataset.noise=0.5"])
        manifests = [
            run_experiment(config_file, v + ["train.ablation_mode=supervised_only"], out_dir=tmp_path)
            for v in variants
        ]
        assert len({m.out_dir for m in manifests}) == len(variants)
        for m in manifests:
            assert Path(m.out_dir).name == f"run-{m.config_hash}"
            summary = json.loads((Path(m.runs[0]["run_dir"]) / "summary.json").read_text())
            assert summary["config_hash"] == config_hash(TrainConfig.from_dict(summary["config"]))

    def test_seeds_get_their_own_directory(self, config_file, tmp_path):
        """A run over other seeds of one config neither overwrites the first run's
        manifest nor leaves its seed directories behind."""
        argv = ["run", "--config", str(config_file), "--out-dir", str(tmp_path), "--ablation", "supervised_only"]
        assert main([*argv, "--seeds", "2"]) == 0
        assert main([*argv, "--seed", "5"]) == 0
        manifests = [RunManifest.load(p) for p in tmp_path.glob("run-*/manifest.json")]
        assert sorted(m.seeds for m in manifests) == [[0, 1], [5]]
        for m in manifests:
            assert [r["seed"] for r in m.runs] == m.seeds
            assert sorted(p.name for p in Path(m.out_dir).glob("seed*")) == [f"seed{s}" for s in m.seeds]

    def test_env_var_output_root(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_ROOT, str(tmp_path / "envroot"))
        manifest = run_experiment(config_file, ["train.ablation_mode=supervised_only"])
        assert str(tmp_path / "envroot") in manifest.out_dir

    @pytest.mark.parametrize("verb, validations, points", [
        (["run"], 1, 1), (["sweep", "--axis", "train.tau", "--values", "0.7,0.9"], 2, 2)])
    def test_each_point_loads_its_dataset_once(self, csv_config_file, tmp_path, monkeypatch, verb, validations,
                                               points):
        # a run's seeds share one load of the dataset; each point of a sweep loads its own, and each
        # validation (the run's config, or each sweep point's, never a sweep's file alone) loads one
        # to build the split from
        calls, load = [], DatasetSpec.load

        def counted(spec):
            calls.append(spec.path)
            return load(spec)

        monkeypatch.setattr(DatasetSpec, "load", counted)
        argv = [*verb, "--config", str(csv_config_file), "--seeds", "2", "--ablation", "supervised_only",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(calls) == validations + points
        (manifest_file,) = (tmp_path / "out").rglob("manifest.json")
        assert [r["status"] for r in RunManifest.load(manifest_file).runs] == ["completed"] * 2 * points


    @pytest.mark.parametrize("verb", [["validate-config"], ["run", "--seeds", "2"],
                                      ["sweep", "--axis", "train.tau", "--values", "0.7,0.8,0.9"]])
    def test_a_csv_dataset_is_parsed_once_per_process(self, csv_config_file, tmp_path, monkeypatch, verb):
        # validation and every run point load the file, but it is parsed once; a later run in the
        # same process parses it no more
        parses, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **k: parses.append(1) or reader(*a, **k))
        run = ["--config", str(csv_config_file), "--ablation", "supervised_only", "--out-dir"]
        if verb == ["validate-config"]:
            assert main([*verb, "--config", str(csv_config_file)]) == 0
        else:
            assert main([*verb, *run, str(tmp_path / "out")]) == 0
        assert len(parses) == 1
        assert main(["run", *run, str(tmp_path / "again")]) == 0
        assert len(parses) == 1


class TestSweepVerb:
    def test_mismatch_ratio_sweep_table(self, config_file, tmp_path):
        manifest = sweep(
            config_file, "split.mismatch_ratio", ["0.3", "0.6"],
            overrides=["train.ablation_mode=supervised_only", "seeds=0,1"],
            out_dir=tmp_path / "out",
        )
        assert len(manifest.runs) == 4
        base = Path(manifest.out_dir)
        with open(base / "report_aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["group"] for r in rows] == ["0.3", "0.6"]
        assert all(int(r["runs"]) == 2 for r in rows)

    def test_numeric_axis_keeps_the_sweep_order(self, config_file, tmp_path):
        # as strings, "10" sorts before "9"; the report lists the values as the sweep gave them
        manifest = sweep(
            config_file, "train.pretrain_epochs", ["9", "10"],
            overrides=["train.ablation_mode=supervised_only", "seeds=1,0"],
            out_dir=tmp_path / "out",
        )
        base = Path(manifest.out_dir)
        with open(base / "report_runs.csv") as fh:
            assert [(r["axis_value"], r["seed"]) for r in csv.DictReader(fh)] == [
                ("9", "0"), ("9", "1"), ("10", "0"), ("10", "1")]
        with open(base / "report_aggregate.csv") as fh:
            assert [r["group"] for r in csv.DictReader(fh)] == ["9", "10"]

    def test_bare_axis_names_resolve(self, config_file, tmp_path):
        manifest = sweep(
            config_file, "lambda_seen", ["0.15", "0.25"],
            overrides=["train.ablation_mode=supervised_only"],
            out_dir=tmp_path / "out",
        )
        assert all(r["axis"] == "train.lambda_seen" for r in manifest.runs)

    def test_empty_values_rejected(self, config_file):
        with pytest.raises(ValidationError):
            sweep(config_file, "train.tau", [])

    def test_non_numeric_value_rejected(self, config_file):
        code = main(["sweep", "--config", str(config_file), "--axis", "train.tau",
                     "--values", "a,b"])
        assert code == 2

    @pytest.mark.parametrize("values", ["0.9,0.9", "0.7,0.9,0.90"])
    def test_repeated_value_exit_two(self, config_file, tmp_path, values, capsys):
        # a repeated point would train each of its seeds twice into one directory
        argv = ["sweep", "--config", str(config_file), "--set", "train.ablation_mode=supervised_only",
                "--axis", "tau", "--values", values, "--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        repeated = values.rsplit(",", 1)[1]
        assert f"sweep: value {repeated!r} repeats an earlier value of train.tau" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_seed_axis_exit_two(self, config_file, tmp_path, capsys):
        # a bare "seed" resolves to train.seed, which a run's seed from seeds would override
        argv = ["sweep", "--config", str(config_file), "--set", "train.ablation_mode=full",
                "--axis", "seed", "--values", "1,2", "--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "train.seed" in err and "seeds" in err and "--seed" in err
        assert not (tmp_path / "runs").exists()

    def test_only_the_points_are_validated(self, config_file, tmp_path):
        # the file's unlabeled_size overflows the pool, while each swept value fits it: a sweep runs
        # its points and never the file alone
        raw = json.loads(config_file.read_text())
        raw["split"]["unlabeled_size"] = 100000
        base = tmp_path / "base.json"
        base.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(base)]) == 2
        argv = ["sweep", "--config", str(base), "--ablation", "supervised_only", "--axis", "split.unlabeled_size",
                "--values", "90,100", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        (manifest_file,) = (tmp_path / "out").rglob("manifest.json")
        assert [(r["axis_value"], r["status"]) for r in RunManifest.load(manifest_file).runs] == [
            ("90", "completed"), ("100", "completed")]

    def test_sweeps_over_different_axes_get_their_own_directory(self, config_file, tmp_path):
        """The sweep hash covers its points, so a second sweep never overwrites the first."""
        overrides = ["train.ablation_mode=supervised_only"]
        by_ratio = sweep(config_file, "split.mismatch_ratio", ["0.3"], overrides, tmp_path)
        by_tau = sweep(config_file, "train.tau", ["0.7"], overrides, tmp_path)
        assert by_ratio.out_dir != by_tau.out_dir
        for manifest, axis in ((by_ratio, "split.mismatch_ratio"), (by_tau, "train.tau")):
            on_disk = RunManifest.load(Path(manifest.out_dir) / "manifest.json")
            assert [r["axis"] for r in on_disk.runs] == [axis]
            assert Path(manifest.out_dir).name == f"sweep-{manifest.config_hash}"


class TestFailedRuns:
    """A run that raises is recorded, reported and counted the same way by both verbs."""

    VERBS = {
        "run": [],
        "sweep": ["--axis", "train.tau", "--values", "0.7,0.9"],
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_failure_recorded_and_exit_three(self, csv_config_file, tmp_path, verb, capsys):
        argv = [verb, "--config", str(csv_config_file), "--set", "train.lr=1e300",
                "--out-dir", str(tmp_path / "out"), *self.VERBS[verb]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 3
        count = 2 if verb == "sweep" else 1
        assert f"{count} of {count} runs failed" in capsys.readouterr().err
        (manifest_file,) = (tmp_path / "out").rglob("manifest.json")
        runs = RunManifest.load(manifest_file).runs
        assert len(runs) == count
        for r in runs:
            assert r["status"] == "failed"
            assert r["error"].startswith(f"DivergenceError: {DIVERGED}")
            assert ("axis" in r and "axis_value" in r) == (verb == "sweep")
        with open(manifest_file.parent / "report_runs.csv") as fh:
            assert list(csv.DictReader(fh)) == []


class TestReportVerb:
    def make_manifest(self, config_file, tmp_path, seeds):
        return run_experiment(
            config_file, ["train.ablation_mode=supervised_only", f"seeds={seeds}"],
            out_dir=tmp_path / "out",
        )

    def test_single_seed_std_zero(self, config_file, tmp_path):
        manifest = self.make_manifest(config_file, tmp_path, "0")
        base = Path(manifest.out_dir)
        with open(base / "report_aggregate.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["acc_std"]) == 0.0
        assert float(row["auroc_std"]) == 0.0

    def test_aggregate_matches_recomputation(self, config_file, tmp_path):
        manifest = self.make_manifest(config_file, tmp_path, "0,1,2")
        base = Path(manifest.out_dir)
        accs = [r["accuracy"] for r in manifest.runs]
        with open(base / "report_aggregate.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["acc_mean"]) == pytest.approx(sum(accs) / 3, abs=1e-12)
        assert int(row["runs"]) == 3

    def test_regeneration_idempotent(self, config_file, tmp_path):
        manifest = self.make_manifest(config_file, tmp_path, "0,1")
        base = Path(manifest.out_dir)
        first = (base / "report_runs.csv").read_bytes(), (base / "report_aggregate.csv").read_bytes()
        emit_report(base / "manifest.json")
        second = (base / "report_runs.csv").read_bytes(), (base / "report_aggregate.csv").read_bytes()
        assert first == second

    def test_auroc_series_emitted(self, config_file, tmp_path):
        manifest = self.make_manifest(config_file, tmp_path, "0")
        base = Path(manifest.out_dir)
        series = list((base / "auroc_by_epoch").glob("*.csv"))
        assert len(series) == 1
        with open(series[0]) as fh:
            rows = list(csv.DictReader(fh))
        # pretrain + train epochs
        assert len(rows) == 3 + 4

    @pytest.mark.parametrize("manifest_form", ("absolute", "relative from another directory"))
    def test_relative_run_reported_by_another_path(self, config_file, tmp_path, monkeypatch, manifest_form):
        # the run records its directories relative to the directory it ran in
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config_file), "--ablation", "supervised_only", "--seeds", "2",
                     "--out-dir", "runs"]) == 0
        (base,) = Path("runs").glob("run-*")
        assert [r["run_dir"] for r in RunManifest.load(base / "manifest.json").runs] == [
            str(base / "seed0"), str(base / "seed1")]
        written = {p.relative_to(base).as_posix(): p.read_bytes()
                   for p in [*base.glob("*.csv"), *base.glob("auroc_by_epoch/*.csv")]}
        assert sorted(written) == ["auroc_by_epoch/seed0.csv", "auroc_by_epoch/seed1.csv",
                                   "report_aggregate.csv", "report_runs.csv"]
        for name in written:
            (base / name).unlink()
        manifest = tmp_path / base / "manifest.json"
        if manifest_form != "absolute":
            (tmp_path / "elsewhere").mkdir()
            monkeypatch.chdir(tmp_path / "elsewhere")
            manifest = Path("..") / base / "manifest.json"
        assert main(["report", "--manifest", str(manifest)]) == 0
        assert {name: (tmp_path / base / name).read_bytes() for name in written} == written

    def test_missing_run_exit_two(self, config_file, tmp_path, capsys):
        manifest = self.make_manifest(config_file, tmp_path, "0,1")
        base = Path(manifest.out_dir)
        (base / "seed1" / "metrics.jsonl").unlink()
        assert main(["report", "--manifest", str(base / "manifest.json")]) == 2
        assert f"run {base / 'seed1'} not found at {base / 'seed1'}" in capsys.readouterr().err

    def test_run_dir_outside_out_dir_exit_two(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config_hash": "0", "artifact_version": "0", "dataset_id": "0", "seeds": [0],
                                    "out_dir": "runs/run-0",
                                    "runs": [{"seed": 0, "status": "completed", "run_dir": "elsewhere/seed0",
                                              "accuracy": 0.5, "auroc": 0.5}]}))
        assert main(["report", "--manifest", str(path)]) == 2
        assert "run_dir 'elsewhere/seed0' is not under out_dir 'runs/run-0'" in capsys.readouterr().err

    def test_include_incomplete_lists_failed_runs_and_keeps_the_aggregate(self, csv_config_file, tmp_path):
        argv = ["sweep", "--config", str(csv_config_file), "--ablation", "supervised_only",
                "--axis", "train.lr", "--values", "0.08,1e300", "--out-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 3  # the second value diverges in its first epoch
        (manifest,) = (tmp_path / "out").rglob("manifest.json")
        base = manifest.parent
        aggregate = (base / "report_aggregate.csv").read_bytes()
        with open(base / "report_runs.csv") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["completed"]
        assert main(["report", "--manifest", str(manifest), "--include-incomplete"]) == 0
        with open(base / "report_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["axis_value"], r["status"]) for r in rows] == [("0.08", "completed"), ("1e300", "failed")]
        assert (base / "report_aggregate.csv").read_bytes() == aggregate
        # the failed run recorded no epoch before it diverged, so it has no series, as a run with no
        # metrics.jsonl has none
        assert sorted(p.name for p in (base / "auroc_by_epoch").iterdir()) == ["train_lr=0.08__seed0.csv"]

    @pytest.mark.parametrize("text, reason", [
        ("runs: none", "Expecting value"),
        ('{"runs": []}', "missing 5 required positional arguments"),
    ])
    def test_malformed_manifest_exit_two(self, tmp_path, text, reason, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["report", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"manifest {path} is not a run manifest" in err and reason in err

    @pytest.mark.parametrize("runs, reason", [
        ([{"seed": 0}], "run entry {'seed': 0} needs status, seed and run_dir"),
        ("none", "runs must be a list, got 'none'"),
    ])
    def test_malformed_run_entry_exit_two(self, tmp_path, runs, reason, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config_hash": "0", "artifact_version": "0", "dataset_id": "0",
                                    "seeds": [0], "out_dir": str(tmp_path), "runs": runs}))
        assert main(["report", "--manifest", str(path)]) == 2
        assert f"manifest {path}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("accuracy", ({}, {"accuracy": "high"}))
    def test_completed_run_without_a_real_accuracy_exit_two(self, tmp_path, accuracy, capsys):
        # the run's files are all there; only its manifest entry lacks a number to aggregate
        (tmp_path / "seed0").mkdir()
        (tmp_path / "seed0" / "metrics.jsonl").write_text("")
        entry = {"seed": 0, "status": "completed", "run_dir": str(tmp_path / "seed0"), **accuracy, "auroc": 0.5}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config_hash": "0", "artifact_version": "0", "dataset_id": "0",
                                    "seeds": [0], "out_dir": str(tmp_path), "runs": [entry]}))
        assert main(["report", "--manifest", str(path)]) == 2
        assert f"manifest {path}: completed run entry {entry!r} needs a real accuracy" in capsys.readouterr().err


class TestValidateConfigVerb:
    def test_ok_exit_zero(self, config_file):
        assert main(["validate-config", "--config", str(config_file)]) == 0

    def test_invalid_exit_two(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["train"]["tau"] = 5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("mask_fraction", 1.5), ("weak_sigma", -1), ("strong_sigma", -0.1), ("seed", -1),
        ("hidden_widths", [0]), ("feature_dim", 0), ("activation", "gelu"),
        ("lr", float("inf")), ("weight_decay", float("inf")), ("lambda_lm", float("inf")),
        ("weak_sigma", float("inf")), ("strong_sigma", float("inf")),
    ])
    def test_out_of_contract_train_field_exit_two(self, tmp_path, config_file, field, value, capsys):
        raw = json.loads(config_file.read_text())
        raw["train"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, f"train.{field}")

    @pytest.mark.parametrize("section, field, value", [
        ("train", "seed", "x"), ("train", "tau", None), ("train", "lr", "0.1"),
        ("train", "hidden_widths", ["a"]), ("train", "mu", 2.5), ("train", "batch_size", True),
        ("dataset", "k_seen", "x"), ("split", "mismatch_ratio", None),
        ("split", "seen_class_ids", [1, "2"]), ("seeds", None, ["x"]),
    ])
    def test_wrongly_typed_value_exit_two(self, tmp_path, config_file, section, field, value, capsys):
        raw = json.loads(config_file.read_text())
        if field is None:
            raw[section] = value
        else:
            raw[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        name = section if field is None else f"{section}.{field}"
        with pytest.raises(ValidationError, match=rf"{name}: expected"):
            load_config(bad)
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert f"{name}: expected" in capsys.readouterr().err

    def test_bad_list_override_exit_two(self, config_file):
        with pytest.raises(ValidationError, match="hidden_widths"):
            load_config(config_file, ["train.hidden_widths=8,a"])

    def test_removed_cache_scores_field_exit_two(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["train"]["cache_scores"] = False
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert "unknown config fields: ['cache_scores']" in capsys.readouterr().err

    def test_override_fills_field_that_defaults_to_none(self, config_file, tmp_path):
        # only a cifar10 dataset takes max_per_class; validation reads only the directory's file names
        (tmp_path / "data_batch_1").touch()
        config = load_config(config_file, ["dataset.kind=cifar10", f"dataset.path={tmp_path}",
                                           "dataset.max_per_class=5"])
        assert config.dataset.max_per_class == 5 and type(config.dataset.max_per_class) is int

    def test_bad_override_of_optional_field_exit_two(self, config_file, tmp_path, capsys):
        with pytest.raises(ValidationError, match="max_per_class"):
            load_config(config_file, ["dataset.max_per_class=x"])
        argv = ["run", "--config", str(config_file), "--set", "dataset.max_per_class=x",
                "--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        assert "max_per_class" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override", ["train=5", "dataset=foo", "split=3"])
    def test_override_naming_a_section_exit_two(self, config_file, tmp_path, override, capsys):
        section = override.split("=")[0]
        argv = ["run", "--config", str(config_file), "--set", override,
                "--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        assert f"{section!r} is a config section" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("field", ["lr", "lambda_lm"])
    def test_non_finite_override_exit_two(self, config_file, tmp_path, field, capsys):
        argv = ["run", "--config", str(config_file), "--set", f"train.{field}=inf",
                "--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        assert f"train.{field}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seed", "-1"], ["--seed", "0", "--seeds", "2"]])
    def test_bad_seed_flags_exit_two(self, config_file, tmp_path, flags, capsys):
        argv = ["run", "--config", str(config_file), "--out-dir", str(tmp_path / "runs"), *flags]
        assert main(argv) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("train_seed, seeds, code", [(3, [0], 2), (3, [1, 3], 2), (3, [3], 0), (0, [1, 2], 0)])
    def test_train_seed_other_than_the_run_seed_exit_two(self, tmp_path, train_seed, seeds, code, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"seed": train_seed}, "seeds": seeds}))
        assert main(["validate-config", "--config", str(config)]) == code
        if code:
            err = capsys.readouterr().err
            assert "train.seed" in err and "seeds" in err and "--seed" in err

    @pytest.mark.parametrize("seeds", [[0, 0], [2, 1, 2]])
    def test_repeated_seed_exit_two(self, tmp_path, config_file, seeds, capsys):
        # a repeated seed would train one run directory twice and count it twice in the report
        raw = json.loads(config_file.read_text())
        raw["seeds"] = seeds
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, f"seeds: must not repeat a seed, got {seeds}")

    def test_negative_seed_in_config_exit_two(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["seeds"] = [-3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert "seeds: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("5", "a config must be a JSON object, got 5"),
        ('{"dataset": 5}', "dataset: expected a JSON object, got 5"),
        ('{"train": null}', "train: expected a JSON object, got None"),
    ])
    def test_config_or_section_not_an_object_exit_two(self, tmp_path, text, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert_rejected(bad, tmp_path, capsys, message)

    @pytest.mark.parametrize("section", ["dataset", "split", "train"])
    def test_unknown_field_named_with_its_section_exit_two(self, tmp_path, config_file, section, capsys):
        raw = json.loads(config_file.read_text())
        raw[section]["bogus"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, f"{section}: unknown config fields: ['bogus']")

    @pytest.mark.parametrize("config, section, fields, message", [
        *[("config_file", *case) for case in [
            ("dataset", {"per_class": 0}, "dataset.per_class: must be >= 1, got 0"),
            ("dataset", {"k_unseen": -3}, "dataset.k_unseen: must be >= 0, got -3"),
            ("dataset", {"separation": 0}, "dataset.separation: must be finite and > 0, got 0"),
            ("dataset", {"noise": -1}, "dataset.noise: must be finite and > 0, got -1"),
            ("dataset", {"separation": float("inf")}, "dataset.separation: must be finite and > 0, got inf"),
            ("dataset", {"noise": float("inf")}, "dataset.noise: must be finite and > 0, got inf"),
            ("split", {"seen_class_ids": [1, 2, 9]}, "split.seen_class_ids: [1, 2, 9] not all among classes 1..4"),
            ("dataset", {"k_unseen": 0}, "split.mismatch_ratio: > 0 needs at least one unseen class"),
            ("dataset", {"max_per_class": 2},
             "dataset.max_per_class: only a cifar10 dataset subsamples, got 2 for kind 'synthetic'"),
            ("dataset", {"path": "/no/such.csv"},
             "dataset.path: only a csv or cifar10 dataset reads a path, got '/no/such.csv' for kind 'synthetic'"),
            ("split", {"seen_class_ids": [1]}, "split.seen_class_ids: must name at least two classes, got [1]"),
            ("split", {"test_fraction": 0.001},
             "split: test (seen classes) part is empty: test_fraction 0.001 of 360 seen-class examples rounds to 0"),
            ("dataset", {"k_seen": 20, "dim": 2},
             "dataset: could not place 21 cluster centers at separation 3.0 in 2 dimensions after 1000 tries"),
        ]],
        ("csv_config_file", "split", {"seen_class_ids": [1, 2, 9]},
         "split.seen_class_ids: [1, 2, 9] not all among classes 1..4"),
        # a cifar10 pool is not loaded to validate, but its ten classes are known
        ("cifar_config_file", "split", {"seen_class_ids": [1, 11]},
         "split.seen_class_ids: [1, 11] not all among classes 1..10"),
        ("cifar_config_file", "split", {"seen_class_ids": list(range(1, 11))},
         "split.mismatch_ratio: > 0 needs at least one unseen class"),
    ])
    def test_data_the_generator_or_split_would_reject_exit_two(self, tmp_path, request, config, section, fields,
                                                               message, capsys):
        """Every rule of the synthetic generator and of the split, and whether the generator places its
        clusters and the split fits its pool, is checked before any run starts."""
        raw = json.loads(request.getfixturevalue(config).read_text())
        raw[section].update(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, message)

    @pytest.mark.parametrize("sidecar, message", [
        (None, "dataset.path: missing metadata sidecar"),
        ('{"name": "pool"}', "dataset.path: {}: not a dataset sidecar with a name and a class_count"),
        ('{"name": "pool", "class_count": "4"}', "dataset.path: {}: not a dataset sidecar"),
    ])
    def test_csv_dataset_without_a_valid_sidecar_exit_two(self, tmp_path, csv_config_file, sidecar, message,
                                                          capsys):
        # the loader's sidecar rule, checked before any run starts
        meta = tmp_path / "pool.meta.json"
        meta.unlink()
        if sidecar is not None:
            meta.write_text(sidecar)
        assert_rejected(csv_config_file, tmp_path, capsys, message.format(meta))

    def test_csv_dataset_with_a_non_finite_cell_exit_two(self, tmp_path, csv_config_file, capsys):
        # every run would fail to load it, so the config is refused before any run starts, with the
        # loader's message: the file and the 1-based row after the header
        pool = tmp_path / "pool.csv"
        dataset = load_dataset(pool)
        dataset.features[7, 2] = np.nan
        save_dataset(dataset, pool)
        assert_rejected(csv_config_file, tmp_path, capsys,
                        f"dataset.path: {pool}: row 8 after the header: cells must be finite, got {{'feature_2': nan}}")

    def test_cifar10_directory_without_batches_exit_two(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["dataset"] = {"kind": "cifar10", "path": str(tmp_path)}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, f"dataset.path: no data_batch_* files found under {tmp_path}")

    @pytest.mark.parametrize("max_per_class", [0, -2])
    def test_max_per_class_below_one_exit_two(self, tmp_path, cifar_config_file, max_per_class, capsys):
        raw = json.loads(cifar_config_file.read_text())
        raw["dataset"]["max_per_class"] = 3
        good = tmp_path / "good.json"
        good.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(good)]) == 0
        raw["dataset"]["max_per_class"] = max_per_class
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        message = f"max_per_class: must be >= 1 or null, got {max_per_class}"
        assert_rejected(bad, tmp_path, capsys, f"dataset.{message}")
        with pytest.raises(ValidationError, match=message):  # the loader keeps the same rule
            load_cifar10_dir(raw["dataset"]["path"], max_per_class=max_per_class)

    @pytest.mark.parametrize("section, fields, message", [
        ("dataset", {"per_class": 5},
         "labeled (seen classes) pool exhausted: need 24 more examples, only 12 of 15 seen-class examples left"),
        # the test part itself always fits (test_fraction < 1); a large one leaves the labeled part short
        ("split", {"test_fraction": 0.95},
         "labeled (seen classes) pool exhausted: need 24 more examples, only 18 of 360 seen-class examples left"),
        ("split", {"unlabeled_size": 1000},
         "unlabeled seen-class pool exhausted: need 600 more examples, only 264 of 360 seen-class examples left"),
        ("split", {"unlabeled_size": 200, "mismatch_ratio": 1.0},
         "unlabeled unseen-class pool exhausted: need 200, have 120"),
    ])
    def test_synthetic_split_its_pool_cannot_fill_exit_two(self, tmp_path, config_file, section, fields, message,
                                                             capsys):
        raw = json.loads(config_file.read_text())
        raw[section].update(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert_rejected(bad, tmp_path, capsys, f"split: {message}")

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    @pytest.mark.parametrize("per_class", range(30, 40))
    def test_capacity_is_the_one_a_run_meets(self, tmp_path, kind, per_class):
        # TINY_CONFIG's split fits from per_class 36 on: below 33 its seen-class parts overflow, below
        # 36 its 36 unseen-class examples do. Validation refuses what the build refuses, with its message,
        # for the generator's pool and for the same pool read from a CSV file
        config = ExperimentConfig.from_dict(TINY_CONFIG)
        config.dataset.per_class = per_class
        if kind == "csv":
            save_dataset(config.dataset.load(), tmp_path / "pool.csv")
            config.dataset = DatasetSpec(kind="csv", path=str(tmp_path / "pool.csv"))
        try:
            config.split.build(config.dataset.load(), seed=0)
        except CapacityError as exc:
            with pytest.raises(ValidationError) as refused:
                config.validate()
            assert refused.value.problems == [f"split: {exc}"]
        else:
            config.validate()

    def test_problem_text_is_kept_whole(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["train"].update(ablation_mode="x;y", weak_sigma=-1, strong_sigma=-1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "train.ablation_mode: unknown mode 'x;y'" in err
        # the augmentation checks live in AugmentConfig; each of its problems gets the prefix
        assert "train.weak_sigma: must be finite and >= 0" in err
        assert "train.strong_sigma: must be finite and >= 0" in err

    def test_unparseable_exit_two(self, tmp_path):
        bad = tmp_path / "mangled.json"
        bad.write_text("{not json")
        assert main(["validate-config", "--config", str(bad)]) == 2


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def console_script_threads(**env) -> list[str]:
    """What a fresh interpreter prints after importing the ``dts-ssl`` entry point's module with
    the BLAS variables unset, then ``env`` set: its OS thread count, then each variable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    code = ("import os, dts_ssl.cli; from dts_ssl import pairworker; "
            f"print(pairworker._threads(), *(os.environ[v] for v in {BLAS_VARS!r}))")
    done = subprocess.run([sys.executable, "-c", code], env={**clean, **env, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.split()


def test_console_script_pins_blas_to_one_thread():
    # a BLAS thread pool would keep run_training from forking its pair worker
    assert console_script_threads() == ["1", "1", "1", "1"]


def test_console_script_keeps_a_blas_thread_count_the_user_set():
    assert console_script_threads(OMP_NUM_THREADS="3")[1:] == ["1", "3", "1"]
