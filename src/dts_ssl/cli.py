"""Experiment runner: config loading, runs, sweeps, and CSV report emission.

Verbs:
    run             train + evaluate for each seed of a config
    sweep           repeat `run` along one config axis
    report          regenerate summary CSVs from an existing manifest
    validate-config check a config file and exit

Exit codes: 0 success, 2 validation failure, 3 runtime failure. The default
output root comes from --out-dir, the config, or $DTS_SSL_OUT_ROOT.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, json_digest
from .data import Dataset
from .errors import DtsError, ValidationError, require_all

ENV_OUT_ROOT = "DTS_SSL_OUT_ROOT"


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Layered config: desk defaults <- JSON file <- --set key=value overrides."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(raw)
    for item in overrides or []:
        _apply_override(config, item)
    config.validate()
    return config


def _apply_override(config: ExperimentConfig, item: str) -> None:
    if "=" not in item:
        raise ValidationError(f"override {item!r} must look like section.key=value")
    dotted, value = item.split("=", 1)
    *sections, key = dotted.split(".")
    target = config
    for part in sections:
        target = getattr(target, part) if part in typing.get_type_hints(type(target)) else None
        if not dataclasses.is_dataclass(target):
            raise ValidationError(f"override {dotted!r}: unknown section {part!r}")
    hints = typing.get_type_hints(type(target))  # the annotations errors.type_checks reads
    if key not in hints:
        raise ValidationError(f"override {dotted!r}: unknown field {key!r}")
    if dataclasses.is_dataclass(getattr(target, key)):
        raise ValidationError(f"override {dotted!r}: {key!r} is a config section; "
                              f"set one of its fields as {dotted}.<field>=value")
    setattr(target, key, _coerce(value, hints[key], dotted))


def _coerce(value: str, hint, dotted: str):
    """Parse an override as its field's annotated type; ``X | None`` parses as ``X``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(h for h in typing.get_args(hint) if h is not type(None))
    if hint is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"override {dotted!r}: expected a boolean, got {value!r}")
    if hint in (int, float):
        try:
            return hint(value)
        except ValueError as exc:
            kind = "an integer" if hint is int else "a number"
            raise ValidationError(f"override {dotted!r}: expected {kind}, got {value!r}") from exc
    if typing.get_origin(hint) in (list, tuple):
        items = [part for part in value.split(",") if part]
        caster = typing.get_args(hint)[0]
        try:
            return typing.get_origin(hint)(caster(p) for p in items)
        except ValueError as exc:
            raise ValidationError(
                f"override {dotted!r}: expected {caster.__name__} items, got {value!r}") from exc
    return value


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_hash: str
    artifact_version: str
    dataset_id: str
    seeds: list[int]
    out_dir: str
    runs: list[dict] = field(default_factory=list)  # {seed, ablation, axis?, status, run_dir}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(dataclasses.asdict(self), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        try:  # not text, not JSON, or not the manifest's fields
            manifest = cls(**json.loads(Path(path).read_text()))
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"manifest {path} is not a run manifest: {exc}") from exc
        if not isinstance(manifest.runs, list):
            raise ValidationError(f"manifest {path}: runs must be a list, got {manifest.runs!r}")
        require_all((isinstance(r, dict) and {"status", "seed", "run_dir"} <= r.keys(),
                     f"manifest {path}: run entry {r!r} needs status, seed and run_dir") for r in manifest.runs)
        require_all((type(r.get(k)) in (int, float), f"manifest {path}: completed run entry {r!r} needs a real {k}")
                    for r in manifest.runs if r["status"] == "completed" for k in ("accuracy", "auroc"))
        return manifest


def _experiment_hash(points: list[tuple[dict, ExperimentConfig]]) -> str:
    """Hash of everything that picks a run's outputs (the sections and the seeds),
    over every ``(labels, config)`` point with its labels. One unlabeled point, a
    plain run, hashes its config alone."""
    sections = [[labels, {k: v for k, v in config.to_dict().items() if k != "out_dir"}]
                for labels, config in points]
    payload = sections[0][1] if len(points) == 1 and not points[0][0] else sections
    return json_digest(payload)


def _execute_single(config: ExperimentConfig, dataset: Dataset, seed: int, run_dir: Path):
    """Train and evaluate one seed of ``config`` in ``run_dir``; returns the final evaluation."""
    from .trainer import run_training  # imported here: the config and report verbs load no training code

    split = config.split.build(dataset, seed)
    train_cfg = dataclasses.replace(config.train, seed=seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    effective = {**config.to_dict(), "seeds": [seed]}  # the run's seed in both places, as validate allows
    effective["train"]["seed"] = seed
    (run_dir / "effective_config.json").write_text(json.dumps(effective, indent=2))
    return run_training(train_cfg, split, out_dir=run_dir).final_eval


def _run_points(points: list[tuple[dict, ExperimentConfig]], out_dir: str | None, tag: str) -> RunManifest:
    """Run every seed of each ``(labels, config)`` point; write one manifest and its reports.

    ``labels`` is empty for a plain run. For one sweep value it holds ``axis`` and
    ``axis_value``, which name the point's subdirectory and end each of its records.
    """
    first = points[0][1]
    digest = _experiment_hash(points)
    base = Path(out_dir or first.out_dir or os.environ.get(ENV_OUT_ROOT) or "runs") / f"{tag}-{digest}"
    base.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=digest,
        artifact_version=__version__,
        dataset_id=first.dataset.name if first.dataset.kind == "synthetic" else str(first.dataset.path),
        seeds=list(first.seeds),
        out_dir=str(base),
    )
    for labels, config in points:
        point_dir = base / f"{labels['axis'].replace('.', '_')}={labels['axis_value']}" if labels else base
        dataset = functools.cache(config.dataset.load)  # loaded by the point's first run, reused by the rest
        for seed in config.seeds:
            run_dir = point_dir / f"seed{seed}"
            try:
                final = _execute_single(config, dataset(), seed, run_dir)
                outcome = {"status": "completed", "run_dir": str(run_dir), "accuracy": final.accuracy,
                           "auroc": final.auroc}
            except Exception as exc:  # noqa: BLE001 - run status must be recorded
                outcome = {"status": "failed", "run_dir": str(run_dir), "error": f"{type(exc).__name__}: {exc}"}
            manifest.runs.append({"seed": seed, "ablation": config.train.ablation_mode, **outcome, **labels})
    manifest.save(base / "manifest.json")
    emit_report(base / "manifest.json")
    failures = sum(r["status"] == "failed" for r in manifest.runs)
    if failures:
        raise DtsError(f"{failures} of {len(manifest.runs)} runs failed; see {base / 'manifest.json'}")
    return manifest


def run_experiment(config_path: str | Path, overrides: list[str] | None = None,
                   out_dir: str | None = None) -> RunManifest:
    """Execute training + inference for every seed of the config; write a manifest."""
    return _run_points([({}, load_config(config_path, overrides))], out_dir, "run")


def _resolve_axis(config: ExperimentConfig, axis: str, value: str) -> str:
    """The dotted field ``axis`` names; a bare name resolves in train, then split, then dataset."""
    errors = []
    for dotted in (axis, f"train.{axis}", f"split.{axis}", f"dataset.{axis}"):
        try:
            _apply_override(copy.deepcopy(config), f"{dotted}={value}")
            return dotted
        except ValidationError as exc:
            errors.append(exc)
    raise errors[0]


def sweep(config_path: str | Path, axis: str, values: list[str],
          overrides: list[str] | None = None, out_dir: str | None = None) -> RunManifest:
    """One run per (axis value, seed); axis names a dotted config field."""
    if not values:
        raise ValidationError("sweep: values list must be nonempty")
    config = load_config(config_path, overrides)
    axis = _resolve_axis(config, axis, values[0])
    points = []
    for value in values:
        point = copy.deepcopy(config)
        _apply_override(point, f"{axis}={value}")
        point.validate()
        if any(point == other for _, other in points):  # its runs would train one directory twice
            raise ValidationError(f"sweep: value {value!r} repeats an earlier value of {axis}")
        points.append(({"axis": axis, "axis_value": value}, point))
    return _run_points(points, out_dir, "sweep")


def emit_report(manifest_path: str | Path, include_incomplete: bool = False) -> list[Path]:
    """Per-run and aggregated CSVs plus AUROC-vs-epoch series. Idempotent."""
    manifest_path = Path(manifest_path)
    manifest = RunManifest.load(manifest_path)
    base = manifest_path.parent
    completed = [r for r in manifest.runs if r["status"] == "completed" or include_incomplete]
    tags = []  # each run's path below the manifest's directory
    for r in completed:
        # run_dir and out_dir are recorded as the run wrote them, maybe relative to its working directory
        try:
            tags.append(Path(r["run_dir"]).relative_to(manifest.out_dir))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"manifest {manifest_path}: run_dir {r['run_dir']!r} is not under "
                                  f"out_dir {manifest.out_dir!r}") from exc
        if r["status"] == "completed" and not (base / tags[-1] / "metrics.jsonl").is_file():
            raise ValidationError(f"manifest {manifest_path}: run {r['run_dir']} not found at {base / tags[-1]}")

    # a sweep's values in its own order, which the manifest keeps (sorted strings put 100000 before 90)
    values = list(dict.fromkeys(str(r.get("axis_value", "")) for r in completed))
    runs_csv = base / "report_runs.csv"
    with open(runs_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_dir", "seed", "ablation", "axis", "axis_value", "status", "accuracy", "auroc"])
        for r in sorted(completed, key=lambda r: (values.index(str(r.get("axis_value", ""))), r["seed"])):
            writer.writerow([
                r["run_dir"], r["seed"], r.get("ablation", ""), r.get("axis", ""),
                r.get("axis_value", ""), r["status"], r.get("accuracy", ""), r.get("auroc", ""),
            ])

    agg_csv = base / "report_aggregate.csv"
    groups: dict[str, list[dict]] = {}
    for r in (r for r in completed if r["status"] == "completed"):
        groups.setdefault(str(r.get("axis_value", "all")), []).append(r)
    with open(agg_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "runs", "acc_mean", "acc_std", "auroc_mean", "auroc_std"])
        for key in groups:  # in the manifest's order, as the runs above
            accs = np.array([r["accuracy"] for r in groups[key]])
            aurocs = np.array([r["auroc"] for r in groups[key]])
            writer.writerow([
                key, len(groups[key]),
                repr(float(accs.mean())), repr(float(accs.std())),
                repr(float(aurocs.mean())), repr(float(aurocs.std())),
            ])

    series_paths = []
    series_dir = base / "auroc_by_epoch"
    series_dir.mkdir(exist_ok=True)
    for tag in tags:
        metrics = base / tag / "metrics.jsonl"
        if not metrics.exists():  # a failed run may have written none
            continue
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        out = series_dir / (str(tag).replace(os.sep, "__") + ".csv")
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "global_epoch", "auroc", "test_accuracy"])
            for row in rows:
                writer.writerow([row["phase"], row["global_epoch"], repr(row["auroc"]), repr(row["test_accuracy"])])
        series_paths.append(out)
    return [runs_csv, agg_csv, *series_paths]


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON experiment config")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field (dotted path)")
    sub.add_argument("--seed", type=int, default=None, help="run a single seed")
    sub.add_argument("--seeds", type=int, default=None, help="run seeds 0..N-1")
    sub.add_argument("--ablation", default=None, help="ablation mode override")
    sub.add_argument("--out-dir", default=None)


def _flag_overrides(args: argparse.Namespace) -> list[str]:
    overrides = list(args.overrides)
    if args.ablation is not None:
        overrides.append(f"train.ablation_mode={args.ablation}")
    if args.seed is not None and args.seeds is not None:
        raise ValidationError("--seed and --seeds are mutually exclusive")
    if args.seed is not None:
        overrides.append(f"seeds={args.seed}")
    elif args.seeds is not None:
        overrides.append("seeds=" + ",".join(str(seed) for seed in range(args.seeds)))
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dts-ssl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="train and evaluate each seed of a config")
    _common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run a config across values of one field")
    _common_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, help="config field to vary, e.g. split.mismatch_ratio")
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")

    report_p = sub.add_parser("report", help="regenerate CSV reports from a manifest")
    report_p.add_argument("--manifest", required=True)
    report_p.add_argument("--include-incomplete", action="store_true")

    check_p = sub.add_parser("validate-config", help="validate a config file and exit")
    check_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "validate-config":
            load_config(args.config)
            print(f"{args.config}: OK")
            return 0
        if args.verb == "report":
            print(*emit_report(args.manifest, include_incomplete=args.include_incomplete), sep="\n")
            return 0

        overrides = _flag_overrides(args)
        if args.verb == "run":
            manifest = run_experiment(args.config, overrides, args.out_dir)
        else:
            values = [v for v in args.values.split(",") if v]
            manifest = sweep(args.config, args.axis, values, overrides, args.out_dir)
        print(Path(manifest.out_dir) / "manifest.json")
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (DtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
