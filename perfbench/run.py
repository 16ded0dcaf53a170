#!/usr/bin/env python3
"""dts-ssl training benchmark.

    python3 perfbench/run.py --workload desk_full --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

Run from the repository root. One process, BLAS pinned to one thread, one
training run at a time (closed loop). The library is driven from outside
through its public entry points (``dts_ssl.benchmarks.benchmark_split``,
``benchmark_config``, ``run_benchmark`` and ``dts_ssl.trainer.run_training``);
the workload seed selects the benchmark split and the training seed.

Each invocation measures set-up in fresh interpreters, makes one untimed
warm-up pass, then times passes untraced for up to ``--seconds`` (at least
one pass). A pass is one run per mode of the workload; ``run_s`` is the
median over passes of the mean time of one ``run_training`` call. Every
end-to-end time is in reference seconds: wall time scaled by a host-speed
kernel timed every few epochs (see ``hostspeed.py``); wall times are printed
next to them.

With ``--trace 1`` a further pass runs with every layer's public functions
wrapped (see ``spans.py``) and the result carries the per-layer metrics; the
end-to-end ones are printed above it. Every run is checked: it must not
raise, its history must have one record per epoch with finite losses and
finite accuracy/AUROC wherever it evaluated, and every run of one
(workload, seed) must produce the same ``sha256(json.dumps(history))``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload traced, each in its own process, and prints all of their metrics.
"""

import os

# Pin BLAS/OpenMP before numpy is imported anywhere in this process; the
# set-up children inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import kernel_seconds, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # run directories while they exist, and span dumps
SETUP_REPEATS = 5
CAL_EVERY = 4  # train epochs between host-speed samples in a timed run


@dataclasses.dataclass(frozen=True)
class Run:
    mode: str
    overrides: dict = dataclasses.field(default_factory=dict)  # applied on top of benchmark_config


@dataclasses.dataclass(frozen=True)
class Workload:
    runs: tuple[Run, ...]
    writes_run_dir: bool


# Every workload uses the desk benchmark split (16-d, 4 seen + 2 unseen
# classes, m=80 labeled, n=2000 unlabeled at mismatch 0.5, 720 test rows) and
# the desk schedule: 50 pre-train epochs plus 5 x 48 train epochs per run.
WORKLOADS = {
    # The paper pipeline as `dts-ssl run` runs it: evaluates every epoch and
    # writes a run directory. The 16-16-8 network is so small that numpy
    # dispatch dominates and evaluation/AUROC does most of the work. The only
    # workload that writes checkpoints, so save_model I/O works here and
    # nowhere else.
    "desk_full": Workload((Run("full"),), writes_run_dir=True),
    # `full` on the reference backbone (64-64-32), evaluated only at iteration
    # boundaries as full-scale runs are: the train step's forward/backward
    # matmuls dominate and AUROC is a few percent, so an evaluation speed-up
    # should show no change here and a forward/backward speed-up should.
    "wide_train": Workload(
        (Run("full", dict(hidden_widths=(64, 64), feature_dim=32, eval_every=48)),),
        writes_run_dir=False,
    ),
    # The step paths and scoring modes `full` never runs: outlier-only blend
    # scoring (no_its), uniform_push (no_k1_ots), the merged two-head step with
    # a projection layer (one_f_two_c_proj) and no unlabeled data at all
    # (supervised_only). A step restructuring must show no regression here.
    "ablation_mix": Workload(
        tuple(Run(m) for m in ("no_its", "no_k1_ots", "one_f_two_c_proj", "supervised_only")),
        writes_run_dir=False,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "auroc": "ratio",
}

# per-layer metric -> unit; busy_s is inclusive span time, self_s excludes child spans
PER_LAYER_UNITS = {
    "evaluation.compute_auroc.calls": "count",
    "evaluation.compute_auroc.rows": "rows",
    "evaluation.compute_auroc.busy_s": "s",
    "evaluation.predict_labels.busy_s": "s",
    "evaluation.score_histogram.busy_s": "s",
    "evaluation.per_class_accuracy.busy_s": "s",
    "models.logits.train.calls": "count",
    "models.logits.train.rows": "rows",
    "models.logits.train.busy_s": "s",
    "models.logits.eval.calls": "count",
    "models.logits.eval.rows": "rows",
    "models.logits.eval.busy_s": "s",
    "models.backward.calls": "count",
    "models.backward.busy_s": "s",
    "models.refresh_teacher.calls": "count",
    "models.save_model.calls": "count",
    "models.save_model.bytes": "bytes",
    "models.save_model.busy_s": "s",
    "losses.and_grad.calls": "count",
    "losses.and_grad.busy_s": "s",
    "soft_weighting.scores_from_probs.calls": "count",
    "soft_weighting.scores_from_probs.busy_s": "s",
    "soft_weighting.gate_mask.calls": "count",
    "soft_weighting.gate_mask.busy_s": "s",
    "soft_weighting.gate_pass_rate_in": "ratio",
    "soft_weighting.gate_pass_rate_out": "ratio",
    "data.augment_batch.calls": "count",
    "data.augment_batch.rows": "rows",
    "data.augment_batch.busy_s": "s",
    "data.next_batch_pair.calls": "count",
    "data.next_batch_pair.busy_s": "s",
    "trainer.pretrain_teacher.self_s": "s",
    "trainer.train_dts_iteration.self_s": "s",
    "trainer.evaluate_pipeline.calls": "count",
    "trainer.evaluate_pipeline.busy_s": "s",
    "trainer.SGD.step.calls": "count",
    "trainer.SGD.step.busy_s": "s",
    "trainer.unlabeled_forwards_per_example": "forwards/row",
    "benchmarks.benchmark_split.busy_s": "s",
    "trace.overhead_pct": "%",
    "trace.uncovered_s": "s",
}

# every traced function must record a call on every workload, except
# save_model, which only runs where a run directory is written
TRACED_SPANS = (
    "evaluation.compute_auroc", "evaluation.predict_labels", "evaluation.score_histogram",
    "evaluation.per_class_accuracy", "models.logits.train", "models.logits.eval",
    "models.backward", "models.refresh_teacher", "models.save_model", "losses.and_grad",
    "soft_weighting.scores_from_probs", "soft_weighting.gate_mask", "data.augment_batch",
    "data.next_batch_pair", "trainer.pretrain_teacher", "trainer.train_dts_iteration",
    "trainer.evaluate_pipeline", "trainer.SGD.step", "trainer.run_training",
    "benchmarks.benchmark_split",
)

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dts_ssl.benchmarks import benchmark_split
benchmark_split(int(sys.argv[3]))
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from hostspeed import kernel_seconds
print(elapsed, kernel_seconds(repeats=9))
"""


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas_id} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def measure_setup(seed: int) -> tuple[float, float]:
    """Import plus benchmark_split(seed), timed inside a fresh interpreter,
    and the host-speed kernel timed right after it: (wall s, reference s)."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    wall, kernel = map(float, done.stdout.split())
    return wall, wall * speed_factor([kernel])


@dataclasses.dataclass
class CallResult:
    mode: str
    seconds: float = math.nan  # wall time, less the time spent sampling host speed
    started: float = math.nan
    finished: float = math.nan
    history: list | None = None
    digest: str | None = None  # sha256(json.dumps(history))
    accuracy: float = math.nan
    auroc: float = math.nan
    epoch_ends: list = dataclasses.field(default_factory=list)
    epoch_resumes: list = dataclasses.field(default_factory=list)  # after the callback's calibration
    kernel: list = dataclasses.field(default_factory=list)  # host-speed samples taken during the run
    examples: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def reference_seconds(self) -> tuple[float, list[float]]:
        """The run's time and its epochs' times (from the second on) in reference
        seconds. Each stretch is scaled by the host-speed samples on either side."""
        f = [speed_factor([k]) for k in self.kernel]

        def factor(block: int) -> float:
            # block b ran between samples b-1 and b; the median of the four
            # nearest samples keeps one noisy sample from scaling a block
            return statistics.median(f[max(0, block - 2): block + 2])

        epochs = [(self.epoch_ends[i] - self.epoch_resumes[i - 1]) * factor(i // CAL_EVERY)
                  for i in range(1, len(self.epoch_ends))]
        head = (self.epoch_ends[0] - self.started) * factor(0)  # pre-training and the first epoch
        tail = (self.finished - self.epoch_resumes[-1]) * factor(len(f))  # final evaluation and output
        return head + sum(epochs) + tail, epochs


def history_problems(history: list, config) -> list[str]:
    """Record count, finite losses everywhere, finite accuracy/AUROC where evaluated."""
    from dts_ssl.losses import LossReport

    expected = config.pretrain_epochs + config.iterations * config.epochs_per_iteration
    if len(history) != expected:
        return [f"history has {len(history)} records, expected {expected}"]
    loss_keys = [f.name for f in dataclasses.fields(LossReport)]
    problems = []
    for rec in history:
        evaluated = rec["phase"] == "pretrain" or (
            (rec["epoch"] + 1) % config.eval_every == 0
            or rec["epoch"] == config.epochs_per_iteration - 1
        )
        keys = loss_keys + (["test_accuracy", "auroc"] if evaluated else [])
        bad = [k for k in keys if not math.isfinite(rec[k])]
        if bad:
            problems.append(f"global epoch {rec['global_epoch']}: non-finite {bad}")
    return problems


class Bench:
    def __init__(self, name: str, seed: int, split) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.split = split

    def examples(self, config) -> int:
        """Labeled plus unlabeled examples the training steps of one run consume."""
        from dts_ssl.trainer import apply_ablation

        m = len(self.split.labeled_x)
        per_train_epoch = m + (config.mu * m if apply_ablation(config.ablation_mode, config).uses_unlabeled else 0)
        return config.pretrain_epochs * m + config.total_train_epochs * per_train_epoch

    def call(self, run: Run, split=None, tracer=None) -> CallResult:
        """One training run. Given a split (timed and traced passes) it calls
        run_training, stamps every train epoch and samples host speed, and its
        ``seconds`` exclude the time spent in the epoch callback, which a tracer
        records as a span of its own. Without one (the warm-up) it goes through
        run_benchmark."""
        # looked up at call time, so that a traced pass calls the wrappers
        from dts_ssl.benchmarks import benchmark_config, run_benchmark
        from dts_ssl.trainer import run_training

        config = benchmark_config(run.mode, self.seed, **run.overrides)
        res = CallResult(run.mode, examples=self.examples(config))
        out_dir = tempfile.mkdtemp(dir=OUT) if self.workload.writes_run_dir else None
        try:
            if split is None:
                t0 = time.perf_counter()
                result = run_benchmark(run.mode, self.seed, out_dir=out_dir, **run.overrides)
                res.seconds = time.perf_counter() - t0
            else:
                def stamp(state, record):
                    res.epoch_ends.append(time.perf_counter())
                    if len(res.epoch_ends) % CAL_EVERY == 0:
                        res.kernel.append(kernel_seconds(repeats=3))
                    res.epoch_resumes.append(time.perf_counter())

                callback = stamp if tracer is None else tracer.wrap("perfbench.epoch_callback", stamp)
                res.started = time.perf_counter()
                result = run_training(config, split, out_dir=out_dir, epoch_callback=callback)
                res.finished = time.perf_counter()
                res.seconds = res.finished - res.started - sum(
                    b - a for a, b in zip(res.epoch_ends, res.epoch_resumes))
        except Exception:
            res.problems.append("raised:\n" + traceback.format_exc())
            return res
        finally:
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
        res.history = result.history
        res.digest = hashlib.sha256(json.dumps(result.history).encode()).hexdigest()
        res.accuracy = result.final_eval.accuracy
        res.auroc = result.final_eval.auroc
        res.problems += history_problems(result.history, config)
        return res

    def warm_up(self) -> list[CallResult]:
        return [self.call(run) for run in self.workload.runs]

    def run_pass(self, tracer=None) -> list[CallResult]:
        split = self.split
        if tracer is not None:
            from dts_ssl.benchmarks import benchmark_split

            split = benchmark_split(self.seed)  # traced, for benchmarks.benchmark_split.busy_s
        return [self.call(run, split, tracer) for run in self.workload.runs]


def end_to_end(setup_ref: list[float], timed: list[list[CallResult]],
               peak_rss_mb: float) -> tuple[dict[str, float], int]:
    """The end-to-end metrics, times in reference seconds (see hostspeed.py),
    and the fewest epoch samples any mode contributed."""
    # median over passes of the mean time of one run_training call
    ref = {id(c): c.reference_seconds() for p in timed for c in p}
    run_s = statistics.median(statistics.fmean(ref[id(c)][0] for c in p) for p in timed)
    calls = [c for p in timed for c in p]
    # Epoch percentiles are taken per mode and averaged over modes: the modes of
    # a mix differ in epoch cost, and a pooled median would sit between them.
    epochs_ms: dict[str, list[float]] = {}
    for c in calls:
        epochs_ms.setdefault(c.mode, []).extend(1e3 * t for t in ref[id(c)][1])
    return {
        "setup_s": statistics.median(setup_ref),
        "run_s": run_s,
        "epoch_ms_p50": statistics.fmean(statistics.median(v) for v in epochs_ms.values()),
        "epoch_ms_p90": statistics.fmean(statistics.quantiles(v, n=10)[-1] for v in epochs_ms.values()),
        "examples_per_s": statistics.fmean(c.examples for c in timed[0]) / run_s,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": statistics.fmean(c.accuracy for c in calls),
        "auroc": statistics.fmean(c.auroc for c in calls),
    }, min(len(v) for v in epochs_ms.values())


def per_layer(summary: dict, traced: list[CallResult], run_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass; times are wall seconds, except that
    the overhead compares its reference seconds with the untraced ``run_s``."""
    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    out = {}
    for metric in PER_LAYER_UNITS:
        name, _, key = metric.rpartition(".")
        if key in ("calls", "rows", "bytes", "busy_s", "self_s"):
            out[metric] = stat(name, key)

    train = [r for c in traced for r in c.history if r["phase"] == "train"]
    scored = sum(r["batch_unlabeled"] for r in train)
    out["soft_weighting.gate_pass_rate_in"] = sum(r["pass_count_in"] for r in train) / scored
    out["soft_weighting.gate_pass_rate_out"] = sum(r["pass_count_out"] for r in train) / scored
    forwards = sum(c.history[-1]["training_unlabeled_forwards"] for c in traced)
    out["trainer.unlabeled_forwards_per_example"] = forwards / stat("data.next_batch_pair", "rows")
    traced_run_s = statistics.fmean(c.reference_seconds()[0] for c in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
    out["trace.uncovered_s"] = stat("trainer.run_training", "self_s")
    return out


def run_all(args) -> int:
    """Every workload, traced, each in its own process; prints every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {done.returncode})")
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "dts_ssl" / "__init__.py").is_file():
        print(f"perfbench: no dts_ssl package under {SRC}", file=sys.stderr)
        return 2

    setup_wall, setup_ref = zip(*(measure_setup(args.seed) for _ in range(SETUP_REPEATS)))
    sys.path.insert(0, str(SRC))
    import dts_ssl
    from dts_ssl.benchmarks import benchmark_split

    if Path(dts_ssl.__file__).resolve().parent != SRC / "dts_ssl":
        print(f"perfbench: imported dts_ssl from {dts_ssl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    say(f"env {environment()}")
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, benchmark_split(args.seed))

    warm = bench.warm_up()  # untimed: the first run in a process is slower
    # Timed passes run while one more pass of the mean length still fits in
    # --seconds, so a run measures for at most --seconds or one pass.
    timed = []
    start = time.perf_counter()
    while not timed or (time.perf_counter() - start) * (len(timed) + 1) / len(timed) <= args.seconds:
        timed.append(bench.run_pass())
        for c in timed[-1]:
            c.history = None  # the digest is kept; retained histories would inflate peak RSS
    all_calls = warm + [c for p in timed for c in p]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before any tracing

    traced, summary, missing = [], {}, []
    if args.trace:
        from spans import Tracer, patched

        tracer = Tracer()
        with patched(tracer):
            traced = bench.run_pass(tracer)
        summary = tracer.summary()
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        say(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        required = [n for n in TRACED_SPANS
                    if n != "models.save_model" or bench.workload.writes_run_dir]
        missing = [n for n in required if summary.get(n, {}).get("calls", 0) == 0]
        for name in missing:
            say(f"TRACE FAILURE: {name} recorded no call on {args.workload}")
        all_calls += traced

    reference = {c.mode: c.digest for c in warm}
    for c in all_calls:
        if c.digest is not None and c.digest != reference[c.mode]:
            c.problems.append(f"history digest {c.digest} differs from the first run's {reference[c.mode]}")
    failed = [c for c in all_calls if c.problems]
    for c in failed:
        more = f"; and {len(c.problems) - 3} more" if len(c.problems) > 3 else ""
        say(f"FAILED {args.workload} seed={args.seed} mode={c.mode}: " + "; ".join(c.problems[:3]) + more)
    for mode, digest in reference.items():
        say(f"digest workload={args.workload} seed={args.seed} mode={mode} sha256={digest}")
    say(f"fail_rate {len(failed)}/{len(all_calls)} = {len(failed) / len(all_calls):.4f} (runs)")

    ok_timed = [p for p in timed if not any(c.problems for c in p)]
    if not ok_timed:
        print(json.dumps({"correct": False, "attempted": len(all_calls), "failed": len(failed), "metrics": {}}))
        return 1
    e2e, n_epochs = end_to_end(setup_ref, ok_timed, peak_rss_mb)
    say(f"{len(ok_timed)} timed passes of {len(bench.workload.runs)} run(s) after 1 warm-up pass; "
        f"{n_epochs} epoch samples per mode; setup from {len(setup_wall)} fresh interpreters")
    say("wall seconds per call: warm-up " + " ".join(f"{c.seconds:.3f}" for c in warm)
        + " | timed " + " ".join(f"{statistics.fmean(c.seconds for c in p):.3f}" for p in ok_timed)
        + " | setup " + " ".join(f"{s:.3f}" for s in setup_wall))
    say("host speed factor (reference s per wall s): timed "
        + " ".join(f"{statistics.fmean(c.reference_seconds()[0] / c.seconds for c in p):.3f}" for p in ok_timed)
        + " | setup " + " ".join(f"{r / w:.3f}" for w, r in zip(setup_wall, setup_ref)))
    say(f"wall run_s = {statistics.median(statistics.fmean(c.seconds for c in p) for p in ok_timed):.6g} s, "
        f"wall setup_s = {statistics.median(setup_wall):.6g} s")
    for k, v in e2e.items():
        say(f"end_to_end {args.workload} {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    if args.trace and not any(c.problems for c in traced):
        layers = per_layer(summary, traced, e2e["run_s"])
        for k, v in layers.items():
            say(f"per_layer {args.workload} {k} = {v:.6g} {PER_LAYER_UNITS[k]}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    elif args.trace:
        metrics = {}
    correct = not failed and not missing
    print(json.dumps({"correct": correct, "attempted": len(all_calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
