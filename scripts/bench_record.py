#!/usr/bin/env python3
"""Record the desk benchmark's run time, CPU time and page faults per ablation mode.

    python3 scripts/bench_record.py --src src --out BENCH_desk.json
    python3 scripts/bench_record.py --src /path/to/parent/src --out BENCH_desk.json

Times ``dts_ssl.benchmarks.run_benchmark(mode, SEED)`` for every ablation mode,
``--repeats`` times each (modes round-robin, after one untimed warm-up run),
and appends one record to ``--out`` (created if absent). Per mode the record
holds the median and quartiles of the wall seconds, the reference seconds
(wall time scaled by the median of ``SAMPLES_PER_SIDE`` host-speed samples
before and as many after each run, from ``perfbench/hostspeed.py``, so that one
fast or slow sample does not scale a run alone), the CPU seconds of one run
(user plus system time of ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN``, so the pair
worker it forked and reaped counts too), the minor page faults of one run
(``ru_minflt``) and those of the pair worker it forked, if any (the
``RUSAGE_CHILDREN`` delta around the run; 0 for a serial run), plus every
run's five values. It also names the host (CPU
count, Python, numpy, BLAS) and the git commit of the checkout that holds
``--src``, with ``dirty`` true when any file of that checkout but ``--out``
differs from the commit; the path itself is not recorded. ``--src`` names the source tree to import ``dts_ssl`` from, so one
copy of this script measures an older tree too; each tree runs in its own
process.
"""

import os

# one BLAS thread, as in the benchmark, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import kernel_seconds, speed_factor  # noqa: E402
from run import environment  # noqa: E402  (perfbench/run.py)

SEED = 0  # one benchmark seed for every record, so that records compare
SAMPLES_PER_SIDE = 2  # host-speed samples taken before a run, and again after it


def summary(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def git_state(src: Path, out: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True).stdout.rstrip("\n")

    try:
        sha, top = git("rev-parse", "HEAD"), Path(git("rev-parse", "--show-toplevel"))
        # "XY path" or "XY old -> new", paths relative to the checkout's top
        changed = {line[3:].split(" -> ")[-1] for line in git("status", "--porcelain").splitlines()}
    except (OSError, subprocess.CalledProcessError):  # no git, or not a checkout
        return {"sha": None, "dirty": None}
    out, top = out.resolve(), top.resolve()
    if out.is_relative_to(top):  # the record file itself may differ
        changed.discard(out.relative_to(top).as_posix())
    return {"sha": sha, "dirty": bool(changed)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that contains the dts_ssl package")
    parser.add_argument("--out", required=True, help="JSON file the record is appended to")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per mode (default 5)")
    parser.add_argument("--modes", nargs="+", help="ablation modes to run (default: all)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from dts_ssl.benchmarks import run_benchmark
    try:
        from dts_ssl.config import ABLATION_MODES
    except ModuleNotFoundError:  # a tree older than dts_ssl.config keeps the mode table in trainer
        from dts_ssl.trainer import ABLATION_MODES

    modes = args.modes or list(ABLATION_MODES)
    unknown = sorted(set(modes) - set(ABLATION_MODES))
    if unknown:
        parser.error(f"unknown modes {unknown}; choose from {list(ABLATION_MODES)}")

    def minflt(who: int = resource.RUSAGE_SELF) -> int:
        return resource.getrusage(who).ru_minflt

    def cpu_s() -> float:
        """User plus system seconds of this process and its reaped children."""
        usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return sum(u.ru_utime + u.ru_stime for u in usage)

    run_benchmark(modes[0], SEED)  # untimed: the first run in a process is slower
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    for _ in range(args.repeats):
        for mode in modes:
            samples = [kernel_seconds() for _ in range(SAMPLES_PER_SIDE)]
            worker, faults, cpu, t0 = minflt(resource.RUSAGE_CHILDREN), minflt(), cpu_s(), time.perf_counter()
            run_benchmark(mode, SEED)
            wall, cpu, faults = time.perf_counter() - t0, cpu_s() - cpu, minflt() - faults
            worker = minflt(resource.RUSAGE_CHILDREN) - worker
            factor = speed_factor(samples + [kernel_seconds() for _ in range(SAMPLES_PER_SIDE)])
            runs[mode].append({"wall_s": wall, "reference_s": wall * factor, "cpu_s": cpu, "minor_faults": faults,
                               "worker_minor_faults": worker})
            print(f"{mode} wall {wall:.3f} s, reference {wall * factor:.3f} s, CPU {cpu:.3f} s, {faults} minor "
                  f"faults, {worker} in the worker", flush=True)

    out = Path(args.out)
    record = {
        "git": git_state(src, out), "host": environment(), "seed": SEED,
        "repeats": args.repeats,
        "modes": {mode: {key: summary([r[key] for r in rs]) for key in rs[0]} | {"runs": rs}
                  for mode, rs in runs.items()},
    }
    bench = json.loads(out.read_text()) if out.exists() else {"records": []}
    bench["records"].append(record)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
