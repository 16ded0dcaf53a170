#!/usr/bin/env python3
"""Print one ``seed mode sha256(json.dumps(history))`` line per benchmark run.

    python3 scripts/history_digests.py --src src > head.txt
    python3 scripts/history_digests.py --src /path/to/base/src > base.txt
    diff base.txt head.txt

Runs every ablation mode on benchmark seeds 0-2 (``dts_ssl.benchmarks.
run_benchmark``), then ``full`` and four other step paths on the reference
64-64-32 backbone with tanh and with relu (seed 0; mode printed as
``<mode>@64-64-32-<activation>``), where the matmuls are wide enough that
BLAS kernel choice could change bits, then seed-0 runs of the training-step
branches that no default-config mode reaches (printed as
``<mode>@<field>=<value>``). A change that must keep the numerics
bit-identical leaves this output unchanged. ``--src`` names the source tree
to import ``dts_ssl`` from, so one copy of this script can check an older
tree too.
"""

import os

# one BLAS thread, as in the benchmark, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys

SEEDS = (0, 1, 2)
WIDE_MODES = ("full", "no_its", "no_k1_ots", "one_f_two_c_proj", "supervised_only")
WIDE = dict(hidden_widths=(64, 64), feature_dim=32)
# (mode, config override): a loss weight at 0, the extra-class pseudo-label
# exclusion, the cosine learning-rate schedule, an evaluation schedule other
# than every epoch (pre-training still evaluates every epoch), and a gate
# threshold below 0.5, where a 1 - max mode's gate must ignore the score (at
# tau >= 0.5, max > tau already implies max > 1 - max)
GUARDS = (
    ("full", "lambda_lm", 0.0),
    ("full", "lambda_seen", 0.0),
    ("no_its", "lambda_cr", 0.0),
    ("one_f_two_c", "exclude_k1_pseudo", True),
    ("no_soft_weighting", "lr_schedule", "cosine"),
    ("full", "eval_every", 3),
    ("no_k1_its", "tau", 0.4),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that contains the dts_ssl package")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from dts_ssl.benchmarks import run_benchmark
    try:
        from dts_ssl.config import ABLATION_MODES
    except ModuleNotFoundError:  # a tree older than dts_ssl.config keeps the mode table in trainer
        from dts_ssl.trainer import ABLATION_MODES

    def digest(mode: str, seed: int, **overrides) -> str:
        history = run_benchmark(mode, seed, **overrides).history
        return hashlib.sha256(json.dumps(history).encode()).hexdigest()

    for seed in SEEDS:
        for mode in ABLATION_MODES:
            print(seed, mode, digest(mode, seed), flush=True)
    for activation in ("tanh", "relu"):
        for mode in WIDE_MODES:
            label = f"{mode}@64-64-32-{activation}"
            print(0, label, digest(mode, 0, activation=activation, **WIDE), flush=True)
    for mode, name, value in GUARDS:
        print(0, f"{mode}@{name}={value}", digest(mode, 0, **{name: value}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
