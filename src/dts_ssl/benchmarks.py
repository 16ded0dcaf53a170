"""The desk-scale synthetic benchmark used by the demos and the acceptance suite.

The benchmark task is :data:`DESK`, the one experiment config that
``configs/desk_benchmark.json`` holds in file form: the default
:class:`DatasetSpec` and :class:`SplitSpec`, four seen Gaussian clusters plus
two unseen ones in 16 dimensions, a small labeled set (80 examples), and 2000
unlabeled examples at mismatch ratio 0.5. Cluster noise is chosen so the
supervised baseline is clearly beatable while nearest-cluster structure keeps
the task learnable from so few labels.
"""

from __future__ import annotations

import dataclasses

from .config import ExperimentConfig, TrainConfig
from .data import DatasetSpec, MismatchSplit, SplitSpec

DESK = ExperimentConfig(
    dataset=DatasetSpec(name="desk-benchmark"),
    split=SplitSpec(),
    # desk training schedule for benchmark runs: the reference unlabeled
    # multiplier (mu=7), frequent teacher refreshes so teacher guidance stays
    # current, and a small backbone so the guidance and the unseen-class
    # supervision carry weight
    train=TrainConfig.desk(iterations=5, epochs_per_iteration=48, mu=7, hidden_widths=(16, 16), feature_dim=8),
    seeds=[0, 1, 2],
)


def benchmark_split(seed: int) -> MismatchSplit:
    """Same task geometry for all seeds; the seed draws the split partitions."""
    return DESK.split.build(DESK.dataset.load(), seed)


def benchmark_config(ablation_mode: str = "full", seed: int = 0, **overrides) -> TrainConfig:
    return dataclasses.replace(DESK.train, ablation_mode=ablation_mode, seed=seed, **overrides)


def run_benchmark(ablation_mode: str = "full", seed: int = 0, out_dir=None, **overrides):
    """One paired benchmark run: build the seed's split, train, evaluate; returns the ``TrainResult``."""
    from .trainer import run_training  # imported here: the split alone loads no training code

    split = benchmark_split(seed)
    config = benchmark_config(ablation_mode, seed, **overrides)
    return run_training(config, split, out_dir=out_dir)
