"""Run configuration: a run's hyperparameters (``TrainConfig``), its backbone (``BackboneSpec``),
the ablation mode table, and the experiment config of the CLI and the desk benchmark.

It imports only the data layer, so checking a config or building a split loads no training code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .data import AugmentConfig, DatasetSpec, SplitSpec, capacity_checks, split_checks, split_sizes
from .errors import ValidationError, replace_fields, require_all, type_checks
from .numerics import ACTIVATIONS


@dataclass(frozen=True)
class BackboneSpec:
    """Architecture of the feature extractor (and optional head-side projection).

    ``k1_projection`` inserts an extra hidden layer in front of the (K+1)-way
    head only; it exists for the merged-model comparison variants.
    """

    input_dim: int
    hidden_widths: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    activation: str = "tanh"
    k1_projection: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        require_all([
            (self.input_dim >= 1, "input_dim: must be >= 1"),
            (all(w >= 1 for w in self.hidden_widths), "hidden_widths: every width must be >= 1"),
            (self.feature_dim >= 1, "feature_dim: must be >= 1"),
            (self.activation in ACTIVATIONS,
             f"activation: unknown {self.activation!r}, expected one of {tuple(ACTIVATIONS)}"),
        ])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.feature_dim)


@dataclass
class TrainConfig:
    """All hyperparameters of a run. Defaults are the reference full-scale values;
    :meth:`desk` swaps in a configuration that finishes in seconds on synthetic data.
    """

    lambda_seen: float = 0.25
    lambda_lm: float = 0.25
    lambda_unseen: float = 0.1
    lambda_cr: float = 0.3
    mu: int = 7
    tau: float = 0.85
    batch_size: int = 256
    gamma: float = 0.5
    epochs_per_iteration: int = 400
    iterations: int = 3
    pretrain_epochs: int = 1000
    lr: float = 0.128
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_schedule: str = "constant"  # "constant" | "cosine"
    ablation_mode: str = "full"
    seed: int = 0
    hidden_widths: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    activation: str = "tanh"
    weak_sigma: float = 0.05
    strong_sigma: float = 0.2
    mask_fraction: float = 0.25
    exclude_k1_pseudo: bool = False
    unseen_hard_threshold: float = 0.85  # hard mask level in no_soft_weighting
    uniformity_threshold: float = 0.5  # mask level for the K-head outlier ablation
    eval_every: int = 1
    dump_scores: bool = False  # per-sample outputs: evaluation scores and the training gate record

    def __post_init__(self) -> None:
        if isinstance(self.hidden_widths, list):  # JSON spells a tuple as a list
            self.hidden_widths = tuple(self.hidden_widths)

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Desk-scale defaults: minutes-long end-to-end runs on synthetic data."""
        base = dict(
            mu=3,
            batch_size=64,
            epochs_per_iteration=20,
            iterations=2,
            pretrain_epochs=50,
            lr=0.05,
        )
        base.update(overrides)
        return cls(**base)

    def validate(self) -> None:
        require_all(type_checks(self))  # the value checks below assume the declared types
        checks = [
            (0 <= self.lambda_seen < math.inf, "lambda_seen: must be finite and >= 0"),
            (0 <= self.lambda_lm < math.inf, "lambda_lm: must be finite and >= 0"),
            (0 <= self.lambda_unseen < math.inf, "lambda_unseen: must be finite and >= 0"),
            (0 <= self.lambda_cr < math.inf, "lambda_cr: must be finite and >= 0"),
            (self.mu >= 1, "mu: must be >= 1"),
            (0.0 < self.tau < 1.0, "tau: must lie in (0, 1)"),
            (self.batch_size >= 1, "batch_size: must be >= 1"),
            (0.0 <= self.gamma <= 1.0, "gamma: must lie in [0, 1]"),
            (self.epochs_per_iteration >= 1, "epochs_per_iteration: must be >= 1"),
            (self.iterations >= 1, "iterations: must be >= 1"),
            (self.pretrain_epochs >= 1, "pretrain_epochs: must be >= 1"),
            (0 < self.lr < math.inf, "lr: must be finite and > 0"),
            (0.0 <= self.momentum < 1.0, "momentum: must lie in [0, 1)"),
            (0 <= self.weight_decay < math.inf, "weight_decay: must be finite and >= 0"),
            (self.lr_schedule in ("constant", "cosine"), "lr_schedule: unknown schedule"),
            (self.ablation_mode in ABLATION_MODES, f"ablation_mode: unknown mode {self.ablation_mode!r}"),
            (0.0 < self.unseen_hard_threshold < 1.0, "unseen_hard_threshold: must lie in (0, 1)"),
            (0.0 < self.uniformity_threshold < 1.0, "uniformity_threshold: must lie in (0, 1)"),
            (self.eval_every >= 1, "eval_every: must be >= 1"),
            (self.seed >= 0, "seed: must be >= 0"),
        ]
        for build in (lambda: AugmentConfig(self.weak_sigma, self.strong_sigma, self.mask_fraction),
                      lambda: BackboneSpec(1, self.hidden_widths, self.feature_dim, self.activation)):
            try:  # the augmentation and architecture fields keep their checks in those classes
                build()
            except ValidationError as exc:
                checks += [(False, problem) for problem in exc.problems]
        require_all(checks)

    @property
    def total_train_epochs(self) -> int:
        return self.iterations * self.epochs_per_iteration

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        return replace_fields(cls(), raw)


def json_digest(payload) -> str:
    """The first 12 hex digits of the SHA-256 of ``payload`` as sort-keyed JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def config_hash(config: TrainConfig) -> str:
    return json_digest(config.to_dict())


@dataclass(frozen=True)
class PipelineDescription:
    """What an ablation mode chooses: the teacher-student pairs, the loss terms of
    each role, whether the (K+1)-head score weights the extra-class supervision
    itself or through a hard mask, and whether the (K+1)-head has a projection.
    The defaults are the ``full`` pipeline's.

    ``pairs`` maps pair name to the head kind ``derive_pair`` gives its models.
    The rest follows from these: the heads the pairs carry choose the score
    (``_score``), the first pair classifies, the gate uses the score where the
    score comes from a (K+1)-head, and the loss weights are the config's.
    """

    mode: str
    summary: str
    pairs: tuple[tuple[str, str], ...] = (("inlier", "inlier"), ("outlier", "outlier"))  # (name, pair kind)
    inlier_losses: tuple[str, ...] = ("ce", "seen", "lm")
    outlier_losses: tuple[str, ...] = ("ce", "seen", "unseen", "cr")
    soft_weighting: bool = True  # off: the unseen term is masked at score > unseen_hard_threshold
    k1_projection: bool = False

    @property
    def uses_unlabeled(self) -> bool:
        """Whether some loss term reads unlabeled data (every term but the labeled CE)."""
        return any(t != "ce" for t in self.inlier_losses + self.outlier_losses)


# mode -> (summary, formatted with the TrainConfig; the fields it changes from ``full``)
_MODES = {
    "full": ("dual teacher-student pairs, soft-weighted unseen supervision", {}),
    "no_its": ("single (K+1)-head pair handles both classification and detection",
               dict(pairs=(("outlier", "outlier"),), inlier_losses=())),
    "no_soft_weighting": ("unseen supervision hard-masked at score > {0.unseen_hard_threshold}",
                          dict(soft_weighting=False)),
    # plain confidence-threshold pseudo-labeling: no unseen class, no score, no logit matching
    "no_k1_its": ("K-head pair with confidence-threshold pseudo-labeling only",
                  dict(pairs=(("inlier", "inlier"),), inlier_losses=("ce", "seen"), outlier_losses=())),
    # an outlier branch on a K-head pair: no extra class, so the unseen term pushes toward uniform
    "no_k1_ots": ("K-head pair; high-uncertainty samples pushed toward uniform output "
                  "(mask at 1-max > {0.uniformity_threshold})",
                  dict(pairs=(("outlier", "inlier"),), inlier_losses=())),
    "no_logit_match": ("full pipeline without the teacher-student logit matching term",
                       dict(inlier_losses=("ce", "seen"))),
    "no_consistency": ("full pipeline without weak/strong consistency regularization",
                       dict(outlier_losses=("ce", "seen", "unseen"))),
    "one_f_two_c": ("single backbone carrying both heads; both objectives on one model",
                    dict(pairs=(("merged", "merged"),))),
    "one_f_two_c_proj": ("single backbone carrying both heads; both objectives on one model "
                         "with a projection layer before the (K+1)-head",
                         dict(pairs=(("merged", "merged"),), k1_projection=True)),
    "supervised_only": ("labeled cross-entropy only; unlabeled data never touched",
                        dict(pairs=(("inlier", "inlier"),), inlier_losses=("ce",), outlier_losses=())),
}
ABLATION_MODES = tuple(_MODES)


def apply_ablation(mode: str, config: TrainConfig) -> PipelineDescription:
    """Translate an ablation mode into the effective pipeline description."""
    if mode not in _MODES:
        raise ValidationError(f"ablation_mode: unknown mode {mode!r}, expected one of {ABLATION_MODES}")
    summary, changes = _MODES[mode]
    return PipelineDescription(mode, summary.format(config), **changes)


SECTIONS = ("dataset", "split", "train")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig.desk)
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str | None = None

    def validate(self) -> None:
        problems = [msg for ok, msg in type_checks(self) if not ok]
        for name in SECTIONS:
            try:
                getattr(self, name).validate()
            except ValidationError as exc:
                problems += [f"{name}.{problem}" for problem in exc.problems]
        if not problems and self.dataset.kind == "synthetic":  # its pool is known before it is built
            classes, split = self.dataset.k_seen + self.dataset.k_unseen, self.split
            fit = split_checks(**dataclasses.asdict(split), class_count=classes)
            problems += [f"split.{msg}" for ok, msg in fit if not ok]
            if not problems:  # each class holds per_class examples; the first shortfall, as a run would raise it
                seen = len(set(split.seen_class_ids)) * self.dataset.per_class
                sizes = split_sizes(seen, split.mismatch_ratio, split.labeled_size, split.unlabeled_size,
                                    split.test_fraction)
                fit = capacity_checks(sizes, seen, classes * self.dataset.per_class - seen)
                problems += [f"split: {msg}" for ok, msg in fit if not ok][:1]
        if not self.seeds:
            problems.append("seeds: must list at least one seed")
        elif not any(msg.startswith("seeds:") for msg in problems):  # a list of integers
            if min(self.seeds) < 0:
                problems.append("seeds: must be >= 0")
            if len(set(self.seeds)) < len(self.seeds):  # a repeated seed would train one run directory twice
                problems.append(f"seeds: must not repeat a seed, got {self.seeds}")
        if (self.train.seed != 0 and self.seeds != [self.train.seed]
                and not any(msg.startswith(("seeds:", "train.seed:")) for msg in problems)):
            problems.append(f"train.seed: a run's seed comes from seeds (or --seed); train.seed must be 0 "
                            f"or the one entry of seeds, got {self.train.seed} with seeds {self.seeds}")
        if problems:
            raise ValidationError(*problems)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Each section's fields in ``raw`` replace its default's; train's default is the desk schedule."""
        if not isinstance(raw, dict):
            raise ValidationError(f"a config must be a JSON object, got {raw!r}")
        cfg = replace_fields(cls(), {k: v for k, v in raw.items() if k not in SECTIONS})
        for name in SECTIONS:
            section = raw.get(name, {})
            if not isinstance(section, dict):
                raise ValidationError(f"{name}: expected a JSON object, got {section!r}")
            setattr(cfg, name, replace_fields(getattr(cfg, name), section, f"{name}: "))
        return cfg
