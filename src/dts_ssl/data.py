"""Datasets, class-mismatch splits, augmentation, and paired batch sampling.

The training setup assumes a small labeled set drawn from K seen classes and
a large unlabeled set that mixes seen-class and unseen-class examples. The
fraction of unseen-class examples in the unlabeled set is the mismatch ratio.
Unlabeled examples carry a hidden seen/unseen flag that only evaluation code
is allowed to read.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, GenerationError, ShapeError, ValidationError, require_all, type_checks
from .numerics import round_half_up


@dataclass
class Dataset:
    """A pool of labeled examples: feature rows plus 1-based class ids."""

    name: str
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in 1..class_count
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {self.features.shape}")
        if not np.isfinite(self.features).all():
            row, column = np.argwhere(~np.isfinite(self.features))[0]
            raise ValidationError(f"features must be finite, got {self.features[row, column]} at row {row}, "
                                  f"column {column} (0-based)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels must be a vector aligned with feature rows")
        if self.class_count < 1:
            raise ValidationError(f"class_count must be >= 1, got {self.class_count}")
        if len(self.labels) and (self.labels.min() < 1 or self.labels.max() > self.class_count):
            raise ValidationError(
                f"labels must lie in 1..{self.class_count}, "
                f"found range [{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class MismatchSplit:
    """Labeled / unlabeled / test partitions with the seen classes remapped to 1..K.

    ``unlabeled_is_unseen`` is ground truth kept only for evaluation; training
    code paths never receive it.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray  # remapped to 1..K
    unlabeled_x: np.ndarray
    unlabeled_is_unseen: np.ndarray  # (n,) bool, evaluation-only
    test_x: np.ndarray
    test_y: np.ndarray  # remapped to 1..K
    seen_class_ids: tuple[int, ...]  # original ids, sorted
    labeled_indices: np.ndarray  # indices into the source dataset
    unlabeled_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def K(self) -> int:
        return len(self.seen_class_ids)

    @property
    def dim(self) -> int:
        return self.labeled_x.shape[1]


def build_mismatch_split(
    dataset: Dataset,
    seen_class_ids: Sequence[int],
    ratio: float,
    m: int,
    n: int,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> MismatchSplit:
    """Carve a class-mismatch split out of ``dataset``.

    The unlabeled set gets round(n * ratio) unseen-class examples and the
    remainder from seen classes, shuffled together. The labeled and test sets
    contain only seen classes, with labels remapped to 1..K. Deterministic for
    a fixed seed.
    """
    seen = tuple(sorted(set(int(c) for c in seen_class_ids)))
    require_all(split_checks(seen, ratio, m, n, test_fraction, class_count=dataset.class_count))

    rng = np.random.default_rng(seed)
    seen_mask = np.isin(dataset.labels, seen)
    seen_pool = np.flatnonzero(seen_mask)
    unseen_pool = np.flatnonzero(~seen_mask)
    rng.shuffle(seen_pool)
    rng.shuffle(unseen_pool)

    sizes = split_sizes(len(seen_pool), ratio, m, n, test_fraction)
    for ok, msg in capacity_checks(sizes, len(seen_pool), len(unseen_pool)):
        if not ok:
            raise CapacityError(msg)
    test_idx, labeled_idx, unlabeled_seen, _ = np.split(seen_pool, np.cumsum(list(sizes.values())[:3]))
    unlabeled_idx = np.concatenate([unlabeled_seen, unseen_pool[:sizes["unlabeled unseen-class"]]])
    rng.shuffle(unlabeled_idx)

    remap = {orig: i + 1 for i, orig in enumerate(seen)}
    relabel = np.vectorize(remap.get, otypes=[np.int64])

    return MismatchSplit(
        labeled_x=dataset.features[labeled_idx].copy(),
        labeled_y=relabel(dataset.labels[labeled_idx]),
        unlabeled_x=dataset.features[unlabeled_idx].copy(),
        unlabeled_is_unseen=~np.isin(dataset.labels[unlabeled_idx], seen),
        test_x=dataset.features[test_idx].copy(),
        test_y=relabel(dataset.labels[test_idx]),
        seen_class_ids=seen,
        labeled_indices=labeled_idx.copy(),
        unlabeled_indices=unlabeled_idx.copy(),
        test_indices=test_idx.copy(),
    )


def split_checks(seen_class_ids, mismatch_ratio, labeled_size, unlabeled_size, test_fraction,
                 class_count: int | None = None) -> list:
    """The ``(ok, message)`` checks on a split request, named as :class:`SplitSpec`'s fields.

    With ``class_count``, also whether the seen classes and the ratio fit a
    dataset with that many classes.
    """
    seen = set(seen_class_ids)
    checks = [
        (0.0 <= mismatch_ratio <= 1.0, f"mismatch_ratio: must lie in [0, 1], got {mismatch_ratio}"),
        (labeled_size >= 1, f"labeled_size: must be >= 1, got {labeled_size}"),
        (unlabeled_size >= 1, f"unlabeled_size: must be >= 1, got {unlabeled_size}"),
        (0.0 < test_fraction < 1.0, f"test_fraction: must lie in (0, 1), got {test_fraction}"),
        (bool(seen), "seen_class_ids: must be nonempty"),
    ]
    if class_count is not None:
        classes = set(range(1, class_count + 1))
        checks += [
            (seen <= classes, f"seen_class_ids: {sorted(seen)} not all among classes 1..{class_count}"),
            (mismatch_ratio == 0 or not classes <= seen,
             "mismatch_ratio: > 0 needs at least one unseen class in the dataset"),
        ]
    return checks


def split_sizes(seen_pool: int, mismatch_ratio, labeled_size, unlabeled_size, test_fraction) -> dict[str, int]:
    """The example count of each part of a split, in the order the parts are taken: the test,
    labeled and unlabeled seen-class parts from a seen-class pool of ``seen_pool`` examples,
    then the unlabeled unseen-class part from the unseen-class pool."""
    n_unseen = round_half_up(unlabeled_size * mismatch_ratio)
    return {
        "test (seen classes)": round_half_up(test_fraction * seen_pool),
        "labeled (seen classes)": labeled_size,
        "unlabeled seen-class": unlabeled_size - n_unseen,
        "unlabeled unseen-class": n_unseen,
    }


def capacity_checks(sizes: dict[str, int], seen_pool: int, unseen_pool: int) -> list:
    """The ``(ok, message)`` checks that pools of ``seen_pool`` seen-class and ``unseen_pool``
    unseen-class examples hold the parts that :func:`split_sizes` gives, in its order."""
    *seen_parts, (unseen_part, n_unseen) = sizes.items()
    checks, left = [], seen_pool
    for name, count in seen_parts:
        checks.append((count <= left, f"{name} pool exhausted: need {count} more examples, "
                                      f"only {max(left, 0)} of {seen_pool} seen-class examples left"))
        left -= count
    return checks + [(n_unseen <= unseen_pool, f"{unseen_part} pool exhausted: need {n_unseen}, have {unseen_pool}")]


def _synthetic_checks(k_seen, k_unseen, dim, per_class, separation, noise) -> list:
    """The ``(ok, message)`` checks on :func:`generate_synthetic`'s arguments, named as they are."""
    return [
        (k_seen >= 2, f"k_seen: must be >= 2, got {k_seen}"),
        (k_unseen >= 0, f"k_unseen: must be >= 0, got {k_unseen}"),
        (dim >= 2, f"dim: must be >= 2, got {dim}"),
        (per_class >= 1, f"per_class: must be >= 1, got {per_class}"),
        (0 < separation < math.inf, f"separation: must be finite and > 0, got {separation}"),
        (0 < noise < math.inf, f"noise: must be finite and > 0, got {noise}"),
    ]


def generate_synthetic(
    k_seen: int,
    k_unseen: int,
    dim: int,
    per_class: int,
    separation: float = 6.0,
    noise: float = 1.0,
    seed: int = 0,
    name: str = "synthetic",
) -> Dataset:
    """Isotropic Gaussian clusters, one per class, centers pairwise >= ``separation`` apart.

    Classes 1..k_seen are intended as seen classes, the rest as unseen; the
    returned Dataset itself is just a labeled pool. Seen centers keep at least
    twice the separation between one another, while unseen centers are planted
    in the gaps between seen pairs: unseen-class samples then fall near seen
    decision boundaries, which is what makes class mismatch both harmful and
    detectable. Deterministic per seed.
    """
    require_all(_synthetic_checks(k_seen, k_unseen, dim, per_class, separation, noise))

    rng = np.random.default_rng(seed)
    k_total = k_seen + k_unseen
    max_tries = 1000
    # Center coordinates are scaled so typical pairwise distances sit only
    # moderately above the enforced minimum; task difficulty then tracks the
    # separation/noise ratio instead of collapsing to trivial in high dim.
    seen_gap = 2.0 * separation
    center_scale = 1.4 * seen_gap / np.sqrt(2.0 * dim)
    centers: list[np.ndarray] = []

    def place(propose, *tests) -> None:
        # cramped geometries (low dim, few clusters) may not admit the
        # preferred margins; each test after the first is a relaxed retry
        for accept in tests:
            for attempt in range(max_tries):
                candidate = propose()
                if accept(candidate):
                    centers.append(candidate)
                    return
        raise GenerationError(
            f"could not place {k_total} cluster centers at separation {separation} "
            f"in {dim} dimensions after {max_tries} tries"
        )

    def min_dist_to(candidate: np.ndarray, group: list[np.ndarray]) -> float:
        return min((np.linalg.norm(candidate - c) for c in group), default=np.inf)

    for _ in range(k_seen):
        place(
            lambda: rng.normal(scale=center_scale, size=dim),
            lambda cand: min_dist_to(cand, centers) >= seen_gap,
        )
    seen_centers = list(centers)

    centroid = np.mean(seen_centers, axis=0)

    def between() -> np.ndarray:
        # between a seen pair's midpoint and the centroid of all seen
        # clusters: interior to the data region and near decision boundaries
        # (so the K-way classifier cannot be legitimately confident there)
        # yet well clear of every cluster core
        i, j = rng.choice(len(seen_centers), size=2, replace=False)
        mid = 0.5 * (seen_centers[i] + seen_centers[j])
        alpha = rng.uniform(0.45, 0.75)
        return alpha * centroid + (1 - alpha) * mid + rng.normal(scale=0.1 * separation, size=dim)

    contract = lambda cand: min_dist_to(cand, centers) >= separation
    for _ in range(k_unseen):
        # extra margin to seen cores keeps unseen clusters from drowning in a
        # third seen cluster; other unseen clusters only need the documented
        # minimum (they crowd the same interior region)
        try:
            place(
                between,
                lambda cand: min_dist_to(cand, seen_centers) >= 1.3 * separation
                and min_dist_to(cand, centers[k_seen:]) >= separation,
                contract,
            )
        except GenerationError:
            # few seen clusters leave no room between them; fall back to
            # free placement at the documented minimum distance
            place(lambda: rng.normal(scale=center_scale, size=dim), contract)

    features = np.vstack(
        [c + rng.normal(scale=noise, size=(per_class, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(1, k_total + 1), per_class)
    return Dataset(name=name, features=features, labels=labels, class_count=k_total)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

AUGMENT_MODES = ("weak", "strong")


@dataclass(frozen=True)
class AugmentConfig:
    """Weak/strong augmentation strengths, expressed relative to feature scale.

    Weak views add small Gaussian jitter; strong views add larger jitter and
    zero out a fixed fraction of coordinates.
    """

    weak_sigma: float = 0.05
    strong_sigma: float = 0.2
    mask_fraction: float = 0.25

    def __post_init__(self) -> None:
        require_all([
            (0 <= self.weak_sigma < math.inf, "weak_sigma: must be finite and >= 0"),
            (0 <= self.strong_sigma < math.inf, "strong_sigma: must be finite and >= 0"),
            (0.0 <= self.mask_fraction <= 1.0, "mask_fraction: must lie in [0, 1]"),
        ])


def feature_scale(split: MismatchSplit) -> np.ndarray:
    """Per-feature standard deviation over labeled + unlabeled training inputs."""
    pooled = np.vstack([split.labeled_x, split.unlabeled_x])
    return pooled.std(axis=0)


def augment_batch(
    x: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    scale: np.ndarray | float | None = None,
    config: AugmentConfig = AugmentConfig(),
) -> np.ndarray:
    """Produce one augmented view per row of ``x``. Output shape equals input shape.

    Random draws happen in a fixed order (jitter, then mask) so a seeded rng
    reproduces the same views.
    """
    if mode not in AUGMENT_MODES:
        raise ValidationError(f"unknown augmentation mode {mode!r}, expected one of {AUGMENT_MODES}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"augment_batch expects a (batch, dim) array, got shape {x.shape}")
    b, d = x.shape
    out = x.copy()

    sigma = config.weak_sigma if mode == "weak" else config.strong_sigma
    scale_arr = np.ones(d) if scale is None else np.broadcast_to(np.asarray(scale, dtype=np.float64), (d,))
    if sigma > 0:
        out += rng.standard_normal((b, d)) * (sigma * scale_arr)  # out is this call's own copy

    if mode == "strong":
        k = round_half_up(config.mask_fraction * d)
        if k > 0:
            # per-row choice of k coordinates without replacement
            masked_cols = rng.random((b, d)).argsort(axis=1)[:, :k]
            out[np.arange(b)[:, None], masked_cols] = 0.0
    return out


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------


@dataclass
class BatchPair:
    """One labeled batch plus its paired unlabeled batch (mu times larger)."""

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_indices: np.ndarray  # positions within split.unlabeled_x


class PairSampler:
    """Draws paired batches from a split.

    Labeled examples are epoch-shuffled without replacement, so every epoch
    covers the whole labeled set (the final batch of an epoch may be short).
    Unlabeled examples are drawn uniformly with replacement, always exactly
    ``mu`` times the size of the labeled batch. Hidden seen/unseen flags are
    never exposed on the sampled batches.
    """

    def __init__(
        self,
        split: MismatchSplit,
        batch_size: int,
        mu: int,
        rng: np.random.Generator,
        include_unlabeled: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if mu < 1:
            raise ValidationError(f"mu must be >= 1, got {mu}")
        if len(split.labeled_x) == 0:
            raise ValidationError("split has no labeled examples")
        if include_unlabeled and len(split.unlabeled_x) == 0:
            raise ValidationError("split has no unlabeled examples")
        self.split = split
        self.batch_size = batch_size
        self.mu = mu
        self.rng = rng
        self.include_unlabeled = include_unlabeled
        self._order = np.arange(len(split.labeled_x))
        self._cursor = len(self._order)  # forces a shuffle on first draw

    @property
    def steps_per_epoch(self) -> int:
        m = len(self.split.labeled_x)
        return -(-m // self.batch_size)

    def next_batch_pair(self) -> BatchPair:
        m = len(self._order)
        if self._cursor >= m:
            self.rng.shuffle(self._order)
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += len(idx)

        if self.include_unlabeled:
            u_idx = self.rng.integers(0, len(self.split.unlabeled_x), size=self.mu * len(idx))
            unlabeled_x = self.split.unlabeled_x[u_idx]
        else:
            u_idx = np.empty(0, dtype=np.int64)
            unlabeled_x = np.empty((0, self.split.dim))
        return BatchPair(
            labeled_x=self.split.labeled_x[idx],
            labeled_y=self.split.labeled_y[idx],
            unlabeled_x=unlabeled_x,
            unlabeled_indices=u_idx,
        )

    def epoch(self) -> Iterator[BatchPair]:
        for _ in range(self.steps_per_epoch):
            yield self.next_batch_pair()


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as a columnar CSV plus a JSON metadata sidecar."""
    import csv  # imported here, as in _parse_dataset: only the file formats read or write CSV

    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{j}" for j in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    meta = {
        "name": dataset.name,
        "class_count": dataset.class_count,
        "dim": dataset.dim,
        "size": len(dataset),
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2))


def load_dataset(path: str | Path) -> Dataset:
    """The CSV dataset at ``path``: its metadata sidecar's ``name`` and ``class_count``, then its rows;
    parsed once while both files keep their path, mtime and size, and copied for each call."""
    path = Path(path)
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ValidationError(f"missing metadata sidecar {meta_file}")
    parsed = _parse_dataset(path, meta_file, *[(s.st_mtime_ns, s.st_size) for s in (path.stat(), meta_file.stat())])
    return replace(parsed, features=parsed.features.copy(), labels=parsed.labels.copy())


@functools.lru_cache(maxsize=1)  # one entry, keyed on the paths and the files' mtimes and sizes
def _parse_dataset(path: Path, meta_file: Path, *stamps) -> Dataset:
    import csv

    try:
        meta = json.loads(meta_file.read_text())
        name, class_count = meta["name"], meta["class_count"]
        if not isinstance(name, str) or type(class_count) is not int:  # 3.7, "3" and true are refused, not coerced
            raise TypeError(f"name must be a string and class_count an integer, got {name!r} and {class_count!r}")
    except (ValueError, TypeError, KeyError) as exc:
        raise ValidationError(f"{meta_file}: not a dataset sidecar with a name and a class_count: {exc!r}") from exc
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "label":
            raise ValidationError(f"{path}: expected a trailing 'label' column, got {header[-3:]}")
        rows = list(reader)
    features, labels = np.empty((len(rows), len(header) - 1)), np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, the header has {len(header)}")
            values = [float(v) for v in row[:-1]]
            bad = {column: v for column, v in zip(header, values) if not math.isfinite(v)}
            if bad:
                raise ValueError(f"cells must be finite, got {bad}")
            features[i], labels[i] = values, int(row[-1])
        except ValueError as exc:
            raise ValidationError(f"{path}: row {i + 1} after the header: {exc}") from exc
    return Dataset(name=name, features=features, labels=labels, class_count=class_count)


def _max_per_class_check(max_per_class: int | None) -> tuple:
    return max_per_class is None or max_per_class >= 1, f"max_per_class: must be >= 1 or null, got {max_per_class}"


def _batch_files(path: Path) -> list[Path]:
    """The ``data_batch_*`` files of the CIFAR-10 directory ``path``, at least one."""
    batch_files = sorted(path.glob("data_batch_*"))
    if not batch_files:
        raise ValidationError(f"no data_batch_* files found under {path}")
    return batch_files


def load_cifar10_dir(path: str | Path, max_per_class: int | None = None) -> Dataset:
    """Ingest a local CIFAR-10 python-format directory (data_batch_1..5).

    Pixels are flattened to a 3072-dim float vector in [0, 1]; labels become
    1..10. ``max_per_class`` subsamples deterministically (first occurrences)
    to keep desk-scale memory bounded. No downloading is attempted.
    """
    require_all([_max_per_class_check(max_per_class)])
    feats, labs = [], []
    for bf in _batch_files(Path(path)):
        with open(bf, "rb") as fh:
            raw = pickle.load(fh, encoding="bytes")
        feats.append(np.asarray(raw[b"data"], dtype=np.float64) / 255.0)
        labs.append(np.asarray(raw[b"labels"], dtype=np.int64) + 1)
    features = np.vstack(feats)
    labels = np.concatenate(labs)
    if max_per_class is not None:
        order = np.sort(np.concatenate([np.flatnonzero(labels == c)[:max_per_class] for c in range(1, 11)]))
        features, labels = features[order], labels[order]
    return Dataset(name="cifar10", features=features, labels=labels, class_count=10)


# ---------------------------------------------------------------------------
# Config sections
# ---------------------------------------------------------------------------

DATASET_KINDS = ("synthetic", "csv", "cifar10")


@dataclass
class DatasetSpec:
    """Where a run's dataset comes from; the synthetic fields are :func:`generate_synthetic`'s arguments."""

    kind: str = "synthetic"  # one of DATASET_KINDS
    name: str = "synthetic"
    path: str | None = None
    k_seen: int = 4
    k_unseen: int = 2
    dim: int = 16
    per_class: int = 600
    separation: float = 3.0
    noise: float = 1.6
    max_per_class: int | None = None

    def _synthetic_args(self) -> tuple:
        return self.k_seen, self.k_unseen, self.dim, self.per_class, self.separation, self.noise

    def validate(self) -> None:
        require_all(type_checks(self))  # the value checks below assume the declared types
        checks = [(self.kind in DATASET_KINDS, f"kind: unknown kind {self.kind!r}"),
                  _max_per_class_check(self.max_per_class),
                  (self.max_per_class is None or self.kind == "cifar10",
                   f"max_per_class: only a cifar10 dataset subsamples, got {self.max_per_class} "
                   f"for kind {self.kind!r}")]
        if self.kind == "synthetic":
            checks += [*_synthetic_checks(*self._synthetic_args()),
                       (self.path is None, f"path: only a csv or cifar10 dataset reads a path, got {self.path!r} "
                                           f"for kind 'synthetic'")]
        elif self.kind in DATASET_KINDS:  # csv and cifar10 read a local path
            checks += [(bool(self.path), "path: required for csv/cifar10 datasets"),
                       (not self.path or Path(self.path).exists(), f"path: {self.path} does not exist")]
            if self.path and checks[-1][0]:  # it exists: a csv dataset loads whole, a cifar10 one lists its files
                try:
                    (load_dataset if self.kind == "csv" else _batch_files)(Path(self.path))
                except ValidationError as exc:
                    checks += [(False, f"path: {problem}") for problem in exc.problems]
        require_all(checks)

    def load(self) -> Dataset:
        """The dataset's one pool; every run seed draws its split from it."""
        if self.kind == "synthetic":
            return generate_synthetic(*self._synthetic_args(), name=self.name)
        if self.kind == "csv":
            return load_dataset(self.path)
        return load_cifar10_dir(self.path, max_per_class=self.max_per_class)


@dataclass
class SplitSpec:
    """A class-mismatch split request; the fields are :func:`split_checks`'s arguments."""

    seen_class_ids: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    mismatch_ratio: float = 0.5
    labeled_size: int = 80
    unlabeled_size: int = 2000
    test_fraction: float = 0.2

    def validate(self) -> None:
        require_all(type_checks(self))  # the value checks below assume the declared types
        require_all(split_checks(**asdict(self)))

    def build(self, dataset: Dataset, seed: int) -> MismatchSplit:
        """Carve this split out of ``dataset``; ``seed`` draws the partitions."""
        return build_mismatch_split(dataset, self.seen_class_ids, self.mismatch_ratio, self.labeled_size,
                                    self.unlabeled_size, self.test_fraction, seed)
