"""Uncertainty scoring and the reliability gate.

The uncertainty score blends two signals produced by the two teachers on one
shared weak view of each unlabeled sample: how unconfident the K-way teacher
is (1 - max probability) and how much mass the (K+1)-way teacher puts on the
extra class. Every unlabeled sample enters the soft-weighted unseen set with
its score as weight; the reliability gate separately admits high-confidence
samples into pseudo-labeled seen-class training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import AugmentConfig, augment_batch
from .errors import ShapeError, ValidationError
from .numerics import row_max

_SIMPLEX_ATOL = 1e-6


@dataclass(frozen=True)
class UncertaintyScore:
    """gamma * (1 - max K-way prob) + (1 - gamma) * (K+1)-th class prob, in [0, 1]."""

    value: float
    one_minus_max_its: float
    ots_last: float
    gamma: float


@dataclass(frozen=True)
class GateDecision:
    """Outcome of the reliability filter for one unlabeled sample.

    passed  <=>  max_its > tau  AND  max_its > score (both strict; ties fail).
    """

    passed: bool
    max_its: float
    score: float
    tau: float


@dataclass
class SoftWeightedSet:
    """Every unlabeled example paired with its uncertainty-score weight."""

    entries: list[tuple[int, float]]  # (index into the unlabeled set, weight)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.entries], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.entries)


def _check_simplex(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValidationError(f"{name} must be a probability vector, got shape {p.shape}")
    if p.min() < -_SIMPLEX_ATOL or abs(p.sum() - 1.0) > _SIMPLEX_ATOL:
        raise ValidationError(
            f"{name} is not on the probability simplex (sum={p.sum():.8f}, min={p.min():.3e})"
        )
    return p


def uncertainty_score(p_its: np.ndarray, p_ots: np.ndarray, gamma: float) -> UncertaintyScore:
    """Score one sample from its K-way and (K+1)-way teacher distributions.

    The final component of ``p_ots`` is read as the unseen-class probability.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    p_its = _check_simplex(p_its, "p_its")
    p_ots = _check_simplex(p_ots, "p_ots")
    one_minus_max = 1.0 - float(p_its.max())
    last = float(p_ots[-1])
    value = gamma * one_minus_max + (1.0 - gamma) * last
    return UncertaintyScore(
        value=value, one_minus_max_its=one_minus_max, ots_last=last, gamma=gamma
    )


def scores_from_probs(p_its: np.ndarray, p_ots: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized score over aligned batches of teacher outputs."""
    p_its = np.atleast_2d(np.asarray(p_its, dtype=np.float64))
    p_ots = np.atleast_2d(np.asarray(p_ots, dtype=np.float64))
    if p_its.shape[0] != p_ots.shape[0]:
        raise ShapeError(f"batch sizes differ: {p_its.shape[0]} vs {p_ots.shape[0]}")
    return gamma * (1.0 - row_max(p_its)) + (1.0 - gamma) * p_ots[:, -1]


def score_batch(
    teacher_in,
    teacher_out,
    unlabeled_batch: np.ndarray,
    gamma: float,
    rng: np.random.Generator | None = None,
    scale=None,
    config: AugmentConfig = AugmentConfig(),
) -> list[UncertaintyScore]:
    """Score an unlabeled batch, one shared weak view per example.

    With ``rng=None`` the raw inputs are used (the inference-time convention);
    otherwise one weak augmentation per example is drawn and fed to both
    teachers. Order-preserving: scores[i] belongs to unlabeled_batch[i].
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    batch = np.atleast_2d(np.asarray(unlabeled_batch, dtype=np.float64))
    if batch.shape[0] == 0 or batch.size == 0:
        return []
    views = batch if rng is None else augment_batch(batch, "weak", rng, scale, config)
    p_its = teacher_in.probs(views, head="k")
    p_ots = teacher_out.probs(views, head="k1")
    return [
        uncertainty_score(p_its[i], p_ots[i], gamma)
        for i in range(batch.shape[0])
    ]


def reliability_gate(p_its: np.ndarray, score, tau: float) -> GateDecision:
    """Admit a sample into pseudo-labeled training iff confidence beats both bars."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must lie in (0, 1), got {tau}")
    p_its = np.asarray(p_its, dtype=np.float64)
    max_its = float(p_its.max())
    s = float(score.value if hasattr(score, "value") else score)
    passed = (max_its > tau) and (max_its > s)
    return GateDecision(passed=passed, max_its=max_its, score=s, tau=tau)


def gate_mask(max_conf: np.ndarray, scores: np.ndarray, tau: float, use_score: bool = True) -> np.ndarray:
    """Vectorized gate: strict thresholds, ties rejected."""
    mask = max_conf > tau
    if use_score:
        mask = mask & (max_conf > scores)
    return mask


def build_soft_weighted_set(
    unlabeled: np.ndarray,
    teacher_in,
    teacher_out,
    gamma: float,
    rng: np.random.Generator | None = None,
    scale=None,
    config: AugmentConfig = AugmentConfig(),
) -> SoftWeightedSet:
    """Weight every unlabeled example by its uncertainty score (one entry each)."""
    scores = score_batch(teacher_in, teacher_out, unlabeled, gamma, rng, scale, config)
    return SoftWeightedSet(entries=[(i, s.value) for i, s in enumerate(scores)])


def write_score_dump(
    path: str | Path,
    indices: Sequence[int],
    scores: Sequence[float],
    hidden_flags: Sequence[bool],
) -> None:
    """Columnar dump (index, score, hidden seen/unseen flag) for AUROC auditing."""
    if not (len(indices) == len(scores) == len(hidden_flags)):
        raise ShapeError("indices, scores and flags must have equal lengths")
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "score", "is_unseen"])
        for i, s, f in zip(indices, scores, hidden_flags):
            writer.writerow([int(i), repr(float(s)), int(bool(f))])
