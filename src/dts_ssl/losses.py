"""Loss terms, composite objectives and the per-step loss report.

Each ``*_and_grad`` function takes a batch of logits (1-based class ids for
labels) and returns the loss value and its analytic gradient w.r.t. those
logits; the trainer uses them, and the gradient-check suite verifies them
against finite differences.

Conventions shared by all gated/weighted batch losses:
- the denominator is always the full unlabeled batch size, so rejected or
  zero-weight samples contribute 0 without shrinking the mean;
- probabilities are clamped at 1e-12 before logs, and the gradients are the
  exact gradients of the clamped expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import PROB_CLAMP, row_sum, softmax, softmax_vjp


def _log_clamped(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_CLAMP))


def _per_sample(values, n: int, what: str = "gates") -> np.ndarray:
    """One float per batch row from an array or a plain sequence of gates or scores."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (n,):
        raise ShapeError(f"{what} must align with the batch: expected {n}, got {out.shape}")
    return out


def _label_cells(labels: np.ndarray, probs: np.ndarray):
    """(row, column) indices of each row's 1-based label, and the probability there."""
    idx = np.asarray(labels, dtype=np.int64) - 1
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= probs.shape[1]:
        raise ValidationError(f"labels out of range 1..{probs.shape[1]}")
    at = (np.arange(len(idx)), idx)
    return at, probs[at]


def _ce_rows_with_grad(labels, z: np.ndarray, mask: np.ndarray | None, denom):
    """Per-row CE of softmax(z) and its logit gradient (p - onehot) * mask * live / denom,
    where live is 0 on rows whose labeled probability is at the clamp floor."""
    probs = softmax(z)
    at, picked = _label_cells(labels, probs)
    probs[at] -= 1.0
    live = (picked > PROB_CLAMP).astype(np.float64)
    return -_log_clamped(picked), probs * (live if mask is None else mask * live)[:, None] / denom


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return row_sum(np.where(p > 0, p * (_log_clamped(p) - _log_clamped(q)), 0.0))


def inlier_objective(ce_k: float, seen: float, logit_match: float, weights) -> float:
    lam_seen, lam_lm = weights
    return float(ce_k + lam_seen * seen + lam_lm * logit_match)


def outlier_objective(ce_k1: float, seen: float, unseen: float, consistency: float, weights) -> float:
    lam_seen, lam_unseen, lam_cr = weights
    return float(ce_k1 + lam_seen * seen + lam_unseen * unseen + lam_cr * consistency)


def pretrain_objective(ce_k: float, ce_k1: float) -> float:
    return float(ce_k + ce_k1)


# ---------------------------------------------------------------------------
# Logit-level values + gradients (used by the trainer and the gradient suite)
# ---------------------------------------------------------------------------


def ce_loss_and_grad(labels, logits: np.ndarray, denom: int | None = None):
    """Mean cross-entropy over a batch of logits; gradient w.r.t. the logits.

    Rows whose picked probability sits at the clamp floor have zero gradient,
    matching the clamped loss exactly.
    """
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    denom = z.shape[0] if denom is None else denom
    rows, d_logits = _ce_rows_with_grad(labels, z, None, denom)
    return float(rows.sum() / denom), d_logits


def gated_ce_loss_and_grad(pseudo_labels, logits: np.ndarray, gates, mu_B: int):
    """Gated pseudo-label cross-entropy of softmax(logits), averaged over the full batch size."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    mask = _per_sample(gates, z.shape[0])
    rows, d_logits = _ce_rows_with_grad(pseudo_labels, z, mask, mu_B)
    return float((mask * rows).sum() / mu_B), d_logits


def _kl_dp(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d KL(p, q) / d p with the clamp indicators of the implemented loss."""
    return (_log_clamped(p) - _log_clamped(q)) + (p > PROB_CLAMP).astype(np.float64)


def logit_match_loss_and_grad(student_logits: np.ndarray, teacher_probs: np.ndarray, gates, mu_B: int):
    """Gated KL(student || teacher), student first, averaged over the full batch size."""
    z = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    q = np.atleast_2d(np.asarray(teacher_probs, dtype=np.float64))
    if z.shape != q.shape:
        raise ShapeError(f"logits and teacher probs must match: {z.shape} vs {q.shape}")
    p = softmax(z)
    mask = _per_sample(gates, z.shape[0])
    value = float((mask * _kl_rows(p, q)).sum() / mu_B)
    d_logits = softmax_vjp(p, _kl_dp(p, q)) * mask[:, None] / mu_B
    return value, d_logits


def unseen_loss_and_grad(student_logits: np.ndarray, scores, mu_B: int):
    """Score-weighted cross-entropy against the last, (K+1)-th class."""
    z = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    probs = softmax(z)
    n, width = probs.shape
    w = _per_sample(scores, n, "scores")
    value = float((w * -_log_clamped(probs[:, -1])).sum() / mu_B)
    target = np.zeros(width)
    target[-1] = 1.0
    live = (probs[:, -1] > PROB_CLAMP).astype(np.float64)
    d_logits = (probs - target) * (w * live)[:, None] / mu_B
    return value, d_logits


def consistency_loss_and_grad(weak_logits: np.ndarray, strong_logits: np.ndarray, mu_B: int):
    """Ungated mean KL(weak || strong), with gradients w.r.t. both views' logits."""
    zw = np.atleast_2d(np.asarray(weak_logits, dtype=np.float64))
    zs = np.atleast_2d(np.asarray(strong_logits, dtype=np.float64))
    if zw.shape != zs.shape:
        raise ShapeError(f"view logits must match: {zw.shape} vs {zs.shape}")
    p = softmax(zw)
    q = softmax(zs)
    value = float(_kl_rows(p, q).sum() / mu_B)
    d_weak = softmax_vjp(p, _kl_dp(p, q)) / mu_B
    dq = np.where(q > PROB_CLAMP, -p / np.maximum(q, PROB_CLAMP), 0.0)
    d_strong = softmax_vjp(q, dq) / mu_B
    return value, d_weak, d_strong


def uniformity_loss_and_grad(student_logits: np.ndarray, mask, mu_B: int):
    """Cross-entropy toward the uniform distribution on masked samples.

    Replaces the (K+1)-class supervision in the ablation where no extra class
    head exists: high-uncertainty samples are pushed toward uniform output.
    """
    z = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    p = softmax(z)
    n, width = p.shape
    m = _per_sample(mask, n)
    t = 1.0 / width
    rows = row_sum(-t * _log_clamped(p))
    value = float((m * rows).sum() / mu_B)
    dp = np.where(p > PROB_CLAMP, -t / np.maximum(p, PROB_CLAMP), 0.0)
    d_logits = softmax_vjp(p, dp) * m[:, None] / mu_B
    return value, d_logits


# ---------------------------------------------------------------------------
# Per-step loss report
# ---------------------------------------------------------------------------


@dataclass
class LossReport:
    """Every loss term of one training step plus the composed objectives.

    ``seen`` and the gate tally are tracked per pair because the inlier and
    outlier branches gate and pseudo-label independently.
    """

    ce_k: float = 0.0
    ce_k1: float = 0.0
    seen_in: float = 0.0
    seen_out: float = 0.0
    logit_match: float = 0.0
    unseen: float = 0.0
    consistency: float = 0.0
    inlier_total: float = 0.0
    outlier_total: float = 0.0
    pretrain_total: float = 0.0
    pass_count_in: int = 0
    pass_count_out: int = 0
    effective_weight_sum: float = 0.0
    batch_unlabeled: int = 0

    def as_dict(self) -> dict:
        return {
            "ce_k": self.ce_k,
            "ce_k1": self.ce_k1,
            "seen_in": self.seen_in,
            "seen_out": self.seen_out,
            "logit_match": self.logit_match,
            "unseen": self.unseen,
            "consistency": self.consistency,
            "inlier_total": self.inlier_total,
            "outlier_total": self.outlier_total,
            "pretrain_total": self.pretrain_total,
            "pass_count_in": self.pass_count_in,
            "pass_count_out": self.pass_count_out,
            "effective_weight_sum": self.effective_weight_sum,
            "batch_unlabeled": self.batch_unlabeled,
        }
