"""Loss terms and the per-step loss report.

Each ``*_and_grad`` function takes the class-major softmax of a logits block,
a (C, N) array with one row per class (see ``numerics.softmax``; 1-based class
ids for labels), and returns the loss value and its analytic gradient w.r.t.
those logits, class-major too. One softmax per block serves every term on it;
no term writes into the probabilities it is given. The trainer uses them, and
the gradient-check suite verifies them against finite differences.

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
from .numerics import PROB_CLAMP, class_sum, softmax_vjp


def _log_clamped(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_CLAMP))


def _per_sample(values, n: int, what: str = "gates") -> np.ndarray:
    """One float per batch sample from an array or a plain sequence of gates or scores."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (n,):
        raise ShapeError(f"{what} must align with the batch: expected {n}, got {out.shape}")
    return out


def _ce_with_grad(labels, probs: np.ndarray, mask: np.ndarray | None, denom):
    """Per-sample CE of ``probs`` and its logit gradient (p - onehot) * mask * live / denom,
    where live is 0 on samples whose labeled probability is at the clamp floor."""
    idx = np.asarray(labels, dtype=np.int64) - 1
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= probs.shape[0]:
        raise ValidationError(f"labels out of range 1..{probs.shape[0]}")
    at = (idx, np.arange(len(idx)))
    picked = probs[at]
    d_logits = probs.copy()  # the probabilities are shared by every term on the block
    d_logits[at] -= 1.0
    live = (picked > PROB_CLAMP).astype(np.float64)
    return -_log_clamped(picked), d_logits * (live if mask is None else mask * live) / denom


def _kl_with_dp(p: np.ndarray, q: np.ndarray):
    """KL(p || q) per sample, and d KL / d p with the clamp indicators of the implemented
    loss, both from one clamped log p - log q."""
    log_ratio = _log_clamped(p) - _log_clamped(q)
    kl = class_sum(np.where(p > 0, p * log_ratio, 0.0))
    log_ratio += p > PROB_CLAMP
    return kl, log_ratio


# ---------------------------------------------------------------------------
# Values + logit gradients from class-major probabilities (used by the trainer
# and the gradient suite)
# ---------------------------------------------------------------------------


def ce_loss_and_grad(labels, probs: np.ndarray, denom: int | None = None):
    """Mean cross-entropy over a batch; gradient w.r.t. the logits.

    Samples whose picked probability sits at the clamp floor have zero
    gradient, matching the clamped loss exactly.
    """
    p = np.asarray(probs, dtype=np.float64)
    denom = p.shape[1] if denom is None else denom
    per_sample, d_logits = _ce_with_grad(labels, p, None, denom)
    return float(per_sample.sum() / denom), d_logits


def gated_ce_loss_and_grad(pseudo_labels, probs: np.ndarray, gates, mu_B: int):
    """Gated pseudo-label cross-entropy, averaged over the full batch size."""
    p = np.asarray(probs, dtype=np.float64)
    mask = _per_sample(gates, p.shape[1])
    per_sample, d_logits = _ce_with_grad(pseudo_labels, p, mask, mu_B)
    return float((mask * per_sample).sum() / mu_B), d_logits


def logit_match_loss_and_grad(student_probs: np.ndarray, teacher_probs: np.ndarray, gates, mu_B: int):
    """Gated KL(student || teacher), student first, averaged over the full batch size."""
    p = np.asarray(student_probs, dtype=np.float64)
    q = np.asarray(teacher_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"student and teacher probs must match: {p.shape} vs {q.shape}")
    mask = _per_sample(gates, p.shape[1])
    kl, dp = _kl_with_dp(p, q)
    return float((mask * kl).sum() / mu_B), softmax_vjp(p, dp) * mask / mu_B


def unseen_loss_and_grad(student_probs: np.ndarray, scores, mu_B: int):
    """Score-weighted cross-entropy against the last, (K+1)-th class."""
    p = np.asarray(student_probs, dtype=np.float64)
    w = _per_sample(scores, p.shape[1], "scores")
    value = float((w * -_log_clamped(p[-1])).sum() / mu_B)
    live = (p[-1] > PROB_CLAMP).astype(np.float64)
    d_logits = p.copy()
    d_logits[-1] -= 1.0
    return value, d_logits * (w * live) / mu_B


def consistency_loss_and_grad(weak_probs: np.ndarray, strong_probs: np.ndarray, mu_B: int):
    """Ungated mean KL(weak || strong), with gradients w.r.t. both views' logits."""
    p = np.asarray(weak_probs, dtype=np.float64)
    q = np.asarray(strong_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"view probs must match: {p.shape} vs {q.shape}")
    kl, dp = _kl_with_dp(p, q)
    dq = np.where(q > PROB_CLAMP, -p / np.maximum(q, PROB_CLAMP), 0.0)
    return float(kl.sum() / mu_B), softmax_vjp(p, dp) / mu_B, softmax_vjp(q, dq) / mu_B


def uniformity_loss_and_grad(student_probs: np.ndarray, mask, mu_B: int):
    """Cross-entropy toward the uniform distribution on masked samples.

    Replaces the (K+1)-class supervision in the ablation where no extra class
    head exists: high-uncertainty samples are pushed toward uniform output.
    """
    p = np.asarray(student_probs, dtype=np.float64)
    width, n = p.shape
    m = _per_sample(mask, n)
    t = 1.0 / width
    value = float((m * class_sum(-t * _log_clamped(p))).sum() / mu_B)
    dp = np.where(p > PROB_CLAMP, -t / np.maximum(p, PROB_CLAMP), 0.0)
    return value, softmax_vjp(p, dp) * m / mu_B


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
