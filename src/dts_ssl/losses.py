"""Loss primitives and composite objectives.

Value-level functions operate on probability vectors (1-based class ids for
labels). The ``*_and_grad`` companions take logits instead and return both the
loss value and its analytic gradient w.r.t. those logits; the trainer uses
them, and the gradient-check suite verifies them against finite differences.

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


def _as_label_index(label, C: int) -> int:
    """Accept a 1-based class id or a one-hot vector; return a 0-based index."""
    if np.ndim(label) > 0:
        vec = np.asarray(label, dtype=np.float64)
        if vec.shape != (C,):
            raise ShapeError(f"one-hot label must have length {C}, got {vec.shape}")
        return int(np.argmax(vec))
    label = int(label)
    if not 1 <= label <= C:
        raise ValidationError(f"label {label} out of range 1..{C}")
    return label - 1


def cross_entropy(label, p: np.ndarray) -> float:
    """H(y, p) = -log p[y], with p clamped below at 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    idx = _as_label_index(label, p.shape[-1])
    return float(-_log_clamped(p[idx]))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_i p_i log(p_i / q_i); zero-probability p terms contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"KL operands must match, got {p.shape} vs {q.shape}")
    terms = np.where(p > 0, p * (_log_clamped(p) - _log_clamped(q)), 0.0)
    return float(terms.sum())


def _per_sample(values, n: int, attr: str = "passed") -> np.ndarray:
    """One float per batch row from an array, or from a sequence of GateDecision
    (``attr="passed"``) / UncertaintyScore (``attr="value"``) objects or plain numbers."""
    if not isinstance(values, np.ndarray):
        values = [getattr(v, attr, v) for v in values]
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (n,):
        what = "gates" if attr == "passed" else "scores"
        raise ShapeError(f"{what} must align with the batch: expected {n}, got {out.shape}")
    return out


def _label_cells(labels: np.ndarray, probs: np.ndarray):
    """(row, column) indices of each row's 1-based label, and the probability there."""
    idx = np.asarray(labels, dtype=np.int64) - 1
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= probs.shape[1]:
        raise ValidationError(f"labels out of range 1..{probs.shape[1]}")
    at = (np.arange(len(idx)), idx)
    return at, probs[at]


def _ce_rows(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return -_log_clamped(_label_cells(labels, probs)[1])


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


def seen_loss(pseudo_labels, student_strong_probs, gates, mu_B: int) -> float:
    """Gated pseudo-label cross-entropy, averaged over the full batch size."""
    probs = np.atleast_2d(np.asarray(student_strong_probs, dtype=np.float64))
    n = probs.shape[0]
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"pseudo_labels must align with probs: {labels.shape} vs {n}")
    mask = _per_sample(gates, n)
    return float((mask * _ce_rows(labels, probs)).sum() / mu_B)


def logit_match_loss(student_strong_probs, teacher_weak_probs, gates, mu_B: int) -> float:
    """Gated KL from the student's distribution to the teacher's (student first)."""
    p = np.atleast_2d(np.asarray(student_strong_probs, dtype=np.float64))
    q = np.atleast_2d(np.asarray(teacher_weak_probs, dtype=np.float64))
    if p.shape != q.shape:
        raise ShapeError(f"prediction shapes differ: {p.shape} vs {q.shape}")
    mask = _per_sample(gates, p.shape[0])
    return float((mask * _kl_rows(p, q)).sum() / mu_B)


def unseen_loss(student_k1_strong_probs, scores, mu_B: int, K: int) -> float:
    """Score-weighted cross-entropy against the one-hot (K+1)-th class."""
    probs = np.atleast_2d(np.asarray(student_k1_strong_probs, dtype=np.float64))
    if probs.shape[1] != K + 1:
        raise ShapeError(f"expected {K + 1}-class probabilities, got width {probs.shape[1]}")
    w = _per_sample(scores, probs.shape[0], "value")
    return float((w * -_log_clamped(probs[:, -1])).sum() / mu_B)


def consistency_loss(weak_probs, strong_probs, mu_B: int) -> float:
    """Ungated mean KL between weak-view and strong-view distributions (weak first)."""
    p = np.atleast_2d(np.asarray(weak_probs, dtype=np.float64))
    q = np.atleast_2d(np.asarray(strong_probs, dtype=np.float64))
    if p.shape != q.shape:
        raise ShapeError(f"prediction shapes differ: {p.shape} vs {q.shape}")
    return float(_kl_rows(p, q).sum() / mu_B)


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
    """Value and logit gradient of :func:`seen_loss` for softmaxed logits."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    mask = _per_sample(gates, z.shape[0])
    rows, d_logits = _ce_rows_with_grad(pseudo_labels, z, mask, mu_B)
    return float((mask * rows).sum() / mu_B), d_logits


def _kl_dp(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d KL(p, q) / d p with the clamp indicators of the implemented loss."""
    return (_log_clamped(p) - _log_clamped(q)) + (p > PROB_CLAMP).astype(np.float64)


def logit_match_loss_and_grad(student_logits: np.ndarray, teacher_probs: np.ndarray, gates, mu_B: int):
    """Value and student-logit gradient of :func:`logit_match_loss`."""
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
    """Value and logit gradient of :func:`unseen_loss` (last class is the target)."""
    z = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    probs = softmax(z)
    n, width = probs.shape
    w = _per_sample(scores, n, "value")
    value = float((w * -_log_clamped(probs[:, -1])).sum() / mu_B)
    target = np.zeros(width)
    target[-1] = 1.0
    live = (probs[:, -1] > PROB_CLAMP).astype(np.float64)
    d_logits = (probs - target) * (w * live)[:, None] / mu_B
    return value, d_logits


def consistency_loss_and_grad(weak_logits: np.ndarray, strong_logits: np.ndarray, mu_B: int):
    """Value plus gradients w.r.t. both weak-view and strong-view logits."""
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

    def recompute_totals(self, lam_seen: float, lam_lm: float, lam_unseen: float, lam_cr: float):
        """Recompose the objectives from components (for drift checks)."""
        inlier = inlier_objective(self.ce_k, self.seen_in, self.logit_match, (lam_seen, lam_lm))
        outlier = outlier_objective(
            self.ce_k1, self.seen_out, self.unseen, self.consistency, (lam_seen, lam_unseen, lam_cr)
        )
        return inlier, outlier, pretrain_objective(self.ce_k, self.ce_k1)

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
