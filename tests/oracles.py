"""Scalar reference formulas, one sample at a time.

Each function spells out one quantity of the method for a single sample (or
sums such per-sample terms over a batch), in plain Python loops. The
vectorised code in ``dts_ssl`` must match them bit for bit. The batch losses
reduce their per-sample terms with numpy's own sum, so a comparison checks
the per-sample formula and not the summation order.
"""

import numpy as np

PROB_CLAMP = 1e-12


def _log_clamped(p):
    return np.log(max(np.float64(p), PROB_CLAMP))


def score(p_its, p_ots, gamma):
    """s(u) = gamma * (1 - max K-way prob) + (1 - gamma) * (K+1)-th class prob."""
    return gamma * (1.0 - max(p_its)) + (1.0 - gamma) * p_ots[-1]


def gate(max_its, s, tau):
    """The reliability gate: strictly above both tau and the sample's own score."""
    return bool(max_its > tau and max_its > s)


def cross_entropy(label, p):
    """-log p[label] for a 1-based label, p clamped below at 1e-12."""
    return -_log_clamped(p[label - 1])


def kl(p, q):
    """sum_j p_j (log p_j - log q_j), left to right; terms with p_j = 0 add 0."""
    total = 0.0
    for pj, qj in zip(p, q):
        total += pj * (_log_clamped(pj) - _log_clamped(qj)) if pj > 0 else 0.0
    return total


def _batch_mean(terms, mu_B):
    return float(np.sum(np.array(terms, dtype=np.float64)) / mu_B)


def seen(labels, probs, gates, mu_B):
    """Gated pseudo-label cross-entropy over the full batch size."""
    return _batch_mean([float(g) * cross_entropy(y, p) for y, p, g in zip(labels, probs, gates)], mu_B)


def logit_match(p, q, gates, mu_B):
    """Gated KL(student || teacher) over the full batch size."""
    return _batch_mean([float(g) * kl(pi, qi) for pi, qi, g in zip(p, q, gates)], mu_B)


def unseen(probs, scores, mu_B):
    """Score-weighted cross-entropy against the last class over the full batch size."""
    return _batch_mean([s * cross_entropy(len(p), p) for p, s in zip(probs, scores)], mu_B)


def consistency(weak, strong, mu_B):
    """Ungated KL(weak || strong) over the full batch size."""
    return _batch_mean([kl(p, q) for p, q in zip(weak, strong)], mu_B)


def inlier_objective(ce_k, seen, logit_match, weights):
    """CE + lambda_seen * seen + lambda_lm * logit-match, added left to right."""
    lambda_seen, lambda_lm = weights
    return ce_k + lambda_seen * seen + lambda_lm * logit_match


def outlier_objective(ce_k1, seen, unseen, consistency, weights):
    """CE + lambda_seen * seen + lambda_unseen * unseen + lambda_cr * consistency, left to right."""
    lambda_seen, lambda_unseen, lambda_cr = weights
    return ce_k1 + lambda_seen * seen + lambda_unseen * unseen + lambda_cr * consistency


def pretrain_objective(ce_k, ce_k1):
    """The pre-training objective: both heads' labeled CE."""
    return ce_k + ce_k1
