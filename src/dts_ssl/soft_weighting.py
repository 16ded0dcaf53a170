"""Uncertainty scoring and the reliability gate.

The uncertainty score blends two signals produced by the two teachers on one
shared weak view of each unlabeled sample: how unconfident the K-way teacher
is (1 - max probability) and how much mass the (K+1)-way teacher puts on the
extra class. Every unlabeled sample enters the soft-weighted unseen set with
its score as weight; the reliability gate separately admits high-confidence
samples into pseudo-labeled seen-class training.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numerics import class_max


def scores_from_probs(p_its: np.ndarray, p_ots: np.ndarray, gamma: float) -> np.ndarray:
    """gamma * (1 - max K-way prob) + (1 - gamma) * (K+1)-th class prob, per sample.

    ``p_its`` (K, N) and ``p_ots`` (K+1, N) are class-major teacher outputs on
    one view of the same N samples; the last row of ``p_ots`` is the unseen class.
    """
    p_its = np.asarray(p_its, dtype=np.float64)
    p_ots = np.asarray(p_ots, dtype=np.float64)
    if p_its.ndim != 2 or p_ots.ndim != 2 or p_its.shape[1] != p_ots.shape[1]:
        raise ShapeError(f"need class-major (C, N) blocks of one batch, got {p_its.shape} and {p_ots.shape}")
    return gamma * (1.0 - class_max(p_its)) + (1.0 - gamma) * p_ots[-1]


def gate_mask(max_conf: np.ndarray, scores: np.ndarray, tau: float, use_score: bool = True) -> np.ndarray:
    """Pass iff max_conf > tau and (with ``use_score``) max_conf > score; ties fail."""
    mask = max_conf > tau
    if use_score:
        mask = mask & (max_conf > scores)
    return mask

