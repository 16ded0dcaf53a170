"""Small numerical helpers used by models and losses."""

from __future__ import annotations

import numpy as np

# Probabilities are clamped at this floor before any logarithm so that
# one-hot outputs produce large-but-finite losses.
PROB_CLAMP = 1e-12


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` by columns: on narrow rows numpy's reduction costs far more."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def row_sum(x: np.ndarray) -> np.ndarray:
    """Columns added left to right onto 0.0; bit-equal to ``x.sum(axis=-1)`` to width 7."""
    out = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    e = z - row_max(z)[..., None]  # a fresh buffer: the input is never written
    np.exp(e, out=e)
    e /= row_sum(e)[..., None]
    return e


def softmax_vjp(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Backpropagate ``d_probs`` through a softmax that produced ``probs``.

    Rows are treated independently; inputs are (..., C).
    """
    return probs * (d_probs - row_sum(d_probs * probs)[..., None])


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves rounded up (no banker's rounding)."""
    return int(np.floor(x + 0.5))
