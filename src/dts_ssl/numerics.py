"""Small numerical helpers used by models and losses.

Probabilities are class-major: a (C, N) array holds one row per class and one
column per sample, so every class-axis operation below works on whole
contiguous rows. Each ``exp`` and ``log`` runs on a fresh contiguous array:
numpy's float64 SIMD path and its strided path need not agree bit for bit.
"""

from __future__ import annotations

import numpy as np

# Probabilities are clamped at this floor before any logarithm so that
# one-hot outputs produce large-but-finite losses.
PROB_CLAMP = 1e-12


def class_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=0)``, one class row at a time."""
    out = np.array(x[0], dtype=np.float64)
    for j in range(1, x.shape[0]):
        np.maximum(out, x[j], out=out)
    return out


def class_sum(x: np.ndarray) -> np.ndarray:
    """Class rows added in order onto 0.0; up to 7 classes bit-equal to numpy's
    ``sum(axis=-1)`` of the (N, C) layout, which adds pairwise from 8."""
    out = x[0] + 0.0
    for j in range(1, x.shape[0]):
        out += x[j]
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the leading (class) axis.

    ``z`` is class-major, typically the transposed view ``logits.T`` of an
    (N, C) logits block; the result is a fresh C-contiguous (C, N) array.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.empty(z.shape)
    np.subtract(z, class_max(z), out=e)
    np.exp(e, out=e)
    e /= class_sum(e)
    return e


def softmax_vjp(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Backpropagate ``d_probs`` through a softmax that produced ``probs``.

    Samples are treated independently; both inputs are class-major (C, ...).
    """
    return probs * (d_probs - class_sum(d_probs * probs))


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves rounded up (no banker's rounding)."""
    return int(np.floor(x + 0.5))


def _tanh(z: np.ndarray) -> np.ndarray:
    return np.tanh(z, out=z)


def _tanh_grad(a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0, out=z)


def _relu_grad(a: np.ndarray) -> np.ndarray:
    return (a > 0).astype(np.float64)


# name -> (in-place activation, derivative from its outputs); module-level functions pickle
ACTIVATIONS = {"tanh": (_tanh, _tanh_grad), "relu": (_relu, _relu_grad)}
