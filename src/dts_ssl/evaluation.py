"""Metrics: seen-class accuracy, unseen-detection AUROC, the final tables and the per-sample record.

These functions only measure; ``trainer.evaluate_pipeline`` decides which
model predicts and which scores detect, and ``trainer.run_inference`` is the
evaluation of two trained students. ``write_per_sample`` is the one writer of
the per-sample record, one array file per phase, and the only code that puts
the hidden flags beside its rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError, UndefinedMetricError, ValidationError


@dataclass
class ScoreHistogram:
    bin_edges: list[float]
    seen_counts: list[int]
    unseen_counts: list[int]


@dataclass
class EvalResult:
    accuracy: float
    auroc: float
    per_class_accuracy: dict[int, float] | None = None  # None from the per-epoch evaluation
    score_histogram: ScoreHistogram | None = None  # likewise
    mean_score_seen: float = float("nan")
    mean_score_unseen: float = float("nan")
    predictions: np.ndarray | None = field(default=None, repr=False)  # test-set class ids
    scores: np.ndarray | None = field(default=None, repr=False)  # unlabeled-set detection scores

    def as_dict(self) -> dict:
        pca, hist = self.per_class_accuracy, self.score_histogram
        return {
            "accuracy": self.accuracy,
            "auroc": self.auroc,
            "per_class_accuracy": None if pca is None else {str(k): v for k, v in pca.items()},
            "score_histogram": None if hist is None else asdict(hist),
            "mean_score_seen": self.mean_score_seen,
            "mean_score_unseen": self.mean_score_unseen,
        }


def predict_labels(model, inputs: np.ndarray, head: str = "k") -> np.ndarray:
    """Argmax class ids (1-based) from un-augmented inputs; ties go to the lowest id."""
    probs = model.probs(np.atleast_2d(np.asarray(inputs, dtype=np.float64)), head=head)
    return np.argmax(probs, axis=0) + 1


def compute_accuracy(predictions, true_labels) -> float:
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape:
        raise ValidationError(
            f"predictions and labels must align: {predictions.shape} vs {true_labels.shape}"
        )
    if predictions.size == 0:
        raise ValidationError("accuracy is undefined on empty inputs")
    return float(np.mean(predictions == true_labels))


def per_class_accuracy(predictions, true_labels) -> dict[int, float]:
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    out: dict[int, float] = {}
    for c in np.unique(true_labels):
        sel = true_labels == c
        out[int(c)] = float(np.mean(predictions[sel] == c))
    return out


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their midrank."""
    order = np.argsort(values)  # a tie group gets one midrank, so an unstable sort will do
    sorted_vals = values[order]
    lo = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))  # group starts
    hi = np.append(lo[1:], len(values))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (lo + hi + 1), hi - lo)  # positions lo+1..hi, averaged
    return ranks


def compute_auroc(scores, is_unseen) -> float:
    """Probability that a random (unseen, seen) pair is ordered correctly by score.

    Computed from midranks, so ties count one half; agrees exactly with the
    all-pairs definition.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_unseen, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ValidationError(f"scores and flags must be aligned vectors, got {scores.shape}")
    n_bad = int(np.count_nonzero(~np.isfinite(scores)))
    if n_bad:
        raise UndefinedMetricError(f"AUROC needs finite scores, got {n_bad} non-finite of {scores.size}")
    n_pos = int(flags.sum())
    n_neg = int((~flags).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC needs both classes present, got {n_pos} unseen / {n_neg} seen"
        )
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[flags].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def score_histogram(scores, is_unseen, bins: int = 20) -> ScoreHistogram:
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_unseen, dtype=bool)
    edges = np.linspace(0.0, 1.0, bins + 1)
    seen_counts, _ = np.histogram(scores[~flags], bins=edges)
    unseen_counts, _ = np.histogram(scores[flags], bins=edges)
    return ScoreHistogram(edges.tolist(), seen_counts.tolist(), unseen_counts.tolist())


def write_per_sample(path: str | Path, evaluated: list[tuple], gated: list[dict], unlabeled_is_unseen) -> None:
    """Write one phase's per-sample record as one uncompressed ``.npz``, making its directory if it is
    missing: ``eval_epoch`` and ``eval_score`` (``evaluated``: an (epoch, unlabeled-set scores) pair
    per evaluated epoch, one float64 row each); the gate table, each column of the ``gated`` row
    blocks (column name -> one value per row) concatenated in order, when there is a block; then
    ``is_unseen``, the hidden flag of every unlabeled row, which a reader joins as ``is_unseen[index]``."""
    flags = np.asarray(unlabeled_is_unseen, dtype=bool)
    if any(len(values) != len(block["index"]) for block in gated for values in block.values()):
        raise ShapeError("every column of a block of gate rows must have one value per row")
    table = {column: np.concatenate([block[column] for block in gated]) for column in gated[0]} if gated else {}
    epochs = np.array([epoch for epoch, _ in evaluated], dtype=np.int64)
    scores = np.array([row for _, row in evaluated], dtype=np.float64).reshape(len(evaluated), len(flags))
    Path(path).parent.mkdir(exist_ok=True)
    np.savez(path, eval_epoch=epochs, eval_score=scores, **table, is_unseen=flags)
