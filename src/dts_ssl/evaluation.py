"""Metrics: seen-class accuracy, unseen-detection AUROC, the final tables and the per-sample CSVs.

These functions only measure; ``trainer.evaluate_pipeline`` decides which
model predicts and which scores detect, and ``trainer.run_inference`` is the
evaluation of two trained students. ``write_per_sample`` is the one writer of
per-sample rows, and the only code that joins them with the hidden flags.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
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
            "score_histogram": None if hist is None else {
                "bin_edges": hist.bin_edges,
                "seen_counts": hist.seen_counts,
                "unseen_counts": hist.unseen_counts,
            },
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
    return ScoreHistogram(
        bin_edges=edges.tolist(),
        seen_counts=seen_counts.tolist(),
        unseen_counts=unseen_counts.tolist(),
    )


def write_per_sample(path: str | Path, indices, columns: dict, unlabeled_is_unseen) -> None:
    """Write a CSV with one row per sample: its ``index`` into the unlabeled set, the ``columns``
    (name -> one value per sample; booleans as 0/1, floats by ``repr``), then ``is_unseen``, the
    hidden flag at that index. Makes the file's directory if it is missing."""
    indices = np.asarray(indices)
    if any(len(values) != len(indices) for values in columns.values()):
        raise ShapeError("indices and every column must have equal lengths")
    cells = [np.asarray(c) for c in (indices, *columns.values(), np.asarray(unlabeled_is_unseen)[indices])]
    Path(path).parent.mkdir(exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *columns, "is_unseen"])
        writer.writerows(zip(*((c.astype(np.int64) if c.dtype == bool else c).tolist() for c in cells)))
