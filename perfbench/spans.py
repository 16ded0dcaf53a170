"""In-memory span tracer that wraps the library's public functions from outside.

Each wrapped call records one span (name, start, end, parent) plus optional
work counts (rows, bytes). A wrapper replaces the name where the caller looks
it up: ``trainer`` imports ``compute_auroc``, ``augment_batch`` and friends
by name, so those are patched on ``dts_ssl.trainer``, methods are patched on
their class, ``losses.*_and_grad`` on the ``losses`` module the trainer
calls through, and the entry points the benchmark calls on their modules. A name that is no longer where the table expects it raises,
so a refactor that moves a function breaks the trace loudly instead of
reporting zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "rows", "bytes")

    def __init__(self, sid: int, name: str, parent: int | None, start: float) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.rows = 0
        self.bytes = 0


class Tracer:
    """Records spans in memory; nothing is written until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open: dict[str, int] = defaultdict(int)

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def wrap(self, name, fn, rows=None, size=None):
        """``name`` is a string or a callable returning one at call time."""
        tracer = self
        pick = name if callable(name) else (lambda: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(pick())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if rows is not None:
                span.rows = rows(args, kwargs, out)
            if size is not None:
                span.bytes = size(args, kwargs, out)
            return out

        return traced

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (single thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, bytes, busy_s (inclusive) and self_s."""
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, dict(calls=0, rows=0, bytes=0, busy_s=0.0, self_s=0.0))
            agg["calls"] += 1
            agg["rows"] += s.rows
            agg["bytes"] += s.bytes
            agg["busy_s"] += s.end - s.start
            agg["self_s"] += self_s
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines, one per span, times relative to the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start - t0, "end": s.end - t0, "self": self_s,
                    "rows": s.rows, "bytes": s.bytes,
                }) + "\n")


def _rows_arg0(args, kwargs, out):
    return len(args[0])


def _rows_method_arg1(args, kwargs, out):
    return len(args[1])


def _unlabeled_rows(args, kwargs, out):
    return len(out.unlabeled_x)


def _npz_bytes(args, kwargs, out):
    path = os.fspath(args[1])
    return os.path.getsize(path if path.endswith(".npz") else path + ".npz")


def _logits_name(tracer: Tracer):
    # forwards made while evaluate_pipeline is open are evaluation forwards
    return lambda: ("models.logits.eval" if tracer.is_open("trainer.evaluate_pipeline")
                    else "models.logits.train")


def patch_table(tracer: Tracer):
    """(owner, attribute, span name, rows counter, bytes counter) for every wrapped call."""
    from dts_ssl import benchmarks, losses, trainer
    from dts_ssl.data import PairSampler
    from dts_ssl.models import DualHeadModel

    table = [
        (trainer, "compute_auroc", "evaluation.compute_auroc", _rows_arg0, None),
        (trainer, "predict_labels", "evaluation.predict_labels", None, None),
        (trainer, "score_histogram", "evaluation.score_histogram", None, None),
        (trainer, "per_class_accuracy", "evaluation.per_class_accuracy", None, None),
        (DualHeadModel, "logits", _logits_name(tracer), _rows_method_arg1, None),
        (DualHeadModel, "backward", "models.backward", None, None),
        (trainer, "refresh_teacher", "models.refresh_teacher", None, None),
        (trainer, "save_model", "models.save_model", None, _npz_bytes),
        (trainer, "scores_from_probs", "soft_weighting.scores_from_probs", None, None),
        (trainer, "gate_mask", "soft_weighting.gate_mask", None, None),
        (trainer, "augment_batch", "data.augment_batch", _rows_arg0, None),
        (PairSampler, "next_batch_pair", "data.next_batch_pair", _unlabeled_rows, None),
        (trainer, "pretrain_teacher", "trainer.pretrain_teacher", None, None),
        (trainer, "train_dts_iteration", "trainer.train_dts_iteration", None, None),
        (trainer, "evaluate_pipeline", "trainer.evaluate_pipeline", None, None),
        (trainer.SGD, "step", "trainer.SGD.step", None, None),
        (trainer, "run_training", "trainer.run_training", None, None),
        (benchmarks, "benchmark_split", "benchmarks.benchmark_split", None, None),
    ]
    and_grad = sorted(n for n in vars(losses) if n.endswith("_and_grad"))
    if not and_grad:
        raise RuntimeError("losses has no *_and_grad functions to trace")
    table += [(losses, n, "losses.and_grad", None, None) for n in and_grad]
    return table


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block, then restore."""
    table = patch_table(tracer)
    gone = [f"{owner.__name__}.{attr}" for owner, attr, *_ in table if attr not in vars(owner)]
    if gone:
        raise RuntimeError(f"trace targets no longer exist: {gone}")
    saved = []
    try:
        for owner, attr, name, rows, size in table:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, rows, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
