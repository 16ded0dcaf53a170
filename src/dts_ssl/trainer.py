"""Training orchestration: teacher pre-training, the per-iteration joint loop,
optimizers, ablation dispatch, evaluation, and metrics/checkpoint output.

The full pipeline is: pre-train one dual-head teacher on labeled data, derive
the inlier and outlier teacher-student pairs from it, then run a fixed number
of iterations. Within an iteration the teachers are frozen; every step scores
the unlabeled batch with the teachers, updates the inlier student on its
objective, then updates the outlier student on its objective. At iteration
boundaries each student is copied into its teacher. A run may share this work
with a forked pair worker; the ``pairworker`` module docstring states when and how.

Pre-training is the CE-only merged plan: the teacher, as the one model of a
``merged`` pair, trains the branches (inlier, k) and (outlier, k1) with no
unlabeled terms. It runs through the same epoch loop (``_run_epochs``) and
step (``_model_step``) as the iterations. Every evaluation (pre-training's,
the iterations' on either path, the last of which is the final one, and
``run_inference``'s) is one ``evaluate_pipeline`` call: the first pair's
test-set predictions, then the detection half, the students' scores of the
unlabeled set, and from them AUROC and the mean scores.

An ablation mode is four choices: which pairs exist, which loss terms each
role trains, whether the (K+1)-head score weights the extra-class supervision
itself or through a hard mask, and whether the (K+1)-head has a projection.
The mode table in ``config`` gives each mode's summary and the choices it
changes from ``full``, whose choices are ``PipelineDescription``'s defaults.
The step mechanics stay the same, so structural invariants hold across modes.
Everything else follows from the choices: the heads the pairs carry choose the
score (``_score``), the head of the branch that trains the unseen term chooses
whether it is the extra-class CE or, on a K head, a push toward uniform
output; the first pair classifies, and the loss weights are the config's.
``_step_plan`` turns the description into the branch table one step walks: per
trained model, its (role, head, unlabeled terms) branches.

    model     branches (role, head)               unlabeled terms, in order
    inlier    (inlier, k)                         seen, lm
    outlier   (outlier, k1); (outlier, k) in      seen, unseen, cr
              no_k1_ots
    merged    (inlier, k) and (outlier, k1) on    both branches' terms
              one backbone

A mode leaves out a pair (``no_its``, ``no_k1_its``, ``no_k1_ots``,
``supervised_only``) or a term (``no_logit_match``, ``no_consistency``;
``supervised_only`` keeps only the labeled CE). Logit-match and consistency
are left out when their lambda is 0; seen and unseen always run. Per model a
step makes one labeled forward and backward over all its branches' heads, at
most one strong-view forward and backward over the heads with unlabeled
terms, and one weak-view forward when consistency is on. Gradients add in
that order: labeled, then weak-view consistency, then the strong-view terms.
Teacher scoring (teachers on weak views) and evaluation (students on raw
inputs) go through one scorer, ``_score``.

A second table, ``_TERMS``, gives each (role, term) its ``LossReport`` field
and its ``TrainConfig`` weight. A step stores each term's value in its field,
scales its gradient by its weight, and composes each role's objective from
the table: the labeled CE, then each weighted term added in table order.

Every logits block is turned into probabilities once, by the class-major
``softmax`` (a (C, N) array, one row per class), and that one array feeds
every score, gate, pseudo-label and loss term on the block. The losses return
class-major logit gradients; a step adds them per head and transposes each
head's sum back to (N, C) once, for ``DualHeadModel.backward``.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses
from .config import BackboneSpec, PipelineDescription, TrainConfig, apply_ablation, config_hash
from .data import AugmentConfig, MismatchSplit, PairSampler, augment_batch, feature_scale
from .errors import DivergenceError, ValidationError
from .evaluation import (
    EvalResult,
    compute_accuracy,
    compute_auroc,
    per_class_accuracy,
    predict_labels,
    score_histogram,
    write_per_sample,
)
from .losses import LossReport
from .models import DualHeadModel, TeacherStudentPair, derive_pair, init_teacher, refresh_teacher, save_model
from .numerics import class_max, class_sum, softmax
from .soft_weighting import gate_mask, scores_from_probs


# ---------------------------------------------------------------------------
# Ablation dispatch
# ---------------------------------------------------------------------------


def unseen_sample_weights(scores: np.ndarray, k1_scored: bool, pipeline: PipelineDescription,
                          config: TrainConfig) -> np.ndarray:
    """Per-sample weights of the unseen term: a (K+1)-head score itself, or its hard mask at
    ``unseen_hard_threshold``; a K-head's 1 - max score masked at ``uniformity_threshold``."""
    if k1_scored and pipeline.soft_weighting:
        return scores
    threshold = config.unseen_hard_threshold if k1_scored else config.uniformity_threshold
    return (scores > threshold).astype(np.float64)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class SGD:
    """SGD with momentum and (coupled) weight decay on a model's parameter vector
    (``DualHeadModel.flat``), with one velocity vector."""

    def __init__(self, params: np.ndarray, momentum: float, weight_decay: float) -> None:
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        # v = m*v + (g + wd*p); p -= lr*v, the velocity updated in place and
        # bit-equal to the out-of-place update; ``grads`` is left untouched. In
        # place is fast only because run_training holds the heap (_hold_heap): a
        # step then frees all it allocates, and under glibc's default thresholds
        # the heap would be trimmed after every step and faulted back in.
        v = self.velocity
        d = self.weight_decay * params
        d += grads
        v *= self.momentum
        v += d
        np.multiply(v, lr, out=d)
        params -= d


def _lr_at(config: TrainConfig, global_epoch: int, total_epochs: int) -> float:
    if config.lr_schedule == "cosine":
        t = global_epoch / max(1, total_epochs - 1)
        return config.lr * 0.5 * (1.0 + np.cos(np.pi * min(t, 1.0)))
    return config.lr


# ---------------------------------------------------------------------------
# Train state
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    config: TrainConfig
    pipeline: PipelineDescription
    pairs: dict[str, TeacherStudentPair]
    optimizers: dict[str, SGD]
    sampler: PairSampler
    rng: np.random.Generator
    scale: np.ndarray
    aug: AugmentConfig
    split: MismatchSplit
    iteration: int = 0
    global_epoch: int = 0
    history: list[dict] = field(default_factory=list)
    training_unlabeled_forwards: int = 0
    out_dir: Path | None = None
    last_eval: EvalResult | None = None  # of the latest evaluated epoch
    worker: object = None  # a pairworker.PairWorker, if one runs: it scores, then trains a copy of the last model

    @property
    def total_epochs(self) -> int:
        return self.config.pretrain_epochs + self.config.total_train_epochs


@dataclass
class TrainResult:
    config: TrainConfig
    pipeline: PipelineDescription
    pairs: dict[str, TeacherStudentPair]
    history: list[dict]
    final_eval: EvalResult


# ---------------------------------------------------------------------------
# Teacher pre-training
# ---------------------------------------------------------------------------


def pretrain_teacher(teacher: DualHeadModel, split: MismatchSplit, config: TrainConfig,
                     rng: np.random.Generator, scale: np.ndarray, out_dir: Path | None = None,
                     worker=None) -> list[dict]:
    """Optimize both heads on labeled strong views for ``config.pretrain_epochs``;
    returns the epoch records, each with an evaluation of the teacher.

    The teacher trains as the one model of a ``merged`` pair on the CE-only
    plan, so no unlabeled example appears anywhere in this phase; the
    (K+1)-head trains with the same 1..K labels (it simply never sees a
    positive for the extra class). Sets the pre-trained flag required by pair
    derivation. With ``config.dump_scores``, each epoch's evaluation scores go to ``out_dir``
    (``score_dumps/``); this phase draws no unlabeled rows, so it adds nothing to the gate record.
    ``worker`` (``pairworker.attached``), if given, scores each epoch's teacher (see the module docstring there).
    """
    # the sampler rejects an empty labeled set, so the label range below is defined
    sampler = PairSampler(split, config.batch_size, config.mu, rng, include_unlabeled=False)
    if split.labeled_y.min() < 1 or split.labeled_y.max() > teacher.K:
        raise ValidationError(f"labels must lie in 1..{teacher.K}")
    pipeline = dataclasses.replace(apply_ablation(config.ablation_mode, config), pairs=(("merged", "merged"),),
                                   inlier_losses=("ce",), outlier_losses=("ce",))
    state = TrainState(
        config=config, pipeline=pipeline, pairs={"merged": TeacherStudentPair(teacher, teacher)},
        optimizers={"merged": SGD(teacher.flat, config.momentum, config.weight_decay)},
        sampler=sampler, rng=rng, scale=scale, split=split, iteration=-1, out_dir=out_dir,
        aug=AugmentConfig(config.weak_sigma, config.strong_sigma, config.mask_fraction), worker=worker,
    )
    _run_epochs(state)
    teacher.pretrained = True
    return state.history


def _mean_report(reports: list[LossReport]) -> LossReport:
    names = [f.name for f in dataclasses.fields(LossReport)]
    # one row per field, each summed as np.mean sums that field's values
    table = np.array([[getattr(r, n) for r in reports] for n in names], dtype=np.float64)
    return LossReport(**{n: float(m) for n, m in zip(names, table.mean(axis=1))})


# ---------------------------------------------------------------------------
# Scoring: teachers on weak views in training, students on raw inputs at evaluation
# ---------------------------------------------------------------------------


def _score(pairs: dict[str, TeacherStudentPair], role: str, x: np.ndarray, gamma: float):
    """Uncertainty scores of ``x`` from the ``role`` models, with the class-major K-way
    and (K+1)-way probabilities they come from: ``(scores, p_in, p_out)``.

    Pairs come in (inlier, outlier) order: the K-way head is the first pair's, the
    (K+1)-way head the last pair's, and which of them exist chooses the score. Both
    blend; a (K+1)-head alone blends its first K outputs, renormalised, as the K-way
    distribution (``p_in`` None); a K-head alone gives 1 - max, its one
    distribution as both.
    """
    models = [getattr(pair, role) for pair in pairs.values()]
    first, last = models[0], models[-1]
    if "k1" not in last.heads:
        p = first.probs(x, head="k")
        return 1.0 - class_max(p), p, p
    if "k" not in first.heads:
        p_out = last.probs(x, head="k1")
        proxy = p_out[: last.K] / np.maximum(class_sum(p_out[: last.K]), 1e-12)
        return scores_from_probs(proxy, p_out, gamma), None, p_out
    if first is last:  # a merged model: one backbone pass for both heads
        z, _ = first.logits(x, heads=("k", "k1"))
        p_in, p_out = softmax(z["k"].T), softmax(z["k1"].T)
    else:
        p_in, p_out = first.probs(x, head="k"), last.probs(x, head="k1")
    return scores_from_probs(p_in, p_out, gamma), p_in, p_out


# ---------------------------------------------------------------------------
# One optimization step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Branch:
    """One objective on one head of a trained model."""

    role: str  # "inlier" | "outlier": the teacher targets and report fields it uses
    head: str  # "k" | "k1"
    terms: tuple[str, ...]  # unlabeled terms, in the order their gradients add


def _step_plan(pipe: PipelineDescription, config: TrainConfig) -> dict[str, tuple[_Branch, ...]]:
    """The branches a step trains, per model (pair name). Logit-match and consistency
    are left out when their lambda is 0; seen and unseen are computed whatever theirs."""
    live = {"lm": config.lambda_lm > 0, "cr": config.lambda_cr > 0}
    plan = {}
    for name, kind in pipe.pairs:
        branches = []
        for role, wanted in (("inlier", pipe.inlier_losses), ("outlier", pipe.outlier_losses)):
            if wanted and name in (role, "merged"):
                head = "k" if "inlier" in (role, kind) else "k1"  # no_k1_ots: outlier branch, K head
                terms = tuple(t for t in wanted if t != "ce" and live.get(t, True))
                branches.append(_Branch(role, head, terms))
        if branches:
            plan[name] = tuple(branches)
    return plan


# (role, term) -> (the LossReport field of its value, the TrainConfig field of its weight). A
# role's objective is its labeled CE (weight None) plus its weighted terms, added in table order
_TERMS = {
    ("inlier", "ce"): ("ce_k", None),
    ("inlier", "seen"): ("seen_in", "lambda_seen"),
    ("inlier", "lm"): ("logit_match", "lambda_lm"),
    ("outlier", "ce"): ("ce_k1", None),
    ("outlier", "seen"): ("seen_out", "lambda_seen"),
    ("outlier", "unseen"): ("unseen", "lambda_unseen"),
    ("outlier", "cr"): ("consistency", "lambda_cr"),
}


@dataclass
class _Step:
    """One step's inputs, drawn and teacher-scored before any model trains."""

    labeled_x: np.ndarray  # the strong view of the labeled batch
    labeled_y: np.ndarray
    weak_u: np.ndarray | None  # the unlabeled views; None when the pipeline reads no unlabeled data
    strong_u: np.ndarray | None
    targets: dict  # role -> (gate, pseudo-labels, teacher probabilities)
    weights: np.ndarray | None  # per-sample weights of the unseen term
    report: LossReport = field(default_factory=LossReport)  # the batch size, gate tallies and weight sum
    indices: np.ndarray | None = None  # this process only, for the gate record: the unlabeled rows drawn
    scores: np.ndarray | None = None  # and their teacher scores; None when no unlabeled row is drawn


def _draw_step(state: TrainState, batch) -> _Step:
    """Augment ``batch`` and score its weak unlabeled view with the teachers."""
    cfg = state.config
    pipe = state.pipeline
    rng = state.rng
    report = LossReport()
    strong_x = augment_batch(batch.labeled_x, "strong", rng, state.scale, state.aug)
    mu_b = report.batch_unlabeled = len(batch.unlabeled_x)
    targets = {}
    weak_u = strong_u = weights = scores = None
    # as in _score, the last pair's heads say whether the score comes from a (K+1)-head; if
    # so, it gates pseudo-labels and weights the extra class
    last = list(state.pairs.values())[-1].teacher
    k1_scored = "k1" in last.heads
    if mu_b:  # the sampler draws unlabeled rows only for a pipeline that uses them
        weak_u = augment_batch(batch.unlabeled_x, "weak", rng, state.scale, state.aug)
        strong_u = augment_batch(batch.unlabeled_x, "strong", rng, state.scale, state.aug)
        scores, p_in, p_out = _score(state.pairs, "teacher", weak_u, cfg.gamma)
        for role, p in (("inlier", p_in), ("outlier", p_out)):
            if p is not None:
                gate = gate_mask(class_max(p), scores, cfg.tau, use_score=k1_scored)
                pseudo = p.argmax(axis=0) + 1
                if role == "outlier" and k1_scored and cfg.exclude_k1_pseudo:
                    gate = gate & (pseudo != last.K + 1)
                targets[role] = (gate, pseudo, p)
        roles = _gated_roles(pipe, targets)
        if "inlier" in roles:
            report.pass_count_in = int(targets["inlier"][0].sum())
        if "outlier" in roles:
            report.pass_count_out = int(targets["outlier"][0].sum())
            weights = unseen_sample_weights(scores, k1_scored, pipe, cfg)
            report.effective_weight_sum = float(weights.sum())
    return _Step(strong_x, batch.labeled_y, weak_u, strong_u, targets, weights, report, batch.unlabeled_indices, scores)


def _gated_roles(pipe: PipelineDescription, targets: dict) -> list[str]:
    """The roles whose gate training uses, and whose pass counts an epoch record holds: inlier
    where the pipeline trains inlier losses, outlier where it trains outlier losses."""
    return [role for role, wanted in (("inlier", pipe.inlier_losses), ("outlier", pipe.outlier_losses))
            if wanted and role in targets]


def _gate_rows(state: TrainState, step: _Step, index: int) -> dict[str, np.ndarray]:
    """Step ``index``'s rows of the epoch's gate record: per unlabeled row drawn, its index, the
    step and the teacher score; per gated role, the gate as trained, the score clause's verdict
    (where the gate uses the score) and the pseudo-label. No hidden flag is read here."""
    rows = {"index": step.indices, "step": np.full(len(step.indices), index), "score": step.scores}
    for role in _gated_roles(state.pipeline, step.targets):
        gate, pseudo, p = step.targets[role]
        rows[f"gate_{role}"] = gate
        if "k1" in list(state.pairs.values())[-1].teacher.heads:  # as in _draw_step
            rows[f"clause_{role}"] = class_max(p) > step.scores
        rows[f"pseudo_{role}"] = pseudo
    return rows


def _model_step(student: DualHeadModel, optimizer: SGD, branches: tuple[_Branch, ...], step: _Step,
                cfg: TrainConfig, lr: float) -> dict[str, float]:
    """Train one model on ``step``'s inputs; returns the report fields of its branches' terms. One labeled
    pass writes the model's gradient (it reaches every parameter trained); at most one weak-view (consistency)
    and one strong-view pass (``_unlabeled_views``) then add to it, in that order."""
    fields = {}
    z_l, cache_l = student.logits(step.labeled_x, heads=tuple(b.head for b in branches))
    d_l = {}
    for b in branches:
        ce, d = losses.ce_loss_and_grad(step.labeled_y, softmax(z_l[b.head].T))
        d_l[b.head] = _sample_major(d)
        fields[_TERMS[b.role, "ce"][0]] = ce
    student.backward(cache_l, d_l)

    strong_u, weak_u = step.strong_u, step.weak_u
    unlabeled = [b for b in branches if b.terms] if strong_u is not None else []
    if unlabeled:
        mu_b = len(strong_u)
        z_u, cache_u = student.logits(strong_u, heads=tuple(b.head for b in unlabeled))
        d_u = {}
        for b in unlabeled:
            p = softmax(z_u[b.head].T)
            gate, pseudo, p_teacher = step.targets[b.role]
            for term in b.terms:
                field_name, weight = _TERMS[b.role, term]
                lam = getattr(cfg, weight)
                if term == "seen":
                    value, d = losses.gated_ce_loss_and_grad(pseudo, p, gate, mu_b)
                elif term == "lm":
                    value, d = losses.logit_match_loss_and_grad(p, p_teacher, gate, mu_b)
                elif term == "unseen" and b.head == "k1":
                    value, d = losses.unseen_loss_and_grad(p, step.weights, mu_b)
                elif term == "unseen":  # a K head has no extra class: push masked samples toward uniform
                    value, d = losses.uniformity_loss_and_grad(p, step.weights, mu_b)
                else:  # "cr"
                    z_w, cache_w = student.logits(weak_u, heads=(b.head,))
                    value, d_w, d = losses.consistency_loss_and_grad(softmax(z_w[b.head].T), p, mu_b)
                    student.backward(cache_w, {b.head: _sample_major(lam * d_w)}, add=True)
                fields[field_name] = value
                if b.head in d_u:
                    d_u[b.head] += lam * d
                else:
                    d_u[b.head] = lam * d
        student.backward(cache_u, {h: _sample_major(d) for h, d in d_u.items()}, add=True)

    optimizer.step(student.flat, student.grad, lr)
    return fields


def _unlabeled_views(branches: tuple[_Branch, ...]) -> int:
    """Unlabeled-view forwards of one model's step (``_model_step``), the one count of them: the
    strong view when a branch has unlabeled terms, and the weak view once per consistency term."""
    return any(b.terms for b in branches) + sum(b.terms.count("cr") for b in branches)


def _credit(cfg: TrainConfig, report: LossReport, fields: dict[str, float]) -> None:
    """Store one trained model's report fields in its step's report, and compute each role's
    objective from the fields stored so far: the CE, then each weighted term added left to right.
    Once every model of the step is credited, the objectives are final."""
    vars(report).update(fields)
    totals = {}
    for (role, _), (field_name, weight) in _TERMS.items():
        value = getattr(report, field_name)
        totals[role] = value if weight is None else totals[role] + getattr(cfg, weight) * value
    report.inlier_total, report.outlier_total = float(totals["inlier"]), float(totals["outlier"])
    report.pretrain_total = float(report.ce_k + report.ce_k1)


def _sample_major(d_logits: np.ndarray) -> np.ndarray:
    """A class-major (C, N) logit gradient as the C-contiguous (N, C) array backward takes."""
    return np.ascontiguousarray(d_logits.T)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_pipeline(pairs: dict[str, TeacherStudentPair], test_x: np.ndarray, test_y: np.ndarray,
                      unlabeled_x: np.ndarray, unlabeled_is_unseen: np.ndarray, gamma: float, *,
                      detection=None, where: str | None = None) -> EvalResult:
    """Accuracy on the test set plus detection AUROC over the unlabeled set.

    Raw inputs only; the hidden seen/unseen flags are consumed here, never in
    training. AUROC is NaN when the flags hold one class only. Computes only
    what an epoch record stores: leaves ``per_class_accuracy`` and
    ``score_histogram`` None (``_with_tables`` fills them in for a final
    evaluation). The test half is the first pair's student's test-set labels.
    The detection half is the students' scores of the unlabeled set, computed
    here or, when ``detection`` is given, what ``detection()`` returns after
    the test half: the same scores computed elsewhere (``_run_epochs`` passes
    the pair worker's). AUROC and the two mean scores are computed here from
    the scores, so the flags are read in this process only. A training record
    passes ``where`` (its phase, iteration and epoch): a non-finite score then
    raises ``DivergenceError`` naming it, before AUROC reads the scores.
    """
    model = next(iter(pairs.values())).student
    if "k" in model.heads:
        preds = predict_labels(model, test_x, head="k")
    else:  # a (K+1)-head alone classifies through its first K outputs
        preds = np.argmax(model.probs(np.atleast_2d(test_x), head="k1")[: model.K], axis=0) + 1
    accuracy = compute_accuracy(preds, test_y)
    scores = _score(pairs, "student", unlabeled_x, gamma)[0] if detection is None else detection()
    bad = np.count_nonzero(~np.isfinite(scores)) if where is not None else 0
    if bad:
        raise DivergenceError(f"training diverged in {where}: {bad} non-finite evaluation scores of {len(scores)}")
    flags = np.asarray(unlabeled_is_unseen, dtype=bool)
    # degenerate splits (ratio 0 or 1) leave the detection metric undefined
    auroc = compute_auroc(scores, flags) if (flags.any() and not flags.all()) else float("nan")
    seen = float(scores[~flags].mean()) if (~flags).any() else float("nan")
    unseen = float(scores[flags].mean()) if flags.any() else float("nan")
    return EvalResult(accuracy=accuracy, auroc=auroc, predictions=preds, scores=scores,
                      mean_score_seen=seen, mean_score_unseen=unseen)


def _with_tables(ev: EvalResult, test_y: np.ndarray, unlabeled_is_unseen: np.ndarray) -> EvalResult:
    """Fill in the two tables only a final evaluation carries."""
    ev.per_class_accuracy = per_class_accuracy(ev.predictions, test_y)
    ev.score_histogram = score_histogram(ev.scores, unlabeled_is_unseen)
    return ev


def run_inference(student_in: DualHeadModel, student_out: DualHeadModel, test_x: np.ndarray,
                  test_y: np.ndarray, unlabeled_x: np.ndarray, unlabeled_is_unseen: np.ndarray,
                  gamma: float) -> EvalResult:
    """Full evaluation of two trained students, as ``run_training`` evaluates the
    ``full`` pipeline: test accuracy via the inlier student, AUROC via both."""
    if len(np.atleast_1d(test_y)) == 0 or len(np.atleast_2d(unlabeled_x)) == 0:
        raise ValidationError("run_inference requires nonempty test and unlabeled sets")
    pairs = {"inlier": TeacherStudentPair(student_in, student_in),
             "outlier": TeacherStudentPair(student_out, student_out)}
    ev = evaluate_pipeline(pairs, test_x, test_y, unlabeled_x, unlabeled_is_unseen, gamma)
    return _with_tables(ev, test_y, unlabeled_is_unseen)


# ---------------------------------------------------------------------------
# Iteration loop and full runs
# ---------------------------------------------------------------------------


def _epoch_record(phase: str, iteration: int, epoch_in_phase: int, global_epoch: int, lr: float,
                  report: LossReport, ev: EvalResult | None, unlabeled_forwards: int) -> dict:
    return {
        "phase": phase,
        "iteration": iteration,
        "epoch": epoch_in_phase,
        "global_epoch": global_epoch,
        "lr": lr,
        **vars(report),
        # the pass rates are 0 where a step draws no unlabeled rows
        "gate_pass_rate_in": report.pass_count_in / report.batch_unlabeled if report.batch_unlabeled else 0.0,
        "gate_pass_rate_out": report.pass_count_out / report.batch_unlabeled if report.batch_unlabeled else 0.0,
        "test_accuracy": ev.accuracy if ev else float("nan"),
        **{name: getattr(ev, name) if ev else float("nan")
           for name in ("auroc", "mean_score_seen", "mean_score_unseen")},
        "training_unlabeled_forwards": unlabeled_forwards,
    }


def _run_epochs(state: TrainState, step_callback=None, epoch_callback=None) -> None:
    """One phase's epochs. Pre-training (``state.iteration`` -1) evaluates every
    epoch and records no student objective; an iteration evaluates every
    ``eval_every``-th epoch and its last.

    Steps are drawn only by ``stage``, in order, on both paths; the ``pairworker`` module
    docstring states the schedule."""
    cfg = state.config
    pretrain = state.iteration < 0
    phase = "pretrain" if pretrain else "train"
    epochs = cfg.pretrain_epochs if pretrain else cfg.epochs_per_iteration
    eval_every = 1 if pretrain else cfg.eval_every
    # the worker, if any, trains the plan's last model in the iterations; in pre-training it only scores
    worker = state.worker
    trains = worker is not None and not pretrain
    plan = _step_plan(state.pipeline, cfg)
    own = {name: b for name, b in plan.items() if not trains or name != worker.name}
    # the worker detects unless its model trains both branches: a merged model's step is the heaviest
    # of any mode, and elsewhere this process, which draws and teacher-scores every step, is the busier
    detection = worker.detection if trains and len(plan[worker.name]) < 2 else None
    # per unlabeled row of a step: one teacher pass per pair, then each trained model's views
    views = len(state.pairs) + sum(map(_unlabeled_views, plan.values()))
    steps = state.sampler.steps_per_epoch
    lrs = [_lr_at(cfg, state.global_epoch + epoch, state.total_epochs) for epoch in range(epochs)]
    draws = (_draw_step(state, batch) for _ in range(epochs) for batch in state.sampler.epoch())
    staged = collections.deque()  # drawn in order, not yet trained here
    taken = 0  # steps of the phase staged so far
    lead = 0 if step_callback is not None else 1  # steps staged ahead of this process's own
    dump = cfg.dump_scores and state.out_dir is not None  # write the per-sample CSVs
    late = None  # pre-training with a worker: the previous epoch's record, made after this epoch's steps

    def stage(upto: int) -> None:
        """Draw the phase's steps up to index ``upto`` (exclusive) and start each on the worker."""
        nonlocal taken
        for k in range(taken, upto):
            staged.append(next(draws))
            if trains:
                worker.start(staged[-1], lrs[k // steps], k % steps == steps - 1)
        taken = max(taken, upto)

    def record(epoch: int, global_epoch: int, forwards: int, report: LossReport, drawn: list, pairs,
               found) -> dict:
        """Refuse epoch ``epoch`` of the phase if a student of ``pairs``, a field of ``report`` or,
        before AUROC reads them, a score of its evaluation is not finite; evaluate it on ``pairs`` if
        it is due (with the pair worker's detection half ``found`` when given), write its per-sample
        CSVs (``drawn``: its steps' gate rows), then append its record."""
        split, where = state.split, f"phase {phase}, iteration {state.iteration}, global epoch {global_epoch}"
        students = [name for name, pair in pairs.items() if not np.isfinite(pair.student.flat).all()]
        fields = [name for name, value in vars(report).items() if not math.isfinite(value)]
        if students or fields:
            raise DivergenceError(f"training diverged in {where}: non-finite parameters in students "
                                  f"{students}, non-finite loss fields {fields}")
        ev = None
        if (epoch + 1) % eval_every == 0 or epoch == epochs - 1:
            ev = state.last_eval = evaluate_pipeline(pairs, split.test_x, split.test_y, split.unlabeled_x,
                                                     split.unlabeled_is_unseen, cfg.gamma, detection=found,
                                                     where=where)
        file = f"epoch_{global_epoch:05d}.csv"
        if dump and ev is not None:
            write_per_sample(state.out_dir / "score_dumps" / file, np.arange(len(ev.scores)), {"score": ev.scores},
                             split.unlabeled_is_unseen)
        if drawn:
            rows = {column: np.concatenate([d[column] for d in drawn]) for column in drawn[0]}
            write_per_sample(state.out_dir / "gate_record" / file, rows.pop("index"), rows, split.unlabeled_is_unseen)
        entry = _epoch_record(phase, state.iteration, epoch, global_epoch, lrs[epoch], report, ev, forwards)
        state.history.append(entry)
        return entry

    for epoch in range(epochs):
        evaluated = (epoch + 1) % eval_every == 0 or epoch == epochs - 1
        end, reports, drawn = (epoch + 1) * steps, [], []
        for k in range(end - steps, end):
            stage(min(k + 1 + lead, end))
            step = staged.popleft()
            if dump and step.scores is not None:
                drawn.append(_gate_rows(state, step, k - end + steps))
            state.training_unlabeled_forwards += views * step.report.batch_unlabeled
            for name, branches in own.items():
                fields = _model_step(state.pairs[name].student, state.optimizers[name], branches, step, cfg, lrs[epoch])
                _credit(cfg, step.report, fields)
            reports.append(step.report)
            if step_callback is not None:
                step_callback(state, step.report)
        if evaluated and detection is not None:
            worker.detect()  # queued after the steps: it scores the final students
        if lead:  # the next epoch's first two steps, which the worker trains while this epoch is recorded
            stage(min(end + 2, end + steps, epochs * steps))
        if trains:
            worker.wait(step)  # the epoch's reports are complete and state.pairs holds its students
        report = _mean_report(reports)
        if pretrain:
            report.inlier_total = report.outlier_total = 0.0
        done = functools.partial(record, epoch, state.global_epoch, state.training_unlabeled_forwards, report, drawn)
        state.global_epoch += 1
        if worker is None or trains:
            entry = done(state.pairs, detection)
            if epoch_callback is not None:
                epoch_callback(state, entry)
            continue
        # the worker scores this epoch's teacher while this process records the previous epoch on its
        # own copy and trains the next; nothing reads a pre-training record before the phase ends
        scores = worker.detection() if late is not None else None
        worker.detect()
        teacher = state.pairs["merged"].teacher
        copy = DualHeadModel(teacher.spec, teacher.K, teacher.params, teacher.heads)
        if late is not None:
            late(lambda: scores)
        late = functools.partial(done, {"merged": TeacherStudentPair(copy, copy)})
    if late is not None:
        late(worker.detection)


def train_dts_iteration(state: TrainState, step_callback=None, epoch_callback=None) -> TrainState:
    """Run one iteration: N_e epochs against frozen teachers, then refresh them."""
    _run_epochs(state, step_callback, epoch_callback)
    for pair in state.pairs.values():
        refresh_teacher(pair)
    state.iteration += 1
    return state


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Well above the largest array a run allocates (~1 MB: 2000 unlabeled rows x 64
# float64), and the highest mmap threshold glibc accepts on 64-bit hosts.
_HEAP_HOLD_BYTES = 32 << 20


def _hold_heap() -> None:
    """Keep freed step temporaries in the heap for the rest of the process.

    Sets glibc's trim and mmap thresholds to ``_HEAP_HOLD_BYTES``, so the heap
    is not trimmed after a step and faulted back in on the next, and no
    step-sized array is served by ``mmap``. Does nothing off glibc: the
    parameters are glibc's, and elsewhere ``ctypes.CDLL(None)`` may raise
    (Windows) or load a libc whose ``mallopt`` reads them otherwise.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_HOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_HOLD_BYTES)


def run_training(
    config: TrainConfig,
    split: MismatchSplit,
    out_dir: str | Path | None = None,
    step_callback=None,
    epoch_callback=None,
) -> TrainResult:
    """Full pipeline: pre-train, derive pairs, run all iterations, evaluate.

    Deterministic for a fixed config seed. When ``out_dir`` is given, writes
    the metrics stream (one JSON line per epoch), per-iteration checkpoints,
    a final summary, and the score histogram.

    Holds the heap (``_hold_heap``): glibc's trim and mmap thresholds stay at
    32 MiB for the whole process, also after this call returns.

    A pair worker may share the run; the ``pairworker`` module docstring states the schedule,
    and with it what a callback sees of the students, ``state.rng`` and ``state.sampler``.
    When a callback raises, ``checkpoints/aborted.npz`` holds the teachers and students as of
    its step or epoch.
    """
    config.validate()
    _hold_heap()
    pipeline = apply_ablation(config.ablation_mode, config)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    seq = np.random.SeedSequence(config.seed)
    init_seq, train_seq = seq.spawn(2)
    rng = np.random.default_rng(train_seq)

    spec = BackboneSpec(
        input_dim=split.dim,
        hidden_widths=config.hidden_widths,
        feature_dim=config.feature_dim,
        activation=config.activation,
        k1_projection=pipeline.k1_projection,
    )
    teacher = init_teacher(spec, split.K, seed=init_seq)
    scale = feature_scale(split)
    aug = AugmentConfig(config.weak_sigma, config.strong_sigma, config.mask_fraction)

    from . import pairworker  # imported here: most processes never start a worker

    with pairworker.attached(config, split, teacher) if step_callback is None else contextlib.nullcontext() as worker:
        history = pretrain_teacher(teacher, split, config, rng, scale, out_path, worker)
        if out_path is not None:
            save_model({"teacher": teacher}, out_path / "teacher_pretrained.npz")
        pairs, optimizers = _derive_pairs(teacher, pipeline, config)
        sampler = PairSampler(split, config.batch_size, config.mu, rng,
                              include_unlabeled=pipeline.uses_unlabeled)
        state = TrainState(config=config, pipeline=pipeline, pairs=pairs, optimizers=optimizers, sampler=sampler,
                           rng=rng, scale=scale, aug=aug, split=split, global_epoch=config.pretrain_epochs,
                           history=history, out_dir=out_path)
        try:
            if worker is not None:
                worker.attach(state)
                state.worker = worker
            for _ in range(config.iterations):
                train_dts_iteration(state, step_callback, epoch_callback)
                if out_path is not None:
                    _save_checkpoint(state, out_path, f"iter{state.iteration}")
        except Exception:
            if out_path is not None:  # this process's models: the worker never writes them
                _save_checkpoint(state, out_path, "aborted", apart=True)
                _write_metrics(state.history, out_path / "metrics.jsonl")
            raise
        finally:
            state.worker = None  # the handle is closed on leaving the block: a state kept by a callback holds none

    # an iteration always evaluates its last epoch, and nothing has changed the
    # students since: that evaluation is the final one
    final_eval = _with_tables(state.last_eval, split.test_y, split.unlabeled_is_unseen)
    if out_path is not None:
        _write_metrics(state.history, out_path / "metrics.jsonl")
        summary = {
            "config": config.to_dict(),
            "config_hash": config_hash(config),
            "pipeline": pipeline.summary,
            "ablation_mode": pipeline.mode,
            "final": final_eval.as_dict(),
            "checkpoint": f"checkpoints/iter{state.iteration}.npz",
        }
        (out_path / "summary.json").write_text(json.dumps(summary, indent=2))
        _write_histogram(final_eval, out_path / "score_histogram.csv")

    return TrainResult(config=config, pipeline=pipeline, pairs=state.pairs, history=state.history,
                       final_eval=final_eval)


def _derive_pairs(teacher: DualHeadModel, pipeline: PipelineDescription,
                  config: TrainConfig) -> tuple[dict[str, TeacherStudentPair], dict[str, SGD]]:
    """The pipeline's pairs, derived from the pre-trained ``teacher``, and an optimizer per student."""
    pairs = {name: derive_pair(teacher, kind) for name, kind in pipeline.pairs}
    return pairs, {name: SGD(pair.student.flat, config.momentum, config.weight_decay) for name, pair in pairs.items()}


def _save_checkpoint(state: TrainState, out_path: Path, tag: str, apart: bool = False) -> None:
    """Write ``checkpoints/{tag}.npz``. At an iteration boundary each teacher was just refreshed from
    its student, so the file holds each pair's student once, under the pair's name; with ``apart``
    (mid-iteration) it holds each pair's ``<pair>_teacher`` and ``<pair>_student``."""
    (out_path / "checkpoints").mkdir(exist_ok=True)
    models = {name: pair.student for name, pair in state.pairs.items()}
    if apart:
        models = {f"{name}_{role}": getattr(pair, role) for name, pair in state.pairs.items()
                  for role in ("teacher", "student")}
    save_model(models, out_path / "checkpoints" / f"{tag}.npz")


def _write_metrics(history: list[dict], path: Path) -> None:
    with open(path, "w") as fh:
        for record in history:
            fh.write(json.dumps(record) + "\n")


def _write_histogram(ev: EvalResult, path: Path) -> None:
    hist = ev.score_histogram
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,seen_count,unseen_count\n")
        for i in range(len(hist.seen_counts)):
            fh.write(
                f"{hist.bin_edges[i]},{hist.bin_edges[i + 1]},"
                f"{hist.seen_counts[i]},{hist.unseen_counts[i]}\n"
            )
