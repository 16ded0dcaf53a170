"""Training orchestration: pre-training, iteration structure, ablations, determinism."""

import contextlib
import csv
import ctypes
import dataclasses
import json
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dts_ssl
import oracles
from dts_ssl import losses, trainer
from dts_ssl.benchmarks import benchmark_config, benchmark_split
from dts_ssl.config import ABLATION_MODES, TrainConfig, apply_ablation, config_hash
from dts_ssl.data import MismatchSplit, build_mismatch_split, generate_synthetic
from dts_ssl.errors import StateError, UndefinedMetricError, ValidationError
from dts_ssl.evaluation import compute_accuracy, predict_labels
from dts_ssl.numerics import class_max
from dts_ssl.models import (
    BackboneSpec,
    DualHeadModel,
    TeacherStudentPair,
    derive_pair,
    init_teacher,
    load_model,
    param_hash,
)
from dts_ssl.losses import LossReport
from dts_ssl.trainer import (
    SGD,
    _mean_report,
    _score,
    _step_plan,
    evaluate_pipeline,
    pretrain_teacher,
    run_inference,
    run_training,
    unseen_sample_weights,
)

TINY = dict(
    epochs_per_iteration=3,
    iterations=2,
    pretrain_epochs=4,
    batch_size=16,
    mu=2,
    hidden_widths=(12,),
    feature_dim=6,
    lr=0.08,
)


def gated_config(**overrides):
    """``tiny_config`` with enough pre-training that, on ``tiny_split()``, both
    heads' gates admit some but not all samples on every step of a ``full`` run
    (``tiny_config``'s 4 pre-train epochs leave both gates shut)."""
    return tiny_config(**{"pretrain_epochs": 12, **overrides})


def tiny_split(seed=0, ratio=0.5):
    ds = generate_synthetic(3, 2, 6, 150, separation=3.0, noise=1.0, seed=seed)
    return build_mismatch_split(ds, [1, 2, 3], ratio, m=24, n=120, test_fraction=0.2, seed=seed)


def eval_inputs(split):
    """The four arrays ``evaluate_pipeline`` reads, in its argument order."""
    return split.test_x, split.test_y, split.unlabeled_x, split.unlabeled_is_unseen


# one out-of-contract value per field whose check lives in AugmentConfig,
# BackboneSpec or TrainConfig itself
BAD_FIELD_VALUES = [
    ("mask_fraction", 1.5),
    ("mask_fraction", -0.1),
    ("weak_sigma", -1.0),
    ("strong_sigma", -0.1),
    ("seed", -1),
    ("hidden_widths", (0,)),
    ("feature_dim", 0),
    ("activation", "gelu"),
    ("gamma", 1.5),
    ("gamma", -0.1),
    ("tau", 0.0),
    ("lr", float("inf")),
    ("weight_decay", float("inf")),
    ("lambda_seen", float("inf")),
    ("lambda_lm", float("inf")),
    ("lambda_unseen", float("inf")),
    ("lambda_cr", float("inf")),
]

# values of the wrong type: integer fields take no float, bool or string, float
# fields no string or None, string and bool fields only their own type
WRONG_TYPE_VALUES = [
    ("seed", "x"),
    ("tau", None),
    ("lr", "0.1"),
    ("hidden_widths", ("a",)),
    ("hidden_widths", (8.0,)),
    ("mu", 2.5),
    ("batch_size", True),
    ("gamma", False),
    ("activation", 1),
    ("dump_scores", 1),
]


@contextlib.contextmanager
def one_cpu():
    """Narrow the process to one CPU for the block, and restore its CPU set after. On one CPU,
    ``run_training`` starts no pair worker: every model trains in this process."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


@pytest.fixture
def serial_path():
    """The test on one CPU (``one_cpu``), where a spy on a step's calls sees them all."""
    with one_cpu():
        yield


def tiny_config(mode="full", seed=0, **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return TrainConfig.desk(ablation_mode=mode, seed=seed, **merged)


class TestTrainConfig:
    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lambda_seen, cfg.lambda_lm) == (0.25, 0.25)
        assert (cfg.lambda_unseen, cfg.lambda_cr) == (0.1, 0.3)
        assert (cfg.mu, cfg.tau, cfg.batch_size, cfg.gamma) == (7, 0.85, 256, 0.5)
        assert (cfg.epochs_per_iteration, cfg.iterations, cfg.pretrain_epochs) == (400, 3, 1000)
        assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (0.128, 0.9, 5e-4)

    def test_desk_defaults(self):
        cfg = TrainConfig.desk()
        assert (cfg.iterations, cfg.epochs_per_iteration) == (2, 20)
        assert (cfg.batch_size, cfg.mu, cfg.pretrain_epochs) == (64, 3, 50)

    def test_reference_total_epochs(self):
        assert TrainConfig().total_train_epochs == 3 * 400 == 1200
        assert TrainConfig.desk(iterations=2, epochs_per_iteration=5).total_train_epochs == 10

    def test_validation_names_fields(self):
        cfg = TrainConfig(tau=1.5, iterations=0)
        with pytest.raises(ValidationError, match="tau"):
            cfg.validate()
        with pytest.raises(ValidationError, match="iterations"):
            cfg.validate()

    @given(
        mode=st.sampled_from(ABLATION_MODES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lambda_cr=st.floats(min_value=0.0, max_value=10.0),
        tau=st.floats(min_value=0.01, max_value=0.99),
        hidden_widths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
        activation=st.sampled_from(["tanh", "relu"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, mode, seed, lambda_cr, tau, hidden_widths, activation):
        cfg = tiny_config(mode, seed, lambda_cr=lambda_cr, tau=tau,
                          hidden_widths=tuple(hidden_widths), activation=activation)
        cfg.validate()
        again = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig.from_dict({"not_a_field": 1})

    @pytest.mark.parametrize("field, value", BAD_FIELD_VALUES)
    def test_every_field_checked(self, field, value):
        cfg = tiny_config(**{field: value})
        with pytest.raises(ValidationError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("field, value", WRONG_TYPE_VALUES)
    def test_wrong_type_rejected(self, field, value):
        cfg = tiny_config(**{field: value})
        with pytest.raises(ValidationError, match=f"{field}: expected"):
            cfg.validate()

    def test_integral_values_are_valid_floats(self):
        tiny_config(lr=1, tau=np.float64(0.9), seed=np.int64(3), hidden_widths=[12]).validate()


TWO_PAIRS = (("inlier", "inlier"), ("outlier", "outlier"))
MERGED = (("merged", "merged"),)
INLIER_TERMS = ("ce", "seen", "lm")
OUTLIER_TERMS = ("ce", "seen", "unseen", "cr")
# mode -> (pairs, inlier_losses, outlier_losses, k1_projection, summary), in ABLATION_MODES
# order; {hard} and {uniform} stand for the two thresholds as the summary prints them
MODE_DESCRIPTIONS = {
    "full": (TWO_PAIRS, INLIER_TERMS, OUTLIER_TERMS, False,
             "dual teacher-student pairs, soft-weighted unseen supervision"),
    "no_its": ((("outlier", "outlier"),), (), OUTLIER_TERMS, False,
               "single (K+1)-head pair handles both classification and detection"),
    "no_soft_weighting": (TWO_PAIRS, INLIER_TERMS, OUTLIER_TERMS, False,
                          "unseen supervision hard-masked at score > {hard}"),
    "no_k1_its": ((("inlier", "inlier"),), ("ce", "seen"), (), False,
                  "K-head pair with confidence-threshold pseudo-labeling only"),
    "no_k1_ots": ((("outlier", "inlier"),), (), OUTLIER_TERMS, False,
                  "K-head pair; high-uncertainty samples pushed toward uniform output"
                  " (mask at 1-max > {uniform})"),
    "no_logit_match": (TWO_PAIRS, ("ce", "seen"), OUTLIER_TERMS, False,
                       "full pipeline without the teacher-student logit matching term"),
    "no_consistency": (TWO_PAIRS, INLIER_TERMS, ("ce", "seen", "unseen"), False,
                       "full pipeline without weak/strong consistency regularization"),
    "one_f_two_c": (MERGED, INLIER_TERMS, OUTLIER_TERMS, False,
                    "single backbone carrying both heads; both objectives on one model"),
    "one_f_two_c_proj": (MERGED, INLIER_TERMS, OUTLIER_TERMS, True,
                         "single backbone carrying both heads; both objectives on one model"
                         " with a projection layer before the (K+1)-head"),
    "supervised_only": ((("inlier", "inlier"),), ("ce",), (), False,
                        "labeled cross-entropy only; unlabeled data never touched"),
}


class TestApplyAblation:
    @pytest.mark.parametrize("thresholds, hard, uniform", [
        ({}, "0.85", "0.5"),
        ({"unseen_hard_threshold": 0.7, "uniformity_threshold": 0.3}, "0.7", "0.3"),
    ])
    def test_every_mode_description_pinned(self, thresholds, hard, uniform):
        cfg = TrainConfig.desk(**thresholds)
        assert tuple(MODE_DESCRIPTIONS) == ABLATION_MODES
        for mode, (pairs, inlier, outlier, projection, summary) in MODE_DESCRIPTIONS.items():
            pipe = apply_ablation(mode, cfg)
            got = (pipe.pairs, pipe.inlier_losses, pipe.outlier_losses, pipe.k1_projection, pipe.summary)
            summary = summary.format(hard=hard, uniform=uniform)
            assert got == (pairs, inlier, outlier, projection, summary), mode
            assert pipe.uses_unlabeled == (mode != "supervised_only"), mode

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            apply_ablation("bogus", TrainConfig.desk())

    def test_every_mode_builds(self):
        cfg = TrainConfig.desk()
        for mode in ABLATION_MODES:
            pipe = apply_ablation(mode, cfg)
            assert pipe.mode == mode
            assert pipe.summary

    def test_full_structure(self):
        pipe = apply_ablation("full", TrainConfig.desk())
        assert dict(pipe.pairs) == {"inlier": "inlier", "outlier": "outlier"}
        assert pipe.soft_weighting

    def test_left_out_terms_absent_from_plan(self):
        cfg = TrainConfig.desk()
        for mode, term in (("no_logit_match", "lm"), ("no_consistency", "cr")):
            plan = _step_plan(apply_ablation(mode, cfg), cfg)
            assert all(term not in b.terms for branches in plan.values() for b in branches), mode

    def test_supervised_uses_no_unlabeled(self):
        pipe = apply_ablation("supervised_only", TrainConfig.desk())
        assert not pipe.uses_unlabeled
        assert pipe.inlier_losses == ("ce",)

    def test_merged_modes(self):
        cfg = TrainConfig.desk()
        assert apply_ablation("one_f_two_c", cfg).pairs == (("merged", "merged"),)
        assert not apply_ablation("one_f_two_c", cfg).k1_projection
        assert apply_ablation("one_f_two_c_proj", cfg).k1_projection

    def test_step_plan_heads_exist_on_their_models(self):
        teacher = init_teacher(BackboneSpec(input_dim=4, hidden_widths=(6,), feature_dim=5), 3, 0)
        teacher.pretrained = True
        cfg = TrainConfig.desk()
        for mode in ABLATION_MODES:
            pipe = apply_ablation(mode, cfg)
            pairs = {name: derive_pair(teacher, kind) for name, kind in pipe.pairs}
            for name, branches in _step_plan(pipe, cfg).items():
                assert {b.head for b in branches} <= set(pairs[name].student.heads), mode

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_unlabeled_views_count_the_forwards_of_the_step(self, mode, monkeypatch):
        # _unlabeled_views is the one count of a model step's unlabeled forwards: each model's
        # _model_step forwards that many views of the unlabeled batch, and every record's counter
        # is the teachers' passes plus those rows over the steps trained so far, in pre-training
        # and in the iterations
        trainer = dts_ssl.trainer
        inputs, calls, records = [], [], []  # inputs: the rows of each forward since the last clear
        teacher_rows, trained = {}, {}  # id(step) -> (step, rows its teachers forwarded); -> rows trained
        logits, draw_step, model_step, epoch_record = (DualHeadModel.logits, trainer._draw_step,
                                                       trainer._model_step, trainer._epoch_record)

        def spied(model, x, heads=("k",)):
            inputs.append(x)
            return logits(model, x, heads)

        def drawn(state, batch):
            inputs.clear()
            step = draw_step(state, batch)
            teacher_rows[id(step)] = step, sum(map(len, inputs))
            return step

        def counted(student, optimizer, branches, step, cfg, lr):
            inputs.clear()
            fields = model_step(student, optimizer, branches, step, cfg, lr)
            rows = sum(len(x) for x in inputs if x is step.strong_u or x is step.weak_u)
            mu_b = step.report.batch_unlabeled
            calls.append((rows, trainer._unlabeled_views(branches) * mu_b, mu_b))
            trained[id(step)] = trained.get(id(step), teacher_rows[id(step)][1]) + rows
            return fields

        def recorded(*args):
            entry = epoch_record(*args)
            records.append((entry["training_unlabeled_forwards"], sum(trained.values())))
            return entry

        monkeypatch.setattr(DualHeadModel, "logits", spied)
        monkeypatch.setattr(trainer, "_draw_step", drawn)
        monkeypatch.setattr(trainer, "_model_step", counted)
        monkeypatch.setattr(trainer, "_epoch_record", recorded)
        with one_cpu():  # every model's steps in this process
            result = run_training(tiny_config(mode), tiny_split())
        assert calls and all(rows == expected for rows, expected, _ in calls)
        assert any(mu_b for *_, mu_b in calls) == (mode != "supervised_only")
        assert len(records) == len(result.history) and all(got == want for got, want in records)
        assert records[-1][0] == result.history[-1]["training_unlabeled_forwards"]

    def test_unseen_weight_shapes(self):
        cfg = TrainConfig.desk()
        scores = np.array([0.1, 0.5, 0.86, 0.99])
        assert np.array_equal(unseen_sample_weights(scores, True, apply_ablation("full", cfg), cfg), scores)
        hard = unseen_sample_weights(scores, True, apply_ablation("no_soft_weighting", cfg), cfg)
        assert set(hard.tolist()) <= {0.0, 1.0}
        assert np.array_equal(hard, (scores > cfg.unseen_hard_threshold).astype(float))
        push = unseen_sample_weights(scores, False, apply_ablation("no_k1_ots", cfg), cfg)
        assert np.array_equal(push, (scores > cfg.uniformity_threshold).astype(float))


class TestPretrainTeacher:
    def test_empty_labeled_rejected(self):
        split = tiny_split()
        split.labeled_x, split.labeled_y = split.labeled_x[:0], split.labeled_y[:0]
        teacher = init_teacher(BackboneSpec(input_dim=split.dim), split.K, 0)
        with pytest.raises(ValidationError):
            pretrain_teacher(teacher, split, tiny_config(), np.random.default_rng(0), np.ones(split.dim))

    def test_out_of_range_labels_rejected(self):
        split = tiny_split()
        split.labeled_y = split.labeled_y.copy()
        split.labeled_y[0] = split.K + 1
        teacher = init_teacher(BackboneSpec(input_dim=split.dim), split.K, 0)
        with pytest.raises(ValidationError, match="labels must lie"):
            pretrain_teacher(teacher, split, tiny_config(), np.random.default_rng(0), np.ones(split.dim))

    def test_separable_data_learned(self):
        # weight decay off: it settles into a tiny limit cycle after the
        # separable data is interpolated, which is not the descent property
        # this curve check is about
        ds = generate_synthetic(2, 0, 6, 200, separation=6.0, noise=0.8, seed=1)
        cfg = tiny_config(pretrain_epochs=40, batch_size=16, weight_decay=0.0)
        teacher = init_teacher(BackboneSpec(6, (12,), 6), 2, seed=0)
        # all 400 rows are labeled, and also serve as the test and (all-seen) unlabeled sets
        rows = np.arange(len(ds.labels))
        split = MismatchSplit(ds.features, ds.labels, ds.features, np.zeros(len(rows), dtype=bool),
                              ds.features, ds.labels, (1, 2), rows, rows, rows)
        records = pretrain_teacher(teacher, split, cfg, np.random.default_rng(0), ds.features.std(axis=0))
        losses = [r["pretrain_total"] for r in records]
        assert teacher.pretrained
        preds = predict_labels(teacher, ds.features)
        assert compute_accuracy(preds, ds.labels) > 0.95
        # 10-epoch moving average of the pre-training loss is non-increasing,
        # up to the sampling noise of per-epoch means over random strong views
        ma = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(ma) <= 5e-5)
        # the (K+1)-head never picks the extra class on labeled data
        k1_preds = np.argmax(teacher.probs(ds.features, head="k1"), axis=0) + 1
        assert np.all(k1_preds <= 2)


class TestRunTrainingStructure:
    def test_epoch_count_and_phases(self):
        result = run_training(tiny_config(), tiny_split())
        train_records = [r for r in result.history if r["phase"] == "train"]
        pre_records = [r for r in result.history if r["phase"] == "pretrain"]
        assert len(train_records) == 2 * 3  # iterations * epochs_per_iteration
        assert len(pre_records) == 4

    def test_only_trained_models_hold_a_gradient(self):
        # a gradient vector is made by a model's first backward: the students trained here hold
        # one, the teachers, which only score, hold none
        held = []

        def on_epoch(state, record):
            if record["phase"] == "train":
                held.append([(p.teacher.grad is None, p.student.grad is None) for p in state.pairs.values()])

        with one_cpu():
            run_training(tiny_config(), tiny_split(), epoch_callback=on_epoch)
        assert held and all(pairs == [(True, False)] * 2 for pairs in held)

    def test_pretrain_records_have_the_train_record_layout(self):
        history = run_training(tiny_config(), tiny_split()).history
        pre = [r for r in history if r["phase"] == "pretrain"]
        train = [r for r in history if r["phase"] == "train"]
        assert all(list(r) == list(train[0]) for r in pre)
        for epoch, r in enumerate(pre):
            assert (r["iteration"], r["epoch"], r["global_epoch"]) == (-1, epoch, epoch)
            assert r["training_unlabeled_forwards"] == 0
            assert r["gate_pass_rate_in"] == r["gate_pass_rate_out"] == 0.0
            assert r["inlier_total"] == r["outlier_total"] == 0.0
        assert train[0]["global_epoch"] == len(pre)

    def test_frozen_teachers_within_iteration_and_refresh(self):
        hashes = []

        def on_step(state, report):
            hashes.append(
                (state.iteration, tuple(param_hash(p.teacher) for p in state.pairs.values()))
            )

        result = run_training(tiny_config(), tiny_split(), step_callback=on_step)
        by_iteration = {}
        for iteration, h in hashes:
            by_iteration.setdefault(iteration, set()).add(h)
        for iteration, distinct in by_iteration.items():
            assert len(distinct) == 1  # bit-identical inside each iteration
        assert by_iteration[0] != by_iteration[1]  # refresh changed the teachers

        # after the final refresh, teacher outputs equal student outputs
        split = tiny_split()
        for pair in result.pairs.values():
            head = "k" if "k" in pair.student.heads else "k1"
            a = pair.teacher.probs(split.test_x, head)
            b = pair.student.probs(split.test_x, head)
            assert np.array_equal(a, b)

    def test_supervised_only_never_touches_unlabeled(self):
        counts = []
        result = run_training(
            tiny_config("supervised_only"),
            tiny_split(),
            epoch_callback=lambda state, rec: counts.append(state.training_unlabeled_forwards),
        )
        assert counts[-1] == 0
        assert all(rec["pass_count_in"] == 0 for rec in result.history)
        assert all(rec["effective_weight_sum"] == 0 for rec in result.history)

    def test_full_mode_counts_unlabeled_traffic(self):
        result = run_training(tiny_config(), tiny_split())
        last = [r for r in result.history if r["phase"] == "train"][-1]
        assert last["training_unlabeled_forwards"] > 0

    @pytest.mark.parametrize("mode", ["full", "no_its"])
    def test_step_reports_recompose_exactly(self, mode):
        """Every step's totals equal the reference objectives of its terms; ``no_its`` has no
        inlier branch, so its inlier total is built from zeros."""
        reports = []
        cfg = gated_config(mode=mode)
        run_training(cfg, tiny_split(), step_callback=lambda s, rep: reports.append(rep))
        assert any(rep.seen_out > 0 for rep in reports)
        for rep in reports:
            assert rep.inlier_total == oracles.inlier_objective(
                rep.ce_k, rep.seen_in, rep.logit_match, (cfg.lambda_seen, cfg.lambda_lm)
            )
            assert rep.outlier_total == oracles.outlier_objective(
                rep.ce_k1, rep.seen_out, rep.unseen, rep.consistency,
                (cfg.lambda_seen, cfg.lambda_unseen, cfg.lambda_cr),
            )
            assert rep.pretrain_total == oracles.pretrain_objective(rep.ce_k, rep.ce_k1)
        if mode == "no_its":
            assert all(rep.ce_k == rep.seen_in == rep.logit_match == 0.0 for rep in reports[-3:])

    @pytest.mark.usefixtures("serial_path")
    def test_both_gates_admit_samples(self, monkeypatch):
        K = tiny_split().K
        masks = {K: [], K + 1: []}  # head width -> the gate mask of each gated-CE call
        spied = losses.gated_ce_loss_and_grad

        def spy(pseudo_labels, probs, gates, mu_B):
            masks[probs.shape[0]].append(np.asarray(gates, dtype=bool))  # class-major probs
            return spied(pseudo_labels, probs, gates, mu_B)

        monkeypatch.setattr(losses, "gated_ce_loss_and_grad", spy)
        run_training(gated_config(), tiny_split())
        for width, seen in masks.items():
            assert len(seen) == 12, width  # one call per step: 2 iterations x 3 epochs x 2 batches
            assert all(m.any() for m in seen), width  # the inlier and the outlier gate open
            assert not all(m.all() for m in seen), width  # and still select

    def test_determinism_bit_identical_histories(self):
        split = tiny_split()
        a = run_training(tiny_config(seed=5), split)
        b = run_training(tiny_config(seed=5), split)
        assert json.dumps(a.history) == json.dumps(b.history)

    def test_different_seeds_differ(self):
        split = tiny_split()
        a = run_training(tiny_config(seed=1), split)
        b = run_training(tiny_config(seed=2), split)
        assert json.dumps(a.history) != json.dumps(b.history)

    def test_checkpoints_written(self, tmp_path, monkeypatch):
        # at each boundary, just after the teachers' refresh, each pair's teacher and student are
        # one parameter set, which the boundary's file holds once under the pair's name
        at_boundary, save = [], dts_ssl.trainer._save_checkpoint

        def recorded(state, out_path, tag, **kwargs):
            at_boundary.append({name: (param_hash(pair.teacher), param_hash(pair.student))
                                for name, pair in state.pairs.items()})
            return save(state, out_path, tag, **kwargs)

        monkeypatch.setattr(dts_ssl.trainer, "_save_checkpoint", recorded)
        result = run_training(tiny_config(), tiny_split(), out_dir=tmp_path)
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == ["iter1.npz", "iter2.npz"]
        assert json.loads((tmp_path / "summary.json").read_text())["checkpoint"] == "checkpoints/iter2.npz"
        for n, pairs in enumerate(at_boundary, start=1):
            for name, (teacher, student) in pairs.items():
                assert param_hash(load_model(tmp_path / "checkpoints" / f"iter{n}.npz", name)) == teacher == student
        assert at_boundary[-1] == {name: (param_hash(pair.teacher), param_hash(pair.student))
                                   for name, pair in result.pairs.items()}
        assert load_model(tmp_path / "teacher_pretrained.npz", "teacher").pretrained
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "score_histogram.csv").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4 + 6  # pretrain + train epochs

    def test_derive_requires_pretrained(self):
        teacher = init_teacher(BackboneSpec(input_dim=4), 2, 0)
        from dts_ssl.models import derive_pair

        with pytest.raises(StateError):
            derive_pair(teacher, "inlier")

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_trained_pairs_pickle_bit_exactly(self, activation):
        """A run's models cross a process boundary unchanged, and their parameters
        stay views into the one vector that the optimiser updates."""
        split = tiny_split()
        pairs = run_training(tiny_config(activation=activation), split).pairs
        again = pickle.loads(pickle.dumps(pairs))
        assert again.keys() == pairs.keys()
        for name, pair in pairs.items():
            for role in ("teacher", "student"):
                before, after = getattr(pair, role), getattr(again[name], role)
                assert param_hash(after) == param_hash(before)
                assert after.heads == before.heads and after.pretrained == before.pretrained
                logits, _ = after.logits(split.test_x, heads=after.heads)
                expected, _ = before.logits(split.test_x, heads=before.heads)
                assert all(np.array_equal(logits[h], expected[h]) for h in before.heads)
                assert all(np.shares_memory(v, after.flat) for v in after.params.values())


class TestAblationBehavior:
    def test_no_logit_match_reports_zero(self):
        result = run_training(tiny_config("no_logit_match"), tiny_split())
        assert all(rec["logit_match"] == 0.0 for rec in result.history)

    def test_no_consistency_reports_zero(self):
        result = run_training(tiny_config("no_consistency"), tiny_split())
        assert all(rec["consistency"] == 0.0 for rec in result.history)

    def test_no_soft_weighting_weight_sums_integral(self):
        sums = []
        run_training(
            tiny_config("no_soft_weighting"),
            tiny_split(),
            step_callback=lambda state, rep: sums.append(rep.effective_weight_sum),
        )
        assert sums, "expected per-step reports"
        assert all(float(s).is_integer() for s in sums)

    def test_one_f_two_c_has_single_backbone(self):
        result = run_training(tiny_config("one_f_two_c"), tiny_split())
        assert set(result.pairs) == {"merged"}
        student = result.pairs["merged"].student
        assert {"head_k.W", "head_k1.W"} <= set(student.params)
        assert "proj.W" not in student.params

    def test_one_f_two_c_proj_has_projection(self):
        result = run_training(tiny_config("one_f_two_c_proj"), tiny_split())
        assert "proj.W" in result.pairs["merged"].student.params

    def test_no_its_classifies_through_first_k(self):
        result = run_training(tiny_config("no_its"), tiny_split())
        assert set(result.pairs) == {"outlier"}
        assert result.pairs["outlier"].student.heads == ("k1",)
        assert 0.0 <= result.final_eval.accuracy <= 1.0

    def test_no_k1_ots_uses_k_head(self):
        result = run_training(tiny_config("no_k1_ots"), tiny_split())
        assert result.pairs["outlier"].student.heads == ("k",)

    @pytest.mark.usefixtures("serial_path")
    def test_exclude_k1_pseudo_flag(self, monkeypatch):
        # with the flag, the outlier gate never admits a sample whose teacher
        # pseudo-label is the extra class K+1
        K = tiny_split().K
        spied = losses.gated_ce_loss_and_grad

        def run(flag):
            admitted, first_pass_counts = [], []

            def spy(pseudo_labels, probs, gates, mu_B):
                if probs.shape[0] == K + 1:  # the (K+1)-head branch; probs are class-major
                    admitted.append(pseudo_labels[gates])
                return spied(pseudo_labels, probs, gates, mu_B)

            monkeypatch.setattr(losses, "gated_ce_loss_and_grad", spy)
            # a low tau and a heavy unseen term, so the refreshed outlier teachers
            # grow confident in K+1 within the run
            cfg = tiny_config(exclude_k1_pseudo=flag, tau=0.5, lambda_unseen=2.0,
                              iterations=4, epochs_per_iteration=4)
            run_training(cfg, tiny_split(),
                         step_callback=lambda state, rep: first_pass_counts.append(rep.pass_count_out))
            monkeypatch.undo()
            return np.concatenate(admitted), first_pass_counts[0]

        admitted_off, first_off = run(False)
        admitted_on, first_on = run(True)
        assert (admitted_off == K + 1).any()  # without it the gate does admit extra-class labels
        assert not (admitted_on == K + 1).any()
        # the first step sees the same batch and teachers either way
        assert first_on <= first_off

    def test_score_dump_files(self, tmp_path):
        run_training(tiny_config(dump_scores=True), tiny_split(), out_dir=tmp_path)
        dumps = sorted((tmp_path / "score_dumps").glob("epoch_*.csv"))
        assert len(dumps) == 4 + 6  # one per pre-training epoch, then one per train epoch
        header = dumps[0].read_text().splitlines()[0]
        assert header == "index,score,is_unseen"
        assert len(dumps[0].read_text().splitlines()) == 1 + 120  # unlabeled set size

    def test_score_dump_makes_no_extra_forwards(self, tmp_path, monkeypatch):
        # the dump writes the scores the epoch's evaluation already computed
        def logits_per_epoch(dump_scores, out_dir):
            calls, per_epoch = [], []
            original = DualHeadModel.logits
            monkeypatch.setattr(DualHeadModel, "logits",
                                lambda model, x, heads=("k",): calls.append(1) or original(model, x, heads))
            run_training(tiny_config(dump_scores=dump_scores), tiny_split(), out_dir=out_dir,
                         epoch_callback=lambda state, rec: per_epoch.append(len(calls)))
            monkeypatch.undo()
            return per_epoch

        assert logits_per_epoch(True, tmp_path / "on") == logits_per_epoch(False, tmp_path / "off")
        assert len(list((tmp_path / "on" / "score_dumps").glob("epoch_*.csv"))) == 4 + 6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inlier_student_reads_nothing_from_the_outlier_pair(self, seed):
        """At the benchmark's tau = 0.85 >= 1 / (1 + gamma) the gate's score clause cannot bind, so
        nothing flows from the outlier pair into the inlier student: modes that change only the
        outlier pair's training leave it bit-equal. Dropping its own logit-match term, the
        control, does change it."""
        split = benchmark_split(seed)

        def inlier_hash(mode):
            config = benchmark_config(mode, seed, iterations=2, epochs_per_iteration=6, pretrain_epochs=10)
            return param_hash(run_training(config, split).pairs["inlier"].student)

        tied = {inlier_hash(mode) for mode in ("full", "no_soft_weighting", "no_consistency")}
        assert len(tied) == 1
        assert inlier_hash("no_logit_match") not in tied


class TestEvaluatePipeline:
    def test_full_matches_run_inference(self):
        split = tiny_split()
        result = run_training(tiny_config(), split)
        direct = run_inference(
            result.pairs["inlier"].student,
            result.pairs["outlier"].student,
            split.test_x,
            split.test_y,
            split.unlabeled_x,
            split.unlabeled_is_unseen,
            gamma=result.config.gamma,
        )
        assert result.final_eval.accuracy == direct.accuracy
        assert result.final_eval.auroc == direct.auroc
        # the per-epoch evaluation skips these two; the final one must still have them
        assert result.final_eval.per_class_accuracy == direct.per_class_accuracy
        assert result.final_eval.score_histogram == direct.score_histogram
        assert result.final_eval.as_dict() == direct.as_dict()

    def test_student_with_non_finite_outputs_raises(self):
        split = tiny_split()
        cfg = tiny_config()
        teacher = init_teacher(BackboneSpec(split.dim, (8,), 4), split.K, seed=0)
        teacher.pretrained = True
        pairs = {"inlier": derive_pair(teacher, "inlier"), "outlier": derive_pair(teacher, "outlier")}
        assert np.isfinite(evaluate_pipeline(pairs, *eval_inputs(split), cfg.gamma).auroc)
        pairs["outlier"].student.params["head_k1.b"][:] = np.nan  # a diverged student
        with pytest.raises(UndefinedMetricError, match="non-finite"):
            evaluate_pipeline(pairs, *eval_inputs(split), cfg.gamma)

    def test_per_epoch_evaluation_leaves_tables_unset(self):
        split = tiny_split()
        result = run_training(tiny_config(), split)
        ev = evaluate_pipeline(result.pairs, *eval_inputs(split), result.config.gamma)
        assert ev.per_class_accuracy is None and ev.score_histogram is None
        assert ev.accuracy == result.final_eval.accuracy and ev.auroc == result.final_eval.auroc
        assert np.array_equal(ev.predictions, result.final_eval.predictions)
        assert ev.scores.tobytes() == result.final_eval.scores.tobytes()

    def test_final_eval_is_the_last_epoch_evaluation(self, monkeypatch):
        # an iteration always evaluates its last epoch, so the run adds no evaluation; every
        # evaluation, serial or split with a pair worker, is one evaluate_pipeline call
        calls = []
        evaluate = dts_ssl.trainer.evaluate_pipeline

        def counting(*args, **kwargs):
            calls.append(evaluate(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(dts_ssl.trainer, "evaluate_pipeline", counting)
        cfg = tiny_config(eval_every=2)  # 3 epochs per iteration: the 2nd and the last evaluate
        result = run_training(cfg, tiny_split())
        evaluated = [r for r in result.history if np.isfinite(r["test_accuracy"])]
        assert len(calls) == len(evaluated) == cfg.pretrain_epochs + 2 * cfg.iterations
        assert result.final_eval is calls[-1]
        assert result.final_eval.accuracy == result.history[-1]["test_accuracy"]

    def test_degenerate_ratio_reports_nan_auroc(self):
        split = tiny_split(ratio=0.0)
        result = run_training(tiny_config(), split)
        assert np.isnan(result.final_eval.auroc)
        assert 0.0 <= result.final_eval.accuracy <= 1.0

    def test_run_inference_matches_run_training_on_degenerate_split(self):
        # one evaluator, one policy: no unseen sample leaves AUROC NaN, not an error
        split = tiny_split(ratio=0.0)
        result = run_training(tiny_config(), split)
        direct = run_inference(result.pairs["inlier"].student, result.pairs["outlier"].student,
                               *eval_inputs(split), gamma=result.config.gamma)
        assert np.isnan(direct.auroc)
        assert json.dumps(direct.as_dict()) == json.dumps(result.final_eval.as_dict())


class TestTeacherForwardCount:
    """Teacher scoring makes one backbone pass per pair, the count a step adds to
    ``training_unlabeled_forwards`` per unlabeled row."""

    def setup_pairs(self, mode):
        split = tiny_split()
        cfg = tiny_config(mode)
        pipe = apply_ablation(mode, cfg)
        spec = BackboneSpec(input_dim=split.dim, hidden_widths=cfg.hidden_widths,
                            feature_dim=cfg.feature_dim, k1_projection=pipe.k1_projection)
        teacher = init_teacher(spec, split.K, 0)
        teacher.pretrained = True
        return split, cfg, pipe, teacher, {name: derive_pair(teacher, kind) for name, kind in pipe.pairs}

    def count_logits(self, monkeypatch):
        calls = []
        original = DualHeadModel.logits

        def counting(model, x, heads=("k",)):
            calls.append(tuple(heads))
            return original(model, x, heads)

        monkeypatch.setattr(DualHeadModel, "logits", counting)
        return calls

    @pytest.mark.parametrize(
        "mode", [m for m in ABLATION_MODES if apply_ablation(m, TrainConfig.desk()).uses_unlabeled]
    )
    def test_teacher_scoring_makes_one_pass_per_pair(self, mode, monkeypatch):
        split, cfg, pipe, _, pairs = self.setup_pairs(mode)
        weak_u = split.unlabeled_x[:10]
        calls = self.count_logits(monkeypatch)
        _, p_in, p_out = _score(pairs, "teacher", weak_u, cfg.gamma)
        assert len(calls) == len(pipe.pairs)
        monkeypatch.undo()
        if "merged" in pairs:  # the one shared pass gives the per-head passes' probabilities
            t = pairs["merged"].teacher
            assert p_in.tobytes() == t.probs(weak_u, head="k").tobytes()
            assert p_out.tobytes() == t.probs(weak_u, head="k1").tobytes()

    def test_pretrain_evaluation_one_pass_per_input_set(self, monkeypatch):
        split, cfg, pipe, teacher, _ = self.setup_pairs("full")
        pairs = {"merged": TeacherStudentPair(teacher, teacher)}
        calls = self.count_logits(monkeypatch)
        evaluate_pipeline(pairs, *eval_inputs(split), cfg.gamma)
        assert calls == [("k",), ("k", "k1")]  # test-set classification, unlabeled scoring


# For one training step of each mode: the losses.*_and_grad functions it calls, in
# order, each with the head whose logits it gets ("k" K-way, "k1" (K+1)-way), and
# how many DualHeadModel.logits and backward calls it makes (teacher scoring included)
STEP_WORK = {
    "full": ([("ce", "k"), ("gated_ce", "k"), ("logit_match", "k"),
              ("ce", "k1"), ("gated_ce", "k1"), ("unseen", "k1"), ("consistency", "k1")], 7, 5),
    "no_its": ([("ce", "k1"), ("gated_ce", "k1"), ("unseen", "k1"), ("consistency", "k1")], 4, 3),
    "no_soft_weighting": ([("ce", "k"), ("gated_ce", "k"), ("logit_match", "k"),
                           ("ce", "k1"), ("gated_ce", "k1"), ("unseen", "k1"),
                           ("consistency", "k1")], 7, 5),
    "no_k1_its": ([("ce", "k"), ("gated_ce", "k")], 3, 2),
    "no_k1_ots": ([("ce", "k"), ("gated_ce", "k"), ("uniformity", "k"), ("consistency", "k")], 4, 3),
    "no_logit_match": ([("ce", "k"), ("gated_ce", "k"),
                        ("ce", "k1"), ("gated_ce", "k1"), ("unseen", "k1"),
                        ("consistency", "k1")], 7, 5),
    "no_consistency": ([("ce", "k"), ("gated_ce", "k"), ("logit_match", "k"),
                        ("ce", "k1"), ("gated_ce", "k1"), ("unseen", "k1")], 6, 4),
    "one_f_two_c": ([("ce", "k"), ("ce", "k1"), ("gated_ce", "k"), ("logit_match", "k"),
                     ("gated_ce", "k1"), ("unseen", "k1"), ("consistency", "k1")], 4, 3),
    "one_f_two_c_proj": ([("ce", "k"), ("ce", "k1"), ("gated_ce", "k"), ("logit_match", "k"),
                          ("gated_ce", "k1"), ("unseen", "k1"), ("consistency", "k1")], 4, 3),
    "supervised_only": ([("ce", "k")], 1, 1),
}


class _SecondStepDone(Exception):
    pass


class TestStepWork:
    def test_table_covers_every_mode(self):
        assert set(STEP_WORK) == set(ABLATION_MODES)

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    @pytest.mark.usefixtures("serial_path")
    def test_one_step_makes_the_pinned_calls(self, mode, monkeypatch):
        split = tiny_split()
        events, marks = [], []

        def record(kind, fn):
            def recorded(*args, **kwargs):
                if kind == "loss":  # the head is told by the class count of the first probabilities
                    z = next(a for a in args if isinstance(a, np.ndarray) and a.ndim == 2)
                    events.append((fn.__name__.replace("_loss_and_grad", "").replace("_and_grad", ""),
                                   "k" if z.shape[0] == split.K else "k1"))  # class-major probs
                else:
                    events.append(kind)
                return fn(*args, **kwargs)
            return recorded

        monkeypatch.setattr(DualHeadModel, "logits", record("logits", DualHeadModel.logits))
        monkeypatch.setattr(DualHeadModel, "backward", record("backward", DualHeadModel.backward))
        for name in [n for n in vars(losses) if n.endswith("_and_grad")]:
            monkeypatch.setattr(losses, name, record("loss", getattr(losses, name)))

        def on_step(state, report):  # the second step of the first epoch: no evaluation in between
            marks.append(len(events))
            if len(marks) == 2:
                raise _SecondStepDone

        with pytest.raises(_SecondStepDone):
            run_training(tiny_config(mode), split, step_callback=on_step)
        step = events[marks[0]:marks[1]]
        loss_calls, n_logits, n_backward = STEP_WORK[mode]
        assert [e for e in step if isinstance(e, tuple)] == loss_calls
        assert step.count("logits") == n_logits
        assert step.count("backward") == n_backward


# (score_mode, classifier, gate_uses_score, uses_unlabeled) as each mode's pipeline
# description stored them before they were derived from its pairs, weighting and terms
STORED_CHOICES = {
    "full": ("blend", "inlier", True, True),
    "no_its": ("outlier_blend", "outlier", True, True),
    "no_soft_weighting": ("blend", "inlier", True, True),
    "no_k1_its": ("one_minus_max", "inlier", False, True),
    "no_k1_ots": ("one_minus_max", "outlier", False, True),
    "no_logit_match": ("blend", "inlier", True, True),
    "no_consistency": ("blend", "inlier", True, True),
    "one_f_two_c": ("blend", "merged", True, True),
    "one_f_two_c_proj": ("blend", "merged", True, True),
    "supervised_only": ("one_minus_max", "inlier", True, False),
}


class TestDerivedChoices:
    def test_table_covers_every_mode(self):
        assert set(STORED_CHOICES) == set(ABLATION_MODES)

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_score_classifier_and_unlabeled_use(self, mode):
        score_mode, classifier, _, uses_unlabeled = STORED_CHOICES[mode]
        split, cfg = tiny_split(), tiny_config(mode)
        pipe = apply_ablation(mode, cfg)
        spec = BackboneSpec(split.dim, cfg.hidden_widths, cfg.feature_dim, k1_projection=pipe.k1_projection)
        pairs = {}
        for seed, (name, kind) in enumerate(pipe.pairs):  # one teacher per pair, so the students differ
            teacher = init_teacher(spec, split.K, seed)
            teacher.pretrained = True
            pairs[name] = derive_pair(teacher, kind)
        _, p_in, p_out = _score(pairs, "student", split.unlabeled_x, cfg.gamma)
        assert (p_in is None) == (score_mode == "outlier_blend")
        assert (p_in is p_out) == (score_mode == "one_minus_max")
        student = pairs[classifier].student
        if "k" in student.heads:
            expected = predict_labels(student, split.test_x)
        else:  # a (K+1)-head classifies through its first K outputs
            expected = np.argmax(student.probs(split.test_x, head="k1")[: split.K], axis=0) + 1
        assert np.array_equal(evaluate_pipeline(pairs, *eval_inputs(split), cfg.gamma).predictions, expected)
        assert pipe.uses_unlabeled == uses_unlabeled

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_gate_uses_the_score(self, mode, monkeypatch):
        _, _, gate_uses_score, uses_unlabeled = STORED_CHOICES[mode]
        use_score = []
        gate = dts_ssl.trainer.gate_mask

        def spy(*args, **kwargs):
            use_score.append(kwargs["use_score"])
            return gate(*args, **kwargs)

        monkeypatch.setattr(dts_ssl.trainer, "gate_mask", spy)
        run_training(tiny_config(mode), tiny_split())
        assert set(use_score) == ({gate_uses_score} if uses_unlabeled else set())


class TestTraceContract:
    """The names the benchmark's tracer wraps keep doing the work it attributes to them:
    one ``losses.*_and_grad`` call per loss term, and ``trainer.scores_from_probs`` and
    ``trainer.gate_mask`` computing the scores and gates of a step."""

    def test_losses_define_no_private_and_grad_name(self):
        # the tracer wraps every losses name ending in _and_grad as one loss term, so a
        # private helper so named would count a term twice
        names = [n for n in vars(losses) if n.endswith("_and_grad")]
        assert names and [n for n in names if n.startswith("_")] == []

    @pytest.mark.usefixtures("serial_path")
    def test_full_step_makes_one_softmax_per_block_and_shares_it(self, monkeypatch):
        split = tiny_split()
        K = split.K
        blocks, loss_calls, scored, gates, marks = [], [], [], [], []
        trainer_module, models_module = dts_ssl.trainer, dts_ssl.models

        def spy(fn, log, keep):
            def spied(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append(keep(fn, args, out))
                return out
            return spied

        softmax = spy(trainer_module.softmax, blocks, lambda fn, args, out: out)
        monkeypatch.setattr(trainer_module, "softmax", softmax)
        monkeypatch.setattr(models_module, "softmax", softmax)
        for name in [n for n in vars(losses) if n.endswith("_and_grad")]:
            monkeypatch.setattr(losses, name, spy(getattr(losses, name), loss_calls,
                                                  lambda fn, args, out: (fn.__name__, args)))
        monkeypatch.setattr(trainer_module, "scores_from_probs", spy(
            trainer_module.scores_from_probs, scored, lambda fn, args, out: (args, out)))
        monkeypatch.setattr(trainer_module, "gate_mask", spy(
            trainer_module.gate_mask, gates, lambda fn, args, out: out))

        def on_step(state, report):  # the second step of the first epoch: no evaluation in between
            marks.append((len(blocks), len(loss_calls), len(scored), len(gates), report.batch_unlabeled))
            if len(marks) == 2:
                raise _SecondStepDone

        with pytest.raises(_SecondStepDone):
            run_training(tiny_config(), split, step_callback=on_step)
        (b0, l0, s0, g0, _), (b1, l1, s1, g1, n_u) = marks
        blocks, loss_calls, scored, gates = blocks[b0:b1], loss_calls[l0:l1], scored[s0:s1], gates[g0:g1]
        n_l = len(loss_calls[0][1][0])  # the labels of the inlier labeled CE

        # teachers' weak views, then per student its labeled, strong-view and (outlier) weak-view block
        assert [p.shape for p in blocks] == [(K, n_u), (K + 1, n_u), (K, n_l), (K, n_u),
                                             (K + 1, n_l), (K + 1, n_u), (K + 1, n_u)]
        assert all(p.flags.c_contiguous for p in blocks)
        t_in, t_out, in_l, in_u, out_l, out_u, out_w = blocks
        (score_args, scores), = scored
        assert score_args[0] is t_in and score_args[1] is t_out
        gate_in, gate_out = gates
        expected = [
            ("ce_loss_and_grad", in_l), ("gated_ce_loss_and_grad", in_u, gate_in),
            ("logit_match_loss_and_grad", in_u, t_in, gate_in),
            ("ce_loss_and_grad", out_l), ("gated_ce_loss_and_grad", out_u, gate_out),
            ("unseen_loss_and_grad", out_u, scores), ("consistency_loss_and_grad", out_w, out_u),
        ]
        assert [name for name, _ in loss_calls] == [name for name, *_ in expected]
        for (name, args), (_, *arrays) in zip(loss_calls, expected):  # the very same arrays
            assert all(any(arg is want for arg in args) for want in arrays), name


def test_lr_schedule_cosine_decays():
    split = tiny_split()
    result = run_training(tiny_config(lr_schedule="cosine"), split)
    lrs = [rec["lr"] for rec in result.history]
    assert lrs[0] > lrs[-1]
    assert all(b <= a + 1e-12 for a, b in zip(lrs, lrs[1:]))


def old_sgd_step(params, velocity, grads, momentum, weight_decay, lr):
    """Reference update: every intermediate is a fresh array, velocities are replaced."""
    for name, g in grads.items():
        g = g + weight_decay * params[name]
        v = momentum * velocity[name] + g
        velocity[name] = v
        params[name] -= lr * v


def tensors(vector, shapes):
    """Per-tensor views of a parameter-layout vector."""
    out, at = {}, 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        out[name] = vector[at : at + size].reshape(shape)
        at += size
    return out


class TestSGDOracle:
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_bit_equal_to_out_of_place_update_and_grads_untouched(self, weight_decay):
        rng = np.random.default_rng(3)
        shapes = {"a.W": (6, 5), "a.b": (6,), "b.W": (3, 6)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        params["a.b"][:2] = [0.0, -0.0]
        params["a.W"][0] = np.abs(params["a.W"][0])
        ref_params = {k: v.copy() for k, v in params.items()}
        flat = np.concatenate([v.ravel() for v in params.values()])
        opt = SGD(flat, momentum=0.9, weight_decay=weight_decay)
        ref_velocity = {k: np.zeros(s) for k, s in shapes.items()}
        # signed zeros: -0.0 velocity plus a -0.0 gradient stays -0.0 only if the
        # decay term 0*p (+0.0 here) is left out, which the update must not do
        tensors(opt.velocity, shapes)["a.W"][0] = ref_velocity["a.W"][0] = -0.0
        velocity = opt.velocity
        for step in range(6):
            # gradients span many magnitudes
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, s) for k, s in shapes.items()}
            if step == 0:
                grads["a.W"][0] = -0.0
            g = np.concatenate([v.ravel() for v in grads.values()])
            before = g.copy()
            lr = 0.05 / (step + 1)
            opt.step(flat, g, lr)
            old_sgd_step(ref_params, ref_velocity, grads, 0.9, weight_decay, lr)
            assert g.tobytes() == before.tobytes()
            got_params, got_velocity = tensors(flat, shapes), tensors(opt.velocity, shapes)
            for k in shapes:
                assert got_params[k].tobytes() == ref_params[k].tobytes(), (step, k)
                assert got_velocity[k].tobytes() == ref_velocity[k].tobytes(), (step, k)
            assert opt.velocity is velocity, step  # updated in place

    def test_updates_the_model_through_its_parameter_views(self):
        model = init_teacher(BackboneSpec(4, (3,), 2), 2, seed=0)
        views = dict(model.params)
        before = {k: v.copy() for k, v in views.items()}
        z, cache = model.logits(np.ones((2, 4)), model.heads)
        model.backward(cache, {h: np.ones_like(v) for h, v in z.items()})  # makes the gradient vector
        for g in model.grads.values():
            g[:] = 1.0
        SGD(model.flat, momentum=0.9, weight_decay=0.0).step(model.flat, model.grad, 0.5)
        for k, v in views.items():
            assert model.params[k] is v
            assert v.tobytes() == (before[k] - 0.5).tobytes(), k


class TestMeanReportOracle:
    @pytest.mark.parametrize("count", [1, 2, 7, 9, 64, 130, 1000])
    def test_bit_equal_to_per_field_numpy_mean(self, count):
        rng = np.random.default_rng(count)
        names = [f.name for f in dataclasses.fields(LossReport)]
        reports = []
        for _ in range(count):
            values = {}
            for name in names:
                if isinstance(getattr(LossReport(), name), int):
                    values[name] = int(rng.integers(0, 500))
                else:  # many magnitudes, so a change of summation order shows
                    values[name] = float(rng.normal() * 10.0 ** rng.integers(-9, 9))
            reports.append(LossReport(**values))
        reports[0].seen_in = -0.0
        if count > 1:
            reports[-1].unseen = np.float64(-0.0)
        mean = _mean_report(reports)
        for name in names:
            expected = float(np.mean([getattr(r, name) for r in reports]))
            assert np.float64(getattr(mean, name)).tobytes() == np.float64(expected).tobytes(), name

    @pytest.mark.parametrize("count", [1, 3, 20])
    def test_all_negative_zero_field_as_numpy_mean(self, count):
        mean = _mean_report([LossReport(consistency=-0.0) for _ in range(count)])
        expected = np.mean([-0.0] * count)
        assert np.float64(mean.consistency).tobytes() == np.float64(expected).tobytes()


# Runs in a fresh interpreter: the heap policy is process-wide. After one tiny
# run_training call, a warmed-up 4 MiB array is allocated, filled and freed 20
# times; with glibc's default thresholds every round is served by fresh pages.
HEAP_CHILD = """
import resource
import numpy as np
from dts_ssl.data import build_mismatch_split, generate_synthetic
from dts_ssl.trainer import TrainConfig, run_training

ds = generate_synthetic(3, 2, 6, 150, separation=3.0, noise=1.0, seed=0)
split = build_mismatch_split(ds, [1, 2, 3], 0.5, m=24, n=120, test_fraction=0.2, seed=0)
run_training(TrainConfig.desk(iterations=1, epochs_per_iteration=1, pretrain_epochs=1,
                              batch_size=16, mu=2, hidden_widths=(12,), feature_dim=6), split)
np.ones(1 << 19)  # the heap grows once to hold one array
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    a = np.ones(1 << 19)
    del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy uses glibc's mallopt")
    def test_freed_arrays_stay_in_the_heap_after_run_training(self):
        src = str(Path(dts_ssl.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for var in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
            env.pop(var, None)
        done = subprocess.run([sys.executable, "-c", HEAP_CHILD], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert int(done.stdout) < 64  # 0 with the thresholds held, hundreds without

    def test_run_training_runs_off_glibc(self, monkeypatch):
        # on Windows ctypes.CDLL(None) raises TypeError; off glibc nothing is loaded
        def no_libc(*args, **kwargs):
            raise TypeError("no C library by that name")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        result = run_training(tiny_config(iterations=1, epochs_per_iteration=1, pretrain_epochs=1),
                              tiny_split())
        assert len(result.history) == 2  # one pre-train and one training epoch


def gate_record(run_dir: Path) -> dict[int, list[dict]]:
    """The rows of each ``gate_record`` file of a run, by global epoch."""
    record = {}
    for path in sorted((run_dir / "gate_record").glob("epoch_*.csv")):
        with open(path, newline="") as fh:
            record[int(path.stem.split("_")[1])] = list(csv.DictReader(fh))
    return record


class TestGateRecord:
    # per mode: the roles whose gate training uses, and whether that gate has the score clause
    MODES = {"full": (("inlier", "outlier"), True), "no_its": (("outlier",), True),
             "no_k1_its": (("inlier",), False), "no_k1_ots": (("outlier",), False),
             "one_f_two_c": (("inlier", "outlier"), True), "supervised_only": ((), False)}

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_rows_add_up_to_the_epoch_records(self, mode, tmp_path):
        roles, clause = self.MODES[mode]
        split, steps = tiny_split(), {}  # global epoch -> the reports of its steps
        result = run_training(tiny_config(mode, dump_scores=True), split, out_dir=tmp_path,
                              step_callback=lambda state, rep: steps.setdefault(state.global_epoch, []).append(rep))
        record = gate_record(tmp_path)
        train = [entry for entry in result.history if entry["phase"] == "train"]
        # supervised_only draws no unlabeled row, so it writes no file
        assert sorted(record) == ([entry["global_epoch"] for entry in train] if roles else [])
        columns = ["index", "step", "score"]
        for role in roles:
            columns += [f"gate_{role}", *[f"clause_{role}"] * clause, f"pseudo_{role}"]
        for entry in train if roles else ():
            rows, reports = record[entry["global_epoch"]], steps[entry["global_epoch"]]
            assert list(rows[0]) == [*columns, "is_unseen"]
            assert len(rows) == sum(rep.batch_unlabeled for rep in reports)
            assert [int(r["step"]) for r in rows] == [i for i, rep in enumerate(reports)
                                                      for _ in range(rep.batch_unlabeled)]
            index = np.array([int(r["index"]) for r in rows])
            assert index.min() >= 0 and index.max() < len(split.unlabeled_x)
            assert [int(r["is_unseen"]) for r in rows] == split.unlabeled_is_unseen[index].astype(int).tolist()
            for role, field in (("inlier", "pass_count_in"), ("outlier", "pass_count_out")):
                if role in roles:  # the record's count is the mean of its steps' counts
                    assert sum(int(r[f"gate_{role}"]) for r in rows) / len(reports) == entry[field]

    @pytest.mark.parametrize("exclude", (False, True))
    @pytest.mark.parametrize("mode", ("full", "no_its", "one_f_two_c"))
    def test_gate_is_the_threshold_and_the_score_clause(self, mode, exclude, tmp_path, monkeypatch):
        # at tau = 0.3 < 1/K every row clears the threshold, so each clause 0 is a row the score
        # clause turns away; the spy keeps each drawn step's teacher probabilities
        drawn, draw = [], trainer._draw_step
        monkeypatch.setattr(trainer, "_draw_step", lambda state, batch: drawn.append(draw(state, batch)) or drawn[-1])
        split = tiny_split()
        run_training(tiny_config(mode, dump_scores=True, tau=0.3, exclude_k1_pseudo=exclude), split, out_dir=tmp_path)
        rows = [row for epoch in gate_record(tmp_path).values() for row in epoch]
        steps = [step for step in drawn if step.scores is not None]
        scores = np.concatenate([step.scores for step in steps])
        assert np.array_equal([float(r["score"]) for r in rows], scores)
        for role in self.MODES[mode][0]:
            gate, clause, pseudo = (np.array([int(r[f"{c}_{role}"]) for r in rows]) for c in ("gate", "clause", "pseudo"))
            max_conf = class_max(np.concatenate([step.targets[role][2] for step in steps], axis=1))
            assert np.array_equal(clause, max_conf > scores)
            expected = (max_conf > 0.3) & (clause == 1)
            if role == "outlier" and exclude:
                expected &= pseudo != split.K + 1
            assert np.array_equal(gate, expected)
            assert not clause.all()
