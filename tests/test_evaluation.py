"""Prediction, accuracy, AUROC vs the pairwise oracle, full inference, and the per-sample CSVs."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dts_ssl.errors import ShapeError, UndefinedMetricError, ValidationError
from dts_ssl.evaluation import (
    _midranks,
    compute_accuracy,
    compute_auroc,
    predict_labels,
    score_histogram,
    write_per_sample,
)
from dts_ssl.models import BackboneSpec, init_teacher
from dts_ssl.soft_weighting import scores_from_probs
from dts_ssl.trainer import run_inference


def pairwise_auroc_oracle(scores, flags):
    """O(n^2) definition: fraction of (unseen, seen) pairs ordered correctly, ties 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    pos = scores[flags]
    neg = scores[~flags]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestPredictLabels:
    def make_model(self, K=3):
        model = init_teacher(BackboneSpec(input_dim=2, hidden_widths=(4,), feature_dim=3), K, 0)
        return model

    def test_argmax_semantics(self):
        model = self.make_model()
        # identity-ish head: craft probabilities via bias-only heads
        model.params["head_k.W"][:] = 0.0
        model.params["head_k.b"][:] = [0.1, 0.7, 0.2]
        preds = predict_labels(model, np.zeros((1, 2)))
        assert preds.tolist() == [2]

    def test_tie_breaks_to_lowest_class(self):
        model = self.make_model()
        model.params["head_k.W"][:] = 0.0
        model.params["head_k.b"][:] = [0.5, 0.5, 0.0]
        assert predict_labels(model, np.zeros((1, 2))).tolist() == [1]

    def test_batched_equals_single(self):
        model = self.make_model()
        x = np.random.default_rng(0).normal(size=(5, 2))
        batched = predict_labels(model, x)
        singles = [predict_labels(model, x[i : i + 1])[0] for i in range(5)]
        assert batched.tolist() == singles


class TestComputeAccuracy:
    def test_all_correct(self):
        assert compute_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half_correct(self):
        assert compute_accuracy([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_two_thirds(self):
        assert compute_accuracy([1, 2, 3], [1, 2, 1]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_accuracy([], [])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(1, 4, size=50)
        labels = rng.integers(1, 4, size=50)
        base = compute_accuracy(preds, labels)
        perm = rng.permutation(50)
        assert compute_accuracy(preds[perm], labels[perm]) == base


def tied_scores(n, levels, seed):
    """n scores on levels + 1 distinct values in [0, 1] (few levels force heavy ties),
    with both classes present."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels + 1, size=n) / levels
    flags = rng.random(n) < 0.5
    if flags.all() or (~flags).all():
        flags[0] = not flags[0]
    return scores, flags


# strictly increasing on [0, 1], and far from merging levels 1/50 apart
INCREASING = [
    lambda s: np.exp(3 * s),
    lambda s: s**3 + 7,
    lambda s: 2 * s - 5,
    np.arctan,
]


class TestComputeAuroc:
    def test_perfect_separation(self):
        assert compute_auroc([0.9, 0.8, 0.3, 0.1], [True, True, False, False]) == 1.0

    def test_all_ties_is_half(self):
        assert compute_auroc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5

    def test_worked_example(self):
        # pairs: (0.9,0.2)+, (0.9,0.4)+, (0.3,0.2)+, (0.3,0.4)- -> 3/4
        value = compute_auroc([0.9, 0.2, 0.3, 0.4], [True, False, True, False])
        assert value == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            compute_auroc([0.1, 0.2], [True, True])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_undefined(self, bad):
        with pytest.raises(UndefinedMetricError, match="2 non-finite"):
            compute_auroc([bad, 0.1, 0.2, bad], [True, False, True, False])
        with pytest.raises(UndefinedMetricError, match="1 non-finite"):
            compute_auroc([0.9, 0.1, 0.2, bad], [True, False, True, False])

    @given(
        n=st.integers(min_value=2, max_value=60),
        levels=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_pairwise_oracle(self, n, levels, seed):
        scores, flags = tied_scores(n, levels, seed)
        assert compute_auroc(scores, flags) == pairwise_auroc_oracle(scores, flags)

    @given(
        n=st.integers(min_value=2, max_value=60),
        levels=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
        transform=st.sampled_from(INCREASING),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_monotone_transform(self, n, levels, seed, transform):
        scores, flags = tied_scores(n, levels, seed)
        assert compute_auroc(transform(scores), flags) == compute_auroc(scores, flags)

    @given(
        n=st.integers(min_value=2, max_value=60),
        levels=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_negated_scores_give_one_minus_auroc(self, n, levels, seed):
        scores, flags = tied_scores(n, levels, seed)
        assert compute_auroc(-scores, flags) == pytest.approx(1.0 - compute_auroc(scores, flags), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        scores = rng.random(30)
        flags = rng.random(30) < 0.5
        flags[0], flags[1] = True, False
        perm = rng.permutation(30)
        assert compute_auroc(scores[perm], flags[perm]) == compute_auroc(scores, flags)


def loop_midranks(values):
    """Reference midranks: one Python iteration per tie group."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(len(values), dtype=np.float64)
    boundaries = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1], True])
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        ranks[order[lo:hi]] = 0.5 * (lo + hi + 1)  # positions lo+1..hi, averaged
    return ranks


class TestMidranks:
    def random_vectors(self, count, seed, tie_heavy):
        rng = np.random.default_rng(seed)
        # log-uniform lengths cover 1..3000 without making the loop oracle slow
        lengths = np.exp(rng.uniform(0.0, np.log(3000.0), size=count)).astype(int)
        lengths[:3] = (1, 2, 3000)
        for n in lengths:
            if tie_heavy:
                yield rng.integers(0, rng.integers(1, 8), size=n).astype(np.float64)
            else:
                yield rng.permutation(n) + rng.random() / 2

    @pytest.mark.parametrize("tie_heavy", [True, False])
    def test_equals_loop_oracle(self, tie_heavy):
        for values in self.random_vectors(1000, seed=int(tie_heavy), tie_heavy=tie_heavy):
            assert np.array_equal(_midranks(values), loop_midranks(values))

    def test_nan_groups_match_loop_oracle(self):
        values = np.array([0.5, np.nan, 0.5, 0.1, np.nan, 0.9])
        assert np.array_equal(_midranks(values), loop_midranks(values), equal_nan=True)

    def test_benchmark_size_heavy_ties_equal_exact_pair_count(self):
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 5, size=2000) / 4.0
        flags = rng.random(2000) < 0.5
        pos, neg = scores[flags], scores[~flags]
        greater = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        assert ties > 0
        exact = (2 * greater + ties) / (2 * len(pos) * len(neg))
        assert compute_auroc(scores, flags) == exact


class TestRunInference:
    def make_students(self, K=4, dim=6, seed=0):
        spec = BackboneSpec(input_dim=dim, hidden_widths=(8,), feature_dim=6)
        s_in = init_teacher(spec, K, seed)
        s_out = init_teacher(spec, K, seed + 1)
        return s_in, s_out

    def test_untrained_models_near_chance(self):
        K, dim, n = 4, 6, 1000
        s_in, s_out = self.make_students(K, dim)
        rng = np.random.default_rng(0)
        # structureless data: random inputs with balanced random labels
        test_x = rng.normal(size=(n, dim))
        test_y = np.tile(np.arange(1, K + 1), n // K)
        unl_x = rng.normal(size=(n, dim))
        flags = np.tile([True, False], n // 2)
        result = run_inference(s_in, s_out, test_x, test_y, unl_x, flags, gamma=0.5)
        assert abs(result.accuracy - 1 / K) < 0.1
        assert abs(result.auroc - 0.5) < 0.1

    def test_per_class_accuracy_averages_to_overall(self):
        s_in, s_out = self.make_students()
        rng = np.random.default_rng(1)
        test_x = rng.normal(size=(60, 6))
        test_y = rng.integers(1, 5, size=60)
        result = run_inference(s_in, s_out, test_x, test_y, rng.normal(size=(40, 6)),
                               np.tile([True, False], 20), gamma=0.5)
        weighted = sum(
            result.per_class_accuracy[c] * np.sum(test_y == c) for c in result.per_class_accuracy
        ) / len(test_y)
        assert weighted == pytest.approx(result.accuracy, abs=1e-12)

    def test_composes_from_standalone_metrics(self):
        s_in, s_out = self.make_students()
        rng = np.random.default_rng(2)
        test_x = rng.normal(size=(30, 6))
        test_y = rng.integers(1, 5, size=30)
        unl_x = rng.normal(size=(50, 6))
        flags = rng.random(50) < 0.5
        flags[0], flags[1] = True, False
        result = run_inference(s_in, s_out, test_x, test_y, unl_x, flags, gamma=0.5)
        assert result.accuracy == compute_accuracy(predict_labels(s_in, test_x), test_y)
        scores = scores_from_probs(s_in.probs(unl_x, head="k"), s_out.probs(unl_x, head="k1"), 0.5)
        assert result.auroc == compute_auroc(scores, flags)

    def test_repeated_calls_identical(self):
        s_in, s_out = self.make_students()
        rng = np.random.default_rng(3)
        args = (
            rng.normal(size=(20, 6)),
            rng.integers(1, 5, size=20),
            rng.normal(size=(30, 6)),
            np.tile([True, False], 15),
        )
        a = run_inference(s_in, s_out, *args, gamma=0.5)
        b = run_inference(s_in, s_out, *args, gamma=0.5)
        assert a.accuracy == b.accuracy and a.auroc == b.auroc

    def test_empty_inputs_rejected(self):
        s_in, s_out = self.make_students()
        with pytest.raises(ValidationError):
            run_inference(s_in, s_out, np.zeros((0, 6)), np.zeros(0), np.zeros((3, 6)),
                          np.array([True, False, True]), gamma=0.5)


def test_score_histogram_counts():
    scores = np.array([0.01, 0.5, 0.99, 0.5])
    flags = np.array([False, False, True, True])
    hist = score_histogram(scores, flags, bins=2)
    assert hist.bin_edges == [0.0, 0.5, 1.0]
    assert sum(hist.seen_counts) == 2
    assert sum(hist.unseen_counts) == 2


def test_per_sample_roundtrip(tmp_path):
    # the hidden flag of each row is looked up by its index; booleans are written as 0/1
    flags = np.zeros(10, dtype=bool)
    flags[[4, 9]] = True
    path = tmp_path / "view" / "scores.csv"
    write_per_sample(path, [4, 2, 9], {"score": [0.25, 0.5, 1.0 / 3.0], "gate": np.array([True, False, True])},
                     flags)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["index", "score", "gate", "is_unseen"]
    assert [int(r["index"]) for r in rows] == [4, 2, 9]
    assert [float(r["score"]) for r in rows] == [0.25, 0.5, 1.0 / 3.0]
    assert [int(r["gate"]) for r in rows] == [1, 0, 1]
    assert [int(r["is_unseen"]) for r in rows] == [1, 0, 1]


def test_per_sample_columns_must_align(tmp_path):
    with pytest.raises(ShapeError):
        write_per_sample(tmp_path / "scores.csv", [4, 2, 9], {"score": [0.25, 0.5]}, np.zeros(10, dtype=bool))
