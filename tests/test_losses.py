"""Loss values against closed forms, gradient checks, objective composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dts_ssl.errors import ShapeError, ValidationError
from dts_ssl.losses import (
    LossReport,
    _per_sample,
    ce_loss_and_grad,
    consistency_loss,
    consistency_loss_and_grad,
    cross_entropy,
    gated_ce_loss_and_grad,
    inlier_objective,
    kl_divergence,
    logit_match_loss,
    logit_match_loss_and_grad,
    outlier_objective,
    pretrain_objective,
    seen_loss,
    uniformity_loss_and_grad,
    unseen_loss,
    unseen_loss_and_grad,
)
from dts_ssl.numerics import softmax
from dts_ssl.soft_weighting import GateDecision, UncertaintyScore


def simplexes(length, min_p=1e-3):
    return (
        st.lists(st.floats(min_value=min_p, max_value=1.0), min_size=length, max_size=length)
        .map(lambda raw: np.array(raw) / np.sum(raw))
    )


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy(1, np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_closed_form(self):
        p = np.full(4, 0.25)
        for label in (1, 2, 3, 4):
            assert cross_entropy(label, p) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_zero_probability_clamped(self):
        value = cross_entropy(2, np.array([1.0, 0.0]))
        assert value == pytest.approx(-np.log(1e-12))
        assert value == pytest.approx(27.63, abs=0.01)
        assert np.isfinite(value)

    def test_one_hot_label_accepted(self):
        p = np.array([0.2, 0.5, 0.3])
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), p) == cross_entropy(2, p)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(4, np.array([0.5, 0.5]))


class TestKL:
    def test_identity_is_zero(self):
        p = np.array([0.3, 0.2, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_onehot_vs_uniform(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2))

    def test_closed_form_example(self):
        value = kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        expected = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.5108, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))

    @given(simplexes(4), simplexes(4))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, p, q):
        assert kl_divergence(p, q) >= -1e-12


class TestSeenLoss:
    def test_all_rejected_is_zero(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        assert seen_loss([1, 2], probs, [False, False], mu_B=2) == 0.0

    def test_single_passer_example(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        value = seen_loss([1, 2], probs, [True, False], mu_B=2)
        assert value == pytest.approx(-np.log(0.7) / 2)
        assert value == pytest.approx(0.1783, abs=1e-4)

    def test_one_hot_students_are_free(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert seen_loss([1, 2], probs, [True, True], mu_B=2) == 0.0

    def test_misaligned_gates(self):
        with pytest.raises(ShapeError):
            seen_loss([1], np.array([[0.5, 0.5]]), [True, False], mu_B=1)


class TestLogitMatchLoss:
    def test_equal_distributions_zero(self):
        p = np.array([[0.6, 0.4]])
        assert logit_match_loss(p, p, [True], mu_B=1) == 0.0

    def test_all_rejected_zero(self):
        assert logit_match_loss(np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]), [False], 1) == 0.0

    def test_single_passer_value(self):
        value = logit_match_loss(
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[0.9, 0.1], [0.9, 0.1]]),
            [True, False],
            mu_B=2,
        )
        assert value == pytest.approx(kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1])) / 2)
        assert value == pytest.approx(0.2554, abs=1e-4)


class TestUnseenLoss:
    def test_zero_scores(self):
        probs = np.array([[0.2, 0.3, 0.5]])
        assert unseen_loss(probs, [0.0], mu_B=1, K=2) == 0.0

    def test_confident_extra_class_is_free(self):
        probs = np.array([[0.0, 0.0, 1.0]])
        assert unseen_loss(probs, [0.9], mu_B=1, K=2) == 0.0

    def test_weighted_value(self):
        probs = np.array([[0.25, 0.25, 0.5]])
        value = unseen_loss(probs, [0.4], mu_B=1, K=2)
        assert value == pytest.approx(0.4 * np.log(2))
        assert value == pytest.approx(0.2773, abs=1e-4)

    def test_linearity_in_score(self):
        probs = np.array([[0.3, 0.3, 0.4]])
        v1 = unseen_loss(probs, [0.2], mu_B=1, K=2)
        v2 = unseen_loss(probs, [0.4], mu_B=1, K=2)
        assert v2 == pytest.approx(2 * v1)

    def test_width_checked(self):
        with pytest.raises(ShapeError):
            unseen_loss(np.array([[0.5, 0.5]]), [0.5], mu_B=1, K=2)


class TestPerSampleInputs:
    """Gates and scores arrive as arrays (the trainer) or as per-sample objects/lists."""

    def batch(self, n=6, width=4, seed=0):
        rng = np.random.default_rng(seed)
        gates = rng.random(n) < 0.5
        scores = rng.random(n)
        return rng.normal(size=(n, width)), rng.integers(1, width + 1, size=n), gates, scores

    def test_misaligned_arrays_raise(self):
        z, labels, gates, scores = self.batch()
        for bad in (gates[:-1], np.ones((6, 1), dtype=bool), np.array(True)):
            with pytest.raises(ShapeError):
                gated_ce_loss_and_grad(labels, z, bad, 6)
            with pytest.raises(ShapeError):
                logit_match_loss_and_grad(z, softmax(z), bad, 6)
            with pytest.raises(ShapeError):
                uniformity_loss_and_grad(z, bad, 6)
        for bad in (np.r_[scores, 0.5], scores[:, None], np.array(0.5)):
            with pytest.raises(ShapeError):
                unseen_loss_and_grad(z, bad, 6)

    def test_gate_objects_and_lists_match_arrays(self):
        z, labels, gates, _ = self.batch()
        decisions = [GateDecision(passed=bool(g), max_its=0.9, score=0.1, tau=0.85) for g in gates]
        variants = [gates, gates.astype(np.float64), decisions, gates.tolist(), [int(g) for g in gates]]
        ref_ce = gated_ce_loss_and_grad(labels, z, gates, 6)
        ref_lm = logit_match_loss_and_grad(z, softmax(z[::-1]), gates, 6)
        ref_uni = uniformity_loss_and_grad(z, gates, 6)
        for v in variants:
            assert np.array_equal(_per_sample(v, 6), gates.astype(np.float64))
            for ref, got in ((ref_ce, gated_ce_loss_and_grad(labels, z, v, 6)),
                             (ref_lm, logit_match_loss_and_grad(z, softmax(z[::-1]), v, 6)),
                             (ref_uni, uniformity_loss_and_grad(z, v, 6))):
                assert got[0] == ref[0]
                assert got[1].tobytes() == ref[1].tobytes()

    def test_score_objects_and_lists_match_arrays(self):
        z, _, _, scores = self.batch(width=5)
        objects = [UncertaintyScore(value=float(s), one_minus_max_its=0.0, ots_last=0.0, gamma=0.5)
                   for s in scores]
        ref_value, ref_grad = unseen_loss_and_grad(z, scores, 6)
        for v in (objects, scores.tolist()):
            assert np.array_equal(_per_sample(v, 6, "value"), scores)
            value, grad = unseen_loss_and_grad(z, v, 6)
            assert value == ref_value and grad.tobytes() == ref_grad.tobytes()


class TestConsistencyLoss:
    def test_identical_views_zero(self):
        p = np.array([[0.4, 0.6]])
        assert consistency_loss(p, p, mu_B=1) == 0.0

    def test_value_and_asymmetry(self):
        wa = np.array([[1.0, 0.0]])
        sa = np.array([[0.5, 0.5]])
        forward_value = consistency_loss(wa, sa, mu_B=1)
        assert forward_value == pytest.approx(np.log(2))
        backward_value = consistency_loss(sa, wa, mu_B=1)
        assert backward_value != pytest.approx(forward_value)


class TestObjectives:
    def test_inlier_arithmetic(self):
        assert inlier_objective(1.0, 0.4, 0.2, (0.25, 0.25)) == pytest.approx(1.15)
        assert inlier_objective(0.0, 0.0, 0.0, (0.25, 0.25)) == 0.0
        assert inlier_objective(0.37, 9.0, 9.0, (0.0, 0.0)) == pytest.approx(0.37)

    def test_outlier_arithmetic(self):
        assert outlier_objective(1.0, 0.4, 0.5, 0.2, (0.25, 0.1, 0.3)) == pytest.approx(1.21)
        assert outlier_objective(0.0, 0.0, 0.0, 0.0, (0.25, 0.1, 0.3)) == 0.0

    def test_pretrain_sum(self):
        assert pretrain_objective(0.5, 0.7) == pytest.approx(1.2)
        assert pretrain_objective(0.0, 0.0) == 0.0

    def test_loss_report_totals_recompute(self):
        report = LossReport(
            ce_k=0.8, ce_k1=1.1, seen_in=0.2, seen_out=0.3, logit_match=0.15,
            unseen=0.4, consistency=0.25,
        )
        lam = (0.25, 0.25, 0.1, 0.3)
        inlier, outlier, pre = report.recompute_totals(*lam)
        report.inlier_total, report.outlier_total, report.pretrain_total = inlier, outlier, pre
        again = report.recompute_totals(*lam)
        assert (report.inlier_total, report.outlier_total, report.pretrain_total) == again
        assert inlier == pytest.approx(0.8 + 0.25 * 0.2 + 0.25 * 0.15)
        assert outlier == pytest.approx(1.1 + 0.25 * 0.3 + 0.1 * 0.4 + 0.3 * 0.25)


def central_difference(fn, z, eps=1e-5):
    grad = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        z[idx] += eps
        up = fn()
        z[idx] -= 2 * eps
        down = fn()
        z[idx] += eps
        grad[idx] = (up - down) / (2 * eps)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.abs(numeric), 1e-3)
    assert np.max(np.abs(analytic - numeric) / denom) < rel


class TestLogitGradients:
    """Analytic gradients of every batch loss vs central finite differences."""

    rng = np.random.default_rng(20240)

    def test_cross_entropy_gradient(self):
        z = self.rng.normal(size=(3, 2))
        y = np.array([1, 2, 1])
        value, grad = ce_loss_and_grad(y, z)
        numeric = central_difference(lambda: ce_loss_and_grad(y, z)[0], z)
        assert_grad_close(grad, numeric)

    def test_gated_ce_gradient(self):
        z = self.rng.normal(size=(3, 2))
        gates = np.array([True, False, True])
        value, grad = gated_ce_loss_and_grad(np.array([2, 1, 1]), z, gates, mu_B=3)
        numeric = central_difference(lambda: gated_ce_loss_and_grad(np.array([2, 1, 1]), z, gates, 3)[0], z)
        assert_grad_close(grad, numeric)
        assert np.all(grad[1] == 0.0)

    def test_logit_match_gradient(self):
        z = self.rng.normal(size=(3, 2))
        teacher = softmax(self.rng.normal(size=(3, 2)))
        gates = np.array([True, True, False])
        _, grad = logit_match_loss_and_grad(z, teacher, gates, mu_B=3)
        numeric = central_difference(lambda: logit_match_loss_and_grad(z, teacher, gates, 3)[0], z)
        assert_grad_close(grad, numeric)

    def test_unseen_gradient(self):
        z = self.rng.normal(size=(3, 3))
        s = np.array([0.2, 0.0, 0.9])
        _, grad = unseen_loss_and_grad(z, s, mu_B=3)
        numeric = central_difference(lambda: unseen_loss_and_grad(z, s, 3)[0], z)
        assert_grad_close(grad, numeric)
        assert np.all(grad[1] == 0.0)

    def test_consistency_gradients_both_views(self):
        zw = self.rng.normal(size=(3, 2))
        zs = self.rng.normal(size=(3, 2))
        _, d_weak, d_strong = consistency_loss_and_grad(zw, zs, mu_B=3)
        numeric_w = central_difference(lambda: consistency_loss_and_grad(zw, zs, 3)[0], zw)
        numeric_s = central_difference(lambda: consistency_loss_and_grad(zw, zs, 3)[0], zs)
        assert_grad_close(d_weak, numeric_w)
        assert_grad_close(d_strong, numeric_s)

    def test_uniformity_gradient(self):
        z = self.rng.normal(size=(3, 4))
        mask = np.array([1.0, 0.0, 1.0])
        _, grad = uniformity_loss_and_grad(z, mask, mu_B=3)
        numeric = central_difference(lambda: uniformity_loss_and_grad(z, mask, 3)[0], z)
        assert_grad_close(grad, numeric)

    def test_values_match_prob_level_ops(self):
        """The *_and_grad values agree with the probability-level operations."""
        z = self.rng.normal(size=(4, 3))
        probs = softmax(z)
        y = np.array([1, 3, 2, 2])
        gates = np.array([True, False, True, True])
        scores = np.array([0.1, 0.5, 0.0, 0.7])

        assert ce_loss_and_grad(y, z)[0] == pytest.approx(
            np.mean([cross_entropy(int(label), p) for label, p in zip(y, probs)])
        )
        assert gated_ce_loss_and_grad(y, z, gates, 4)[0] == pytest.approx(
            seen_loss(y, probs, gates, 4)
        )
        teacher = softmax(self.rng.normal(size=(4, 3)))
        assert logit_match_loss_and_grad(z, teacher, gates, 4)[0] == pytest.approx(
            logit_match_loss(probs, teacher, gates, 4)
        )
        assert unseen_loss_and_grad(z, scores, 4)[0] == pytest.approx(
            unseen_loss(probs, scores, 4, K=2)
        )
        z2 = self.rng.normal(size=(4, 3))
        assert consistency_loss_and_grad(z, z2, 4)[0] == pytest.approx(
            consistency_loss(probs, softmax(z2), 4)
        )


@given(simplexes(3), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_component_losses_nonnegative(p, s):
    probs = p[None, :]
    assert seen_loss([1], probs, [True], 1) >= 0
    assert unseen_loss(probs, [s], 1, K=2) >= 0
    assert consistency_loss(probs, probs, 1) >= 0


def one_hot_ce_grad(labels, z, row_weight, denom):
    """The CE logit gradient written with a one-hot matrix: (p - onehot) * w * live / denom."""
    probs = softmax(z)
    labels = np.asarray(labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels - 1] = 1.0
    live = (probs[np.arange(len(labels)), labels - 1] > 1e-12).astype(np.float64)
    return (probs - onehot) * (row_weight * live)[:, None] / denom


class TestCEGradientOracle:
    """The CE gradients subtract 1.0 at the labels of a copy of probs; no one-hot matrix."""

    @staticmethod
    def batch(width, n=400, seed=0):
        rng = np.random.default_rng(seed + width)
        z = rng.normal(scale=rng.choice([0.5, 5.0], size=(n, 1)), size=(n, width))
        labels = rng.integers(1, width + 1, size=n)
        # rows whose labeled probability sits below the clamp floor (zero gradient)
        rows = np.arange(0, n, 5)
        z[rows] = 0.0
        z[rows, labels[rows] % width] = 60.0  # a column other than the label's
        return labels, z

    @pytest.mark.parametrize("width", range(2, 8))
    def test_ce_bit_equal_to_one_hot_formula(self, width):
        labels, z = self.batch(width)
        value, d = ce_loss_and_grad(labels, z)
        expected = one_hot_ce_grad(labels, z, np.ones(len(labels)), len(labels))
        assert d.tobytes() == expected.tobytes()
        assert np.all(d[::5] == 0.0)  # the clamped rows really are in the batch
        _, d_denom = ce_loss_and_grad(labels, z, denom=1000)
        assert d_denom.tobytes() == one_hot_ce_grad(labels, z, np.ones(len(labels)), 1000).tobytes()

    @pytest.mark.parametrize("width", range(2, 8))
    def test_gated_ce_bit_equal_to_one_hot_formula(self, width):
        labels, z = self.batch(width, seed=1)
        gates = np.random.default_rng(width).random(len(labels)) < 0.6
        value, d = gated_ce_loss_and_grad(labels, z, gates, 512)
        expected = one_hot_ce_grad(labels, z, gates.astype(np.float64), 512)
        assert d.tobytes() == expected.tobytes()

    def test_inputs_untouched_and_labels_still_checked(self):
        labels, z = self.batch(4)
        z_before = z.copy()
        ce_loss_and_grad(labels, z)
        assert z.tobytes() == z_before.tobytes()
        with pytest.raises(ValidationError):
            ce_loss_and_grad(np.full(len(z), 5), z)
        with pytest.raises(ValidationError):
            gated_ce_loss_and_grad(np.zeros(len(z), dtype=int), z, np.ones(len(z)), 8)
