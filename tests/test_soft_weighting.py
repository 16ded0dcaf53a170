"""The uncertainty score and the reliability gate against their scalar oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dts_ssl.errors import ShapeError
from dts_ssl.models import BackboneSpec, init_teacher
from dts_ssl.numerics import softmax
from dts_ssl.soft_weighting import gate_mask, scores_from_probs


def simplex_with_max(max_p, K):
    """K-simplex whose largest component is max_p (rest spread evenly)."""
    rest = (1.0 - max_p) / (K - 1)
    return np.array([max_p] + [rest] * (K - 1))


def simplex_with_last(last, K1):
    rest = (1.0 - last) / (K1 - 1)
    return np.array([rest] * (K1 - 1) + [last])


def score_one(p_its, p_ots, gamma):
    """scores_from_probs on a batch of one sample (class-major: one column)."""
    return scores_from_probs(p_its[:, None], p_ots[:, None], gamma)[0]


class TestUncertaintyScore:
    def test_fully_confident_seen_scores_zero(self):
        assert score_one(np.array([1.0, 0.0]), np.array([0.5, 0.5, 0.0]), gamma=0.5) == 0.0

    def test_gamma_one_ignores_extra_class_head(self):
        p_its = simplex_with_max(0.7, 3)
        for last in (0.0, 0.5, 1.0):
            assert score_one(p_its, simplex_with_last(last, 4), gamma=1.0) == pytest.approx(1.0 - 0.7)

    def test_gamma_zero_is_extra_class_probability(self):
        p_ots = simplex_with_last(0.37, 4)
        assert score_one(simplex_with_max(0.9, 3), p_ots, gamma=0.0) == pytest.approx(0.37)

    def test_uniform_predictions_closed_form(self):
        # K=6: gamma/2 * (1 - 1/6) + 1/2 * (1/7) = 41/84
        value = score_one(np.full(6, 1.0 / 6.0), np.full(7, 1.0 / 7.0), gamma=0.5)
        expected = 0.5 * (5.0 / 6.0) + 0.5 * (1.0 / 7.0)
        assert expected == pytest.approx(41.0 / 84.0, abs=1e-15)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.488095, abs=1e-6)

    def test_blend_of_its_two_components(self):
        value = score_one(simplex_with_max(0.8, 4), simplex_with_last(0.3, 5), gamma=0.25)
        assert value == pytest.approx(0.25 * 0.2 + 0.75 * 0.3)

    def test_misaligned_batches_raise(self):
        with pytest.raises(ShapeError):
            scores_from_probs(np.full((3, 2), 0.5), np.full((2, 3), 1 / 3), 0.5)

    @given(
        max_p=st.floats(min_value=0.34, max_value=1.0),
        last=st.floats(min_value=0.0, max_value=1.0),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_invariant(self, max_p, last, gamma):
        value = score_one(simplex_with_max(max_p, 3), simplex_with_last(last, 4), gamma)
        assert -1e-12 <= value <= 1.0 + 1e-12

    def test_monotonicity(self):
        gamma = 0.6
        p_ots = simplex_with_last(0.4, 4)
        values = scores_from_probs(
            np.stack([simplex_with_max(m, 3) for m in (0.4, 0.6, 0.8, 0.99)], axis=1),
            np.tile(p_ots[:, None], (1, 4)), gamma,
        )
        assert all(a > b for a, b in zip(values, values[1:]))
        p_its = simplex_with_max(0.7, 3)
        values = scores_from_probs(
            np.tile(p_its[:, None], (1, 4)),
            np.stack([simplex_with_last(l, 4) for l in (0.0, 0.3, 0.6, 0.9)], axis=1), gamma,
        )
        assert all(a < b for a, b in zip(values, values[1:]))


class TestScoresFromProbs:
    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        K = 4
        p_in = softmax(rng.normal(size=(20, K)).T)
        p_out = softmax(rng.normal(size=(20, K + 1)).T)
        for gamma in (0.0, 0.3, 0.5, 1.0):
            vec = scores_from_probs(p_in, p_out, gamma)
            expected = [oracles.score(p_in[:, i], p_out[:, i], gamma) for i in range(20)]
            assert vec.tobytes() == np.array(expected).tobytes()


def gate_one(max_p, s, tau):
    return bool(gate_mask(np.array([max_p]), np.array([s]), tau)[0])


class TestReliabilityGate:
    def test_pass_and_reject_cases(self):
        assert gate_one(0.9, 0.3, tau=0.85)
        assert not gate_one(0.9, 0.95, tau=0.85)
        assert not gate_one(0.80, 0.1, tau=0.85)

    def test_ties_fail(self):
        assert not gate_one(0.85, 0.1, tau=0.85)
        assert not gate_one(0.9, 0.9, tau=0.85)

    def test_gate_soundness_exhaustive_grid(self):
        max_p, s = (g.ravel() for g in np.meshgrid(np.linspace(0.34, 1.0, 23), np.linspace(0.0, 1.0, 21)))
        for tau in np.linspace(0.05, 0.95, 19):
            mask = gate_mask(max_p, s, tau)
            assert mask.tolist() == [oracles.gate(m, v, tau) for m, v in zip(max_p, s)]
            assert np.all(max_p[mask] > np.maximum(tau, s[mask]))

    def test_vectorized_gate_matches_scalar(self):
        rng = np.random.default_rng(0)
        max_conf = rng.uniform(0.34, 1.0, size=50)
        scores = rng.uniform(0.0, 1.0, size=50)
        max_conf[:5] = 0.85  # ties with tau
        scores[5:10] = max_conf[5:10]  # ties with the score
        mask = gate_mask(max_conf, scores, tau=0.85)
        assert mask.tolist() == [oracles.gate(max_conf[i], scores[i], 0.85) for i in range(50)]

    def test_without_score_only_tau_gates(self):
        max_conf = np.array([0.9, 0.9, 0.8])
        assert gate_mask(max_conf, np.array([0.95, 0.1, 0.0]), 0.85, use_score=False).tolist() == [
            True, True, False,
        ]

    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(2, 6),
        n=st.integers(1, 40),
        scale=st.floats(0.0, 30.0),
        gamma=st.floats(0.0, 1.0),
        above=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_score_clause_cannot_bind_above_the_bound(self, seed, K, n, scale, gamma, above):
        """The score is at most gamma (1 - m) + (1 - gamma), so with tau >= 1 / (1 + gamma) the
        K-way role's confidence m > tau already beats it: the gate is the threshold alone. In
        floating point tau keeps a relative 1e-12 above the bound, which covers the last-bit
        rounding of the bound and the score (at tau = fl(1 / (1 + gamma)) a confidence a few
        ulps above tau can fall below a rounded score)."""
        rng = np.random.default_rng(seed)
        p_its = softmax(scale * rng.standard_normal((K, n)))  # class-major teacher blocks
        p_ots = softmax(scale * rng.standard_normal((K + 1, n)))
        bound = 1.0 / (1.0 + gamma)
        tau = min(1.0, bound * (1.0 + 1e-12) + above * (1.0 - bound))
        max_conf, scores = p_its.max(axis=0), scores_from_probs(p_its, p_ots, gamma)
        with_score = gate_mask(max_conf, scores, tau, use_score=True)
        assert with_score.tolist() == gate_mask(max_conf, scores, tau, use_score=False).tolist()


SPEC = BackboneSpec(input_dim=4, hidden_widths=(6,), feature_dim=5)


def make_teachers(K=3, seed=0):
    t_in = init_teacher(SPEC, K, seed)
    t_out = init_teacher(SPEC, K, seed + 1)
    return t_in, t_out


class TestTeacherScores:
    """scores_from_probs on the outputs of real teachers."""

    def test_matches_per_example_oracle(self):
        """Batch scoring equals a per-sample loop over single-row teacher forwards."""
        t_in, t_out = make_teachers()
        views = np.random.default_rng(42).normal(size=(7, 4))
        got = scores_from_probs(t_in.probs(views, "k"), t_out.probs(views, "k1"), gamma=0.4)
        for i in range(7):
            p_its = t_in.probs(views[i : i + 1], "k")[:, 0]
            p_ots = t_out.probs(views[i : i + 1], "k1")[:, 0]
            # one row forwards through BLAS in another order than a batch
            assert got[i] == pytest.approx(oracles.score(p_its, p_ots, 0.4), abs=1e-12)

    def test_empty_batch(self):
        t_in, t_out = make_teachers()
        x = np.empty((0, 4))
        assert scores_from_probs(t_in.probs(x, "k"), t_out.probs(x, "k1"), 0.5).shape == (0,)

    def test_saturated_teachers_give_zero_scores(self):
        t_in, t_out = make_teachers()
        # huge first-logit bias saturates softmax exactly at a one-hot
        t_in.params["head_k.W"][:] = 0.0
        t_in.params["head_k.b"][:] = [2000.0, 0.0, 0.0]
        t_out.params["head_k1.W"][:] = 0.0
        t_out.params["head_k1.b"][:] = [2000.0, 0.0, 0.0, 0.0]
        x = np.zeros((4, 4))
        assert np.all(scores_from_probs(t_in.probs(x, "k"), t_out.probs(x, "k1"), 0.5) == 0.0)


def test_one_definition_per_quantity():
    """The score, the gate and the losses exist once, vectorised; no per-sample twins. The score
    dump's writer left with the rest of the file I/O: ``evaluation.write_per_sample`` writes it.
    A model's parameters stay in the vector it was built with: nothing moves them into another's
    (``rehome``, a method, so looked for on the class)."""
    import dts_ssl
    from dts_ssl import data, losses, models, soft_weighting

    removed = {
        soft_weighting: ("UncertaintyScore", "GateDecision", "SoftWeightedSet", "uncertainty_score",
                         "score_batch", "reliability_gate", "build_soft_weighted_set", "write_score_dump"),
        losses: ("cross_entropy", "kl_divergence", "seen_loss", "logit_match_loss", "unseen_loss",
                 "consistency_loss"),
        data: ("AugmentedView", "augment"),
        models: ("forward",),
        models.DualHeadModel: ("rehome",),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(dts_ssl, name), name
