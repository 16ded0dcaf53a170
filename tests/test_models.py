"""Model construction, forward/backward correctness, pair derivation, checkpoints."""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dts_ssl.errors import ShapeError, StateError, ValidationError
from dts_ssl.losses import ce_loss_and_grad
from dts_ssl.models import (
    BackboneSpec,
    DualHeadModel,
    derive_pair,
    init_teacher,
    load_model,
    param_hash,
    refresh_teacher,
    save_model,
)
from dts_ssl.numerics import softmax

SPEC = BackboneSpec(input_dim=5, hidden_widths=(8, 8), feature_dim=6, activation="tanh")


def make_teacher(K=6, seed=0, spec=SPEC, pretrained=True):
    teacher = init_teacher(spec, K, seed)
    teacher.pretrained = pretrained
    return teacher


class TestInitTeacher:
    def test_head_widths(self):
        model = make_teacher(K=6)
        x = np.random.default_rng(0).normal(size=(3, 5))
        assert model.probs(x, head="k").shape == (6, 3)  # class-major
        assert model.probs(x, head="k1").shape == (7, 3)

    def test_zeroed_heads_give_uniform_outputs(self):
        model = make_teacher(K=4)
        for name in ("head_k.W", "head_k.b", "head_k1.W", "head_k1.b"):
            model.params[name][:] = 0.0
        x = np.random.default_rng(1).normal(size=(2, 5))
        assert np.allclose(model.probs(x, "k"), 0.25)
        assert np.allclose(model.probs(x, "k1"), 0.2)

    def test_same_seed_identical(self):
        a, b = make_teacher(seed=9), make_teacher(seed=9)
        assert param_hash(a) == param_hash(b)

    @pytest.mark.parametrize("k1_projection, digest", [
        (False, "d2d140af648c0a33c2475f8bf408d74e2937df904be305d0d0f9779868ce7fdf"),
        (True, "0a9893300157aa19b01fdb7eb0b8f92e384d84fb297e0ff33ca167ab7c47ddff"),
    ])
    def test_draws_follow_the_layer_order(self, k1_projection, digest):
        # the layers are drawn from one generator in parameter order: backbone, head_k, proj, head_k1
        spec = dataclasses.replace(SPEC, k1_projection=k1_projection)
        assert param_hash(init_teacher(spec, 4, 0)) == digest

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            BackboneSpec(input_dim=0)
        with pytest.raises(ValidationError):
            BackboneSpec(input_dim=3, activation="swish")
        with pytest.raises(ValidationError):
            init_teacher(SPEC, K=1, seed=0)


class TestForward:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_simplex_outputs(self, seed):
        model = make_teacher(K=3)
        x = np.random.default_rng(seed).normal(scale=3.0, size=(4, 5))
        for head in ("k", "k1"):
            p = model.probs(x, head)
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-6)

    def test_batch_equals_per_example(self):
        model = make_teacher(K=4)
        x = np.random.default_rng(3).normal(size=(3, 5))
        batched = model.probs(x, "k")
        singles = np.hstack([model.probs(x[i : i + 1], "k") for i in range(3)])
        assert np.allclose(batched, singles, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        model = make_teacher()
        with pytest.raises(ShapeError):
            model.probs(np.zeros((2, 7)), "k")


class TestDerivePair:
    def test_requires_pretrained_flag(self):
        teacher = make_teacher(pretrained=False)
        with pytest.raises(StateError):
            derive_pair(teacher, "inlier")

    def test_teacher_student_identical_after_derivation(self):
        teacher = make_teacher()
        pair = derive_pair(teacher, "inlier")
        x = np.random.default_rng(0).normal(size=(6, 5))
        assert np.array_equal(pair.teacher.probs(x, "k"), pair.student.probs(x, "k"))

    def test_outlier_pair_outputs_k_plus_one(self):
        pair = derive_pair(make_teacher(K=4), "outlier")
        x = np.zeros((2, 5))
        assert pair.student.probs(x, "k1").shape == (5, 2)

    def test_single_head_models_reject_other_head(self):
        pair = derive_pair(make_teacher(), "inlier")
        with pytest.raises(StateError):
            pair.student.probs(np.zeros((1, 5)), "k1")

    def test_mutating_student_leaves_others_unchanged(self):
        teacher = make_teacher()
        inlier = derive_pair(teacher, "inlier")
        outlier = derive_pair(teacher, "outlier")
        hashes = [param_hash(m) for m in (teacher, inlier.teacher, outlier.teacher, outlier.student)]
        inlier.student.params["head_k.W"] += 1.0
        inlier.student.params["backbone.0.W"] += 1.0
        after = [param_hash(m) for m in (teacher, inlier.teacher, outlier.teacher, outlier.student)]
        assert hashes == after

    def test_architecture_equality_invariant(self):
        teacher = make_teacher()
        for kind in ("inlier", "outlier", "merged"):
            pair = derive_pair(teacher, kind)
            assert pair.teacher.spec == pair.student.spec


class TestParameterVector:
    """Each model keeps its parameters in one vector; ``params`` are views into it."""

    def models(self, tmp_path):
        teacher = make_teacher()
        pair = derive_pair(teacher, "outlier")
        pair.student.params["head_k1.b"] += 1.0
        refresh_teacher(pair)
        save_model({"outlier": pair.student}, tmp_path / "student.npz")
        return {"init_teacher": teacher, "derive_pair": pair.student, "refresh_teacher": pair.teacher,
                "load_model": load_model(tmp_path / "student.npz", "outlier")}

    def test_params_are_views_into_the_vector_in_order(self, tmp_path):
        models = self.models(tmp_path)
        for how, model in models.items():
            before = param_hash(model)
            assert model.flat.ndim == 1 and model.flat.flags.c_contiguous, how
            assert model.flat.size == sum(v.size for v in model.params.values()), how
            flat = model.flat.copy()
            model.flat[:] = np.arange(model.flat.size)
            at = 0
            for name, v in model.params.items():
                assert np.array_equal(v.ravel(), np.arange(at, at + v.size)), (how, name)
                at += v.size
            x = np.random.default_rng(5).normal(size=(7, model.spec.input_dim))
            rebuilt = DualHeadModel(model.spec, model.K, {k: v.copy() for k, v in model.params.items()},
                                    heads=model.heads)
            z, z_rebuilt = model.logits(x, model.heads)[0], rebuilt.logits(x, model.heads)[0]
            for h in model.heads:  # the next forward reads what was written: no derived weight state
                assert z[h].tobytes() == z_rebuilt[h].tobytes(), (how, h)
            model.flat[:] = flat
            assert param_hash(model) == before, how
        vectors = [m.flat for m in models.values()]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:])

    def test_gradient_views_follow_the_layout(self, tmp_path):
        for how, model in self.models(tmp_path).items():
            assert model.grad is None and model.grads is None, how  # none until the first backward
            z, cache = model.logits(np.random.default_rng(1).normal(size=(4, 5)), model.heads)
            model.backward(cache, {h: np.ones_like(z[h]) for h in model.heads})
            assert model.grad.shape == model.flat.shape and model.grad.flags.c_contiguous, how
            assert not np.shares_memory(model.grad, model.flat), how
            assert list(model.grads) == list(model.params), how
            model.grad[:] = np.arange(model.grad.size)
            at = 0
            for name, g in model.grads.items():
                assert np.shares_memory(g, model.grad) and g.shape == model.params[name].shape, (how, name)
                assert np.array_equal(g.ravel(), np.arange(at, at + g.size)), (how, name)
                at += g.size

    def test_copies_and_untrained_models_hold_no_gradient(self):
        pair = derive_pair(make_teacher(), "merged")
        z, cache = pair.student.logits(np.ones((2, 5)), ("k", "k1"))
        pair.student.backward(cache, {h: np.ones_like(v) for h, v in z.items()})
        assert pair.teacher.grad is None
        assert pickle.loads(pickle.dumps(pair.student)).grad is None


class TestRefreshTeacher:
    def test_refresh_copies_student(self):
        pair = derive_pair(make_teacher(), "inlier")
        pair.student.params["head_k.W"] += 0.5
        flat = pair.teacher.flat
        refresh_teacher(pair)
        assert pair.teacher.flat is flat  # written in place, so the views in ``params`` stay valid
        assert not np.shares_memory(pair.teacher.flat, pair.student.flat)
        x = np.random.default_rng(2).normal(size=(8, 5))
        assert np.max(np.abs(pair.teacher.probs(x, "k") - pair.student.probs(x, "k"))) == 0.0

    def test_refresh_idempotent(self):
        pair = derive_pair(make_teacher(), "outlier")
        pair.student.params["head_k1.b"] += 1.0
        refresh_teacher(pair)
        h1 = param_hash(pair.teacher)
        refresh_teacher(pair)
        assert param_hash(pair.teacher) == h1

    def test_teacher_differs_after_student_training_step(self):
        pair = derive_pair(make_teacher(K=3), "inlier")
        x = np.random.default_rng(1).normal(size=(4, 5))
        y = np.array([1, 2, 3, 1])
        z, cache = pair.student.logits(x, heads=("k",))
        _, d = ce_loss_and_grad(y, softmax(z["k"].T))
        grads = pair.student.backward(cache, {"k": np.ascontiguousarray(d.T)})
        for name, g in grads.items():
            pair.student.params[name] -= 0.1 * g
        before = pair.teacher.probs(x, "k")
        assert not np.allclose(before, pair.student.probs(x, "k"))
        refresh_teacher(pair)
        assert np.array_equal(pair.teacher.probs(x, "k"), pair.student.probs(x, "k"))


class TestGradients:
    def test_parameter_gradients_match_finite_differences(self):
        """Analytic CE gradients vs central differences on a probe of parameters."""
        model = make_teacher(K=3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        y = np.array([1, 3, 2, 1])

        def loss_value():
            z, _ = model.logits(x, heads=("k",))
            probs = softmax(z["k"].T)
            return float(np.mean([oracles.cross_entropy(int(y[i]), probs[:, i]) for i in range(4)]))

        z, cache = model.logits(x, heads=("k",))
        _, d = ce_loss_and_grad(y, softmax(z["k"].T))
        grads = model.backward(cache, {"k": np.ascontiguousarray(d.T)})

        eps = 1e-6
        probes = [
            ("backbone.0.W", (0, 0)),
            ("backbone.1.W", (3, 2)),
            ("backbone.2.W", (1, 4)),
            ("head_k.W", (2, 3)),
            ("head_k.b", (1,)),
        ]
        for name, idx in probes:
            original = model.params[name][idx]
            model.params[name][idx] = original + eps
            up = loss_value()
            model.params[name][idx] = original - eps
            down = loss_value()
            model.params[name][idx] = original
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            assert abs(numeric - analytic) <= 1e-4 * max(1.0, abs(numeric))

    @pytest.mark.parametrize("heads", [("k1",), ("k", "k1")])
    def test_relu_and_projection_backward(self, heads):
        """With both heads, their feature gradients add up on the backbone; the loss is their sum."""
        spec = BackboneSpec(5, (6,), 4, activation="relu", k1_projection=True)
        model = init_teacher(spec, 3, seed=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5)) + 0.1
        y = np.array([1, 2, 3])

        z, cache = model.logits(x, heads=heads)
        d_logits = {h: np.ascontiguousarray(ce_loss_and_grad(y, softmax(z[h].T))[1].T) for h in heads}
        grads = model.backward(cache, d_logits)
        assert {"proj.W", "proj.b"} <= set(grads)

        def loss_value():
            z2, _ = model.logits(x, heads=heads)
            return sum(ce_loss_and_grad(y, softmax(z2[h].T))[0] for h in heads)

        eps = 1e-6
        probes = [("proj.W", (1, 2)), ("head_k1.W", (0, 1)), ("backbone.0.W", (2, 2))]
        if "k" in heads:
            probes.append(("head_k.W", (2, 3)))
        for name, idx in probes:
            original = model.params[name][idx]
            model.params[name][idx] = original + eps
            up = loss_value()
            model.params[name][idx] = original - eps
            down = loss_value()
            model.params[name][idx] = original
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grads[name][idx]) <= 1e-4 * max(1.0, abs(numeric))


def zeros_then_accumulate_backward(model, cache, d_logits):
    """Reference backward: zero gradients for every key, accumulate, drop untouched heads."""
    acts, features = cache["acts"], cache["acts"][-1]  # per head, cache[h] holds its layers' inputs
    W = model.params
    grads = {k: np.zeros_like(v) for k, v in W.items()}
    d_feat = np.zeros_like(features)
    for h, dz in d_logits.items():
        if h == "k":
            grads["head_k.W"] += dz.T @ features
            grads["head_k.b"] += dz.sum(axis=0)
            d_feat += dz @ W["head_k.W"]
        elif model.spec.k1_projection:
            proj_a = cache["k1"][1]
            grads["head_k1.W"] += dz.T @ proj_a
            grads["head_k1.b"] += dz.sum(axis=0)
            d_proj_z = (dz @ W["head_k1.W"]) * model._act_grad(proj_a)
            grads["proj.W"] += d_proj_z.T @ features
            grads["proj.b"] += d_proj_z.sum(axis=0)
            d_feat += d_proj_z @ W["proj.W"]
        else:
            grads["head_k1.W"] += dz.T @ features
            grads["head_k1.b"] += dz.sum(axis=0)
            d_feat += dz @ W["head_k1.W"]
    d_a = d_feat
    for i in reversed(range(len(model.spec.layer_sizes) - 1)):
        dz = d_a * model._act_grad(acts[i + 1])
        grads[f"backbone.{i}.W"] += dz.T @ acts[i]
        grads[f"backbone.{i}.b"] += dz.sum(axis=0)
        d_a = dz @ W[f"backbone.{i}.W"]
    keep = {k for k in W if k.startswith("backbone.")}
    keep |= {f"head_{h}.{p}" for h in d_logits for p in "Wb"}
    if "k1" in d_logits and model.spec.k1_projection:
        keep |= {"proj.W", "proj.b"}
    return {k: g for k, g in grads.items() if k in keep}


class TestBackwardKeySet:
    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("heads", [("k",), ("k1",), ("k", "k1")])
    def test_returns_exactly_touched_keys_bit_equal_to_reference(self, heads, projection):
        spec = BackboneSpec(input_dim=5, hidden_widths=(8, 8), feature_dim=6,
                            activation="relu" if projection else "tanh", k1_projection=projection)
        model = make_teacher(K=4, seed=3, spec=spec)
        rng = np.random.default_rng(5)
        z, cache = model.logits(rng.normal(size=(7, 5)), heads=heads)
        d_logits = {h: rng.normal(size=z[h].shape) for h in heads}
        grads = model.backward(cache, d_logits)
        expected = zeros_then_accumulate_backward(model, cache, d_logits)
        assert list(grads) == list(expected)  # no entry for a head the loss did not reach
        for key, g in expected.items():
            assert grads[key].tobytes() == g.tobytes(), key


class TestGradientBuffer:
    """``backward`` writes into the model's one gradient vector, and with ``add`` adds to it."""

    @pytest.mark.parametrize("kind", [None, "inlier"])
    def test_added_passes_equal_the_sum_of_separate_results(self, kind):
        # the teacher with both heads and a projection, or a one-head inlier model: three passes,
        # the second and third added, give bit for bit (g1 + g2) + g3 of three separate results
        spec = BackboneSpec(5, (8, 8), 6, activation="relu", k1_projection=True)
        teacher = make_teacher(K=4, seed=3, spec=spec)
        model = teacher if kind is None else derive_pair(teacher, kind).student
        rng = np.random.default_rng(2)
        passes = []
        for rows in (7, 3, 11):
            z, cache = model.logits(rng.normal(size=(rows, 5)), model.heads)
            passes.append((cache, {h: rng.normal(size=v.shape) for h, v in z.items()}))
        separate = [{k: g.copy() for k, g in model.backward(*p).items()} for p in passes]
        assert all(list(g) == list(model.params) for g in separate)
        for i, p in enumerate(passes):
            returned = model.backward(*p, add=i > 0)
        expected = np.concatenate([((separate[0][k] + separate[1][k]) + separate[2][k]).ravel()
                                   for k in model.params])
        assert model.grad.tobytes() == expected.tobytes()
        assert all(returned[k] is model.grads[k] for k in model.params)

    @pytest.mark.parametrize("add", [False, True])
    def test_a_pass_on_one_head_leaves_the_other_heads_views(self, add):
        spec = BackboneSpec(5, (8,), 6, activation="tanh", k1_projection=True)
        model = make_teacher(K=4, seed=1, spec=spec)
        rng = np.random.default_rng(4)
        z, cache = model.logits(rng.normal(size=(6, 5)), ("k", "k1"))
        model.backward(cache, {h: rng.normal(size=v.shape) for h, v in z.items()})
        before = model.grad.copy()
        for head, other in (("k", ("proj", "head_k1")), ("k1", ("head_k",))):
            untouched = {k: model.grads[k].copy() for k in model.params if k.split(".")[0] in other}
            returned = model.backward(cache, {head: rng.normal(size=z[head].shape)}, add=add)
            assert set(returned).isdisjoint(untouched)
            for k, g in untouched.items():
                assert model.grads[k].tobytes() == g.tobytes(), (head, k)
        assert not np.array_equal(model.grad, before)


def out_of_place_logits(model, x, heads):
    """Reference forward: every bias add and activation allocates its result; each layer
    multiplies by a C-contiguous copy of ``W.T``."""
    act = np.tanh if model.spec.activation == "tanh" else (lambda z: np.maximum(z, 0.0))

    def linear(a, layer):
        return a @ np.ascontiguousarray(model.params[f"{layer}.W"].T) + model.params[f"{layer}.b"]

    acts, a = [x], x
    for i in range(len(model.spec.layer_sizes) - 1):
        a = act(linear(a, f"backbone.{i}"))
        acts.append(a)
    out, cache = {}, {"acts": acts}
    for h in heads:
        cache[h] = [a]
        if h == "k":
            out[h] = linear(a, "head_k")
        else:
            src = a
            if model.spec.k1_projection:
                src = act(linear(a, "proj"))
                cache[h].append(src)
            out[h] = linear(src, "head_k1")
    return out, cache


class TestInPlaceOracle:
    """The in-place forward and backward are bit-equal to the out-of-place formulas."""

    @pytest.mark.parametrize("rows", [7, 300])
    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("widths", [((16, 16), 8), ((64, 64), 32)])
    def test_logits_and_backward_bit_equal(self, widths, activation, projection, rows):
        hidden, feature = widths
        spec = BackboneSpec(16, hidden, feature, activation=activation, k1_projection=projection)
        model = make_teacher(K=4, seed=11, spec=spec)
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 16))
        x_before = x.copy()
        heads = ("k", "k1")
        z, cache = model.logits(x, heads=heads)
        z_ref, cache_ref = out_of_place_logits(model, x, heads)
        assert x.tobytes() == x_before.tobytes()
        for h in heads:
            assert z[h].tobytes() == z_ref[h].tobytes(), h
        assert list(cache) == list(cache_ref)
        for key, inputs in cache_ref.items():
            assert len(cache[key]) == len(inputs), key
            for a, a_ref in zip(cache[key], inputs):
                assert a.tobytes() == a_ref.tobytes(), key
        for head_set in (("k",), ("k1",), heads):
            d_logits = {h: rng.normal(size=z[h].shape) for h in head_set}
            d_before = {h: d.copy() for h, d in d_logits.items()}
            cache_before = {key: [a.copy() for a in inputs] for key, inputs in cache.items()}
            grads = model.backward(cache, d_logits)
            expected = zeros_then_accumulate_backward(model, cache_ref, d_logits)
            assert list(grads) == list(expected)
            for key, g in expected.items():
                assert grads[key].tobytes() == g.tobytes(), (head_set, key)
            for h in head_set:  # backward writes neither the loss gradients nor the cache
                assert d_logits[h].tobytes() == d_before[h].tobytes()
            for key, inputs in cache_before.items():
                for a, before in zip(cache[key], inputs):
                    assert a.tobytes() == before.tobytes(), key


class TestCheckpoints:
    @given(
        K=st.integers(min_value=2, max_value=6),
        hidden_widths=st.lists(st.integers(min_value=1, max_value=8), max_size=3),
        k1_projection=st.booleans(),
        kind=st.sampled_from([None, "inlier", "outlier", "merged"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_bit_exact(self, tmp_path_factory, K, hidden_widths, k1_projection, kind, seed):
        spec = BackboneSpec(input_dim=3, hidden_widths=tuple(hidden_widths), feature_dim=4,
                            k1_projection=k1_projection)
        model = make_teacher(K=K, seed=seed, spec=spec)
        if kind is not None:
            model = derive_pair(model, kind).student
        # beside another model whose name the model's starts with: each name reads its own tensors
        other = make_teacher(K=2, seed=seed + 1)
        path = tmp_path_factory.mktemp("ckpt") / "model.npz"
        save_model({"model": model, "mod": other}, path)
        loaded = load_model(path, "model")
        assert param_hash(load_model(path, "mod")) == param_hash(other)
        assert param_hash(loaded) == param_hash(model)
        assert (loaded.K, loaded.heads, loaded.pretrained, loaded.spec) == (
            model.K, model.heads, model.pretrained, model.spec,
        )
        assert list(loaded.params) == list(model.params)
        for key, value in model.params.items():
            assert loaded.params[key].tobytes() == value.tobytes()

    def test_single_head_checkpoint(self, tmp_path):
        pair = derive_pair(make_teacher(), "outlier")
        path = tmp_path / "student.npz"
        save_model({"outlier": pair.student}, path)
        loaded = load_model(path, "outlier")
        assert loaded.heads == ("k1",)
        assert "head_k.W" not in loaded.params

    @staticmethod
    def repacked(tmp_path, drop=(), extra=None, K=6):
        """An inlier student's checkpoint, re-packed without the ``drop`` tensors and with ``extra``."""
        path = tmp_path / "student.npz"
        save_model({"inlier": derive_pair(make_teacher(K=K), "inlier").student}, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files if k.removeprefix("inlier/") not in drop}
        np.savez(path, **arrays, **{f"inlier/{k}": v for k, v in (extra or {}).items()})
        return path

    def test_missing_tensor_refused_at_load(self, tmp_path):
        path = self.repacked(tmp_path, drop=("head_k.b",))
        with pytest.raises(ValidationError, match=r"missing \['head_k.b'\], unexpected \[\]"):
            load_model(path, "inlier")

    def test_wrong_shaped_tensor_refused_at_load(self, tmp_path):
        path = self.repacked(tmp_path, drop=("head_k.W",), extra={"head_k.W": np.zeros((4, 6))}, K=3)
        with pytest.raises(ValidationError, match=r"^head_k.W: expected shape \(3, 6\), got \(4, 6\)$"):
            load_model(path, "inlier")

    def test_extra_tensor_refused_at_load(self, tmp_path):
        path = self.repacked(tmp_path, extra={"head_k1.W": np.zeros((7, 6))})
        with pytest.raises(ValidationError, match=r"missing \[\], unexpected \['head_k1.W'\]"):
            load_model(path, "inlier")

    def test_unknown_name_refused_at_load(self, tmp_path):
        path = self.repacked(tmp_path)
        with pytest.raises(ValidationError, match=r"no model 'outlier', only \['inlier'\]$"):
            load_model(path, "outlier")

    @pytest.mark.parametrize("version", (1, None))
    def test_other_formats_refused_at_load(self, tmp_path, version):
        # format_version 1 held one model's tensors at the top level, beside its metadata
        model = derive_pair(make_teacher(), "inlier").student
        meta = {"spec": dataclasses.asdict(model.spec), "K": model.K, "heads": list(model.heads),
                "pretrained": model.pretrained, "format_version": 1}
        path = tmp_path / "old.npz"
        np.savez(path, **({"__meta__": np.array(json.dumps(meta))} if version else {}), **model.params)
        got = "format_version 1" if version else "no __meta__"
        with pytest.raises(ValidationError, match=f"expected a __meta__ entry of format_version 2, got {got}$"):
            load_model(path, "inlier")
