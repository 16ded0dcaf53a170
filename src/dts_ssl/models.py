"""Model construction: shared MLP feature extractor with K and (K+1) softmax heads.

A single pre-trained teacher carries both heads. Four working models are then
derived from it: an inlier teacher-student pair that keeps the K-way head for
seen-class classification, and an outlier pair that keeps the (K+1)-way head
for unseen-class detection. Derived models own deep parameter copies and share
no mutable state. All math is plain numpy with explicit backward passes, which
return views into the model's one gradient vector: the next backward overwrites them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import BackboneSpec
from .errors import ShapeError, StateError, ValidationError, require_all
from .numerics import ACTIVATIONS, softmax


def _packed(params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A copy of ``params`` as one contiguous vector, and a view into it per name, in its order
    and its array's shape."""
    flat = np.concatenate([np.ravel(v) for v in params.values()], dtype=np.float64)
    views, at = {}, 0
    for name, v in params.items():
        views[name] = flat[at : at + np.size(v)].reshape(np.shape(v))
        at += np.size(v)
    return flat, views


class DualHeadModel:
    """Feature extractor plus softmax heads over K and/or K+1 classes.

    The pre-trained teacher holds both heads; models derived for one task keep
    only the head they train (``heads`` records which are present). The model
    copies ``params`` into one vector, ``flat``; ``params`` maps each name to a
    view into it, in the given order. It must hold exactly the backbone's and
    ``heads``' tensors, in the shapes ``spec`` and ``K`` give them, else
    ``ValidationError`` (also for ``load_model``). ``grad`` and ``grads`` are
    laid out alike, made zero by the first :meth:`backward` (None until then).
    """

    def __init__(
        self,
        spec: BackboneSpec,
        K: int,
        params: Mapping[str, np.ndarray],
        heads: tuple[str, ...] = ("k", "k1"),
        pretrained: bool = False,
    ) -> None:
        if K < 2:
            raise ValidationError(f"K must be >= 2, got {K}")
        self.spec = spec
        self.K = K
        self.flat, self.params = _packed(params)
        self.grad = self.grads = None
        self.heads = tuple(heads)
        self.pretrained = pretrained
        self._act, self._act_grad = ACTIVATIONS[spec.activation]
        # layer table: the (W, b) keys of the layers from the inputs to the features, and per head
        # from the features to its logits; ``widths`` are each chain's input and output widths
        chains = {"backbone": [f"backbone.{i}" for i in range(len(spec.layer_sizes) - 1)], "k": ["head_k"],
                  "k1": ["proj", "head_k1"] if spec.k1_projection else ["head_k1"]}
        f = spec.feature_dim
        widths = {"backbone": spec.layer_sizes, "k": (f, K), "k1": (f,) * len(chains["k1"]) + (K + 1,)}
        self._layers = {name: [(f"{l}.W", f"{l}.b") for l in chain] for name, chain in chains.items()}
        expected = self._touched(self.heads)
        missing, unexpected = sorted(expected - set(self.params)), sorted(set(self.params) - expected)
        if missing or unexpected:
            raise ValidationError(f"parameters do not match heads {self.heads}: missing {missing}, "
                                  f"unexpected {unexpected}")
        require_all(
            (self.params[key].shape == shape, f"{key}: expected shape {shape}, got {self.params[key].shape}")
            for name in ("backbone", *self.heads)
            for (W, b), n_in, n_out in zip(self._layers[name], widths[name], widths[name][1:])
            for key, shape in ((W, (n_out, n_in)), (b, (n_out,)))
        )

    def __reduce__(self):
        # unpickle through __init__, so that ``params`` are views into the new ``flat`` again
        return DualHeadModel, (self.spec, self.K, self.params, self.heads, self.pretrained)

    # -- forward / backward --------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected inputs of dimension {self.spec.input_dim}, got shape {x.shape}"
            )
        return x

    def logits(self, x: np.ndarray, heads: Sequence[str] = ("k",)):
        """Forward pass returning per-head logits and a cache for backward().

        All requested heads share one backbone evaluation, so gradients that
        flow back through several heads accumulate on the same features. The
        cache holds the backbone's ``acts`` (its layers' inputs, then the
        features) and, per head, its layers' inputs.
        """
        x = self._check_input(x)
        for h in heads:
            if h not in self.heads:
                raise StateError(f"model has heads {self.heads}, cannot forward head {h!r}")
        acts = []
        features = self._act(self._forward(x, self._layers["backbone"], acts))
        acts.append(features)
        out, cache = {}, {"acts": acts}
        for h in heads:
            cache[h] = []
            out[h] = self._forward(features, self._layers[h], cache[h])
        return out, cache

    def _forward(self, a: np.ndarray, layers, inputs: list) -> np.ndarray:
        """Output of ``layers`` from ``a``, with the activation between layers; appends each
        layer's input to ``inputs``."""
        for i, (W, b) in enumerate(layers):
            if i:
                a = self._act(z)
            inputs.append(a)
            # a C-contiguous copy of W.T, made per call: BLAS takes it 2-3x faster than the view at desk widths
            z = a @ np.ascontiguousarray(self.params[W].T)
            z += self.params[b]
        return z

    def probs(self, x: np.ndarray, head: str = "k") -> np.ndarray:
        """Class-major (C, N) probabilities of one head (see ``numerics.softmax``)."""
        z, _ = self.logits(x, heads=(head,))
        return softmax(z[head].T)

    def backward(self, cache, d_logits: Mapping[str, np.ndarray], add: bool = False) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss, given d(loss)/d(logits), for the parameters it reaches: the
        backbone plus the heads named in ``d_logits``. Writes them (``add``: adds them) into their
        views in ``grads`` and returns those, in ``params`` order; the next backward overwrites them."""
        if self.grad is None:
            self.grad, self.grads = _packed({k: np.zeros_like(v) for k, v in self.params.items()})
        grads: dict[str, np.ndarray] = {}
        d_feats = [self._backward(grads, add, self._layers[h], cache[h], dz) for h, dz in d_logits.items()]
        acts = cache["acts"]
        dz = self._act_grad(acts[-1])
        dz *= sum(d_feats[1:], d_feats[0])  # each parameter has one term; only features add up
        self._backward(grads, add, self._layers["backbone"], acts, dz, input_grad=False)
        return {k: grads[k] for k in self.params if k in grads}

    def _backward(self, grads: dict, add: bool, layers, inputs: list, dz: np.ndarray, input_grad: bool = True):
        """Reverse of :meth:`_forward` given d(loss)/d(output): writes (``add``: adds) the gradients of ``layers``
        into their views, entered in ``grads``; returns d(loss)/d(inputs[0]) unless ``input_grad`` is off."""
        for i in reversed(range(len(layers))):
            W, b = layers[i]
            grads[W], grads[b] = self.grads[W], self.grads[b]
            if add:
                grads[W] += dz.T @ inputs[i]
                grads[b] += dz.sum(axis=0)
            else:
                np.matmul(dz.T, inputs[i], out=grads[W])
                dz.sum(axis=0, out=grads[b])  # the method: np.sum's wrapper costs 1-2 us a call
            if i:
                d_a = dz @ self.params[W]
                dz = self._act_grad(inputs[i])
                dz *= d_a
        return dz @ self.params[W] if input_grad else None

    def _touched(self, heads) -> set[str]:
        """Parameter keys a loss on ``heads`` reaches."""
        return {key for name in ("backbone", *heads) for layer in self._layers[name] for key in layer}


@dataclass
class TeacherStudentPair:
    """A frozen-within-iteration teacher and a trainable student, same architecture."""

    teacher: DualHeadModel
    student: DualHeadModel


def init_teacher(spec: BackboneSpec, K: int, seed: int) -> DualHeadModel:
    """The dual-head teacher to pre-train: U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if K < 2:
        raise ValidationError(f"K must be >= 2, got {K}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}.W"] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        params[f"{name}.b"] = np.zeros(fan_out)

    sizes = spec.layer_sizes
    for i in range(len(sizes) - 1):
        linear(f"backbone.{i}", sizes[i], sizes[i + 1])
    linear("head_k", spec.feature_dim, K)
    if spec.k1_projection:
        linear("proj", spec.feature_dim, spec.feature_dim)
    linear("head_k1", spec.feature_dim, K + 1)
    return DualHeadModel(spec, K, params)


_PAIR_HEADS = {"inlier": ("k",), "outlier": ("k1",), "merged": ("k", "k1")}


def derive_pair(teacher: DualHeadModel, kind: str) -> TeacherStudentPair:
    """Derive a teacher-student pair from the pre-trained teacher.

    The inlier pair keeps backbone + K head, the outlier pair backbone +
    (K+1) head; "merged" keeps both heads on one model. Both members start as
    independent deep copies of the teacher's parameters.
    """
    if kind not in _PAIR_HEADS:
        raise ValidationError(f"unknown pair kind {kind!r}, expected one of {tuple(_PAIR_HEADS)}")
    if not teacher.pretrained:
        raise StateError("cannot derive a pair from a teacher that has not been pre-trained")
    heads = _PAIR_HEADS[kind]

    def clone() -> DualHeadModel:
        keep = teacher._touched(heads)
        params = {k: v for k, v in teacher.params.items() if k in keep}
        return DualHeadModel(teacher.spec, teacher.K, params, heads=heads, pretrained=True)

    return TeacherStudentPair(teacher=clone(), student=clone())


def refresh_teacher(pair: TeacherStudentPair) -> None:
    """Copy student parameters into the teacher (hard refresh at iteration ends), in place."""
    pair.teacher.flat[:] = pair.student.flat


# ---------------------------------------------------------------------------
# Hashing and checkpoints
# ---------------------------------------------------------------------------


def param_hash(model: DualHeadModel) -> str:
    """SHA-256 over all parameter tensors; equal iff parameters are bit-equal."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        arr = np.ascontiguousarray(model.params[name], dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_model(models: Mapping[str, DualHeadModel], path: str | Path) -> None:
    """One checkpoint archive of named models: each model's tensors under ``<name>/``, and one JSON
    ``__meta__`` entry with ``format_version`` 2 and each model's spec, K, heads and pretrained flag."""
    meta = {name: {"spec": dict(sorted(asdict(m.spec).items())), "K": m.K, "heads": list(m.heads),
                   "pretrained": m.pretrained} for name, m in models.items()}
    tensors = {f"{name}/{key}": v for name, m in models.items() for key, v in m.params.items()}
    np.savez(Path(path), __meta__=np.array(json.dumps({"format_version": 2, "models": meta})), **tensors)


def load_model(path: str | Path, name: str) -> DualHeadModel:
    """The model ``name`` of a :func:`save_model` archive; round-trips bit-exactly."""
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"])) if "__meta__" in archive.files else {}
        if meta.get("format_version") != 2:
            raise ValidationError(f"{path}: expected a __meta__ entry of format_version 2, got "
                                  + (f"format_version {meta.get('format_version')}" if meta else "no __meta__"))
        if name not in meta["models"]:
            raise ValidationError(f"{path}: no model {name!r}, only {list(meta['models'])}")
        params = {k[len(name) + 1:]: archive[k] for k in archive.files if k.startswith(f"{name}/")}
    m = meta["models"][name]
    return DualHeadModel(BackboneSpec(**m["spec"]), int(m["K"]), params,
                         heads=tuple(m["heads"]), pretrained=bool(m["pretrained"]))
