"""Anatomy of the uncertainty score and the reliability gate.

The score blends two teacher signals per unlabeled sample:

    s(u) = gamma * (1 - max K-way probability) + (1 - gamma) * P(extra class)

Every unlabeled sample joins the soft-weighted unseen set with weight s(u);
separately, a sample becomes pseudo-labeled seen-class training data only if
the K-way confidence beats both the threshold tau and its own score.

Run: python demos/02_uncertainty_scores.py
"""

import numpy as np

from dts_ssl import TrainConfig, build_mismatch_split, generate_synthetic
from dts_ssl.data import feature_scale
from dts_ssl.models import BackboneSpec, derive_pair, init_teacher
from dts_ssl.soft_weighting import gate_mask, scores_from_probs
from dts_ssl.trainer import pretrain_teacher

# -- hand-computed score examples ------------------------------------------

print("score on hand-built distributions (gamma = 0.5):")
cases = [
    ("confident seen", np.array([0.97, 0.01, 0.01, 0.01]), 0.01),
    ("uniform K-way", np.full(4, 0.25), 0.2),
    ("confident unseen", np.array([0.4, 0.3, 0.2, 0.1]), 0.85),
]
# probabilities are class-major: one row per class, one column per sample
p_its = np.stack([p for _, p, _ in cases], axis=1)
p_ots = np.stack([np.append(np.full(4, (1 - extra) / 4), extra) for _, _, extra in cases], axis=1)
max_its = p_its.max(axis=0)
scores = scores_from_probs(p_its, p_ots, gamma=0.5)
passed = gate_mask(max_its, scores, tau=0.85)
for (name, _, _), m, extra, s, ok in zip(cases, max_its, p_ots[-1], scores, passed):
    print(
        f"  {name:18s} 1-max={1.0 - m:.2f} extra={extra:.2f} "
        f"-> s={s:.3f}, gate {'passes' if ok else 'rejects'}"
    )

# -- scores from real pre-trained teachers ----------------------------------

dataset = generate_synthetic(4, 2, 16, 400, separation=3.0, noise=1.6, seed=1)
split = build_mismatch_split(dataset, [1, 2, 3, 4], 0.5, m=80, n=800, seed=1)
config = TrainConfig.desk(seed=1, hidden_widths=(16, 16), feature_dim=8)

teacher = init_teacher(BackboneSpec(split.dim, (16, 16), 8), split.K, seed=1)
pretrain_teacher(teacher, split, config, np.random.default_rng(1), feature_scale(split))
inlier = derive_pair(teacher, "inlier")
outlier = derive_pair(teacher, "outlier")

weights = scores_from_probs(
    inlier.teacher.probs(split.unlabeled_x, head="k"),
    outlier.teacher.probs(split.unlabeled_x, head="k1"),
    gamma=0.5,
)
flags = split.unlabeled_is_unseen

print("\nafter pre-training (teachers only, no unlabeled training yet):")
print(f"  mean score on hidden seen samples:   {weights[~flags].mean():.4f}")
print(f"  mean score on hidden unseen samples: {weights[flags].mean():.4f}")
print("  (the gap is the raw signal that the unseen-class supervision amplifies)")

bins = np.linspace(0, weights.max() + 1e-9, 8)
print("\nscore histogram (seen vs unseen):")
for lo, hi in zip(bins[:-1], bins[1:]):
    seen_n = int(((weights >= lo) & (weights < hi) & ~flags).sum())
    unseen_n = int(((weights >= lo) & (weights < hi) & flags).sum())
    print(f"  [{lo:.3f}, {hi:.3f})  seen {'#' * (seen_n // 8):<40s} unseen {'#' * (unseen_n // 8)}")
