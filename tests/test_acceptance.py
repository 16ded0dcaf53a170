"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark runs (criteria
5-9) share one session-scoped run matrix so the whole suite stays inside its
time budget.
"""

import json
import time

import numpy as np
import pytest

import oracles
from dts_ssl.benchmarks import benchmark_config, benchmark_split
from dts_ssl.evaluation import compute_auroc
from dts_ssl.losses import (
    ce_loss_and_grad,
    consistency_loss_and_grad,
    gated_ce_loss_and_grad,
    logit_match_loss_and_grad,
    unseen_loss_and_grad,
)
from dts_ssl.models import param_hash
from dts_ssl.numerics import softmax
from dts_ssl.soft_weighting import scores_from_probs
from dts_ssl.trainer import TrainConfig, run_training

SEEDS = (0, 1, 2)


def announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: loss gradients vs central finite differences
# ---------------------------------------------------------------------------


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


def max_rel_error(analytic, numeric):
    scale = np.maximum(np.abs(numeric), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_criterion_1_loss_gradient_suite():
    """Analytic gradients of all five training losses match finite differences."""
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        z = rng.normal(size=(3, 2))
        z_extra = rng.normal(size=(3, 3))  # for the (K+1)-class loss, K=2
        z_weak = rng.normal(size=(3, 2))
        labels = rng.integers(1, 3, size=3)
        gates = rng.random(3) < 0.6
        scores = rng.random(3)
        teacher = softmax(rng.normal(size=(3, 2)).T)

        # the losses take class-major probabilities and return class-major gradients
        def cm(logits):
            return softmax(logits.T)

        checks = [
            (lambda: ce_loss_and_grad(labels, cm(z))[0], z, ce_loss_and_grad(labels, cm(z))[1]),
            (
                lambda: gated_ce_loss_and_grad(labels, cm(z), gates, 3)[0],
                z,
                gated_ce_loss_and_grad(labels, cm(z), gates, 3)[1],
            ),
            (
                lambda: logit_match_loss_and_grad(cm(z), teacher, gates, 3)[0],
                z,
                logit_match_loss_and_grad(cm(z), teacher, gates, 3)[1],
            ),
            (
                lambda: unseen_loss_and_grad(cm(z_extra), scores, 3)[0],
                z_extra,
                unseen_loss_and_grad(cm(z_extra), scores, 3)[1],
            ),
        ]
        for fn, target, analytic in checks:
            worst = max(worst, max_rel_error(analytic.T, central_difference(fn, target)))

        _, d_weak, d_strong = consistency_loss_and_grad(cm(z_weak), cm(z), 3)

        def consistency():
            return consistency_loss_and_grad(cm(z_weak), cm(z), 3)[0]

        worst = max(
            worst,
            max_rel_error(d_weak.T, central_difference(consistency, z_weak)),
            max_rel_error(d_strong.T, central_difference(consistency, z)),
        )
        assert worst < 1e-4, f"trial {trial}: relative error {worst:.2e}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    announce("1 loss-gradient suite", f"100 trials, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: uncertainty-score algebra on a dense grid
# ---------------------------------------------------------------------------


def test_criterion_2_score_algebra_suite():
    start = time.time()
    K = 6
    max_grid = np.linspace(1.0 / K, 1.0, 50)
    last_grid = np.linspace(0.0, 1.0, 50)
    gamma_grid = np.linspace(0.0, 1.0, 11)

    def p_its(max_p):
        rest = (1.0 - max_p) / (K - 1)
        return np.array([max_p] + [rest] * (K - 1))

    def p_ots(last):
        rest = (1.0 - last) / K
        return np.array([rest] * K + [last])

    # every (max, last) pair of the grid as one row of a stacked batch
    its_rows = np.repeat(np.stack([p_its(m) for m in max_grid]), len(last_grid), axis=0)
    ots_rows = np.tile(np.stack([p_ots(l) for l in last_grid]), (len(max_grid), 1))
    for gamma in gamma_grid:
        values = scores_from_probs(its_rows.T, ots_rows.T, gamma).reshape(len(max_grid), len(last_grid))
        oracle = [[oracles.score(p_its(m), p_ots(l), gamma) for l in last_grid] for m in max_grid]
        assert values.tobytes() == np.array(oracle).tobytes()
        assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)
        if gamma > 0:  # strictly decreasing in max(p_its)
            assert np.all(np.diff(values, axis=0) < 1e-15)
        if gamma < 1:  # strictly increasing in the unseen-class probability
            assert np.all(np.diff(values, axis=1) > -1e-15)
        # blend endpoints
        if gamma == 0.0:
            assert np.allclose(values, last_grid[None, :], atol=1e-12)
        if gamma == 1.0:
            assert np.allclose(values, (1.0 - max_grid)[:, None], atol=1e-12)

    uniform = scores_from_probs(np.full((K, 1), 1 / K), np.full((K + 1, 1), 1 / (K + 1)), 0.5)[0]
    assert abs(uniform - 41.0 / 84.0) <= 1e-9  # 0.488095...
    elapsed = time.time() - start
    assert elapsed < 5.0
    announce("2 score algebra suite", f"50x50x11 grid, uniform value {uniform:.9f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: AUROC equals the O(n^2) pairwise oracle exactly
# ---------------------------------------------------------------------------


def vectorized_pairwise_oracle(scores, flags):
    pos = scores[flags][:, None]
    neg = scores[~flags][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.shape[0] * neg.shape[1])


def test_criterion_3_auroc_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(7)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:  # heavy-tie regime: few distinct score levels
            levels = int(rng.integers(1, 6))
            scores = rng.integers(0, levels + 1, size=n) / max(levels, 1)
        else:
            scores = rng.random(n)
        flags = rng.random(n) < rng.uniform(0.1, 0.9)
        if flags.all():
            flags[0] = False
        if not flags.any():
            flags[0] = True
        assert compute_auroc(scores, flags) == vectorized_pairwise_oracle(scores, flags)
    elapsed = time.time() - start
    assert elapsed < 30.0
    announce("3 AUROC oracle equivalence", f"500 randomized instances (n<=200), exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: structural suite on the desk configuration
# ---------------------------------------------------------------------------


def test_criterion_4_structural_suite():
    start = time.time()
    split = benchmark_split(0)
    config = TrainConfig.desk(iterations=2, epochs_per_iteration=5, seed=0)

    step_hashes = []

    def on_step(state, report):
        step_hashes.append(
            (state.iteration, tuple(param_hash(p.teacher) for p in state.pairs.values()))
        )

    result = run_training(config, split, step_callback=on_step)

    by_iteration: dict[int, set] = {}
    for iteration, h in step_hashes:
        by_iteration.setdefault(iteration, set()).add(h)
    assert set(by_iteration) == {0, 1}
    for iteration, distinct in by_iteration.items():
        assert len(distinct) == 1, f"teacher parameters changed inside iteration {iteration}"

    # teacher == student immediately after the final refresh
    for pair in result.pairs.values():
        head = "k" if "k" in pair.student.heads else "k1"
        probe = split.test_x[:32]
        assert np.array_equal(pair.teacher.probs(probe, head), pair.student.probs(probe, head))

    train_epochs = [r for r in result.history if r["phase"] == "train"]
    assert len(train_epochs) == 2 * 5  # N_i * N_e = 10

    counts = []
    run_training(
        TrainConfig.desk(iterations=2, epochs_per_iteration=5, seed=0, ablation_mode="supervised_only"),
        split,
        epoch_callback=lambda state, rec: counts.append(state.training_unlabeled_forwards),
    )
    assert counts[-1] == 0

    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(
        "4 structural suite",
        f"frozen teachers, refresh equality, 2x5=10 epochs, zero supervised unlabeled forwards, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 5-9 share one benchmark run matrix
# ---------------------------------------------------------------------------

BENCH_MODES = ("full", "supervised_only", "no_its", "no_soft_weighting", "no_k1_its", "no_k1_ots")


@pytest.fixture(scope="session")
def run_matrix():
    t0 = time.time()
    matrix = {}
    for mode in BENCH_MODES:
        for seed in SEEDS:
            result = run_training(benchmark_config(mode, seed), benchmark_split(seed))
            matrix[(mode, seed)] = result
    matrix["elapsed"] = time.time() - t0
    return matrix


def mean_accuracy(matrix, mode):
    return float(np.mean([matrix[(mode, s)].final_eval.accuracy for s in SEEDS]))


def last_half_auroc_std(result):
    series = [rec["auroc"] for rec in result.history if rec["phase"] == "train"]
    return float(np.std(series[len(series) // 2 :]))


def test_criterion_5_relative_improvement(run_matrix):
    full_acc = mean_accuracy(run_matrix, "full")
    sup_acc = mean_accuracy(run_matrix, "supervised_only")
    full_auroc = float(np.mean([run_matrix[("full", s)].final_eval.auroc for s in SEEDS]))
    assert full_acc >= sup_acc + 0.02, f"full {full_acc:.4f} vs supervised {sup_acc:.4f}"
    assert full_auroc >= 0.80, f"full AUROC {full_auroc:.4f}"
    announce(
        "5 relative improvement",
        f"full {full_acc:.4f} >= supervised {sup_acc:.4f} + 0.02; AUROC {full_auroc:.3f} >= 0.80",
    )


def test_criterion_6_auroc_stability(run_matrix):
    full_std = float(np.mean([last_half_auroc_std(run_matrix[("full", s)]) for s in SEEDS]))
    ablation_std = float(np.mean([last_half_auroc_std(run_matrix[("no_k1_ots", s)]) for s in SEEDS]))
    assert full_std <= ablation_std, f"full {full_std:.4f} vs no_k1_ots {ablation_std:.4f}"
    announce(
        "6 AUROC stability",
        f"last-half epoch std: full {full_std:.4f} <= no_k1_ots {ablation_std:.4f}",
    )


def test_criterion_7_ablation_ordering(run_matrix):
    full_acc = mean_accuracy(run_matrix, "full")
    ablations = ("no_its", "no_soft_weighting", "no_k1_its", "no_k1_ots")
    ties = 0
    details = []
    for mode in ablations:
        acc = mean_accuracy(run_matrix, mode)
        assert full_acc >= acc, f"full {full_acc:.4f} < {mode} {acc:.4f}"
        if full_acc == acc:
            ties += 1
        details.append(f"{mode} {acc:.4f}")
    assert ties <= 1, f"{ties} exact ties"
    announce(
        "7 ablation ordering",
        f"full {full_acc:.4f} >= {{{', '.join(details)}}}, ties={ties}",
    )


def test_criterion_8_hyperparameter_robustness(run_matrix):
    base = mean_accuracy(run_matrix, "full")
    variants = [
        ("lambda_seen", 0.15),
        ("lambda_seen", 0.35),
        ("lambda_unseen", 0.0),
        ("lambda_unseen", 0.2),
        ("tau", 0.75),
        ("tau", 0.95),
    ]
    drifts = []
    for field, value in variants:
        accs = [
            run_training(benchmark_config("full", seed, **{field: value}), benchmark_split(seed)).final_eval.accuracy
            for seed in SEEDS
        ]
        drift = abs(float(np.mean(accs)) - base)
        drifts.append((field, value, drift))
        assert drift < 0.03, f"{field}={value}: drift {drift:.4f}"
    worst = max(d for _, _, d in drifts)
    announce("8 hyperparameter robustness", f"6 variants, worst accuracy drift {worst:.4f} < 0.03")


def test_criterion_9_determinism(run_matrix):
    for mode in ("full", "supervised_only"):
        for seed in SEEDS:
            repeat = run_training(benchmark_config(mode, seed), benchmark_split(seed))
            assert json.dumps(repeat.history) == json.dumps(run_matrix[(mode, seed)].history), (
                f"{mode} seed {seed}: metrics streams differ"
            )
    announce("9 determinism", "criterion-5 runs repeated bit-identically (6 runs)")
