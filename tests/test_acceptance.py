"""Acceptance suite: one test per primary guarantee of the package.

Each criterion is a single test function so the pytest -v report shows one
pass/fail line per criterion. Stochastic criteria are seed-pinned.
"""
from __future__ import annotations

import itertools
import json
import math
import statistics
import time

import numpy as np

from squeezelab.config import ExperimentConfig
from squeezelab.metrics import (
    accuracy_histogram,
    pass_at_k_mc,
    pass_at_k_unbiased,
    support_coverage,
    greedy_logprob_report,
)
from squeezelab.objectives import (
    ClipConfig,
    contrastive_decomposition,
    dapo_filter,
    dapo_objective,
    grpo_objective,
    group_advantages,
    gspo_objective,
    sequence_ratio_gspo,
)
from squeezelab.policy import (
    PolicyTable,
    Vocab,
    derive_rng,
    load_checkpoint,
    make_trajectory,
    save_checkpoint,
)
from squeezelab.runner import run as runner_run
from squeezelab.sps import (
    SpsConfig,
    grpo_baseline_loop,
    l2te_select,
    sps_loop,
)
from squeezelab.squeeze import penalize_token, sequence_squeeze
from squeezelab.tasks import FamilyParams, build_suite_policy, make_benchmark_suite

from conftest import (batch_sequences, by_key, finite_difference_blocks, irl_loss, irl_value,
                      random_policy, rollout_group)
from test_metrics import matrix_from_counts
from test_objectives import (
    build_batch,
    naive_dapo_value,
    naive_grpo_value,
    naive_gspo_value,
    perturb,
    visited_keys,
)
from test_sps import complete_sequences, irl_stage, total_mass

from squeezelab.objectives import rl_step


def test_criterion_1_squeeze_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    cases = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 65))
        logits = rng.normal(scale=3.0, size=dim)
        m = int(rng.integers(dim))
        eta = float(-rng.uniform(1e-3, 5.0))
        before = np.exp(logits - logits.max())
        before /= before.sum()
        new_logits, report = penalize_token(logits, m, eta)
        recomputed = np.exp(new_logits - new_logits.max())
        recomputed /= recomputed.sum()
        denom = 1.0 + before[m] * (math.exp(eta) - 1.0)
        closed = before / denom
        closed[m] = before[m] * math.exp(eta) / denom
        np.testing.assert_allclose(recomputed, closed, atol=1e-12)
        np.testing.assert_allclose(report.after.probs, closed, atol=1e-12)
        others = np.delete(np.arange(dim), m)
        ratios = recomputed[others] / before[others]
        assert ratios.max() - ratios.min() < 1e-12
        dominant = int(np.argmax(before))
        if dominant != m:
            delta = recomputed - before
            assert delta[dominant] >= delta[others].max() - 1e-15
        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 1000
    assert elapsed < 5.0
    print(f"criterion 1 squeeze closed form: PASS (1000 cases, {elapsed:.2f}s)")


def test_criterion_2_sequence_squeeze_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    checked_non_modal = 0
    for trial in range(50):
        vocab = int(rng.integers(2, 4))
        max_len = int(rng.integers(2, 4))
        policy = random_policy(vocab, max_len, rng, scale=1.3)
        y_minus = tuple(int(t) for t in rng.integers(vocab, size=max_len))
        eta = float(-rng.uniform(0.1, 3.0))
        report = sequence_squeeze(policy, y_minus, eta)
        np.testing.assert_allclose(report.before_seq_probs.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(report.after_seq_probs.sum(), 1.0, atol=1e-9)
        modal = report.space[int(np.argmax(report.before_seq_probs))]
        if report.y_minus != modal:
            assert report.max_after >= report.max_before - 1e-12
            checked_non_modal += 1
    elapsed = time.perf_counter() - t0
    assert checked_non_modal >= 40
    assert elapsed < 5.0
    print(f"criterion 2 sequence squeeze: PASS (50 policies, "
          f"{checked_non_modal} non-modal cases, {elapsed:.2f}s)")


def test_criterion_3_objective_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    wide_gspo = ClipConfig("gspo", 0.2, 0.25)
    for trial in range(50):
        behavior, groups = build_batch(rng, n_groups=int(rng.integers(1, 3)),
                                       group_size=int(rng.integers(2, 4)))
        current = perturb(behavior, rng)
        kind = trial % 3
        if kind == 0:
            cfg = ClipConfig.grpo(beta=0.01)
            report = grpo_objective(groups, current, behavior, cfg)
            expected = naive_grpo_value(groups, current, behavior, 0.2, 0.01)
            value_fn = lambda p: grpo_objective(groups, p, behavior, cfg).value
        elif kind == 1:
            cfg = ClipConfig.dapo()
            report = dapo_objective(groups, current, cfg)
            expected = naive_dapo_value(groups, current, 0.2, 0.28)
            value_fn = lambda p: dapo_objective(groups, p, cfg).value
        else:
            report = gspo_objective(groups, current, wide_gspo)
            expected = naive_gspo_value(groups, current, 0.2, 0.25)
            value_fn = lambda p: gspo_objective(groups, p, wide_gspo).value
        np.testing.assert_allclose(report.value, expected, atol=1e-12)
        assert report.clipped_token_fraction == 0.0
        fd = finite_difference_blocks(value_fn, current, visited_keys(groups))
        for key, fd_block in fd.items():
            got = by_key(current, report.gradient).get(key, np.zeros(3))
            np.testing.assert_allclose(got, fd_block, rtol=1e-4, atol=1e-8)

    # On-policy values vanish at beta = 0 (equal-length batch for the
    # token-mean objective, where unequal lengths weight advantages).
    policy = random_policy(3, 2, rng, prompt_ids=(0, 1))
    fixed_groups = []
    for pid in range(2):
        trajs = tuple(
            make_trajectory(policy, pid,
                            tuple(int(t) for t in rng.integers(2, size=2)))
            for _ in range(4))
        fixed_groups.append(rollout_group(policy, pid, trajs, (1, 0, 1, 0)))
    assert abs(grpo_objective(fixed_groups, policy, None,
                              ClipConfig.grpo(beta=0.0)).value) < 1e-12
    assert abs(dapo_objective(fixed_groups, policy, ClipConfig.dapo()).value) < 1e-12
    assert abs(gspo_objective(fixed_groups, policy, ClipConfig.gspo()).value) < 1e-12

    # The filter drops exactly the degenerate groups.
    def with_rewards(rewards):
        trajs = tuple(make_trajectory(policy, 0, (0, 1)) for _ in rewards)
        return rollout_group(policy, 0, trajs, rewards)
    mixed = [with_rewards([1, 0, 0]), with_rewards([1, 1, 0])]
    pure = [with_rewards([1, 1, 1]), with_rewards([0, 0, 0])]
    kept, dropped = dapo_filter(pure + mixed)
    assert dropped == 2 and kept == mixed

    # Sequence ratio reference value.
    four = random_policy(3, 4, np.random.default_rng(2))
    traj = make_trajectory(four, 0, (0, 1, 0, 1))
    old = (traj.per_token_logp[0] - math.log(4),) + tuple(traj.per_token_logp[1:])
    np.testing.assert_allclose(sequence_ratio_gspo(four, old, traj),
                               1.414214, atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 3 objective oracles: PASS (50 batches, {elapsed:.2f}s)")


def test_criterion_4_advantage_normalization():
    adv = group_advantages([1, 1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(adv.values[0], 1.732051, atol=1e-5)
    np.testing.assert_allclose(adv.values[-1], -0.577350, atol=1e-5)
    degenerate = group_advantages([1, 1, 1])
    assert degenerate.degenerate
    np.testing.assert_array_equal(degenerate.values, np.zeros(3))
    policy = PolicyTable(Vocab(3), max_len=2)
    trajs = tuple(make_trajectory(policy, 0, (0, 1)) for _ in range(8))
    group = rollout_group(policy, 0, trajs, (1, 0, 0, 0, 0, 0, 0, 0))
    record = contrastive_decomposition(group, policy)
    np.testing.assert_allclose(record.var_term, 0.330719, atol=1e-6)
    print("criterion 4 advantage normalization: PASS")


def test_criterion_5_irl_reduction(diamond_task):
    rng = np.random.default_rng(11)
    policy = random_policy(4, 2, rng)
    demos = [make_trajectory(policy, 0, (0, 1)),
             make_trajectory(policy, 0, (2, 0)),
             make_trajectory(policy, 0, (1,) )]
    value, grad = irl_loss(policy, demos)
    by_hand = -np.mean([d.total_logp for d in demos])
    np.testing.assert_allclose(value, by_hand, atol=1e-12)
    keys = sorted({(0, d.tokens[:t]) for d in demos for t in range(len(d.tokens))})
    fd = finite_difference_blocks(lambda p: irl_value(p, demos), policy, keys)
    for key in keys:
        np.testing.assert_allclose(grad[key], fd[key], rtol=1e-4, atol=1e-8)

    cfg = SpsConfig(group_size=8, sampling_size=3, irl_steps_per_iteration=4,
                    irl_lr=0.05, rl_lr=0.0, clip=ClipConfig.grpo(beta=0.0))
    base = PolicyTable(Vocab(4), max_len=2)
    _, _, groups = rl_step(base, [diamond_task], cfg, 5)
    selected = l2te_select(groups, 0, cfg)
    fitted = irl_stage(base, [selected.batch], cfg)
    demo_seqs = set(batch_sequences(selected.batch))
    assert total_mass(fitted, demo_seqs) > total_mass(base, demo_seqs)
    space = complete_sequences(4, 2)
    np.testing.assert_allclose(total_mass(fitted, space), 1.0, atol=1e-9)
    print("criterion 5 irl reduction: PASS")


def test_criterion_6_pass_at_k(diamond_task):
    np.testing.assert_allclose(pass_at_k_unbiased(8, 2, 4), 0.785714, atol=1e-6)
    np.testing.assert_allclose(pass_at_k_unbiased(8, 2, 4),
                               1.0 - 15.0 / 70.0, atol=1e-9)
    for n in range(2, 13):
        for k in range(1, n + 1):
            combos = list(itertools.combinations(range(n), k))
            for c in range(n + 1):
                hits = sum(1 for combo in combos if combo[0] < c)
                assert pass_at_k_unbiased(n, c, k) == hits / len(combos)
    for n in (6, 9):
        for c in range(n + 1):
            vals = [pass_at_k_unbiased(n, c, k) for k in range(1, n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for k in (1, 3):
            vals = [pass_at_k_unbiased(n, c, k) for c in range(n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
    policy = PolicyTable(Vocab(4), max_len=2)
    est = pass_at_k_mc(policy, diamond_task, k=4, trials=10_000,
                       rng=derive_rng(99, 0))
    truth = 1.0 - (7.0 / 8.0) ** 4
    assert abs(est.value - truth) <= 3.0 * est.stderr
    print("criterion 6 pass@k estimator: PASS")


def test_criterion_7_sps_limits_squeezing_versus_grpo():
    t0 = time.perf_counter()
    cfg = SpsConfig()  # 8 iterations, G=8, k=3, 4 RL + 4 IRL steps
    grpo_drifts, sps_drifts = [], []
    coverage_wins = 0
    for seed in range(20):
        suite = make_benchmark_suite(seed, FamilyParams(count=32))
        base = build_suite_policy(suite, 4.0, seed)
        grpo_final, _ = grpo_baseline_loop(base, suite, cfg, seed)
        sps_final, _ = sps_loop(base, suite, cfg, seed)
        grpo_drifts.append(greedy_logprob_report(grpo_final, base, suite).mean_drift)
        sps_drifts.append(greedy_logprob_report(sps_final, base, suite).mean_drift)
        grpo_cov = sum(rec.covered for rec in support_coverage(grpo_final, suite, 1e-4))
        sps_cov = sum(rec.covered for rec in support_coverage(sps_final, suite, 1e-4))
        if sps_cov >= grpo_cov:
            coverage_wins += 1
    med_sps = statistics.median(sps_drifts)
    med_grpo = statistics.median(grpo_drifts)
    elapsed = time.perf_counter() - t0
    assert med_sps < med_grpo
    assert coverage_wins >= 14
    assert elapsed < 600.0
    print(f"criterion 7 sps vs grpo dynamics: PASS (median drift "
          f"{med_sps:+.4f} vs {med_grpo:+.4f}, coverage wins "
          f"{coverage_wins}/20, {elapsed:.0f}s)")


def test_criterion_8_determinism_and_plumbing(tmp_path, monkeypatch):
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    overrides = {
        "mode": "sps", "seed": 13, "suite.count": 4,
        "rl.steps_per_iteration": 2, "sps.max_iterations": 2,
        "sps.irl_steps_per_iteration": 2, "eval.n": 8, "eval.k": [1, 4],
    }
    dirs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        cfg = ExperimentConfig.from_dict({**overrides, "out_dir": str(out_dir)})
        runner_run(cfg)
        dirs.append(out_dir)
    for artifact in ("steps.csv", "trace.jsonl", "eval_report.json"):
        a = (dirs[0] / artifact).read_bytes()
        b = (dirs[1] / artifact).read_bytes()
        assert a == b, artifact

    ckpt = dirs[0] / "checkpoint_final.txt"
    restored = load_checkpoint(str(ckpt))
    resaved = tmp_path / "resaved.txt"
    save_checkpoint(restored, str(resaved))
    assert resaved.read_bytes() == ckpt.read_bytes()

    counts_per_prompt = [0] * 98 + [1] * 44 + [2] * 5 + [3] * 2 + [4]
    hist = accuracy_histogram(matrix_from_counts(counts_per_prompt, n=10))
    assert hist.counts == (98, 44, 5, 2, 1, 0, 0, 0, 0, 0, 0)
    report = json.loads((dirs[0] / "eval_report.json").read_text())
    assert list(map(int, report["histogram"]["counts"])) == report["histogram"]["counts"]
    print("criterion 8 determinism and plumbing: PASS")
