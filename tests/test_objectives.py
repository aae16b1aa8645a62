"""GRPO/DAPO/GSPO objectives against a from-scratch summation oracle.

The naive_* functions below recompute every objective value with plain
Python loops and the unshifted softmax formula, sharing nothing with the
implementation except the logit storage. Gradients are checked against
central finite differences of the implementation's own value function.
"""
from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.errors import EmptyTrajectory, OneSidedGroup
from squeezelab import objectives as objectives_module
from squeezelab.objectives import (
    ClipConfig,
    ObjectiveReport,
    StepRecord,
    contrastive_decomposition,
    dapo_filter,
    dapo_objective,
    grpo_objective,
    group_advantages,
    gspo_objective,
    _mean_root_entropy,
    rl_step,
    sample_group,
    sequence_ratio_gspo,
)
from squeezelab.policy import (
    PolicyTable,
    Vocab,
    _log_probs,
    _token_logps,
    apply_update,
    derive_rng,
    entropy,
    make_trajectory,
    prefix_ids,
    prefix_rows,
    sample_trajectories,
    sample_trajectory,
    trajectory_log_prob,
)
from squeezelab import policy as policy_module
from squeezelab.config import ExperimentConfig
from squeezelab.metrics import support_coverage
from squeezelab.sps import SpsConfig, TrainTrace
from squeezelab.tasks import build_suite_policy, make_benchmark_suite, skewed_base_policy, validate

from conftest import (by_key, finite_difference_blocks, flat_score_gradient, random_policy,
                      rollout_group, trajectories)

SQRT3 = 1.7320508075688772


# ---------------------------------------------------------------------------
# independent oracle


def naive_logp(policy, prompt_id, prefix, tok):
    z = [float(v) for v in policy.logit_vector(prompt_id, tuple(prefix))]
    lse = math.log(sum(math.exp(v) for v in z))
    return z[tok] - lse


def naive_advantages(rewards):
    g = len(rewards)
    mean = sum(rewards) / g
    var = sum((r - mean) ** 2 for r in rewards) / g
    if var == 0.0:
        return None
    std = math.sqrt(var)
    return [(r - mean) / std for r in rewards]


def naive_grpo_value(groups, policy, ref_policy, eps, beta):
    total = 0.0
    for group in groups:
        adv = naive_advantages(group.rewards)
        if adv is None:
            continue
        inner = 0.0
        for i, traj in enumerate(trajectories(group)):
            if not traj.tokens:
                continue
            per_traj = 0.0
            for t, tok in enumerate(traj.tokens):
                new_lp = naive_logp(policy, traj.prompt_id, traj.tokens[:t], tok)
                r = math.exp(new_lp - traj.per_token_logp[t])
                clipped = min(max(r, 1.0 - eps), 1.0 + eps)
                term = min(r * adv[i], clipped * adv[i])
                if beta > 0.0:
                    ref_lp = naive_logp(ref_policy, traj.prompt_id,
                                        traj.tokens[:t], tok)
                    rr = math.exp(ref_lp - new_lp)
                    term -= beta * (rr - (ref_lp - new_lp) - 1.0)
                per_traj += term
            inner += per_traj / len(traj.tokens)
        total += inner / group.size
    return total / len(groups)


def naive_dapo_value(groups, policy, eps_low, eps_high):
    total_tokens = sum(len(t.tokens) for g in groups for t in trajectories(g))
    acc = 0.0
    for group in groups:
        adv = naive_advantages(group.rewards)
        for i, traj in enumerate(trajectories(group)):
            for t, tok in enumerate(traj.tokens):
                new_lp = naive_logp(policy, traj.prompt_id, traj.tokens[:t], tok)
                r = math.exp(new_lp - traj.per_token_logp[t])
                clipped = min(max(r, 1.0 - eps_low), 1.0 + eps_high)
                acc += min(r * adv[i], clipped * adv[i])
    return acc / total_tokens


def naive_gspo_value(groups, policy, eps_low, eps_high):
    total = 0.0
    for group in groups:
        adv = naive_advantages(group.rewards)
        if adv is None:
            continue
        inner = 0.0
        for i, traj in enumerate(trajectories(group)):
            if not traj.tokens:
                continue
            diffs = [
                naive_logp(policy, traj.prompt_id, traj.tokens[:t], tok)
                - traj.per_token_logp[t]
                for t, tok in enumerate(traj.tokens)
            ]
            s = math.exp(sum(diffs) / len(diffs))
            clipped = min(max(s, 1.0 - eps_low), 1.0 + eps_high)
            inner += min(s * adv[i], clipped * adv[i])
        total += inner / group.size
    return total / len(groups)


# ---------------------------------------------------------------------------
# fixtures


def build_batch(rng, n_groups=2, group_size=3, vocab=3, max_len=2):
    """Random behavior policy plus mixed-reward rollout groups."""
    behavior = random_policy(vocab, max_len, rng,
                             prompt_ids=tuple(range(n_groups)), scale=0.7)
    groups = []
    for pid in range(n_groups):
        trajs = tuple(sample_trajectory(behavior, pid, rng)
                      for _ in range(group_size))
        rewards = [int(rng.integers(2)) for _ in trajs]
        if len(set(rewards)) == 1:
            rewards[0] = 1 - rewards[0]
        groups.append(rollout_group(behavior, pid, trajs, rewards))
    return behavior, groups


def perturb(policy, rng, radius=0.05):
    """Shift every stored logit by uniform noise within the given radius."""
    out = policy.copy()
    for key, vec in policy.stored_items():
        out.set_logits(key[0], key[1],
                       vec + rng.uniform(-radius, radius, size=vec.shape))
    return out


def visited_keys(groups):
    keys = set()
    for g in groups:
        for traj in trajectories(g):
            for t in range(len(traj.tokens)):
                keys.add((traj.prompt_id, traj.tokens[:t]))
    return sorted(keys)


# ---------------------------------------------------------------------------
# advantages and ratios


def test_group_advantages_reference_vector():
    adv = group_advantages([1, 1, 0, 0, 0, 0, 0, 0])
    assert not adv.degenerate
    np.testing.assert_allclose(adv.values[:2], [SQRT3, SQRT3], atol=1e-9)
    np.testing.assert_allclose(adv.values[2:], [-1 / SQRT3] * 6, atol=1e-9)
    np.testing.assert_allclose(adv.values.mean(), 0.0, atol=1e-10)
    np.testing.assert_allclose(adv.values.std(), 1.0, atol=1e-8)


def test_group_advantages_degenerate_and_two_point():
    adv = group_advantages([1, 1, 1, 1])
    assert adv.degenerate
    np.testing.assert_array_equal(adv.values, np.zeros(4))
    adv = group_advantages([0, 1])
    np.testing.assert_allclose(adv.values, [-1.0, 1.0], atol=1e-12)


def test_group_advantages_binary_rewards_give_two_values():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = int(rng.integers(2, 12))
        rewards = rng.integers(2, size=g)
        adv = group_advantages(rewards)
        if adv.degenerate:
            continue
        assert len({round(v, 12) for v in adv.values}) == 2


def uncached_advantages(rewards):
    """group_advantages as computed before it was memoised: numpy mean and std per call."""
    r = np.asarray(rewards, dtype=float)
    std = r.std()
    if std == 0.0:
        return np.zeros_like(r), True
    return (r - r.mean()) / std, False


def test_memoised_group_advantages_equal_the_uncached_computation():
    rng = np.random.default_rng(41)
    tuples = [r for g in range(2, 11) for r in itertools.product((0, 1), repeat=g)]
    tuples += [tuple(int(x) for x in rng.integers(0, 2, size=int(rng.integers(11, 65))))
               for _ in range(300)]
    for rewards in tuples:
        values, degenerate = uncached_advantages(rewards)
        # A tuple, then a list and an array of the same rewards, read from the cache.
        for form in (rewards, list(rewards), np.array(rewards)):
            adv = group_advantages(form)
            assert adv.degenerate == degenerate
            assert adv.values.dtype == values.dtype and adv.values.shape == values.shape
            assert (adv.values == values).all()
            assert adv.values.tobytes() == values.tobytes()
            assert not adv.values.flags.writeable
    with pytest.raises(ValueError):
        group_advantages((0, 1, 1)).values[0] = 5.0


def test_sequence_ratio_examples():
    rng = np.random.default_rng(9)
    policy = random_policy(3, 3, rng)
    traj = sample_trajectory(policy, 0, rng)
    assert sequence_ratio_gspo(policy, traj.per_token_logp, traj) == 1.0

    two = random_policy(3, 2, np.random.default_rng(1))
    traj = make_trajectory(two, 0, (0, 1))
    # Shift old logps so the token ratios become [2, 0.5]: geometric mean 1.
    old = (traj.per_token_logp[0] - math.log(2), traj.per_token_logp[1] + math.log(2))
    np.testing.assert_allclose(sequence_ratio_gspo(two, old, traj), 1.0, rtol=1e-12)

    four = random_policy(3, 4, np.random.default_rng(2))
    traj = make_trajectory(four, 0, (0, 1, 0, 1))
    # Token ratios [4, 1, 1, 1] give the fourth root of 4.
    old = (traj.per_token_logp[0] - math.log(4),) + tuple(traj.per_token_logp[1:])
    np.testing.assert_allclose(sequence_ratio_gspo(four, old, traj),
                               1.4142135623730951, atol=1e-9)


def test_sequence_ratio_rejects_empty_trajectory():
    policy = PolicyTable(Vocab(3), max_len=2)
    empty = make_trajectory(policy, 0, ())
    with pytest.raises(EmptyTrajectory):
        sequence_ratio_gspo(policy, (), empty)


# ---------------------------------------------------------------------------
# objective values vs oracle


def test_on_policy_values_are_zero_at_beta_zero():
    rng = np.random.default_rng(12)
    behavior, groups = build_batch(rng, n_groups=3, group_size=4)
    grpo = grpo_objective(groups, behavior, behavior, ClipConfig.grpo(beta=0.0))
    dapo = dapo_objective(groups, behavior, ClipConfig.dapo())
    gspo = gspo_objective(groups, behavior, ClipConfig.gspo())
    # Advantages sum to zero within each group and every ratio is exactly 1;
    # DAPO's token-mean sees equal length-1/length-2 weights so only the
    # per-sequence mean structure cancels exactly for GRPO/GSPO.
    assert abs(grpo.value) < 1e-12
    assert abs(gspo.value) < 1e-12
    assert grpo.clipped_token_fraction == 0.0
    assert grpo.kl_to_ref == 0.0
    np.testing.assert_allclose(
        dapo.value, naive_dapo_value(groups, behavior, 0.2, 0.28), atol=1e-12)


def test_grpo_value_matches_oracle_off_policy():
    rng = np.random.default_rng(100)
    for trial in range(12):
        behavior, groups = build_batch(rng, n_groups=int(rng.integers(1, 4)),
                                       group_size=int(rng.integers(2, 5)))
        current = perturb(behavior, rng)
        for beta, ref in ((0.0, None), (0.01, behavior)):
            cfg = ClipConfig.grpo(beta=beta)
            report = grpo_objective(groups, current, ref, cfg)
            expected = naive_grpo_value(groups, current, ref, 0.2, beta)
            np.testing.assert_allclose(report.value, expected, atol=1e-12)


def test_dapo_value_matches_oracle_off_policy():
    rng = np.random.default_rng(200)
    for trial in range(12):
        behavior, groups = build_batch(rng, n_groups=int(rng.integers(1, 4)),
                                       group_size=int(rng.integers(2, 5)))
        current = perturb(behavior, rng)
        report = dapo_objective(groups, current, ClipConfig.dapo())
        kept, _ = dapo_filter(groups)
        expected = naive_dapo_value(kept, current, 0.2, 0.28)
        np.testing.assert_allclose(report.value, expected, atol=1e-12)


def test_gspo_value_matches_oracle_off_policy():
    rng = np.random.default_rng(300)
    wide = ClipConfig("gspo", 0.2, 0.25)
    for trial in range(12):
        behavior, groups = build_batch(rng, n_groups=int(rng.integers(1, 4)),
                                       group_size=int(rng.integers(2, 5)))
        current = perturb(behavior, rng)
        report = gspo_objective(groups, current, wide)
        expected = naive_gspo_value(groups, current, 0.2, 0.25)
        np.testing.assert_allclose(report.value, expected, atol=1e-12)


def test_grpo_degenerate_group_contributes_zero_but_counts_in_mean():
    rng = np.random.default_rng(41)
    behavior, groups = build_batch(rng, n_groups=1, group_size=3)
    mixed = groups[0]
    flat_trajs = tuple(sample_trajectory(behavior, 0, rng) for _ in range(3))
    flat = rollout_group(behavior, 0, flat_trajs, (1, 1, 1))
    current = perturb(behavior, rng)
    alone = grpo_objective([mixed], current, None, ClipConfig.grpo(beta=0.0))
    padded = grpo_objective([mixed, flat], current, None, ClipConfig.grpo(beta=0.0))
    np.testing.assert_allclose(padded.value, alone.value / 2.0, atol=1e-12)


def test_dapo_length_weighting_differs_from_grpo():
    # One mixed group, trajectory lengths 1 and 3: DAPO's global token mean
    # weighs the long trajectory three times as much as GRPO's sequence mean.
    policy = PolicyTable(Vocab(4), max_len=3)
    t_short = make_trajectory(policy, 0, (3,))
    t_long = make_trajectory(policy, 0, (0, 1, 3))
    group = rollout_group(policy, 0, (t_short, t_long), (1, 0))
    current = perturb(policy_with_all_prefixes(policy), np.random.default_rng(6))
    grpo = grpo_objective([group], current, None, ClipConfig.grpo(beta=0.0))
    dapo = dapo_objective([group], current, ClipConfig.dapo())
    np.testing.assert_allclose(
        grpo.value, naive_grpo_value([group], current, None, 0.2, 0.0), atol=1e-12)
    np.testing.assert_allclose(
        dapo.value, naive_dapo_value([group], current, 0.2, 0.28), atol=1e-12)
    assert abs(grpo.value - dapo.value) > 1e-6


def policy_with_all_prefixes(policy):
    """Materialize zero logits at every prefix so perturb can see them."""
    out = policy.copy()
    stack = [()]
    while stack:
        prefix = stack.pop()
        out.set_logits(0, prefix, out.logit_vector(0, prefix))
        if len(prefix) + 1 < policy.max_len:
            for tok in range(policy.vocab.size - 1):
                stack.append(prefix + (tok,))
    return out


# ---------------------------------------------------------------------------
# clipping semantics


def one_token_clip_fixture(ratio_pos):
    """Rewards [1, 0] on one-token trajectories; the positive one gets `ratio_pos`."""
    policy = PolicyTable(Vocab(3), max_len=1)
    t_pos = make_trajectory(policy, 0, (0,))
    t_neg = make_trajectory(policy, 0, (1,))
    old_pos = (t_pos.per_token_logp[0] - math.log(ratio_pos),)
    return policy, rollout_group(policy, 0, (t_pos, t_neg), (1, 0),
                                 (old_pos, t_neg.per_token_logp))


def test_grpo_clipped_token_has_zero_gradient():
    policy, group = one_token_clip_fixture(1.0 + 2 * 0.2)
    report = grpo_objective([group], policy, None, ClipConfig.grpo(beta=0.0))
    assert report.clipped_token_fraction == 0.5
    block = by_key(policy, report.gradient)[(0, ())]
    # The clipped positive token contributes nothing; what remains is the
    # negative-advantage token's score at weight -1/(2*1).
    probs = np.exp([naive_logp(policy, 0, (), v) for v in range(3)])
    expected = -0.5 * (np.eye(3)[1] - probs)
    np.testing.assert_allclose(block, expected, atol=1e-12)


def test_dapo_asymmetric_clip_boundary():
    delta = 0.005
    policy, group = one_token_clip_fixture(1.0 + 0.28 + delta)
    report = dapo_objective([group], policy, ClipConfig.dapo())
    assert report.clipped_token_fraction == 0.5
    # Just inside the relaxed upper bound nothing clips.
    policy, group = one_token_clip_fixture(1.0 + 0.28 - delta)
    report = dapo_objective([group], policy, ClipConfig.dapo())
    assert report.clipped_token_fraction == 0.0


def test_gspo_clipped_sequence_drops_all_its_tokens():
    policy = PolicyTable(Vocab(3), max_len=2)
    t_pos = make_trajectory(policy, 0, (0, 1))
    t_neg = make_trajectory(policy, 0, (1, 2))
    shift = math.log(1.0 + 1e-3)
    old_pos = tuple(lp - shift for lp in t_pos.per_token_logp)
    group = rollout_group(policy, 0, (t_pos, t_neg), (1, 0),
                          (old_pos, t_neg.per_token_logp))
    report = gspo_objective([group], policy, ClipConfig.gspo())
    s = sequence_ratio_gspo(policy, old_pos, t_pos)
    np.testing.assert_allclose(s, 1.0 + 1e-3, rtol=1e-10)
    # Positive sequence clipped (2 of 4 tokens); its prefixes carry only the
    # negative trajectory's contributions at weight a*s/(G*|y|) = -1/4.
    assert report.clipped_token_fraction == 0.5
    assert (0, (0,)) not in by_key(policy, report.gradient)
    assert set(by_key(policy, report.gradient)) == {(0, ()), (0, (1,))}
    probs = np.exp([naive_logp(policy, 0, (), v) for v in range(3)])
    expected = -0.25 * (np.eye(3)[1] - probs)
    np.testing.assert_allclose(by_key(policy, report.gradient)[(0, ())], expected,
                               atol=1e-12)


def test_dapo_filter_partitions_and_keeps_mixed_groups():
    rng = np.random.default_rng(55)
    behavior = random_policy(3, 2, rng)
    def with_rewards(rewards):
        trajs = tuple(sample_trajectory(behavior, 0, rng)
                      for _ in rewards)
        return rollout_group(behavior, 0, trajs, rewards)
    groups = [with_rewards([1, 1, 1, 1]), with_rewards([0, 0, 0, 0]),
              with_rewards([1, 0, 0, 0]), with_rewards([0, 1, 1, 1])]
    kept, dropped = dapo_filter(groups)
    assert dropped == 2
    assert [sum(g.rewards) for g in kept] == [1, 3]
    for g in kept:
        assert 0 < sum(g.rewards) < g.size


def test_dapo_all_filtered_is_a_zero_step():
    rng = np.random.default_rng(56)
    behavior = random_policy(3, 2, rng)
    trajs = tuple(sample_trajectory(behavior, 0, rng) for _ in range(4))
    group = rollout_group(behavior, 0, trajs, (1, 1, 1, 1))
    report = dapo_objective([group], behavior, ClipConfig.dapo())
    assert report.value == 0.0
    assert report.gradient.ids.shape == (0,) and report.gradient.blocks.shape == (0, 3)
    assert report.clipped_token_fraction == 0.0
    assert report.kl_to_ref == 0.0


# ---------------------------------------------------------------------------
# gradients vs finite differences


def test_grpo_gradient_matches_finite_differences():
    rng = np.random.default_rng(500)
    for trial in range(6):
        behavior, groups = build_batch(rng, n_groups=2, group_size=3)
        current = perturb(behavior, rng)
        for beta, ref in ((0.0, None), (0.01, behavior)):
            cfg = ClipConfig.grpo(beta=beta)
            report = grpo_objective(groups, current, ref, cfg)
            assert report.clipped_token_fraction == 0.0
            fd = finite_difference_blocks(
                lambda p: grpo_objective(groups, p, ref, cfg).value,
                current, visited_keys(groups))
            for key in visited_keys(groups):
                got = by_key(current, report.gradient).get(key, np.zeros(3))
                np.testing.assert_allclose(got, fd[key], rtol=1e-4, atol=1e-8)


def test_dapo_gradient_matches_finite_differences():
    rng = np.random.default_rng(600)
    cfg = ClipConfig.dapo()
    for trial in range(6):
        behavior, groups = build_batch(rng, n_groups=2, group_size=3)
        current = perturb(behavior, rng)
        report = dapo_objective(groups, current, cfg)
        assert report.clipped_token_fraction == 0.0
        fd = finite_difference_blocks(
            lambda p: dapo_objective(groups, p, cfg).value,
            current, visited_keys(groups))
        for key in visited_keys(groups):
            got = by_key(current, report.gradient).get(key, np.zeros(3))
            np.testing.assert_allclose(got, fd[key], rtol=1e-4, atol=1e-8)


def test_gspo_gradient_matches_finite_differences():
    rng = np.random.default_rng(700)
    cfg = ClipConfig("gspo", 0.2, 0.25)
    for trial in range(6):
        behavior, groups = build_batch(rng, n_groups=2, group_size=3)
        current = perturb(behavior, rng)
        report = gspo_objective(groups, current, cfg)
        assert report.clipped_token_fraction == 0.0
        fd = finite_difference_blocks(
            lambda p: gspo_objective(groups, p, cfg).value,
            current, visited_keys(groups))
        for key in visited_keys(groups):
            got = by_key(current, report.gradient).get(key, np.zeros(3))
            np.testing.assert_allclose(got, fd[key], rtol=1e-4, atol=1e-8)


def test_grpo_kl_estimate_is_nonnegative():
    rng = np.random.default_rng(800)
    for trial in range(10):
        behavior, groups = build_batch(rng, n_groups=2, group_size=3)
        current = perturb(behavior, rng, radius=0.5)
        report = grpo_objective(groups, current, behavior, ClipConfig.grpo())
        assert report.kl_to_ref >= 0.0


# ---------------------------------------------------------------------------
# contrastive diagnostic


def test_contrastive_var_term_reference_value():
    policy = PolicyTable(Vocab(3), max_len=2)
    trajs = tuple(make_trajectory(policy, 0, (0, 1)) for _ in range(8))
    group = rollout_group(policy, 0, trajs, (1, 0, 0, 0, 0, 0, 0, 0))
    record = contrastive_decomposition(group, policy)
    np.testing.assert_allclose(record.var_term, 0.330718913883, atol=1e-9)
    # Identical trajectories on both sides: the expectation gap closes.
    np.testing.assert_allclose(record.pos_expectation, record.neg_expectation,
                               atol=1e-15)
    np.testing.assert_allclose(record.value, 0.0, atol=1e-15)


def test_contrastive_value_rises_with_positive_likelihood():
    policy = PolicyTable(Vocab(3), max_len=2)
    t_pos = make_trajectory(policy, 0, (0, 2))
    t_neg = make_trajectory(policy, 0, (1, 2))
    group = rollout_group(policy, 0, (t_pos, t_neg), (1, 0))
    base_value = contrastive_decomposition(group, policy).value
    boosted = policy.copy()
    boosted.set_logits(0, (), [1.0, 0.0, 0.0])
    assert contrastive_decomposition(group, boosted).value > base_value


def test_contrastive_requires_both_sides():
    policy = PolicyTable(Vocab(3), max_len=1)
    trajs = tuple(make_trajectory(policy, 0, (0,)) for _ in range(3))
    group = rollout_group(policy, 0, trajs, (1, 1, 1))
    with pytest.raises(OneSidedGroup):
        contrastive_decomposition(group, policy)


def test_contrastive_likelihoods_are_left_fold_totals():
    # At 10 tokens np.sum pairs terms, so it would disagree with the left fold
    # trajectory_log_prob uses on about a quarter of these sequences.
    rng = np.random.default_rng(17)
    policy = PolicyTable(Vocab(4), max_len=10)
    seqs = [tuple(int(t) for t in rng.integers(0, 3, size=10)) for _ in range(200)]
    for seq in seqs:
        for t in range(10):
            policy.set_logits(0, seq[:t], rng.normal(scale=2.0, size=4))
    for pos, neg in zip(seqs[::2], seqs[1::2]):
        trajs = (make_trajectory(policy, 0, pos), make_trajectory(policy, 0, neg))
        group = rollout_group(policy, 0, trajs, (1, 0))
        record = contrastive_decomposition(group, policy)
        assert record.pos_expectation == math.exp(trajectory_log_prob(policy, 0, pos)[1]) / 10
        assert record.neg_expectation == math.exp(trajectory_log_prob(policy, 0, neg)[1]) / 10


# ---------------------------------------------------------------------------
# the flat token-batch kernel against the per-token loop it replaced


def reference_clipped_token_loop(batch, policy, ref_policy, cfg, token_weight):
    """The per-token GRPO/DAPO loop, token by token: the kernel's bit-for-bit reference."""
    use_kl = cfg.beta > 0.0 and ref_policy is not None
    terms = []
    pg_value = 0.0
    kl_value = 0.0
    clipped = 0
    considered = 0
    for group in batch:
        adv = group_advantages(group.rewards)
        if adv.degenerate:
            continue
        for i, traj in enumerate(trajectories(group)):
            a = adv.values[i]
            if not traj.tokens:
                continue
            w = token_weight(group.size, len(traj.tokens))
            new_lp = _token_logps(policy, traj.prompt_id, traj.tokens)
            ratios = np.exp(new_lp - np.asarray(traj.per_token_logp))
            if use_kl:
                ref_lp = _token_logps(ref_policy, traj.prompt_id, traj.tokens)
            for t, tok in enumerate(traj.tokens):
                considered += 1
                prefix = traj.tokens[:t]
                r = ratios[t]
                clipped_r = min(max(r, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
                unclipped_term = r * a
                clipped_term = clipped_r * a
                if clipped_term < unclipped_term:
                    pg_value += w * clipped_term
                    clipped += 1
                else:
                    pg_value += w * unclipped_term
                    terms.append((traj.prompt_id, prefix, tok, w * a * r))
                if use_kl:
                    log_rr = ref_lp[t] - new_lp[t]
                    rr = math.exp(log_rr)
                    kl_value += w * (rr - log_rr - 1.0)
                    terms.append((traj.prompt_id, prefix, tok, -cfg.beta * w * (1.0 - rr)))
    frac = clipped / considered if considered else 0.0
    return ObjectiveReport(value=float(pg_value - cfg.beta * kl_value),
                           gradient=flat_score_gradient(policy, terms),
                           clipped_token_fraction=frac, kl_to_ref=float(kl_value),
                           objective_kind=cfg.objective_kind)


def reference_gspo_loop(groups, policy, cfg):
    """The per-trajectory GSPO loop, one sequence_ratio_gspo and one prefix_ids per
    trajectory: the flat GSPO objective's bit-for-bit reference."""
    terms = []
    value = 0.0
    clipped_tokens = 0
    considered_tokens = 0
    for group in groups:
        adv = group_advantages(group.rewards)
        if adv.degenerate:
            continue
        for i, traj in enumerate(trajectories(group)):
            a = adv.values[i]
            length = len(traj.tokens)
            if length == 0:
                continue
            considered_tokens += length
            s = sequence_ratio_gspo(policy, traj.per_token_logp, traj)
            clipped_s = min(max(s, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
            unclipped_term = s * a
            clipped_term = clipped_s * a
            w = 1.0 / (len(groups) * group.size)
            if clipped_term < unclipped_term:
                value += w * clipped_term
                clipped_tokens += length
            else:
                value += w * unclipped_term
                terms += [(traj.prompt_id, traj.tokens[:t], tok, w * a * s / length)
                          for t, tok in enumerate(traj.tokens)]
    frac = clipped_tokens / considered_tokens if considered_tokens else 0.0
    return ObjectiveReport(value=float(value), gradient=flat_score_gradient(policy, terms),
                           clipped_token_fraction=frac, kl_to_ref=0.0, objective_kind="gspo")


def reference_objective(groups, policy, ref_policy, cfg):
    if cfg.objective_kind == "gspo":
        return reference_gspo_loop(groups, policy, cfg)
    if cfg.objective_kind == "grpo":
        n_groups = len(groups)
        return reference_clipped_token_loop(groups, policy, ref_policy, cfg,
                                            lambda g, length: 1.0 / (n_groups * g * length))
    kept, _ = dapo_filter(groups)
    total = sum(len(t.tokens) for g in kept for t in trajectories(g))
    return reference_clipped_token_loop(kept, policy, None, cfg, lambda g, length: 1.0 / total)


def assert_same_report(got, expected):
    assert got.value == expected.value
    assert got.kl_to_ref == expected.kl_to_ref
    assert got.clipped_token_fraction == expected.clipped_token_fraction
    assert got.gradient.ids.tolist() == expected.gradient.ids.tolist()
    assert np.array_equal(got.gradient.blocks, expected.gradient.blocks)


def random_groups(rng, behavior, vocab, prompt_ids, n_groups, off_policy):
    """Rollout groups with some degenerate ones, empty trajectories and noisy old log-probs."""
    groups = []
    for _ in range(n_groups):
        pid = int(rng.choice(prompt_ids))
        size = int(rng.integers(2, 6))
        trajs = [sample_trajectory(behavior, pid, rng) for _ in range(size)]
        if rng.random() < 0.3:
            trajs[int(rng.integers(size))] = make_trajectory(behavior, pid, ())
        rewards = tuple(int(r) for r in rng.integers(0, 2, size=size))
        if rng.random() < 0.2:
            rewards = (rewards[0],) * size
        old = tuple(tuple(lp + off_policy * rng.normal() for lp in t.per_token_logp)
                    for t in trajs)
        groups.append(rollout_group(behavior, pid, trajs, rewards, old))
    return groups


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 5), max_len=st.integers(1, 10),
       n_groups=st.integers(1, 4), kind=st.sampled_from(["grpo", "dapo", "gspo"]),
       beta=st.sampled_from([0.0, 0.01, 0.3]), ref=st.sampled_from(["none", "self", "other"]),
       off_policy=st.sampled_from([0.0, 0.05, 0.5]), steps=st.integers(1, 3))
def test_token_batch_kernel_matches_the_per_token_loop(seed, vocab, max_len, n_groups, kind,
                                                       beta, ref, off_policy, steps):
    rng = np.random.default_rng(seed)
    # Prompt 7 has no stored rows; small vocabularies repeat prefixes often.
    # Random rows go down to depth 4; deeper prefixes start uniform. From 8
    # tokens on, np.mean sums pairwise, so GSPO's per-slice means are checked
    # on long trajectories too.
    behavior = PolicyTable(Vocab(vocab), max_len)
    for key, vec in random_policy(vocab, min(max_len, 4), rng, prompt_ids=(0, 1),
                                  scale=1.5).stored_items():
        behavior.set_logits(*key, vec)
    groups = random_groups(rng, behavior, vocab, (0, 1, 7), n_groups, off_policy)
    cfg = {"grpo": ClipConfig.grpo(beta=beta), "dapo": ClipConfig.dapo(),
           "gspo": ClipConfig("gspo", 0.02, 0.025)}[kind]
    policy = perturb(behavior, rng, radius=0.3)
    ref_policy = {"none": None, "self": policy, "other": behavior}[ref]
    # The same group objects serve every step, as reused rollouts do.
    for _ in range(steps):
        if kind == "grpo":
            got = grpo_objective(groups, policy, ref_policy, cfg)
        elif kind == "dapo":
            got = dapo_objective(groups, policy, cfg)
        else:
            got = gspo_objective(groups, policy, cfg)
        assert_same_report(got, reference_objective(groups, policy, ref_policy, cfg))
        policy = apply_update(policy, got.gradient, float(rng.choice([0.5, 4.0])))


@pytest.mark.parametrize("overrides", [{"rl.beta": 0.05}, {"rl.objective": "dapo"}])
def test_rl_steps_on_reused_groups_match_the_per_token_loop(overrides):
    cfg = ExperimentConfig.from_dict({"suite.count": 6, "rl.lr": 0.5, **overrides})
    suite = make_benchmark_suite(5, cfg.family_params())
    sps_cfg = cfg.sps_config()
    policy = ref = build_suite_policy(suite, cfg["suite.skew"], 5)
    rng = np.random.default_rng(11)
    groups = [sample_group(policy, task, sps_cfg.group_size, rng) for task in suite]
    records = []
    for step in range(4):
        expected = reference_objective(groups, policy, ref, sps_cfg.clip)
        new_policy, record, stepped = rl_step(policy, suite, sps_cfg, 11, ref_policy=ref,
                                              step_index=step, groups=groups)
        # A step on handed-in groups steps on those groups.
        assert stepped is groups
        assert record.value == expected.value
        assert record.kl == expected.kl_to_ref
        assert record.clipped_frac == expected.clipped_token_fraction
        want = apply_update(policy, expected.gradient, sps_cfg.rl_lr * len(groups))
        assert [k for k, _ in new_policy.stored_items()] == [k for k, _ in want.stored_items()]
        for key, vec in want.stored_items():
            assert np.array_equal(new_policy.logit_vector(*key), vec), key
        policy = new_policy
        records.append(record)
    # The later steps are off-policy enough to clip some tokens.
    assert any(r.clipped_frac > 0 for r in records)


def test_grpo_and_dapo_steps_gather_no_per_trajectory_log_probs(monkeypatch):
    # The surrogate reads every token's log-prob from one gather over the flat
    # batch; no per-trajectory gather is left on its path.
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return _token_logps(*args)

    monkeypatch.setattr(policy_module, "_token_logps", counting)
    monkeypatch.setattr(objectives_module, "_token_logps", counting)
    for overrides in ({}, {"rl.objective": "dapo"}):
        cfg = ExperimentConfig.from_dict(overrides)
        seed = cfg["seed"]
        suite = make_benchmark_suite(seed, cfg.family_params())
        base = build_suite_policy(suite, cfg["suite.skew"], seed)
        sps_cfg = cfg.sps_config()
        assert sps_cfg.clip.beta > 0 or sps_cfg.clip.objective_kind == "dapo"
        new_policy, record, _ = rl_step(base, suite, sps_cfg, seed, ref_policy=base)
        assert new_policy is not base
        # A second step against a distinct reference policy reads its table too.
        rl_step(new_policy, suite, sps_cfg, seed + 1, ref_policy=base)
    assert calls == []


def test_grpo_and_dapo_steps_build_no_prefix_ids_for_sampled_trajectories(monkeypatch):
    # A sampled group holds the ids the sampler drew its tokens at, so a step
    # on a fresh, a resampled or a reused group calls no prefix_ids, in GRPO,
    # DAPO and GSPO steps alike.
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return prefix_ids(*args)

    def counting_blocks(*args):
        sampled.append(args[1])
        return sample_trajectories(*args)

    def forbidden(*args):
        raise AssertionError("GSPO reads its ratios off the flat batch")

    monkeypatch.setattr(policy_module, "prefix_ids", counting)
    monkeypatch.setattr(objectives_module, "sample_trajectories", counting_blocks)
    monkeypatch.setattr(objectives_module, "sequence_ratio_gspo", forbidden)
    for overrides in ({}, {"rl.objective": "dapo", "rl.dapo_max_resamples": 2},
                      {"rl.objective": "gspo"}):
        sampled = []
        cfg = ExperimentConfig.from_dict(overrides)
        seed = cfg["seed"]
        suite = make_benchmark_suite(seed, cfg.family_params())
        base = build_suite_policy(suite, cfg["suite.skew"], seed)
        sps_cfg = cfg.sps_config()
        new_policy, _, groups = rl_step(base, suite, sps_cfg, seed, ref_policy=base)
        assert new_policy is not base
        rl_step(new_policy, suite, sps_cfg, seed + 1, ref_policy=base, groups=groups)
        assert calls == []
        # DAPO resampled some degenerate groups, in a block of their own.
        assert (len(sampled) > 1) == (sps_cfg.clip.objective_kind == "dapo")


class _CountingRows(dict):
    """A row dict that counts its get calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_steps_and_coverage_passes_read_rows_from_the_dense_index_alone():
    # Once a policy version's dense row index exists, the sampler, the
    # surrogates, the update and the exact pass over the suite's correct sets
    # look up no prefix id in its row dict.
    cfg = ExperimentConfig.from_dict({})
    seed = cfg["seed"]
    suite = make_benchmark_suite(seed, cfg.family_params())
    base = build_suite_policy(suite, cfg["suite.skew"], seed)
    grpo_cfg = cfg.sps_config()
    dapo_cfg = cfg.with_value("rl.objective", "dapo").sps_config()
    assert grpo_cfg.clip.beta > 0
    stepped, _, groups = rl_step(base, suite, dapo_cfg, seed)
    for policy, step in ((base, lambda p: rl_step(p, suite, grpo_cfg, seed + 1, ref_policy=p)),
                         (stepped, lambda p: rl_step(p, suite, dapo_cfg, seed + 2, groups=groups)),
                         (stepped, lambda p: support_coverage(p, suite, 1e-4))):
        prefix_rows(policy, np.zeros(1, np.int64))
        policy._rows = rows = _CountingRows(policy._rows)
        step(policy)
        assert rows.gets == 0
        policy._rows = dict(rows)


@pytest.mark.parametrize("overrides", [{}, {"rl.objective": "gspo"},
                                       {"rl.objective": "dapo", "rl.dapo_max_resamples": 3},
                                       {"rl.objective": "dapo", "rl.dapo_max_resamples": 1}])
def test_rl_step_draws_one_block_per_retry(monkeypatch, overrides):
    # One derive_rng(seed, r) block per retry r: every prompt at r = 0, then
    # only the prompts still degenerate, in task order, while DAPO retries remain.
    streams, blocks, used = [], [], []

    def counting_rng(*args):
        streams.append(args)
        return derive_rng(*args)

    def counting_blocks(policy, prompt_ids, u, walks):
        groups = sample_trajectories(policy, prompt_ids, u, walks)
        degenerate = [p for p, g in zip(prompt_ids, groups) if len(set(g.rewards)) == 1]
        blocks.append((list(prompt_ids), u.shape, degenerate, groups))
        return groups

    monkeypatch.setattr(objectives_module, "derive_rng", counting_rng)
    monkeypatch.setattr(objectives_module, "sample_trajectories", counting_blocks)
    cfg = ExperimentConfig.from_dict({"suite.count": 12, **overrides})
    suite = make_benchmark_suite(7, cfg.family_params())
    sps_cfg = cfg.sps_config()
    retries = sps_cfg.dapo_max_resamples if sps_cfg.clip.objective_kind == "dapo" else 0
    policy = build_suite_policy(suite, cfg["suite.skew"], 7)
    for step in range(4):
        del streams[:], blocks[:]
        policy, _, groups = rl_step(policy, suite, sps_cfg, 50 + step, ref_policy=policy)
        assert streams == [(50 + step, r) for r in range(len(blocks))]
        assert blocks[0][0] == [t.prompt_id for t in suite]
        for (_, _, degenerate, _), (todo, _, _, _) in zip(blocks, blocks[1:]):
            assert todo == degenerate
        for todo, shape, _, _ in blocks:
            assert shape == (len(todo), sps_cfg.group_size, policy.max_len)
        assert len(blocks) == 1 + retries or (len(blocks) < 1 + retries and not blocks[-1][2])
        # Each prompt steps on the group its last block drew.
        last = {}
        for todo, _, _, drawn in blocks:
            last.update(zip(todo, drawn))
        assert [id(g) for g in groups] == [id(last[t.prompt_id]) for t in suite]
        used.append(len(blocks))
    assert (max(used) > 1) == (retries > 0)


# ---------------------------------------------------------------------------
# rl_step


def test_sample_group_scores_with_validator(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    group = sample_group(policy, diamond_task, 8, np.random.default_rng(0))
    assert group.size == 8
    for traj, reward in zip(trajectories(group), group.rewards):
        assert reward == validate(diamond_task, traj.tokens).reward
        assert traj.per_token_logp == tuple(trajectory_log_prob(policy, 0, traj.tokens)[0])


def test_rl_step_zero_lr_keeps_policy_and_fills_pool(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    cfg = SpsConfig(rl_lr=0.0, group_size=8, clip=ClipConfig.grpo(beta=0.0))
    new_policy, record, groups = rl_step(policy, [diamond_task], cfg, 123)
    pool = [traj for group in groups for traj in trajectories(group)]
    assert new_policy is policy
    assert len(pool) == 8
    assert all(traj.total_logp <= 0 for traj in pool)
    assert record.objective_kind == "grpo"


def test_rl_step_deterministic_under_seed(diamond_task):
    policy = skewed_base_policy(diamond_task, 2.0, seed=1)
    cfg = SpsConfig(group_size=8, clip=ClipConfig.grpo(beta=0.0))
    a = rl_step(policy, [diamond_task], cfg, 42)
    b = rl_step(policy, [diamond_task], cfg, 42)
    assert a[1] == b[1]
    assert ([t.tokens for g in a[2] for t in trajectories(g)]
            == [t.tokens for g in b[2] for t in trajectories(g)])


def test_rl_step_raises_positive_rollout_likelihood(diamond_task):
    # Stochastic contract: one on-policy GRPO step (beta 0) should raise the
    # mean log-prob of the positively rewarded rollouts in >= 18/20 seeds.
    cfg = SpsConfig(group_size=8, rl_lr=0.05, clip=ClipConfig.grpo(beta=0.0))
    wins = 0
    counted = 0
    for seed in range(20):
        policy = skewed_base_policy(diamond_task, 2.0, seed=7)
        new_policy, record, groups = rl_step(policy, [diamond_task], cfg, seed)
        pool = [(t, r) for g in groups for t, r in zip(trajectories(g), g.rewards)]
        positives = [t for t, r in pool if r == 1]
        if not positives or len(positives) == len(pool):
            continue
        counted += 1
        before = np.mean([trajectory_log_prob(policy, 0, t.tokens)[1]
                          for t in positives])
        after = np.mean([trajectory_log_prob(new_policy, 0, t.tokens)[1]
                         for t in positives])
        if after > before:
            wins += 1
    assert counted >= 18
    assert wins >= counted - 2


def test_rl_step_computes_each_log_prob_row_once_per_policy_version(monkeypatch):
    # One default-size step reads two policy versions (the sampling policy,
    # which is also the KL reference, and the updated one). Every row of each
    # may pass through the log-softmax kernel at most once.
    cfg = ExperimentConfig.from_dict({})
    seed = cfg["seed"]
    suite = make_benchmark_suite(seed, cfg.family_params())
    base = build_suite_policy(suite, cfg["suite.skew"], seed)
    kernel = policy_module._log_softmax
    rows = []

    def counting_kernel(z):
        rows.append(1 if z.ndim == 1 else z.shape[0])
        return kernel(z)

    monkeypatch.setattr(policy_module, "_log_softmax", counting_kernel)
    new_policy, _, _ = rl_step(base, suite, cfg.sps_config(), seed, ref_policy=base)
    assert new_policy is not base
    assert 0 < sum(rows) <= (base.stored_prefix_count + 1) + (new_policy.stored_prefix_count + 1)


def test_step_record_csv_layout():
    rec = StepRecord(step=3, objective_kind="grpo", value=0.125,
                     clipped_frac=0.0, kl=0.5, mean_reward=0.25,
                     entropy_root=1.25, greedy_logp=-2.5)
    # Every value field prints as a float, whatever numeric type it holds.
    ints = StepRecord(step=4, objective_kind="dapo", value=0, clipped_frac=np.float64(0.5),
                      kl=0, mean_reward=1, entropy_root=np.float64(1.25), greedy_logp=-2)
    assert TrainTrace(step_records=[rec, ints]).steps_csv() == (
        "step,objective_kind,value,clipped_frac,kl,mean_reward,"
        "entropy_root,greedy_logp\n"
        "3,grpo,0.125,0.0,0.5,0.25,1.25,-2.5\n"
        "4,dapo,0.0,0.5,0.0,1.0,1.25,-2.0\n")
    assert TrainTrace().steps_csv().count("\n") == 1


def test_clip_config_validation():
    with pytest.raises(ValueError):
        ClipConfig("grpo", 0.2, 0.3)  # grpo must be symmetric
    with pytest.raises(ValueError):
        ClipConfig("dapo", 0.2, 0.28, beta=0.01)  # KL is grpo-only
    with pytest.raises(ValueError):
        ClipConfig("nope", 0.2, 0.2)
    cfg = ClipConfig.dapo()
    assert (cfg.eps_low, cfg.eps_high) == (0.2, 0.28)
    cfg = ClipConfig.gspo()
    assert (cfg.eps_low, cfg.eps_high) == (3e-4, 4e-4)
    cfg = ClipConfig.grpo()
    assert (cfg.eps_low, cfg.eps_high, cfg.beta) == (0.2, 0.2, 0.01)


# ---------------------------------------------------------------------------
# per-step diagnostics


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 12), n_tasks=st.integers(1, 40),
       scale=st.sampled_from([0.5, 5.0, 500.0]))
def test_mean_root_entropy_is_the_mean_of_per_row_entropies(seed, vocab, n_tasks, scale):
    rng = np.random.default_rng(seed)
    policy = PolicyTable(Vocab(vocab), max_len=2)
    for pid in range(n_tasks):
        if rng.random() < 0.8:  # the others read the zero row
            policy.set_logits(pid, (), scale * rng.normal(size=vocab))
    # A row whose probabilities, all but one, underflow to exactly 0.
    policy.set_logits(n_tasks + 1, (), [0.0] + [-800.0] * (vocab - 1))
    # _mean_root_entropy reads only each task's prompt_id.
    tasks = [SimpleNamespace(prompt_id=pid) for pid in rng.permutation(n_tasks + 2).tolist()]
    expected = float(np.mean([entropy(np.exp(_log_probs(policy, t.prompt_id, ())))
                              for t in tasks]))
    assert (np.exp(policy._log_prob_table()) == 0.0).any()
    assert _mean_root_entropy(policy, tasks) == expected
