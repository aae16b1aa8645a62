"""Demo selection, the IRL stage, and the alternating training loop."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.errors import NoRollouts
from squeezelab.metrics import mean_mass_on_correct, sample_matrix, support_coverage
from squeezelab import objectives, sps
from squeezelab import policy as policy_module
from squeezelab.config import ExperimentConfig
from squeezelab.objectives import ClipConfig, rl_step
from squeezelab.policy import (
    PolicyTable,
    Trajectory,
    Vocab,
    apply_update,
    derive_rng,
    make_trajectory,
    prefix_ids,
    prefix_key,
    prefix_rows,
    sample_trajectory,
    score_gradient,
    sequence_batch,
    take_sequences,
    trajectory_log_prob,
)
from squeezelab.rollouts import rollout_record
from squeezelab.sps import (
    LOW_LIKELIHOOD,
    POSITIVE_AUGMENT,
    SpsConfig,
    TraceRecord,
    TrainTrace,
    _step_seed,
    grpo_baseline_loop,
    irl_step,
    l2te_select,
    sps_loop,
)
from squeezelab.tasks import (FamilyParams, TaskInstance, build_suite_policy,
                              make_benchmark_suite, skewed_base_policy)

from conftest import (
    batch_sequences,
    demo_batch,
    demo_blocks,
    finite_difference_blocks,
    group_fields,
    irl_descent_step,
    irl_loss,
    irl_value,
    random_policy,
    rollout_group,
    trajectories,
)

LN4 = math.log(4.0)


def pooled(logps, rewards, lengths=None):
    """One synthetic prompt-0 record with prescribed behavior total logps."""
    policy = PolicyTable(Vocab(4), max_len=3)
    trajs = tuple(
        dataclasses.replace(make_trajectory(policy, 0, (0,) * (lengths[i] if lengths else 1)),
                            total_logp=lp)
        for i, lp in enumerate(logps))
    return [rollout_group(policy, 0, trajs, rewards)]


def policy_state(policy):
    return {key: vec.tolist() for key, vec in policy.stored_items()}


def complete_sequences(vocab_size, max_len):
    term = vocab_size - 1
    seqs = []

    def rec(prefix):
        if len(prefix) == max_len:
            seqs.append(tuple(prefix))
            return
        for tok in range(vocab_size):
            if tok == term:
                seqs.append(tuple(prefix) + (term,))
            else:
                rec(prefix + [tok])

    rec([])
    return seqs


def total_mass(policy, sequences):
    return sum(math.exp(trajectory_log_prob(policy, 0, s)[1]) for s in sequences)


# ---------------------------------------------------------------------------
# demo selection


def test_l2te_picks_lowest_normalized_logps():
    pool = pooled([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0], [0] * 8)
    cfg = SpsConfig(sampling_size=3)
    demos = l2te_select(pool, 0, cfg)
    assert [d.normalized_logp for d in demos.entries] == [-8.0, -7.0, -6.0]
    assert all(d.source == LOW_LIKELIHOOD for d in demos.entries)
    np.testing.assert_allclose(
        [d.quantile_rank for d in demos.entries], [0 / 7, 1 / 7, 2 / 7])


def test_l2te_all_positive_pool_branches_on_threshold():
    logps = [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0]
    pool = pooled(logps, [1] * 8)
    pure = l2te_select(pool, 0, SpsConfig(sampling_size=3,
                                          min_negatives_for_pure_l2te=0))
    assert all(d.source == LOW_LIKELIHOOD for d in pure.entries)
    augmented = l2te_select(pool, 0, SpsConfig(sampling_size=3))
    assert all(d.source == POSITIVE_AUGMENT for d in augmented.entries)
    # Both branches still rank by likelihood alone.
    for demos in (pure, augmented):
        assert [d.normalized_logp for d in demos.entries] == [-8.0, -7.0, -6.0]


def test_l2te_scarce_negatives_get_positive_augmentation():
    logps = [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0]
    rewards = [1, 1, 1, 1, 0, 1, 1, 1]  # lone negative at logp -5
    pool = pooled(logps, rewards)
    cfg = SpsConfig(sampling_size=3, min_negatives_for_pure_l2te=2)
    demos = l2te_select(pool, 0, cfg)
    by_source = {}
    for d in demos.entries:
        by_source.setdefault(d.source, []).append(d.normalized_logp)
    assert by_source[LOW_LIKELIHOOD] == [-5.0]
    assert by_source[POSITIVE_AUGMENT] == [-8.0, -7.0]


def test_l2te_quantile_window_can_exclude_the_negatives():
    # Ranks 0..4 are positives, ranks 5..7 negatives. A 0.5 quantile keeps
    # only the bottom four ranks, so the pure branch loses its negatives and
    # selection falls back to positive augmentation of the same trajectories.
    logps = [-8.0, -7.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0]
    rewards = [1, 1, 1, 1, 1, 0, 0, 0]
    pool = pooled(logps, rewards)
    wide = l2te_select(pool, 0, SpsConfig(sampling_size=3))
    assert all(d.source == LOW_LIKELIHOOD for d in wide.entries)
    narrow = l2te_select(pool, 0, SpsConfig(sampling_size=3, quantile=0.5))
    assert all(d.source == POSITIVE_AUGMENT for d in narrow.entries)
    assert ([d.normalized_logp for d in narrow.entries]
            == [d.normalized_logp for d in wide.entries]
            == [-8.0, -7.0, -6.0])


def test_l2te_raw_total_flag_flips_length_normalization():
    # Entry 0: one token, total -2 (per-token -2). Entry 1: three tokens,
    # total -3 (per-token -1). Normalized ranking picks the first, raw
    # ranking the second.
    pool = pooled([-2.0, -3.0], [0, 0], lengths=[1, 3])
    normalized = l2te_select(pool, 0, SpsConfig(sampling_size=1))
    assert normalized.entries[0].normalized_logp == -2.0
    raw = l2te_select(pool, 0, SpsConfig(sampling_size=1, l2te_raw_total=True))
    assert raw.entries[0].normalized_logp == -3.0
    assert raw.batch.lengths.tolist() == [3]


def test_l2te_ties_keep_insertion_order():
    pool = pooled([-3.0, -3.0, -3.0], [0, 0, 0], lengths=[1, 2, 3])
    demos = l2te_select(pool, 0, SpsConfig(sampling_size=1, l2te_raw_total=True))
    assert demos.batch.lengths.tolist() == [1]


def test_l2te_empty_pool_raises():
    with pytest.raises(NoRollouts):
        l2te_select([], 0, SpsConfig())


def test_l2te_caps_k_at_pool_size():
    pool = pooled([-1.0, -2.0], [0, 0])
    demos = l2te_select(pool, 0, SpsConfig(sampling_size=3, group_size=8))
    assert len(demos) == 2


def test_sampling_and_demo_selection_build_no_trajectories(diamond_task, monkeypatch):
    # Sampled rollouts stay arrays: sampling builds no Trajectory, and
    # l2te_select takes the demos it picks out of the candidates' arrays.
    few = pooled([-1.0, -2.0], [0, 0])
    built = []
    init = Trajectory.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trajectory, "__init__", counting)
    policy = skewed_base_policy(diamond_task, 2.0, seed=1)
    groups = [objectives.sample_group(policy, diamond_task, 8, derive_rng(5, step))
              for step in range(4)]
    matrix = sample_matrix(policy, [diamond_task] * 3, 16, derive_rng(5, 9))
    assert matrix.rewards.shape == (3, 16)
    assert built == []
    for pool, sampling_size, picked in ((groups, 1, 1), (groups, 3, 3), (groups, 8, 8),
                                        (few, 3, 2)):
        demos = l2te_select(pool, 0, SpsConfig(group_size=8, sampling_size=sampling_size))
        assert len(demos) == len(demos.batch.lengths) == picked
    assert built == []


# The selection as it read a pool of per-rollout copies, kept as the oracle
# for l2te_select on a list of one-prompt records and on one joined record.
@dataclasses.dataclass(frozen=True)
class PoolEntry:
    prompt_id: int
    trajectory: Trajectory
    reward: int
    behavior_total_logp: float
    rl_step_index: int


class RolloutPool:
    def __init__(self, groups, groups_per_step):
        self.entries = [
            PoolEntry(prompt_id=g.prompt_ids[0], trajectory=traj, reward=reward,
                      behavior_total_logp=traj.total_logp, rl_step_index=i // groups_per_step)
            for i, g in enumerate(groups) for traj, reward in zip(trajectories(g), g.rewards)]

    def for_prompt(self, prompt_id):
        return [e for e in self.entries if e.prompt_id == prompt_id]


def reference_l2te_select(pool, prompt_id, cfg):
    """(tokens, normalized_logp, quantile_rank, source) of each demo, in order."""
    def key(entry):
        if cfg.l2te_raw_total:
            return entry.behavior_total_logp
        return entry.behavior_total_logp / max(len(entry.trajectory.tokens), 1)

    cands = pool.for_prompt(prompt_id)
    n = len(cands)
    k = min(cfg.sampling_size, n)
    order = sorted(range(n), key=lambda i: key(cands[i]))
    rank_of = {idx: pos for pos, idx in enumerate(order)}
    window = order if cfg.quantile is None else order[:max(k, math.ceil(cfg.quantile * n))]
    negatives = [i for i in window if cands[i].reward == 0]
    if len(negatives) >= cfg.min_negatives_for_pure_l2te:
        chosen = [(i, LOW_LIKELIHOOD) for i in window[:k]]
    else:
        chosen = [(i, LOW_LIKELIHOOD) for i in negatives[:k]]
        for i in window:
            if len(chosen) >= k:
                break
            if cands[i].reward == 1:
                chosen.append((i, POSITIVE_AUGMENT))
    return [(cands[i].trajectory.tokens, key(cands[i]), rank_of[i] / max(n - 1, 1), src)
            for i, src in chosen]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_l2te_select_on_groups_matches_the_pool_reference(data):
    steps = data.draw(st.integers(1, 3))
    prompts = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    group_size = data.draw(st.integers(2, 5))
    max_len = data.draw(st.integers(1, 4))
    policy = PolicyTable(Vocab(64), max_len)
    groups = []
    for _ in range(steps):
        for pid in prompts:
            trajs, rewards = [], []
            for _ in range(group_size):
                length = data.draw(st.integers(1, max_len))
                # Few totals, so raw and length-normalized keys tie often; the
                # serial in the first token keeps tied trajectories unequal.
                total = data.draw(st.sampled_from([-4.0, -2.0, -1.0, -0.5]))
                serial = len(groups) * group_size + len(trajs)
                trajs.append(Trajectory(pid, (serial,) + (0,) * (length - 1), (0.0,) * length,
                                        total))
                rewards.append(data.draw(st.integers(0, 1)))
            groups.append(rollout_group(policy, pid, trajs, rewards))
    cfg = SpsConfig(group_size=group_size,
                    sampling_size=data.draw(st.integers(1, group_size)),
                    quantile=data.draw(st.none() | st.floats(0.01, 1.0)),
                    min_negatives_for_pure_l2te=data.draw(st.integers(0, 4)),
                    l2te_raw_total=data.draw(st.booleans()))
    pool = RolloutPool(groups, len(prompts))
    joined = rollout_record(groups)  # the form sps_loop passes
    # The candidate index holds each prompt's rollouts in record order, as
    # one mask over every rollout finds them.
    assert sorted(joined.candidates) == sorted(prompts)
    rollout_prompts = np.repeat(np.array(joined.prompt_ids), joined.sizes)
    for pid, positions in joined.candidates.items():
        assert positions.tolist() == np.flatnonzero(rollout_prompts == pid).tolist()
    with pytest.raises(NoRollouts):
        l2te_select(joined, 6, cfg)
    for pid in prompts:
        want = reference_l2te_select(pool, pid, cfg)
        for candidates in (groups, joined):
            demos = l2te_select(candidates, pid, cfg)
            got = [(tokens, d.normalized_logp, d.quantile_rank, d.source)
                   for tokens, d in zip(batch_sequences(demos.batch), demos.entries)]
            assert got == want
            # Each demo's ids are its own rows of the joined batch.
            numbered = sequence_batch(policy, [(pid, t) for t in batch_sequences(demos.batch)])
            assert demos.batch.ids.tolist() == numbered.ids.tolist()


# ---------------------------------------------------------------------------
# IRL stage


def test_irl_value_uniform_policy_reference():
    policy = PolicyTable(Vocab(4), max_len=3)
    traj = make_trajectory(policy, 0, (0, 1, 2))
    np.testing.assert_allclose(irl_value(policy, [traj]), 3 * LN4, atol=1e-6)
    np.testing.assert_allclose(3 * LN4, 4.158883, atol=1e-6)


def test_irl_value_vanishes_on_a_dominant_path():
    policy = PolicyTable(Vocab(4), max_len=2)
    policy.set_logits(0, (), [60.0, 0.0, 0.0, 0.0])
    policy.set_logits(0, (0,), [0.0, 60.0, 0.0, 0.0])
    traj = make_trajectory(policy, 0, (0, 1))
    assert irl_value(policy, [traj]) < 1e-9


def test_irl_loss_value_and_gradient_consistency():
    rng = np.random.default_rng(17)
    policy = random_policy(4, 3, rng)
    demos = [make_trajectory(policy, 0, (0, 1, 2)),
             make_trajectory(policy, 0, (2, 3))]
    value, grad = irl_loss(policy, demos)
    np.testing.assert_allclose(value, irl_value(policy, demos), rtol=1e-12)
    keys = sorted({(0, d.tokens[:t]) for d in demos for t in range(len(d.tokens))})
    fd = finite_difference_blocks(lambda p: irl_value(p, demos), policy, keys)
    for key in keys:
        np.testing.assert_allclose(grad[key], fd[key],
                                   rtol=1e-4, atol=1e-8)


def test_irl_loss_value_is_exactly_irl_value():
    # The line search compares irl_value against irl_loss's value, so the two
    # must sum the same NLL in the same order, bit for bit.
    rng = np.random.default_rng(29)
    for _ in range(300):
        vocab = int(rng.integers(2, 6))
        max_len = int(rng.integers(1, 4))
        policy = random_policy(vocab, max_len, rng, prompt_ids=(0, 1),
                               scale=float(rng.choice([0.5, 3.0])))
        demos = []
        for _ in range(int(rng.integers(1, 8))):
            length = int(rng.integers(1, max_len + 1))
            demos.append(make_trajectory(policy, int(rng.integers(0, 2)),
                                         tuple(int(t) for t in rng.integers(0, vocab, size=length))))
        assert irl_loss(policy, demos)[0] == irl_value(policy, demos)


def test_irl_descent_step_decreases_loss():
    rng = np.random.default_rng(23)
    policy = random_policy(4, 2, rng)
    demos = [make_trajectory(policy, 0, (0, 1)), make_trajectory(policy, 0, (1,))]
    before = irl_value(policy, demos)
    after_policy, after = irl_descent_step(policy, demos, 0.1)
    assert after < before
    np.testing.assert_allclose(after, irl_value(after_policy, demos), rtol=1e-12)


def test_irl_descent_step_zero_lr_is_identity():
    policy = PolicyTable(Vocab(4), max_len=2)
    demos = [make_trajectory(policy, 0, (0, 1))]
    same, val = irl_descent_step(policy, demos, 0.0)
    assert same is policy
    np.testing.assert_allclose(val, irl_value(policy, demos), rtol=1e-12)


def test_irl_descent_step_halving_guard_never_increases_loss():
    rng = np.random.default_rng(29)
    policy = random_policy(4, 2, rng)
    demos = [make_trajectory(policy, 0, (0, 1))]
    before = irl_value(policy, demos)
    _, after = irl_descent_step(policy, demos, 1e6)
    assert after <= before


def test_irl_descent_builds_the_demo_terms_once(monkeypatch):
    # The demos do not change during a descent, so every line-search pass
    # reuses the terms built for the loss.
    rng = np.random.default_rng(31)
    policy = random_policy(4, 3, rng, prompt_ids=(0, 1, 2), scale=2.0)
    blocks = demo_blocks(policy, [[sample_trajectory(policy, pid, rng) for _ in range(3)]
                                  for pid in (0, 1, 2)])
    built, valued = [], []

    def counting_join(*args):
        built.append(args)
        return join_batches(*args)

    def counting_value(*args):
        valued.append(args)
        return irl_value_blocks(*args)

    join_batches, irl_value_blocks = sps.join_batches, sps.irl_value
    monkeypatch.setattr(sps, "join_batches", counting_join)
    monkeypatch.setattr(sps, "irl_value", counting_value)
    after, values = sps.irl_descent_step(policy, blocks, 50.0)
    assert len(built) == 1 and len(valued) > 1  # the rate is large enough to halve
    # Every block moved, and each value has the bits of a fresh irl_value.
    assert all(map(float.__lt__, values, irl_value_blocks(policy, blocks)))
    assert values == irl_value_blocks(after, blocks)


@pytest.mark.parametrize("max_halvings, extra", [(30, 0), (0, 1)])
def test_irl_descent_makes_one_update_per_line_search_pass(monkeypatch, max_halvings, extra):
    # Each pass's policy holds the steps of the blocks still searching and of
    # those accepted, so the last pass's policy is the result; only blocks
    # that give up after max_halvings need one more update without them.
    rng = np.random.default_rng(31)
    policy = random_policy(4, 3, rng, prompt_ids=(0, 1, 2), scale=2.0)
    blocks = demo_blocks(policy, [[sample_trajectory(policy, pid, rng) for _ in range(3)]
                                  for pid in (0, 1, 2)])
    updated, valued = [], []

    def counting_update(*args):
        updated.append(args)
        return apply_update(*args)

    def counting_value(*args):
        valued.append(args)
        return irl_value_blocks(*args)

    apply_update, irl_value_blocks = sps.apply_update, sps.irl_value
    monkeypatch.setattr(sps, "apply_update", counting_update)
    monkeypatch.setattr(sps, "irl_value", counting_value)
    after, values = sps.irl_descent_step(policy, blocks, 50.0, max_halvings)
    assert len(valued) == max_halvings + 1 if extra else len(valued) > 1
    assert len(updated) == len(valued) + extra
    assert after is not policy and values == irl_value_blocks(after, blocks)


def irl_stage(policy, demo_sets, cfg):
    """Every IRL step of one iteration, as the training loop runs them."""
    for s in range(cfg.irl_steps_per_iteration):
        policy, _ = irl_step(policy, demo_sets, cfg, s)
    return policy


def test_irl_step_raises_mean_demo_likelihood():
    policy = PolicyTable(Vocab(4), max_len=2)
    demos = [make_trajectory(policy, 0, (0, 1)), make_trajectory(policy, 0, (2,))]
    cfg = SpsConfig(irl_steps_per_iteration=5, irl_lr=0.1)
    after = irl_stage(policy, demo_blocks(policy, [demos]), cfg)
    assert irl_value(after, demos) < irl_value(policy, demos)
    assert irl_step(policy, demo_blocks(policy, [demos]), SpsConfig(irl_lr=0.0), 0)[0] is policy


def test_irl_step_circular_batches_still_descend():
    policy = PolicyTable(Vocab(4), max_len=2)
    demos = [make_trajectory(policy, 0, (0, 1)),
             make_trajectory(policy, 0, (1, 0)),
             make_trajectory(policy, 0, (2,))]
    cfg = SpsConfig(irl_steps_per_iteration=6, irl_lr=0.05, irl_batch_size=2)
    after = irl_stage(policy, demo_blocks(policy, [demos]), cfg)
    assert irl_value(after, demos) < irl_value(policy, demos)


def _sequential_mean_nll(policy, demos):
    total = 0.0
    for traj in demos:
        total += trajectory_log_prob(policy, traj.prompt_id, traj.tokens)[1]
    return -total / len(demos)


def _sequential_descent(policy, demos, lr, max_halvings=30):
    """One block's guarded descent step, as irl_descent_step ran it block by block."""
    if lr == 0.0:
        return policy, _sequential_mean_nll(policy, demos)
    val0 = _sequential_mean_nll(policy, demos)
    ids = np.array([i for traj in demos for i in prefix_ids(policy, traj.prompt_id, traj.tokens)],
                   np.int64)
    tokens = [tok for traj in demos for tok in traj.tokens]
    grad = score_gradient(policy, ids, prefix_rows(policy, ids), tokens,
                          np.full(len(ids), -1.0 / len(demos)))
    if not len(grad.ids):
        return policy, val0
    step = lr
    for _ in range(max_halvings + 1):
        cand = apply_update(policy, grad, -step)
        val1 = _sequential_mean_nll(cand, demos)
        if val1 <= val0:
            return cand, val1
        step /= 2.0
    return policy, val0


def _circular_slice(demos, batch_size, s):
    """The batch_size demos from s * batch_size on, wrapping around; all of them if fewer."""
    n = len(demos)
    if batch_size is None or batch_size >= n:
        return demos
    start = (s * batch_size) % n
    return [demos[(start + j) % n] for j in range(batch_size)]


def _sequential_irl_step(policy, demo_sets, cfg, s):
    """The IRL step as a loop of one descent per prompt, prompt after prompt."""
    if cfg.irl_scope == "full_suite":
        demo_sets = [[traj for demos in demo_sets for traj in demos]]
    losses = []
    for demos in demo_sets:
        policy, loss = _sequential_descent(
            policy, _circular_slice(demos, cfg.irl_batch_size, s), cfg.irl_lr)
        losses.append(loss)
    return policy, float(np.mean(losses))


def assert_same_policy(got, ref):
    assert list(got._rows.items()) == list(ref._rows.items())
    assert np.array_equal(got._logit_rows(), ref._logit_rows())
    assert np.array_equal(got._log_prob_table(), ref._log_prob_table())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 5), max_len=st.integers(1, 4),
       prompts=st.integers(1, 4), scope=st.sampled_from(sps.SCOPES),
       batch_size=st.sampled_from([None, 1, 2]), lr=st.sampled_from([0.005, 0.5, 20.0, 1e4]))
def test_irl_step_matches_the_sequential_per_prompt_loop(seed, vocab, max_len, prompts,
                                                          scope, batch_size, lr):
    rng = np.random.default_rng(seed)
    # A few stored prefixes per prompt, so descents also allocate new keys.
    policy = PolicyTable(Vocab(vocab), max_len)
    for prompt_id in range(prompts):
        for _ in range(int(rng.integers(0, 4))):
            prefix = tuple(int(t) for t in rng.integers(0, vocab, size=rng.integers(0, max_len)))
            policy.set_logits(prompt_id, prefix, float(rng.choice([0.5, 4.0]))
                              * rng.normal(size=vocab))
    demo_sets = [[make_trajectory(policy, prompt_id,
                                  tuple(int(t) for t in rng.integers(
                                      0, vocab, size=rng.integers(0, max_len + 1))))
                  for _ in range(int(rng.integers(1, 5)))]
                 for prompt_id in range(prompts)]
    cfg = SpsConfig(irl_lr=lr, irl_scope=scope, irl_batch_size=batch_size)
    got = ref = policy
    for s in range(3):
        got, got_loss = irl_step(got, demo_blocks(policy, demo_sets), cfg, s)
        ref, ref_loss = _sequential_irl_step(ref, demo_sets, cfg, s)
        assert got_loss == ref_loss
        assert_same_policy(got, ref)


def test_irl_descent_step_blocks_that_give_up_allocate_no_rows():
    policy = PolicyTable(Vocab(3), max_len=2)
    policy.set_logits(1, (), [4.0, 0.0, 0.0])
    policy.set_logits(2, (), [4.0, 0.0, 0.0])
    # One demo per prefix only gains likelihood along its score; two demos
    # that split prompt 1's and 2's root overshoot at a huge rate.
    accepts = [make_trajectory(policy, 0, (0, 1))]
    gives_up = [make_trajectory(policy, 1, (0, 1)), make_trajectory(policy, 1, (1, 0))]
    also_gives_up = [make_trajectory(policy, 2, (0, 1)), make_trajectory(policy, 2, (1, 0))]
    blocks = [gives_up, accepts, also_gives_up]
    before = sps.irl_value(policy, demo_blocks(policy, blocks))
    after, values = sps.irl_descent_step(policy, demo_blocks(policy, blocks), 1e4,
                                         max_halvings=0)
    assert values[0] == before[0] and values[2] == before[2]
    assert values[1] < before[1]
    assert ({prefix_key(after, key) for key in after._rows if key not in policy._rows}
            == {(0, ()), (0, (0,))})
    ref, ref_values = policy, []
    for block in blocks:
        ref, value = _sequential_descent(ref, block, 1e4, max_halvings=0)
        ref_values.append(value)
    assert values == ref_values
    assert_same_policy(after, ref)
    # With no block moving, the input policy comes back.
    same, values = sps.irl_descent_step(policy, demo_blocks(policy, [gives_up, also_gives_up]),
                                        1e4, max_halvings=0)
    assert same is policy
    assert values == [before[0], before[2]]


def test_irl_descent_step_rejects_blocks_that_share_a_prompt():
    policy = PolicyTable(Vocab(3), max_len=2)
    demo = demo_batch(policy, [make_trajectory(policy, 0, (0, 1))])
    with pytest.raises(ValueError, match="share prompt 0"):
        sps.irl_descent_step(policy, [demo, demo], 0.1)


def test_irl_functions_reject_an_empty_block():
    policy = PolicyTable(Vocab(3), max_len=2)
    demo = demo_batch(policy, [make_trajectory(policy, 0, (0, 1))])
    for call in (sps.irl_value, sps.irl_loss,
                 lambda policy, blocks: sps.irl_descent_step(policy, blocks, 0.1)):
        with pytest.raises(ValueError, match="demos must be nonempty"):
            call(policy, [demo, take_sequences(demo, [])])


def test_irl_stage_restores_demo_mass_and_keeps_normalization(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=3)
    cfg = SpsConfig(group_size=8, sampling_size=3, irl_steps_per_iteration=4,
                    irl_lr=0.05, rl_lr=0.0, clip=ClipConfig.grpo(beta=0.0))
    _, _, groups = rl_step(policy, [diamond_task], cfg, 11)
    demos = l2te_select(groups, 0, cfg)
    after = irl_stage(policy, [demos.batch], cfg)
    demo_seqs = set(batch_sequences(demos.batch))
    before_mass = total_mass(policy, demo_seqs)
    after_mass = total_mass(after, demo_seqs)
    assert after_mass > before_mass
    space = complete_sequences(4, 2)
    np.testing.assert_allclose(total_mass(after, space), 1.0, atol=1e-9)
    np.testing.assert_allclose(total_mass(policy, space), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# the alternating loop


def small_cfg(**overrides):
    base = dict(group_size=4, sampling_size=2, rl_steps_per_iteration=2,
                irl_steps_per_iteration=2, max_iterations=2, rl_lr=0.05,
                irl_lr=0.01, clip=ClipConfig.grpo(beta=0.0))
    base.update(overrides)
    return SpsConfig(**base)


def test_sps_loop_zero_iterations_returns_base(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=0)
    final, trace = sps_loop(policy, [diamond_task], small_cfg(max_iterations=0), 5)
    assert final is policy
    assert trace.records == []
    assert trace.step_records == []


def test_sps_loop_phase_schedule_and_seeds(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=2)
    final, trace = sps_loop(policy, [diamond_task], small_cfg(), 123)
    assert [r.phase for r in trace.records] == [
        "RL", "RL", "IRL", "IRL", "RL", "RL", "IRL", "IRL"]
    assert [r.iter for r in trace.records] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert [r.step for r in trace.records] == list(range(8))
    for r in trace.records:
        if r.phase == "RL":
            assert r.objective is not None and r.irl_loss is None
            s_in_iter = r.step % 4 if r.step % 4 < 2 else None
            assert r.seed == _step_seed(123, r.iter, s_in_iter)
        else:
            assert r.objective is None and r.irl_loss is not None
            assert r.seed == 123
    assert len(trace.step_records) == 4  # one per RL step


def test_sps_loop_irl_disabled_matches_baseline_bitwise(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=4)
    no_irl = small_cfg(irl_steps_per_iteration=0)
    with_irl = small_cfg()
    a, trace_a = sps_loop(policy, [diamond_task], no_irl, 77)
    b, trace_b = grpo_baseline_loop(policy, [diamond_task], with_irl, 77)
    assert policy_state(a) == policy_state(b)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()
    assert all(r.phase == "RL" for r in trace_b.records)


def test_sps_loop_irl_stage_changes_the_outcome(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=4)
    a, _ = sps_loop(policy, [diamond_task], small_cfg(), 77)
    b, _ = grpo_baseline_loop(policy, [diamond_task], small_cfg(), 77)
    assert policy_state(a) != policy_state(b)


def test_sps_loop_deterministic_per_seed(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=6)
    a, trace_a = sps_loop(policy, [diamond_task], small_cfg(), 9)
    b, trace_b = sps_loop(policy, [diamond_task], small_cfg(), 9)
    assert policy_state(a) == policy_state(b)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()


def test_sps_loop_full_suite_irl_scope_runs(diamond_task):
    second = TaskInstance(prompt_id=1, label=diamond_task.label,
                          spec=diamond_task.spec)
    policy = skewed_base_policy(diamond_task, 1.0, seed=8)
    cfg = small_cfg(irl_scope="full_suite", max_iterations=1)
    final, trace = sps_loop(policy, [diamond_task, second], cfg, 13)
    irl_records = [r for r in trace.records if r.phase == "IRL"]
    assert len(irl_records) == 2
    assert all(r.irl_loss is not None for r in irl_records)


@pytest.mark.parametrize("scope", ["per_prompt", "full_suite"])
def test_sps_loop_irl_batch_size_limits_each_descent(diamond_task, monkeypatch, scope):
    second = TaskInstance(prompt_id=1, label=diamond_task.label,
                          spec=diamond_task.spec)
    policy = skewed_base_policy(diamond_task, 1.0, seed=8)
    steps = []
    descent = sps.irl_descent_step

    def recording_descent(policy, blocks, lr):
        # Each demo's prompt, read off the prefix id of its first token.
        steps.append([[block.ids[start] // policy.span
                       for start in (np.cumsum(block.lengths) - block.lengths).tolist()]
                      for block in blocks])
        return descent(policy, blocks, lr)

    monkeypatch.setattr(sps, "irl_descent_step", recording_descent)
    cfg = small_cfg(irl_scope=scope, max_iterations=1, irl_batch_size=1)
    sps_loop(policy, [diamond_task, second], cfg, 13)
    if scope == "per_prompt":
        # One descent per step over one block per prompt, one demo each.
        assert steps == [[[0], [1]]] * cfg.irl_steps_per_iteration
    else:
        assert steps == [[[0]]] * cfg.irl_steps_per_iteration
    steps.clear()
    sps_loop(policy, [diamond_task, second], small_cfg(irl_scope=scope, max_iterations=1), 13)
    full = [[0] * 2, [1] * 2] if scope == "per_prompt" else [[0] * 2 + [1] * 2]
    assert steps == [full] * cfg.irl_steps_per_iteration


def test_sps_loop_reuse_rollouts_freezes_the_batch(diamond_task):
    policy = skewed_base_policy(diamond_task, 1.0, seed=1)
    cfg = small_cfg(reuse_rollouts=True, rl_steps_per_iteration=3,
                    max_iterations=1, irl_steps_per_iteration=0)
    final, trace = sps_loop(policy, [diamond_task], cfg, 21)
    rl_rewards = [r.mean_reward for r in trace.records if r.phase == "RL"]
    assert len(rl_rewards) == 3
    assert rl_rewards[0] == rl_rewards[1] == rl_rewards[2]


@pytest.mark.parametrize("reuse", [True, False])
def test_sps_loop_demo_candidates_are_the_freshly_sampled_groups(diamond_task, monkeypatch,
                                                                 reuse):
    second = TaskInstance(prompt_id=1, label=diamond_task.label, spec=diamond_task.spec)
    policy = skewed_base_policy(diamond_task, 1.0, seed=5)
    cfg = small_cfg(reuse_rollouts=reuse, rl_steps_per_iteration=3)
    fresh, seen = [], []

    def recording_rl_step(*args, **kwargs):
        result = rl_step(*args, **kwargs)
        if kwargs["groups"] is None:
            fresh.append(result[2])
        return result

    def recording_select(groups, prompt_id, cfg):
        seen.append((prompt_id, groups))
        return l2te_select(groups, prompt_id, cfg)

    monkeypatch.setattr(sps, "rl_step", recording_rl_step)
    monkeypatch.setattr(sps, "l2te_select", recording_select)
    _, trace = sps_loop(policy, [diamond_task, second], cfg, 17)
    assert sum(r.phase == "IRL" for r in trace.records) == 4
    assert len(fresh) == (1 if reuse else 3) * cfg.max_iterations
    per_iteration = len(fresh) // cfg.max_iterations
    assert len(seen) == 2 * cfg.max_iterations
    for i, (prompt_id, groups) in enumerate(seen):
        it = i // 2
        assert prompt_id == i % 2
        # Every prompt's call gets the iteration's fresh records, joined once.
        assert groups is seen[2 * it][1]
        assert group_fields(groups) == group_fields(
            rollout_record(fresh[it * per_iteration:(it + 1) * per_iteration]))
        candidates = groups.sizes[np.array(groups.prompt_ids) == prompt_id].sum()
        steps = 1 if reuse else cfg.rl_steps_per_iteration
        assert candidates == steps * cfg.group_size


def test_sps_loop_convergence_early_stop(diamond_task):
    second = TaskInstance(prompt_id=1, label=diamond_task.label,
                          spec=diamond_task.spec)
    policy = skewed_base_policy(diamond_task, 1.0, seed=9)
    # Any move of the mass is below this epsilon: the first comparison stops the loop.
    cfg = small_cfg(max_iterations=5, convergence_epsilon=10.0)
    final, trace = sps_loop(policy, [diamond_task, second], cfg, 31)
    assert max(r.iter for r in trace.records) == 1
    assert trace.checkpoints == []


def test_sps_loop_writes_checkpoints(diamond_task, tmp_path):
    from squeezelab.policy import load_checkpoint
    policy = skewed_base_policy(diamond_task, 1.0, seed=10)
    final, _ = sps_loop(policy, [diamond_task], small_cfg(), 3,
                        out_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["checkpoint_iter001.txt", "checkpoint_iter002.txt"]
    _, trace = sps_loop(policy, [diamond_task], small_cfg(checkpoint_every=2), 3,
                        out_dir=str(tmp_path))
    restored = load_checkpoint(str(tmp_path / "checkpoint_iter002.txt"))
    assert policy_state(restored) == policy_state(final)
    mass = mean_mass_on_correct(support_coverage(restored, [diamond_task], 0.0))
    assert trace.checkpoints == [(2, "checkpoint_iter002.txt", mass)]


@pytest.mark.parametrize("loop, epsilon, stop", [(sps_loop, 1e-4, 3),
                                                  (grpo_baseline_loop, 4e-4, 7)])
def test_the_loop_measures_each_policy_version_once(loop, epsilon, stop, monkeypatch, tmp_path):
    # A traced run ranks each checkpoint and tests the stop rule with the
    # masses of the suite pass that the step which made the policy took; an
    # untraced run takes one pass per iteration that needs the mass. Both
    # runs checkpoint, stop and train alike.
    suite = make_benchmark_suite(3, FamilyParams(count=4))
    base = build_suite_policy(suite, 1.5, 3)
    calls = []

    def counting(policy, tasks, prob_floor):
        calls.append(prob_floor)
        return support_coverage(policy, tasks, prob_floor)

    monkeypatch.setattr(sps, "support_coverage", counting)
    runs = []
    for traced in (False, True):
        calls.clear()
        cfg = small_cfg(max_iterations=8, checkpoint_every=1, convergence_epsilon=epsilon,
                        trace_metrics=traced)
        out_dir = tmp_path / str(traced)
        out_dir.mkdir()
        final, trace = loop(base, suite, cfg, 3, out_dir=str(out_dir))
        assert len(trace.checkpoints) == stop
        assert len(calls) == (len(trace.records) if traced else stop)
        runs.append((trace.checkpoints, trace.step_records,
                     [(key, vec.tobytes()) for key, vec in final.stored_items()]))
    assert runs[0] == runs[1]


def test_sps_loop_numbers_no_sampled_token_again(monkeypatch, tmp_path):
    # The demos are slices of the sampled groups, which hold the ids each
    # token was drawn at, and the suite's correct sets are numbered in
    # arrays; so the loop calls prefix_ids nowhere, the first coverage pass,
    # trace metrics, checkpoints and stop rule included.
    cfg = ExperimentConfig.from_dict({"sps.max_iterations": 2, "sps.trace_metrics": True,
                                      "sps.convergence_epsilon": 1e-9})
    seed = cfg["seed"]
    suite = make_benchmark_suite(seed, cfg.family_params())
    base = build_suite_policy(suite, cfg["suite.skew"], seed)
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return prefix_ids(*args)

    monkeypatch.setattr(policy_module, "prefix_ids", counting)
    _, trace = sps_loop(base, suite, cfg.sps_config(), seed, out_dir=str(tmp_path))
    assert [it for it, _, _ in trace.checkpoints] == [1, 2]
    assert sum(r.phase == "IRL" for r in trace.records) == 2 * cfg["sps.irl_steps_per_iteration"]
    assert calls == []


def _shift_prompts(suite, base, d):
    """The suite with every prompt_id moved by d, and base with its rows moved with them."""
    tasks = [dataclasses.replace(task, prompt_id=task.prompt_id + d) for task in suite]
    policy = PolicyTable(base.vocab, base.max_len)
    for (prompt_id, prefix), vec in base.stored_items():
        policy.set_logits(prompt_id + d, prefix, vec)
    return tasks, policy


@pytest.mark.parametrize("loop, cfg", [
    (sps_loop, small_cfg(clip=ClipConfig.grpo(), trace_metrics=True)),
    (sps_loop, small_cfg(irl_scope="full_suite", irl_batch_size=3)),
    (grpo_baseline_loop, small_cfg(clip=ClipConfig.dapo(), reuse_rollouts=True,
                                   dapo_max_resamples=2, rl_steps_per_iteration=3, rl_lr=0.5)),
], ids=["per_prompt", "full_suite", "dapo_reuse"])
def test_training_is_invariant_under_a_prompt_id_shift(loop, cfg):
    # Prompts own disjoint rows, the random blocks are indexed by task order
    # and the IRL descent reads a block's owner as id // span, so moving
    # every prompt id by d moves the trained rows by d and changes no bit.
    suite = make_benchmark_suite(7, FamilyParams(count=4, min_solutions=4))
    base = build_suite_policy(suite, 1.5, 7)
    ref, ref_trace = loop(base, suite, cfg, 7)
    want = [(key, vec.tobytes()) for key, vec in ref.stored_items()]
    for d in (0, 37, 1000):
        tasks, policy = _shift_prompts(suite, base, d)
        got, trace = loop(policy, tasks, cfg, 7)
        assert [((pid - d, prefix), vec.tobytes())
                for (pid, prefix), vec in got.stored_items()] == want
        assert trace.to_jsonl() == ref_trace.to_jsonl()


def _prompt_rows(policy, prompts):
    """The keys and logits of the stored rows of the given prompts, in row order."""
    rows = [(key, vec) for key, vec in policy.stored_items() if key[0] in prompts]
    return [key for key, _ in rows], np.array([vec for _, vec in rows])


# Excluded, because they couple the prompts by design: DAPO's one global
# token mean weighs each token by the whole batch's token count, and
# irl_scope "full_suite" fits one mean over every prompt's demos.
@pytest.mark.parametrize("loop, cfg", [
    (grpo_baseline_loop, small_cfg(clip=ClipConfig.grpo())),
    (grpo_baseline_loop, small_cfg(clip=ClipConfig.gspo())),
    (sps_loop, small_cfg(clip=ClipConfig.grpo())),
    (sps_loop, small_cfg(reuse_rollouts=True, irl_batch_size=2)),
], ids=["grpo", "gspo", "sps_per_prompt", "sps_reuse_batch"])
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_training_a_suite_prefix_trains_its_prompts_as_the_full_suite(loop, cfg, seed):
    # derive_rng(seed, r).random((P, G, L)) fills in C order, so the first 3
    # tasks draw the same uniforms in both runs. The weight 1/(groups·G·|y|)
    # is undone by the step rl_lr·groups only up to rounding, so the values
    # agree within a tight tolerance rather than bit for bit.
    suite = make_benchmark_suite(seed, FamilyParams(count=8, min_solutions=4))
    base = build_suite_policy(suite, 1.5, seed)
    cfg = dataclasses.replace(cfg, max_iterations=3)
    prompts = {task.prompt_id for task in suite[:3]}
    full_keys, full = _prompt_rows(loop(base, suite, cfg, seed)[0], prompts)
    keys, part = _prompt_rows(loop(base, suite[:3], cfg, seed)[0], prompts)
    assert keys == full_keys
    np.testing.assert_allclose(part, full, rtol=1e-14, atol=1e-15)


def test_trace_record_json_layout():
    rec = TraceRecord(iter=0, phase="RL", step=1, objective=0.5, irl_loss=None,
                      mean_reward=0.25, entropy_root=1.0, greedy_logp=-2.0,
                      pass_at_k=None, support_coverage=None, seed=7)
    decoded = json.loads(TrainTrace(records=[rec]).to_jsonl())
    assert list(decoded) == ["iter", "phase", "step", "objective", "irl_loss",
                             "mean_reward", "entropy_root", "greedy_logp",
                             "pass_at_k", "support_coverage", "seed"]
    assert decoded["irl_loss"] is None
    assert decoded["seed"] == 7


def test_sps_config_validation():
    with pytest.raises(ValueError):
        SpsConfig(sampling_size=9, group_size=8)
    with pytest.raises(ValueError):
        SpsConfig(quantile=0.0)
    with pytest.raises(ValueError):
        SpsConfig(rl_lr=-0.1)
    with pytest.raises(ValueError):
        SpsConfig(irl_scope="per_token")
    with pytest.raises(ValueError):
        SpsConfig(rl_steps_per_iteration=0)
    assert SpsConfig(irl_steps_per_iteration=0).irl_steps_per_iteration == 0
