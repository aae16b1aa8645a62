"""Tabular policy core: softmax, log-probs, sampling, gradients, checkpoints.

Expected numbers marked "oracle" were frozen from an independent
arbitrary-precision recomputation (mpmath, 40 digits).
"""
from __future__ import annotations

import itertools
import math
import os
import tempfile
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab import artifacts as artifacts_module
from squeezelab import policy as policy_module
from squeezelab.errors import (
    CheckpointCorrupt,
    InvalidLogits,
    InvalidToken,
    NumericOverflow,
    PrefixExhausted,
)
from squeezelab.policy import (
    PolicyTable,
    Prefix,
    Trajectory,
    Vocab,
    apply_update,
    derive_rng,
    entropy,
    grad_log_prob,
    greedy_decode,
    greedy_decode_batch,
    join_batches,
    load_checkpoint,
    make_trajectory,
    prefix_id,
    prefix_ids,
    prefix_key,
    prefix_rows,
    sample_trajectory,
    save_checkpoint,
    score_gradient,
    sequence_batch,
    sequence_log_probs,
    softmax,
    take_sequences,
    token_distribution,
    trajectory_log_prob,
    _log_probs,
    _log_softmax,
    _token_logps,
)
from squeezelab.rollouts import sample_trajectories
from squeezelab.tasks import PathTaskSpec, Suite, TaskInstance, validate

from conftest import (batch_sequences, by_id, by_key, finite_difference_blocks,
                      flat_score_gradient, random_policy, reference_save_checkpoint,
                      reference_score_gradient, trajectories)

# softmax([2, 1, 0, -3]), oracle digits
ORACLE_PROBS = [0.662272413524, 0.243636405391, 0.0896288246641, 0.00446235642128]
ORACLE_LOGP0 = -0.412078306897
ORACLE_ENTROPY = 0.857284143722


def test_softmax_uniform_on_equal_logits():
    d = softmax([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(d.probs, [0.25] * 4, atol=1e-15)
    d = softmax([3.7, 3.7, 3.7])
    np.testing.assert_allclose(d.probs, [1 / 3] * 3, atol=1e-15)


def test_softmax_matches_oracle():
    d = softmax([2.0, 1.0, 0.0, -3.0])
    np.testing.assert_allclose(d.probs, ORACLE_PROBS, atol=1e-10)
    assert abs(d.probs.sum() - 1.0) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(InvalidLogits):
        softmax([0.0, np.nan])
    with pytest.raises(InvalidLogits):
        softmax([np.inf, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    logits=st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    shift=st.floats(-50, 50),
)
def test_softmax_shift_invariance_and_normalization(logits, shift):
    base = softmax(logits).probs
    shifted = softmax([z + shift for z in logits]).probs
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert abs(base.sum() - 1.0) < 1e-12
    assert (base > 0).all()


def test_token_distribution_default_and_stored():
    policy = PolicyTable(Vocab(4), max_len=3)
    d = token_distribution(policy, Prefix(0, ()))
    np.testing.assert_allclose(d.probs, [0.25] * 4, atol=1e-15)
    policy.set_logits(0, (), [2.0, 1.0, 0.0, -3.0])
    d = token_distribution(policy, Prefix(0, ()))
    np.testing.assert_allclose(d.probs, ORACLE_PROBS, atol=1e-10)


def test_token_distribution_prefix_exhausted():
    policy = PolicyTable(Vocab(4), max_len=2)
    with pytest.raises(PrefixExhausted):
        token_distribution(policy, Prefix(0, (0, 1)))


def test_trajectory_log_prob_uniform_product():
    policy = PolicyTable(Vocab(4), max_len=5)
    _, total = trajectory_log_prob(policy, 0, (1, 2, 0))
    np.testing.assert_allclose(total, 3 * math.log(0.25), atol=1e-12)


def test_trajectory_log_prob_single_token_oracle():
    policy = PolicyTable(Vocab(4), max_len=3)
    policy.set_logits(0, (), [2.0, 1.0, 0.0, -3.0])
    per_token, total = trajectory_log_prob(policy, 0, (0,))
    np.testing.assert_allclose(total, ORACLE_LOGP0, atol=1e-10)
    assert per_token.shape == (1,)


def test_trajectory_log_prob_empty_and_errors():
    policy = PolicyTable(Vocab(4), max_len=3)
    per_token, total = trajectory_log_prob(policy, 0, ())
    assert total == 0.0
    assert per_token.shape == (0,)
    with pytest.raises(InvalidToken):
        trajectory_log_prob(policy, 0, (4,))


def test_trajectory_log_prob_consistent_with_per_step_distributions():
    rng = np.random.default_rng(7)
    policy = random_policy(3, 3, rng)
    for seq in itertools.product(range(3), repeat=3):
        per_token, total = trajectory_log_prob(policy, 0, seq)
        manual = 0.0
        for t, tok in enumerate(seq):
            d = token_distribution(policy, Prefix(0, seq[:t]))
            manual += math.log(d.probs[tok])
        np.testing.assert_allclose(total, manual, atol=1e-10)
        np.testing.assert_allclose(per_token.sum(), total, atol=1e-10)


def test_sample_trajectory_deterministic_under_seed():
    rng = np.random.default_rng(3)
    policy = random_policy(4, 4, rng)
    a = [sample_trajectory(policy, 0, derive_rng(42, i)) for i in range(10)]
    b = [sample_trajectory(policy, 0, derive_rng(42, i)) for i in range(10)]
    assert [t.tokens for t in a] == [t.tokens for t in b]
    assert [t.total_logp for t in a] == [t.total_logp for t in b]


def test_sample_trajectory_first_step_frequencies_near_uniform():
    # One block of n rollouts reads the stream in the order n calls of
    # sample_trajectory read it, one rng.random((1, 1, 5)) each.
    policy = PolicyTable(Vocab(4), max_len=5)
    n = 40000
    (group,) = sample_trajectories(policy, [0], np.random.default_rng(2024).random((1, n, 5)))
    rollouts = batch_sequences(group.batch)
    rng = np.random.default_rng(2024)
    assert [sample_trajectory(policy, 0, rng).tokens for _ in range(200)] == rollouts[:200]
    counts = np.bincount([tokens[0] for tokens in rollouts], minlength=4)
    np.testing.assert_allclose(counts / n, [0.25] * 4, atol=0.01)


def test_sample_trajectory_stops_at_terminator_and_reports_own_logps():
    rng = np.random.default_rng(11)
    policy = random_policy(4, 4, rng)
    for i in range(50):
        traj = sample_trajectory(policy, 0, derive_rng(5, i))
        assert traj.tokens[-1] == 3 or len(traj.tokens) == 4
        assert 3 not in traj.tokens[:-1]
        _, total = trajectory_log_prob(policy, 0, traj.tokens)
        np.testing.assert_allclose(traj.total_logp, total, atol=1e-10)


def _reference_sample(policy, prompt_id, rng):
    """Scalar ancestral sampler: a fresh log-softmax and searchsorted per step."""
    size = policy.vocab.size
    tokens, logps = (), []
    for _ in range(policy.max_len):
        logits = policy.logit_vector(prompt_id, tokens)
        cum = np.cumsum(np.exp(_log_softmax(logits)))
        tok = min(int(np.searchsorted(cum, rng.random(), "right")), size - 1)
        tokens += (tok,)
        logps.append(float(_log_softmax(logits)[tok]))
        if tok == size - 1:
            break
    return tokens, tuple(logps)


def test_sampler_and_greedy_decoder_match_scalar_references():
    rng = np.random.default_rng(31)
    for trial in range(40):
        vocab = 2 + trial % 5
        max_len = 1 + trial % 4
        policy = random_policy(vocab, max_len, rng, prompt_ids=(0, 1),
                               scale=(0.5, 3.0, 25.0)[trial % 3])
        for prompt_id in (0, 1, 5):  # prompt 5 has no stored rows
            for i in range(10):
                traj = sample_trajectory(policy, prompt_id, derive_rng(trial, prompt_id, i))
                tokens, logps = _reference_sample(policy, prompt_id,
                                                  derive_rng(trial, prompt_id, i))
                assert traj.tokens == tokens
                assert traj.per_token_logp == logps
                assert traj.total_logp == float(sum(logps))
            tokens, logps = (), ()
            for _ in range(max_len):
                logp = _log_softmax(policy.logit_vector(prompt_id, tokens))
                tokens += (int(np.argmax(logp)),)
                logps += (float(logp[tokens[-1]]),)
                if tokens[-1] == vocab - 1:
                    break
            greedy = greedy_decode(policy, prompt_id)
            assert (greedy.tokens, greedy.per_token_logp) == (tokens, logps)


def test_greedy_decode_fresh_policy_picks_token_zero():
    policy = PolicyTable(Vocab(4), max_len=3)
    traj = greedy_decode(policy, 0)
    assert traj.tokens == (0, 0, 0)


def test_greedy_decode_stored_logits_and_shift_invariance():
    policy = PolicyTable(Vocab(4), max_len=3)
    policy.set_logits(0, (), [2.0, 1.0, 0.0, -3.0])
    assert greedy_decode(policy, 0).tokens[0] == 0
    shifted = policy.copy()
    shifted.set_logits(0, (), [2.0 + 9.5, 1.0 + 9.5, 0.0 + 9.5, -3.0 + 9.5])
    assert greedy_decode(shifted, 0).tokens == greedy_decode(policy, 0).tokens


def test_greedy_decode_dominates_equal_length_sequences():
    rng = np.random.default_rng(13)
    policy = random_policy(3, 3, rng)
    greedy = greedy_decode(policy, 0)
    for seq in itertools.product(range(3), repeat=3):
        # Compare complete sequences of the same step count as the greedy one.
        trimmed = seq
        if 2 in seq:
            trimmed = seq[: seq.index(2) + 1]
        if len(trimmed) != len(greedy.tokens):
            continue
        _, total = trajectory_log_prob(policy, 0, trimmed)
        assert greedy.total_logp >= total - 1e-12


def test_entropy_examples():
    np.testing.assert_allclose(entropy(softmax([0.0] * 4).probs), math.log(4), atol=1e-12)
    one_hot = np.array([1.0, 0.0, 0.0])
    assert entropy(one_hot) == 0.0
    d = softmax([2.0, 1.0, 0.0, -3.0])
    np.testing.assert_allclose(entropy(d.probs), ORACLE_ENTROPY, atol=1e-10)


def _random_task(vocab, rng, prompt_id=0):
    """A random graph task whose label, node 1, is one token away from the start.

    Its max_len is 1. The walk table and validate read no max_len, so the
    sampler still walks the graph to the policy's depth, while building the
    task enumerates only its one-step correct set: a deep, dense random graph
    can hold more walks than ENUMERATION_BOUND.
    """
    nodes = int(rng.integers(2, 7))
    edges = [(0, 1, 0)] + [(u, int(rng.integers(nodes)), t)
                           for u in range(nodes) for t in range(vocab - 1)
                           if (u, t) != (0, 0) and rng.random() < 0.7]
    spec = PathTaskSpec(node_count=nodes, edges=tuple(edges), start=0, target=1,
                        max_len=1, vocab_size=vocab)
    return TaskInstance(prompt_id=prompt_id, label=1, spec=spec)


def _sequential_rollouts(policy, prompt_ids, u, tasks=None):
    """The sampler's reference, one rollout and one token at a time: token t of
    rollout j of prompt i bisects its prefix's cumulative row at u[i, j, t],
    capped at the terminator; totals are left folds and rewards come from
    validate. Each rollout is (prefix ids, tokens, log-probs, total, reward)."""
    size = policy.vocab.size
    out = []
    for i, prompt_id in enumerate(prompt_ids):
        for j in range(u.shape[1]):
            tokens, logps, total = (), [], 0.0
            for t in range(policy.max_len):
                logp = _log_softmax(policy.logit_vector(prompt_id, tokens))
                cum = np.cumsum(np.exp(logp)).tolist()
                tok = min(bisect_right(cum, u[i, j, t]), size - 1)
                tokens += (tok,)
                logps.append(float(logp[tok]))
                total += logps[-1]
                if tok == size - 1:
                    break
            reward = validate(tasks[i], tokens).reward if tasks else 0
            out.append((prefix_ids(policy, prompt_id, tokens), tokens, logps, total, reward))
    return out


def _bits(values):
    return np.asarray(values, float).tobytes()


def _split(flat, lengths):
    """flat cut into consecutive lists of the given lengths."""
    out, start = [], 0
    for length in lengths.tolist():
        out.append(list(flat[start:start + length]))
        start += length
    return out


def _cap_row(vocab, rng):
    """Logits whose cumulative probabilities end below the largest double under 1."""
    while True:
        logits = rng.normal(size=vocab)
        if np.cumsum(np.exp(_log_softmax(logits)))[-1] < TOP_UNIFORM:
            return logits


# The largest double rng.random() can return.
TOP_UNIFORM = np.nextafter(1.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 8), max_len=st.integers(1, 9),
       n=st.integers(1, 6), prompts=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       walked=st.booleans())
def test_block_sampler_matches_a_sequential_reference(seed, vocab, max_len, n, prompts, walked):
    # Prompts 3 and 4 have no stored rows; prompt 2's root row ends its
    # cumulative probabilities below 1, so its top uniforms take the cap;
    # uniforms on the zero row's cumulative values tie; the last versions
    # come from updates.
    rng = np.random.default_rng(seed)
    tasks = [_random_task(vocab, rng, prompt_id) for prompt_id in prompts]
    policy = PolicyTable(Vocab(vocab), max_len)
    for _ in range(12):
        prefix = tuple(int(t) for t in rng.integers(0, vocab - 1, size=rng.integers(0, max_len)))
        policy.set_logits(int(rng.integers(2)), prefix,
                          float(rng.choice([0.5, 4.0])) * rng.normal(size=vocab))
    if max_len > 1:
        # A stored child of an unstored parent.
        policy.set_logits(1, (vocab - 2,) * (max_len - 1), rng.normal(size=vocab))
    policy.set_logits(2, (), _cap_row(vocab, rng))
    ties = np.cumsum(np.exp(_log_softmax(np.zeros(vocab))))
    updated = apply_update(policy, by_id(policy, {(0, ()): rng.normal(size=vocab),
                                                  (3, (0,) * (max_len - 1)): np.ones(vocab)}), 0.7)
    walks = Suite(tasks).walks if walked else None
    # DAPO's resample path samples at an index into the tasks: here a random
    # order that skips one task and repeats another.
    order = rng.permutation(len(tasks))
    pick = np.append(order[1:], order[-1]) if len(tasks) > 1 else order
    for version in (policy, policy, updated, apply_update(updated, by_id(updated, {}), 1.0)):
        u = rng.random((len(prompts), n, max_len))
        special = rng.random(u.shape)
        u[special < 0.15] = TOP_UNIFORM
        u[special > 0.85] = rng.choice(ties[:-1], size=int((special > 0.85).sum()))
        groups = sample_trajectories(version, prompts, u, walks)
        want = _sequential_rollouts(version, prompts, u, tasks if walked else None)
        assert [g.prompt_id for g in groups] == prompts
        got = [(ids, tokens, logps, total, reward)
               for g in groups
               for ids, tokens, logps, total, reward in zip(
                   _split(g.batch.ids, g.batch.lengths), batch_sequences(g.batch),
                   _split(g.logps.tolist(), g.batch.lengths), g.totals.tolist(), g.rewards)]
        assert [x[:2] for x in got] == [x[:2] for x in want]
        assert [len(x[1]) for x in got] == [k for g in groups for k in g.batch.lengths.tolist()]
        assert _bits([lp for x in got for lp in x[2]]) == _bits([lp for x in want for lp in x[2]])
        assert _bits([x[3] for x in got]) == _bits([x[3] for x in want])
        assert [x[4] for x in got] == [x[4] for x in want]
        assert all(g.batch.ids.dtype == np.int64 for g in groups)
        assert all(g.batch.tokens.dtype == g.batch.lengths.dtype == np.intp for g in groups)
        if walked:
            picked = [prompts[i] for i in pick]
            sub = sample_trajectories(version, picked, u[pick],
                                      (walks[0], walks[1][pick], walks[2][pick]))
            want = _sequential_rollouts(version, picked, u[pick], [tasks[i] for i in pick])
            assert [r for g in sub for r in g.rewards] == [x[4] for x in want]


def test_the_block_sampler_takes_the_cap_and_reads_a_fixed_stride():
    policy = PolicyTable(Vocab(3), max_len=3)
    policy.set_logits(0, (), [-1.0, 1.0, -1.3])  # probabilities add up below the top uniform
    u = np.full((1, 2, 3), 0.5)
    u[0, 0, :2] = TOP_UNIFORM, 0.05
    (group,) = sample_trajectories(policy, [0], u)
    # The capped rollout stops at the terminator and leaves u[0, 0, 1:]
    # unread; the next rollout reads its own row u[0, 1], not the leftovers.
    assert batch_sequences(group.batch) == [(2,), (1, 1, 1)]
    assert group.batch.ids.tolist() == [0, 0, 2, 2 * 3 + 1 + 1]


def test_the_sampler_rejects_prefix_ids_beyond_int64():
    policy = PolicyTable(Vocab(4), max_len=4)
    bound = (1 << 63) // policy.span
    u = np.zeros((1, 1, 4))
    assert sample_trajectories(policy, [bound - 1], u)[0].batch.ids[0] == (bound - 1) * policy.span
    assert sequence_batch(policy, [(bound - 1, (0,))]).ids.tolist() == [(bound - 1) * policy.span]
    for prompt_id in (bound, -bound - 1):
        with pytest.raises(NumericOverflow, match="2\\*\\*63") as sampled:
            sample_trajectories(policy, [prompt_id], u)
        # sequence_batch applies the sampler's bound, with its message.
        with pytest.raises(NumericOverflow) as numbered:
            sequence_batch(policy, [(prompt_id, (0,))])
        assert str(numbered.value) == str(sampled.value)
    with pytest.raises(NumericOverflow):
        sample_trajectories(PolicyTable(Vocab(4), max_len=32), [0], np.zeros((1, 1, 32)))
    with pytest.raises(NumericOverflow):
        sequence_batch(PolicyTable(Vocab(4), max_len=32), [(0, ())])
    with pytest.raises(ValueError):
        sample_trajectories(policy, [0, 1], u)


def _tuple_key_greedy(policy, prompt_id):
    """Greedy decoding by one fresh prefix_id(prompt_id, tokens) lookup per token."""
    logp_rows = policy._log_prob_table().tolist()
    tokens, logps, total = (), [], 0.0
    for _ in range(policy.max_len):
        logp = logp_rows[policy._rows.get(prefix_id(policy, prompt_id, tokens), 0)]
        best = max(logp)
        tokens += (logp.index(best),)
        logps.append(best)
        total += best
        if tokens[-1] == policy.vocab.terminator:
            break
    return Trajectory(prompt_id, tokens, tuple(logps), total)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6), max_len=st.integers(1, 6))
def test_greedy_decode_on_the_prefix_tree_matches_the_tuple_key_loop(seed, vocab, max_len):
    rng = np.random.default_rng(seed)
    policy = random_policy(vocab, max_len, rng, prompt_ids=(0, 1),
                           scale=float(rng.choice([0.5, 3.0])))
    for version in range(6):
        for prompt_id in (0, 1, 5):  # prompt 5 has no stored rows
            assert greedy_decode(policy, prompt_id) == _tuple_key_greedy(policy, prompt_id)
            # Sampling in between leaves the decode unchanged.
            sample_trajectories(policy, [prompt_id], rng.random((1, 4, max_len)))
            assert greedy_decode(policy, prompt_id) == _tuple_key_greedy(policy, prompt_id)
        # Either a new version, from an update with a new key on prompt 5's
        # greedy path, or an in-place write to a greedy-path row.
        if version % 2 == 0:
            path = greedy_decode(policy, 5).tokens
            policy = apply_update(policy, by_id(policy, {(5, path[:int(rng.integers(len(path)))]):
                                                         rng.normal(size=vocab),
                                                         (0, ()): rng.normal(size=vocab)}), 2.0)
        else:
            path = greedy_decode(policy, 1).tokens
            policy.set_logits(1, path[:int(rng.integers(len(path)))],
                              3.0 * rng.normal(size=vocab))


def _batch_decodes(policy, prompts):
    """greedy_decode_batch as one Trajectory per prompt; checks its recorded prefix ids."""
    batch, logps, totals = greedy_decode_batch(policy, prompts)
    assert batch.ids.dtype == np.int64
    starts, out = batch.starts, []
    for p, a, b, total in zip(prompts, starts, starts[1:], totals.tolist()):
        tokens = tuple(batch.tokens[a:b].tolist())
        assert batch.ids[a:b].tolist() == prefix_ids(policy, p, tokens)
        out.append(Trajectory(p, tokens, tuple(logps[a:b].tolist()), total))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6), max_len=st.integers(1, 6))
def test_batched_greedy_walk_matches_the_scalar_reference_per_prompt(seed, vocab, max_len):
    rng = np.random.default_rng(seed)
    policy = random_policy(vocab, max_len, rng, prompt_ids=(0,), scale=3.0)
    # Prompt 1's logits are small integers, so its rows tie often and the
    # terminator wins some of them: its decodes stop at different depths.
    # Prompts 2 and 9 have no stored rows, so every depth ties.
    for _ in range(4 * max_len):
        prefix = tuple(rng.integers(vocab - 1, size=rng.integers(max_len)).tolist())
        policy.set_logits(1, prefix, rng.integers(-1, 2, size=vocab))
    prompts = [1, 0, 9, 1, 2]
    for _ in range(4):
        got = _batch_decodes(policy, prompts)
        assert got == [_tuple_key_greedy(policy, p) for p in prompts]
        assert got == [greedy_decode(policy, p) for p in prompts]
        # A new version from an update that stores rows on greedy paths,
        # prompt 9's included, and touches some other rows.
        grad = {(p, traj.tokens[:int(rng.integers(len(traj.tokens)))]): rng.normal(size=vocab)
                for p, traj in zip(prompts, got)}
        grad[(0, ())] = rng.normal(size=vocab)
        policy = apply_update(policy, by_id(policy, grad), float(rng.choice([0.5, 3.0])))


def test_greedy_walk_ties_stop_depths_and_int64_bound():
    policy = PolicyTable(Vocab(4), max_len=4)
    policy.set_logits(0, (), [0.0, 0.0, 0.0, 5.0])      # stops at depth 1
    policy.set_logits(1, (2,), [1.0, 0.0, 0.0, 1.0])    # a tie with the terminator
    policy.set_logits(1, (), [0.0, 0.0, 2.0, 0.0])
    policy.set_logits(2, (0,), [0.0, 0.0, 0.0, 2.0])    # stops at depth 2
    got = _batch_decodes(policy, [0, 1, 2, 3])
    assert [traj.tokens for traj in got] == [(3,), (2, 0, 0, 0), (0, 3), (0, 0, 0, 0)]
    assert got[3].per_token_logp == (-math.log(4),) * 4
    # Greedy decoding reads the log-prob table only; the sampler's table is not built.
    assert policy._cum is None
    # Prefix ids are int64, as the sampler's.
    bound = (1 << 63) // policy.span
    assert greedy_decode(policy, bound - 1) == _tuple_key_greedy(policy, bound - 1)
    for prompt_id in (bound, -bound - 1):
        with pytest.raises(NumericOverflow, match="2\\*\\*63"):
            greedy_decode(policy, prompt_id)
        with pytest.raises(NumericOverflow) as decoded:
            greedy_decode_batch(policy, [0, prompt_id])
        with pytest.raises(NumericOverflow) as numbered:
            sequence_batch(policy, [(0, (3,)), (prompt_id, ())])
        assert str(numbered.value) == str(decoded.value)
    with pytest.raises(NumericOverflow):
        greedy_decode(PolicyTable(Vocab(4), max_len=32), 0)
    with pytest.raises(NumericOverflow):
        sequence_batch(PolicyTable(Vocab(4), max_len=32), [(0, (1, 3))])


def assert_same_batch(got, want):
    assert got.ids.dtype == want.ids.dtype == np.int64 and np.array_equal(got.ids, want.ids)
    assert got.tokens.dtype == want.tokens.dtype and np.array_equal(got.tokens, want.tokens)
    assert got.lengths.dtype == want.lengths.dtype and np.array_equal(got.lengths, want.lengths)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6), max_len=st.integers(1, 6),
       n=st.integers(1, 8), data=st.data())
def test_take_sequences_equals_the_numbered_batch_of_the_same_sequences(seed, vocab, max_len, n,
                                                                       data):
    rng = np.random.default_rng(seed)
    policy = PolicyTable(Vocab(vocab), max_len)
    (group,) = sample_trajectories(policy, [int(rng.integers(3))], rng.random((1, n, max_len)))
    sequences = [(group.prompt_id, tokens) for tokens in batch_sequences(group.batch)]
    start = data.draw(st.integers(0, n - 1))
    selections = [[], [start], [start, start], [(start + j) % n for j in range(n + 1)],
                  data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))]
    # Every producer gives int64 ids (assert_same_batch), the empty join included.
    assert_same_batch(join_batches([]), sequence_batch(policy, []))
    for indices in selections:
        want = sequence_batch(policy, [sequences[i] for i in indices])
        assert_same_batch(take_sequences((group.batch, i) for i in indices), want)
        joined = join_batches([group.batch, group.batch])
        assert_same_batch(take_sequences((joined, i + n) for i in indices), want)
        # Picks from several batches.
        assert_same_batch(take_sequences((batch, i) for i in indices
                                         for batch in (group.batch, joined)),
                          sequence_batch(policy, [sequences[i] for i in indices for _ in "ab"]))


def test_set_logits_after_a_sample_changes_later_samples():
    policy = PolicyTable(Vocab(4), max_len=2)
    u = np.random.default_rng(1).random((1, 40, 2))
    first = batch_sequences(sample_trajectories(policy, [0], u)[0].batch)
    assert {tokens[0] for tokens in first} == {0, 1, 2, 3}
    policy.set_logits(0, (), [0.0, 0.0, 60.0, 0.0])
    policy.set_logits(0, (2,), [0.0, 60.0, 0.0, 0.0])
    again = batch_sequences(sample_trajectories(policy, [0], u)[0].batch)
    assert set(again) == {(2, 1)}


def test_grad_log_prob_uniform_case_and_score_identity():
    policy = PolicyTable(Vocab(4), max_len=3)
    traj = make_trajectory(policy, 0, (2,))
    grad = by_key(policy, grad_log_prob(policy, traj))
    block = grad[(0, ())]
    np.testing.assert_allclose(block, [-0.25, -0.25, 0.75, -0.25], atol=1e-12)
    rng = np.random.default_rng(5)
    policy = random_policy(4, 5, rng)
    traj = sample_trajectory(policy, 0, rng)
    for block in grad_log_prob(policy, traj).blocks:
        np.testing.assert_allclose(block.sum(), 0.0, atol=1e-10)


def test_grad_log_prob_matches_finite_differences():
    rng = np.random.default_rng(99)
    for trial in range(12):
        policy = random_policy(4, 5, rng, scale=1.5)
        traj = sample_trajectory(policy, 0, rng)
        grad = by_key(policy, grad_log_prob(policy, traj))
        fd = finite_difference_blocks(
            lambda p: trajectory_log_prob(p, 0, traj.tokens)[1],
            policy, list(grad))
        for key, block in grad.items():
            np.testing.assert_allclose(block, fd[key], rtol=1e-4, atol=1e-7)


def _sequential_score_sum(policy, terms):
    """Reference score gradient: one block per term, added per prefix in term order."""
    out = {}
    for prompt_id, prefix, tok, weight in terms:
        onehot = np.zeros(policy.vocab.size)
        onehot[tok] = 1.0
        block = weight * (onehot - np.exp(_log_probs(policy, prompt_id, prefix)))
        key = (prompt_id, prefix)
        out[key] = out[key] + block if key in out else block
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6),
       max_len=st.integers(1, 3), n_terms=st.integers(0, 30))
def test_score_gradient_matches_a_sequential_reference(seed, vocab, max_len, n_terms):
    rng = np.random.default_rng(seed)
    policy = random_policy(vocab, max_len, rng, scale=float(rng.choice([0.5, 4.0])))
    terms = []
    for _ in range(n_terms):
        # Prompt 5 has no stored row, so its prefixes read row 0.
        prompt_id = int(rng.choice([0, 5]))
        prefix = tuple(int(t) for t in rng.integers(0, vocab - 1, size=rng.integers(0, max_len)))
        weight = 0.0 if rng.random() < 0.2 else float(rng.normal())
        terms.append((prompt_id, prefix, int(rng.integers(0, vocab)), weight))
    # Repeat some terms' prefixes so that sums of several terms are covered.
    terms += [(p, prefix, int(rng.integers(0, vocab)), float(rng.normal()))
              for p, prefix, _tok, _w in terms[:n_terms // 2]]
    record = flat_score_gradient(policy, terms)
    # by_key would merge repeated ids, so the record's own ids are checked first.
    assert record.ids.dtype == np.int64 and len(set(record.ids.tolist())) == len(record.ids)
    assert record.blocks.shape == (len(record.ids), vocab)
    got = by_key(policy, record)
    expected = _sequential_score_sum(policy, terms)
    assert list(got) == sorted(expected, key=lambda key: prefix_id(policy, *key))
    for key, block in expected.items():
        assert np.array_equal(got[key], block)


def test_score_gradient_sums_repeated_prefixes_and_reads_row_zero():
    policy = PolicyTable(Vocab(4), max_len=3)
    # No terms give an empty record, and applying it changes no row.
    empty = flat_score_gradient(policy, [])
    assert empty.ids.dtype == np.int64 and empty.ids.shape == (0,)
    assert empty.blocks.shape == (0, 4)
    stored = random_policy(4, 3, np.random.default_rng(4), prompt_ids=(0, 9))
    same = apply_update(stored, empty, 1.0)
    assert list(same._rows.items()) == list(stored._rows.items())
    assert np.array_equal(same._logit_rows(), stored._logit_rows())
    # ids are int64, distinct and ascending, one block row each.
    record = flat_score_gradient(policy, [(9, (1,), 2, 1.0), (9, (), 3, 0.0),
                                          (9, (1,), 0, 0.5)])
    assert record.ids.dtype == np.int64
    assert record.ids.tolist() == [prefix_id(policy, 9, ()), prefix_id(policy, 9, (1,))]
    assert record.blocks.shape == (2, 4)
    grad = by_key(policy, record)
    assert list(grad) == [(9, ()), (9, (1,))]
    np.testing.assert_allclose(grad[(9, (1,))], [0.125, -0.375, 0.625, -0.375], atol=1e-15)
    assert not grad[(9, ())].any()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 5), max_len=st.integers(1, 3),
       n_terms=st.integers(0, 40))
def test_score_gradient_matches_the_add_at_kernel(seed, vocab, max_len, n_terms):
    # Weights of +0.0 and -0.0 give blocks of signed zeros; a slot whose every
    # term is -0.0 in a column sums to +0.0, equal to np.add.at's -0.0. The
    # reference slots ids in order of first appearance, the kernel ascending.
    rng = np.random.default_rng(seed)
    policy = random_policy(vocab, max_len, rng, prompt_ids=(0, 2))
    prefixes = [(int(rng.choice([0, 2, 7])),
                 tuple(int(t) for t in rng.integers(0, vocab - 1, size=rng.integers(0, max_len))))
                for _ in range(rng.integers(1, 6))]
    picks = rng.integers(0, len(prefixes), size=n_terms)
    ids = np.array([prefix_id(policy, *prefixes[i]) for i in picks.tolist()], np.int64)
    rows = prefix_rows(policy, ids)
    tokens = rng.integers(0, min(vocab, int(rng.integers(1, 3))), size=n_terms)
    weights = rng.choice([0.0, -0.0, 1.5, -0.25], size=n_terms) * rng.choice([1.0, 1e-300],
                                                                              size=n_terms)
    got = score_gradient(policy, ids, rows, tokens, weights)
    want = reference_score_gradient(policy, ids, rows, tokens, weights)
    order = np.argsort(want.ids)
    assert got.ids.dtype == np.int64 and np.array_equal(got.ids, want.ids[order])
    assert got.blocks.shape == want.blocks.shape == (len(want.ids), vocab)
    assert np.array_equal(got.blocks, want.blocks[order])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(0, 40))
def test_score_gradient_ids_are_strictly_increasing(seed, n_terms):
    # Whatever order the terms name their ids in, negative ids and the ends
    # of int64 included, the record holds each once, ascending.
    rng = np.random.default_rng(seed)
    policy = random_policy(3, 2, rng, prompt_ids=(-4, 3))
    pool = np.array([-1 << 63, (1 << 63) - 1, -1, 0, *rng.integers(-60, 60, size=6)], np.int64)
    ids = rng.choice(pool, size=n_terms)
    got = score_gradient(policy, ids, prefix_rows(policy, ids), rng.integers(0, 3, size=n_terms),
                         rng.normal(size=n_terms))
    assert got.ids.dtype == np.int64 and got.blocks.shape == (len(got.ids), 3)
    assert (got.ids[1:] > got.ids[:-1]).all()
    assert set(got.ids.tolist()) == set(ids.tolist())


# Prompt sets a table stores rows for: ordinary, negative, and those whose ids
# reach the ends of int64 at vocab 3, max_len 2 (13 ids a prompt).
EDGE_PROMPTS = [(0,), (0, 5), (-4, 3), ((1 << 63) // 13 - 1,), (-((1 << 63) // 13),),
                (2, (1 << 63) // 13 - 1)]


def _queries(policy, rng):
    """Int64 ids around every stored prompt's range and at the ends of int64."""
    span, stored = policy.span, list(policy._rows)
    edges = [-1 << 63, (-1 << 63) + 1, (1 << 63) - 1, (1 << 63) - 2, 0, -1, span]
    for ident in stored[:8]:
        base = ident // span * span
        edges += [ident, base - 1, base, base + span - 1, base + span, base + 2 * span]
    edges += rng.integers(-1 << 63, (1 << 63) - 1, size=8, endpoint=True).tolist()
    return np.array([e for e in edges if -1 << 63 <= e < 1 << 63], np.int64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prompts=st.sampled_from(EDGE_PROMPTS),
       build=st.sampled_from(["set_logits", "apply_update", "load_checkpoint", "empty"]),
       cap=st.sampled_from([None, 26]))
def test_prefix_rows_reads_the_rows_the_dict_holds(seed, prompts, build, cap):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:  # past the cap, every lookup takes the dict
            patch.setattr(policy_module, "_DENSE_IDS", cap)
        policy = PolicyTable(Vocab(3), 2)
        if build in ("set_logits", "load_checkpoint"):
            policy = random_policy(3, 2, rng, prompt_ids=prompts)
        if build == "apply_update":
            for pid in prompts:
                keys = [(pid, (int(t),)) for t in rng.permutation(2)] + [(pid, ())]
                policy = apply_update(policy, by_id(policy, {key: rng.normal(size=3)
                                                             for key in keys}), 0.5)
        if build == "load_checkpoint":
            with tempfile.TemporaryDirectory() as tmp:
                save_checkpoint(policy, os.path.join(tmp, "c.txt"))
                policy = load_checkpoint(os.path.join(tmp, "c.txt"))
            assert policy._index is None
        queries = _queries(policy, rng)
        got = prefix_rows(policy, queries)
        assert got.tolist() == [policy._rows.get(i, 0) for i in queries.tolist()]
        assert prefix_rows(policy, queries.tolist()).tolist() == got.tolist()
        lo, index = policy._row_index()
        width = (max(prompts) - min(prompts) + 1) * policy.span if policy._rows else 0
        assert (index is None) == (width > policy_module._DENSE_IDS)
        if index is not None:
            assert lo % policy.span == 0 and index[-1] == 0
            assert not index.flags.writeable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), start=st.sampled_from(["empty", "stored", "loaded"]),
       steps=st.integers(1, 4))
def test_apply_update_numbers_new_rows_as_sequential_allocation(seed, start, steps):
    # New ids take rows count + 1, ... in gradient order, the table doubles as
    # _allocate doubles it, and a patched index is the one _rows rebuilds.
    rng = np.random.default_rng(seed)
    policy = PolicyTable(Vocab(3), 3)
    if start != "empty":
        policy = random_policy(3, 3, rng, prompt_ids=(1, 2), scale=2.0)
    if start == "loaded":
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(policy, os.path.join(tmp, "c.txt"))
            policy = load_checkpoint(os.path.join(tmp, "c.txt"))
    for _ in range(steps):
        keys = {(int(rng.choice([0, 1, 2, 6])),
                 tuple(int(t) for t in rng.integers(0, 3, size=rng.integers(0, 3)))): None
                for _ in range(rng.integers(1, 12))}
        grad = by_id(policy, {key: rng.normal(size=3) for key in keys})
        if rng.random() < 0.5:
            prefix_rows(policy, grad.ids)  # the input's index exists before the update
        out = apply_update(policy, grad, 0.75)
        ref = policy.copy()
        rows = [ref._allocate(i) for i in grad.ids.tolist()]
        ref._data[rows] = ref._data[rows] + 0.75 * grad.blocks
        assert list(out._rows.items()) == list(ref._rows.items())
        assert np.array_equal(out._logit_rows().view(np.uint64), ref._logit_rows().view(np.uint64))
        assert out._data.shape == ref._data.shape
        capacity = len(policy._data)
        while capacity <= out.stored_prefix_count:
            capacity *= 2
        assert len(out._data) == capacity
        if out._index is not None:
            fresh = out.copy()
            fresh._index = None
            assert out._index[0] == fresh._row_index()[0]
            assert np.array_equal(out._index[1], fresh._row_index()[1])
        policy = out


def test_apply_update_patches_the_index_inside_its_range_and_drops_it_outside():
    policy = random_policy(3, 2, np.random.default_rng(5), prompt_ids=(0, 4))
    lo, index = policy._row_index()
    inside = apply_update(policy, by_id(policy, {(2, (1,)): np.ones(3)}), 1.0)
    assert inside._index[0] == lo and inside._index[1] is not index
    assert prefix_rows(inside, np.array([prefix_id(inside, 2, (1,))])).tolist() == [
        inside.stored_prefix_count]
    assert policy._index[1] is index and index[prefix_id(policy, 2, (1,)) - lo] == 0
    same = apply_update(policy, by_id(policy, {(0, ()): np.ones(3)}), 1.0)
    assert same._index is policy._index
    outside = apply_update(policy, by_id(policy, {(5, ()): np.ones(3)}), 1.0)
    assert outside._index is None
    assert outside._row_index()[0] == lo and len(outside._row_index()[1]) == 6 * 13 + 1
    policy.set_logits(0, (), np.zeros(3))
    assert policy._index is None
    # An update that adds no id hands on the index its own lookup built.
    again = apply_update(policy, by_id(policy, {(0, ()): np.ones(3)}), 1.0)
    assert again._index is not None and again._index is policy._index


# From 8 tokens on np.sum pairs terms, so max_len reaches 10 here: every total
# must be the same left fold.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6), max_len=st.integers(1, 10))
def test_sampled_and_greedy_totals_are_the_log_prob_of_their_tokens(seed, vocab, max_len):
    # total_logp is a left fold in token order, as on every interpreter: the
    # builtin sum of floats is compensated from Python 3.12 on.
    rng = np.random.default_rng(seed)
    scale = float(rng.choice([0.5, 4.0]))
    policy = PolicyTable(Vocab(vocab), max_len)
    # Random logits at every prefix of tokens 0 and 1, with the other tokens
    # held down so that most samples run to max_len.
    edge = range(min(2, vocab - 1))
    for depth in range(max_len):
        for prefix in itertools.product(edge, repeat=depth):
            logits = scale * rng.normal(size=vocab)
            logits[len(edge):] -= 4.0
            policy.set_logits(0, prefix, logits)
    for traj in [sample_trajectory(policy, 0, rng) for _ in range(5)] + \
            trajectories(sample_trajectories(policy, [0], rng.random((1, 5, max_len)))[0]) + \
            [greedy_decode(policy, 0), greedy_decode(policy, 3)]:
        assert traj.total_logp == trajectory_log_prob(policy, traj.prompt_id, traj.tokens)[1]
        assert type(traj.total_logp) is float


def test_apply_update_identity_inverse_and_definition():
    rng = np.random.default_rng(21)
    policy = random_policy(4, 3, rng)
    traj = sample_trajectory(policy, 0, rng)
    grad = grad_log_prob(policy, traj)

    unchanged = apply_update(policy, grad, 0.0)
    for key, vec in policy.stored_items():
        np.testing.assert_allclose(unchanged.logit_vector(*key), vec, atol=0)

    roundtrip = apply_update(apply_update(policy, grad, 0.3), grad, -0.3)
    for key, vec in policy.stored_items():
        np.testing.assert_allclose(roundtrip.logit_vector(*key), vec, atol=1e-12)

    single = by_id(policy, {(0, ()): np.array([0.0, 1.0, 0.0, 0.0])})
    bumped = apply_update(policy, single, 0.5)
    np.testing.assert_allclose(
        bumped.logit_vector(0, ()) - policy.logit_vector(0, ()),
        [0.0, 0.5, 0.0, 0.0], atol=1e-15)


def test_apply_update_allocates_missing_prefix_as_zero():
    policy = PolicyTable(Vocab(3), max_len=2)
    grad = by_id(policy, {(7, (1,)): np.array([1.0, -1.0, 0.0])})
    updated = apply_update(policy, grad, 2.0)
    np.testing.assert_allclose(updated.logit_vector(7, (1,)), [2.0, -2.0, 0.0])
    assert policy.stored_prefix_count == 0


def test_checkpoint_round_trip_and_idempotence(tmp_path):
    rng = np.random.default_rng(8)
    policy = random_policy(4, 3, rng, prompt_ids=(0, 3))
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_checkpoint(policy, p1)
    loaded = load_checkpoint(p1)
    assert loaded.vocab.size == 4 and loaded.max_len == 3
    for key, vec in policy.stored_items():
        assert (loaded.logit_vector(*key) == vec).all()
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_lines_are_the_repr_of_every_stored_logit(tmp_path):
    rng = np.random.default_rng(12)
    policy = random_policy(4, 3, rng, prompt_ids=(2, 0), scale=3.0)
    policy.set_logits(1, (2, 0), [-0.0, 1e-300, 1e16, -2.5e-8])
    policy = apply_update(policy, by_id(policy, {(0, (1, 1, 0)): rng.normal(size=4),
                                                 (2, ()): rng.normal(size=4)}), 0.3)
    path = tmp_path / "c.txt"
    save_checkpoint(policy, path)
    # The layout written one numpy scalar at a time, in sorted prefix order.
    lines = ["squeezelab-policy v1 vocab=4 max_len=3"]
    for (prompt_id, tokens), vec in sorted(policy.stored_items(), key=lambda item: item[0]):
        prefix_txt = ",".join(str(t) for t in tokens) if tokens else "-"
        lines.append(f"{prompt_id} {prefix_txt} " + " ".join(repr(float(x)) for x in vec))
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_checkpoint_fresh_policy_has_no_prefix_lines(tmp_path):
    policy = PolicyTable(Vocab(5), max_len=2)
    path = tmp_path / "fresh.txt"
    save_checkpoint(policy, path)
    lines = path.read_text().splitlines()
    assert lines == ["squeezelab-policy v1 vocab=5 max_len=2"]
    assert load_checkpoint(path).stored_prefix_count == 0


# Logits and update blocks with both zeros, which compare equal but print
# differently.
SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 0.1])


def _flip_zeros(vec) -> list[float]:
    return [math.copysign(0.0, -math.copysign(1.0, x)) if x == 0 else x for x in vec]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_saves_that_reuse_a_rendering_match_a_full_rendering(data):
    size, max_len = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
    key = st.tuples(st.integers(0, 1),
                    st.lists(st.integers(0, size - 1), max_size=max_len).map(tuple))
    vec = st.lists(SIGNED_ZEROS, min_size=size, max_size=size)
    op = st.one_of(
        st.tuples(st.just("update"), st.dictionaries(key, vec, max_size=4),
                  st.sampled_from([1.0, 0.5, -2.0])),
        st.tuples(st.just("set"), key, vec),
        st.sampled_from([("flip",), ("zero_step",), ("save",), ("load",), ("older",),
                         ("other",)]))
    ops = data.draw(st.lists(op, max_size=16))
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "ckpt.txt"), os.path.join(tmp, "ref.txt")

        def check(pol):
            save_checkpoint(pol, path)
            reference_save_checkpoint(pol, ref)
            with open(path, "rb") as got, open(ref, "rb") as want:
                assert got.read() == want.read()

        policy = PolicyTable(Vocab(size), max_len)
        versions = [policy]
        for kind, *args in ops:
            stored = policy.stored_items()
            if kind == "update":
                policy = apply_update(policy, by_id(policy, args[0]), args[1])
            elif kind == "set":  # in place, on a version that may share a rendering
                policy.set_logits(*args[0], args[1])
            elif kind == "flip" and stored:  # in place: every zero of one row changes sign
                (pid, tokens), row = stored[data.draw(st.integers(0, len(stored) - 1))]
                policy.set_logits(pid, tokens, _flip_zeros(row))
            elif kind == "zero_step":  # -0.0 + 0.0 is 0.0; every other logit stays
                policy = apply_update(policy, by_id(policy, {
                    k: np.zeros(size) for k, _ in stored}), 1.0)
            elif kind == "save":
                check(policy)
            elif kind == "load":
                check(policy)
                policy = load_checkpoint(path)
            elif kind == "older":
                check(versions[data.draw(st.integers(0, len(versions) - 1))])
            elif kind == "other":  # a table of another shape, saved to the same path
                check(random_policy(size + 1, max_len, np.random.default_rng(len(versions))))
            if policy is not versions[-1]:
                versions.append(policy)
        # Versions saved after their successors, then before them.
        for pol in versions[::-1] + versions:
            check(pol)
        assert not os.path.exists(path + ".partial")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
def test_updates_drop_the_cumulative_table_and_the_next_draw_rebuilds_it(seed, steps):
    rng = np.random.default_rng(seed)
    policy = random_policy(4, 3, rng, prompt_ids=(0, 1))
    sample_trajectories(policy, [0], np.zeros((1, 1, 3)))
    for _ in range(steps):
        # Stored rows and rows of prompts the table has not seen yet.
        keys = {(int(rng.integers(4)), tuple(rng.integers(4, size=rng.integers(3)).tolist()))
                for _ in range(rng.integers(1, 8))}
        grad = {key: rng.normal(size=4) for key in keys}
        policy = apply_update(policy, by_id(policy, grad), float(rng.normal()))
        # The sampler's cumulative table is computed again on its next read.
        assert policy._cum is None
        sample_trajectories(policy, [0], np.zeros((1, 1, 3)))
        assert np.array_equal(policy._cum,
                              np.cumsum(np.exp(_rebuilt(policy)._log_prob_table()), axis=1))


def test_a_checkpoint_write_cut_midway_leaves_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(random_policy(4, 3, np.random.default_rng(3)), path)
    earlier = path.read_bytes()

    class CutFile:
        """A file whose first write stops halfway and raises."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(artifacts_module, "open", lambda *a, **k: CutFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(random_policy(4, 3, np.random.default_rng(4)), path)
    assert path.read_bytes() == earlier
    assert 0 < (tmp_path / "ckpt.txt.partial").stat().st_size < len(earlier)


def test_set_logits_rejects_a_prefix_no_checkpoint_can_hold(tmp_path):
    policy = PolicyTable(Vocab(4), max_len=3)
    for tokens, error in (((7,), InvalidToken), ((0, 0, 0, 0), PrefixExhausted)):
        with pytest.raises(error):
            policy.set_logits(0, tokens, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(error):
            policy.logit_vector(0, tokens)
    assert policy.stored_prefix_count == 0
    # A prefix of length max_len is stored, and survives save -> load.
    policy.set_logits(-2, (3, 0, 1), [1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "full_length.txt"
    save_checkpoint(policy, path)
    assert load_checkpoint(path).logit_vector(-2, (3, 0, 1)).tolist() == [1.0, 2.0, 3.0, 4.0]


# Shapes of V ** (max_len + 1) beyond 2 ** 63, where ids outgrow numpy's int64.
WIDE_SHAPES = [(6, 30), (2, 70)]


@settings(max_examples=100, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(2, 6), st.integers(1, 6)),
                       st.sampled_from(WIDE_SHAPES)),
       data=st.data())
def test_prefix_ids_number_every_key_once(shape, data):
    vocab, max_len = shape
    policy = PolicyTable(Vocab(vocab), max_len)
    keys = data.draw(st.lists(
        st.tuples(st.integers(-40, 40),
                  st.lists(st.integers(0, vocab - 1), max_size=max_len).map(tuple)),
        min_size=1, max_size=30, unique=True))
    # Length-max_len prefixes and the last id of a prompt's range.
    keys.append((-1, (vocab - 1,) * max_len))
    keys.append((0, ()))
    keys = list(dict.fromkeys(keys))
    ids = [prefix_id(policy, *key) for key in keys]
    assert all(type(ident) is int for ident in ids)
    assert [prefix_key(policy, ident) for ident in ids] == keys
    assert len(set(ids)) == len(keys)
    assert prefix_id(policy, -1, (vocab - 1,) * max_len) == -1
    for prompt_id, tokens in keys:
        assert prefix_ids(policy, prompt_id, tokens) == [
            prefix_id(policy, prompt_id, tokens[:t]) for t in range(len(tokens))]


@settings(max_examples=100, deadline=None)
@given(vocab=st.integers(2, 5), max_len=st.integers(1, 4), data=st.data())
def test_sequence_batch_rejects_the_first_sequence_prefix_ids_rejects(vocab, max_len, data):
    # A sequence too long, or with a token outside the vocabulary (2**70
    # included), fails as the per-sequence numbering fails at the first one.
    policy = PolicyTable(Vocab(vocab), max_len)
    token = st.integers(0, vocab - 1) | st.sampled_from([-1, vocab, 1 << 70])
    sequences = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.lists(token, max_size=max_len + 1).map(tuple)),
        max_size=6))
    try:
        want = [i for prompt_id, tokens in sequences for i in prefix_ids(policy, prompt_id, tokens)]
    except (InvalidToken, PrefixExhausted) as exc:
        with pytest.raises(type(exc)) as err:
            sequence_batch(policy, sequences)
        assert str(err.value) == str(exc)
    else:
        assert sequence_batch(policy, sequences).ids.tolist() == want


@settings(max_examples=100, deadline=None)
@given(vocab=st.integers(2, 6), max_len=st.integers(1, 12), data=st.data())
def test_sequence_log_probs_kernel_matches_the_per_sequence_path(vocab, max_len, data):
    # From 8 tokens on np.sum pairs terms, so a total that is not a left fold
    # shows up on long sequences.
    policy = PolicyTable(Vocab(vocab), max_len)
    sequences = data.draw(st.lists(
        st.tuples(st.integers(-3, 3),
                  st.lists(st.integers(0, vocab - 1), max_size=max_len).map(tuple)),
        max_size=12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for prompt_id, tokens in sequences:
        for t in range(len(tokens)):
            if rng.random() < 0.7:  # the others read the zero row
                policy.set_logits(prompt_id, tokens[:t], 3.0 * rng.normal(size=vocab))
    cut = data.draw(st.integers(0, len(sequences)))
    batch = sequence_batch(policy, sequences)
    joined = join_batches([sequence_batch(policy, sequences[:cut]),
                           sequence_batch(policy, sequences[cut:])])
    assert batch.ids.dtype == joined.ids.dtype == np.int64
    assert batch.ids.tolist() == joined.ids.tolist() == [
        i for prompt_id, tokens in sequences for i in prefix_ids(policy, prompt_id, tokens)]
    expected_logps = [_token_logps(policy, prompt_id, tokens) for prompt_id, tokens in sequences]
    expected_totals = [trajectory_log_prob(policy, prompt_id, tokens)[1]
                       for prompt_id, tokens in sequences]
    for b, rows in ((batch, None), (joined, prefix_rows(policy, joined.ids))):
        logps, totals = sequence_log_probs(policy, b, rows)
        assert np.array_equal(logps, np.concatenate([np.empty(0)] + expected_logps))
        assert totals.tolist() == expected_totals


def test_checkpoint_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("squeezelab-policy v1 vocab=4 max_len=2\n0 - 1.0 2.0 3.0\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)  # wrong field count for vocab=4
    path.write_text("not-a-header\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)
    path.write_text("squeezelab-policy v1 vocab=4 max_len=2\n0 - 1.0 2.0 3.0 nanx\n")
    with pytest.raises(CheckpointCorrupt) as err:
        load_checkpoint(path)
    assert err.value.line == 2


_HEADER = "squeezelab-policy v1 vocab=3 max_len=2\n"
_ROW = "0 - 0.5 -1.0 2.0\n"


@pytest.mark.parametrize("text,line,message", [
    ("", 1, "empty checkpoint file"),
    ("not-a-header\n", 1, "bad header 'not-a-header'"),
    ("squeezelab-policy v1 vocab=1 max_len=2\n", 1, "invalid dimensions vocab=1 max_len=2"),
    ("squeezelab-policy v1 vocab=3 max_len=0\n", 1, "invalid dimensions vocab=3 max_len=0"),
    (_HEADER + _ROW + "\n1 - 1.0 2.0 3.0\n", 3, "blank line inside checkpoint"),
    (_HEADER + _ROW + " \n", 3, "blank line inside checkpoint"),
    (_HEADER + _ROW + "1 - 1.0 2.0\n", 3, "expected 5 fields, got 4"),
    (_HEADER + "x - 1.0 2.0 3.0\n", 2, "invalid literal for int() with base 10: 'x'"),
    (_HEADER + "0 0,a 1.0 2.0 3.0\n", 2, "invalid literal for int() with base 10: 'a'"),
    (_HEADER + "0 - 1.0 2.0 nanx\n", 2, "could not convert string to float: 'nanx'"),
    (_HEADER + "0 3 1.0 2.0 3.0\n", 2, "prefix '3': token 3 outside vocab of size 3"),
    (_HEADER + "0 0,0,0 1.0 2.0 3.0\n", 2,
     "prefix '0,0,0': sequence of length 3 exceeds max_len=2"),
    (_HEADER + "0 - 1.0 inf 3.0\n", 2, "non-finite logit value"),
    (_HEADER + _ROW + "1 0 nan 2.0 3.0\n", 3, "non-finite logit value"),
    (_HEADER + _ROW + "0 - 1.0 2.0 3.0\n", 3, "duplicate prefix 0 -"),
    # Each line's checks run in order: blank, field count, int and float
    # parse, prefix, finiteness, duplicate.
    (_HEADER + "0 3 nan 2.0 3.0\n", 2, "prefix '3': token 3 outside vocab of size 3"),
    (_HEADER + _ROW + "0 - -inf 2.0 3.0\n", 3, "non-finite logit value"),
    (_HEADER + "    \n", 2, "blank line inside checkpoint"),
    (_HEADER + "x - 1.0 y\n", 2, "expected 5 fields, got 4"),
    (_HEADER + "x 3 1.0 y 3.0\n", 2, "invalid literal for int() with base 10: 'x'"),
    (_HEADER + "0 a 1.0 y 3.0\n", 2, "invalid literal for int() with base 10: 'a'"),
    (_HEADER + "0 3 1.0 y 3.0\n", 2, "could not convert string to float: 'y'"),
    (_HEADER + "0 0,0,0 inf y 3.0\n", 2, "could not convert string to float: 'y'"),
    (_HEADER + _ROW + "0 - 1.0 y 3.0\n", 3, "could not convert string to float: 'y'"),
    # Across lines the earliest bad line wins, whichever check fails there.
    (_HEADER + _ROW + "1 - inf 2.0 3.0\n1 0 1.0 2.0 3.0\n0 3 1.0 2.0 3.0\n", 3,
     "non-finite logit value"),
    (_HEADER + _ROW + "0 3 1.0 2.0 3.0\n1 - inf 2.0 3.0\n", 3,
     "prefix '3': token 3 outside vocab of size 3"),
    (_HEADER + _ROW + "1 - nan 2.0 3.0\n0 - 1.0 y 3.0\n", 3, "non-finite logit value"),
    (_HEADER + _ROW + "1 - 1.0 y 3.0\n0 - inf 2.0 3.0\n", 3,
     "could not convert string to float: 'y'"),
    (_HEADER + _ROW + _ROW + "1 - 1.0 y 3.0\n", 3, "duplicate prefix 0 -"),
    (_HEADER + _ROW + "1 - 1.0 2.0 3.0\n0 - 1.0 2.0 3.0\n1 - inf 2.0 3.0\n", 4,
     "duplicate prefix 0 -"),
    (_HEADER + _ROW + "1 - inf 2.0 3.0\n0 - 1.0 2.0 3.0\n", 3, "non-finite logit value"),
    (_HEADER + _ROW + "0 - 1.0 2.0 3.0\n\n", 3, "duplicate prefix 0 -"),
    (_HEADER + _ROW + "1 - 1.0 2.0 3.0\n\n0 - inf 2.0 3.0\n", 4,
     "blank line inside checkpoint"),
    (_HEADER + "0 1 1.0 2.0 3.0\n0 2 1.0 2.0\n0 1 nan 2.0 3.0\n", 3,
     "expected 5 fields, got 4"),
])
def test_corrupt_checkpoint_names_its_error_and_line(text, line, message, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CheckpointCorrupt) as err:
        load_checkpoint(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


EXTREME_LOGITS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1e16])


@settings(max_examples=60, deadline=None)
@given(vocab=st.integers(2, 5), max_len=st.integers(1, 3), data=st.data())
def test_a_saved_checkpoint_loads_back_bit_for_bit(vocab, max_len, data):
    # Rows come back in file order with their bits, -0.0 and the subnormal
    # and largest floats included, at any prompt id; a header-only file
    # loads as a table with no rows.
    keys = data.draw(st.lists(
        st.tuples(st.integers(-(1 << 40), 1 << 40) | st.integers(-3, 3),
                  st.lists(st.integers(0, vocab - 1), max_size=max_len).map(tuple)),
        max_size=12, unique=True))
    policy = PolicyTable(Vocab(vocab), max_len)
    for prompt_id, tokens in keys:
        policy.set_logits(prompt_id, tokens, data.draw(st.lists(
            EXTREME_LOGITS | st.floats(allow_nan=False, allow_infinity=False),
            min_size=vocab, max_size=vocab)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        save_checkpoint(policy, path)
        loaded = load_checkpoint(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    assert (loaded.vocab, loaded.max_len) == (policy.vocab, policy.max_len)
    assert len(lines) == 1 + len(keys)
    order = sorted(keys)
    assert [prefix_key(loaded, ident) for ident in loaded._rows] == order
    assert list(loaded._rows.values()) == list(range(1, len(keys) + 1))
    want = np.array([policy.logit_vector(*key) for key in order]).reshape(len(keys), vocab)
    assert loaded._logit_rows().shape == (len(keys) + 1, vocab)
    assert np.array_equal(loaded._logit_rows()[1:].view(np.uint64), want.view(np.uint64))
    assert not loaded._logit_rows()[0].any()


def test_loaded_checkpoint_table_grows_like_a_built_one(tmp_path):
    # The loader sizes the table to its rows; later updates still allocate.
    path = tmp_path / "ok.txt"
    path.write_text(_HEADER + _ROW + "0 1 1.0 -2.0 0.25\n", encoding="utf-8")
    loaded = load_checkpoint(path)
    built = PolicyTable(Vocab(3), 2)
    built.set_logits(0, (), [0.5, -1.0, 2.0])
    built.set_logits(0, (1,), [1.0, -2.0, 0.25])
    assert np.array_equal(loaded._logit_rows(), built._logit_rows())
    for table in (loaded, built):
        table.set_logits(0, (2,), [3.0, 0.0, -1.0])
    assert np.array_equal(loaded._logit_rows(), built._logit_rows())
    assert loaded._rows == built._rows


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(1234, 0, 5).random(4)
    b = derive_rng(1234, 0, 5).random(4)
    c = derive_rng(1234, 0, 6).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _assert_rows_match_the_scalar_kernel(policy):
    keys = [key for key, _vec in policy.stored_items()] + [(99, ())]
    for prompt_id, prefix in keys:
        row = _log_probs(policy, prompt_id, prefix)
        assert np.array_equal(row, _log_softmax(policy.logit_vector(prompt_id, prefix)))
        assert not row.flags.writeable
        assert not policy.logit_vector(prompt_id, prefix).flags.writeable


def _rebuilt(policy):
    """The same logits in a new table, whose log-probs are computed from scratch."""
    fresh = PolicyTable(policy.vocab, policy.max_len)
    for (prompt_id, prefix), vec in policy.stored_items():
        fresh.set_logits(prompt_id, prefix, vec)
    return fresh


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 12),
       max_len=st.integers(1, 3), steps=st.integers(1, 6))
def test_dense_table_matches_the_scalar_kernel_through_updates(seed, vocab, max_len, steps):
    rng = np.random.default_rng(seed)
    policy = random_policy(vocab, max_len, rng, prompt_ids=(0, 2),
                           scale=float(rng.choice([0.5, 4.0, 40.0])))
    _log_probs(policy, 0, ())
    policy.set_logits(0, (), rng.normal(size=vocab))  # after a read
    policy.set_logits(3, (0,) * (max_len - 1), rng.normal(size=vocab))  # a new row
    _assert_rows_match_the_scalar_kernel(policy)
    for _ in range(steps):
        if rng.random() < 0.3:
            policy = _rebuilt(policy)  # a parent whose table was never read
        parent_read = policy._logp is not None
        keys = [key for key, _vec in policy.stored_items()]
        grad = {keys[i]: rng.normal(size=vocab)
                for i in rng.choice(len(keys), size=min(3, len(keys)), replace=False)}
        new_key = (int(rng.integers(4, 8)),
                   tuple(int(t) for t in rng.integers(0, vocab, size=rng.integers(0, max_len))))
        grad[new_key] = rng.normal(size=vocab)
        updated = apply_update(policy, by_id(policy, grad), float(rng.normal()))
        assert updated.stored_prefix_count == len(set(keys) | {new_key})
        # Reading the parent first means the update carried its table over.
        assert (updated._logp is not None) == parent_read
        _assert_rows_match_the_scalar_kernel(updated)
        fresh = _rebuilt(updated)
        for (prompt_id, prefix), _vec in updated.stored_items():
            assert np.array_equal(_log_probs(updated, prompt_id, prefix),
                                  _log_probs(fresh, prompt_id, prefix))
        policy = updated


def test_rows_handed_out_reject_writes():
    policy = random_policy(4, 3, np.random.default_rng(4))
    views = [_log_probs(policy, 0, ()), _log_probs(policy, 8, ()),
             policy.logit_vector(0, ()), policy.logit_vector(8, ()),
             dict(policy.stored_items())[(0, ())]]
    for view in views:
        with pytest.raises(ValueError):
            view[0] = 1.0
    policy.set_logits(0, (), [1.0, 2.0, 3.0, 4.0])
    assert policy.logit_vector(0, ()).tolist() == [1.0, 2.0, 3.0, 4.0]
