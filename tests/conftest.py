"""Shared fixtures: tiny graph tasks and policies used across the suite."""
from __future__ import annotations

import math
from itertools import chain

import numpy as np
import pytest

from squeezelab import sps
from squeezelab.metrics import CoverageRecord
from squeezelab.policy import (Gradient, PolicyTable, SequenceBatch, Trajectory, Vocab,
                               _left_fold, derive_rng, join_batches, prefix_id, prefix_ids,
                               prefix_key, prefix_rows, sample_batch, score_gradient,
                               sequence_batch, sequence_log_probs)
from squeezelab.rollouts import Rollouts
from squeezelab.tasks import PathTaskSpec, Suite, TaskInstance


@pytest.fixture
def diamond_task() -> TaskInstance:
    """start -> {mid1, mid2} -> target, two length-2 solutions, vocab 4."""
    spec = PathTaskSpec(
        node_count=4,
        edges=((0, 1, 0), (0, 2, 1), (1, 3, 0), (2, 3, 0)),
        start=0,
        target=3,
        max_len=2,
        vocab_size=4,
    )
    return TaskInstance(prompt_id=0, label=3, spec=spec)


@pytest.fixture
def ladder_task() -> TaskInstance:
    """10 parallel 2-edge routes from start to target."""
    edges = []
    for i in range(10):
        edges.append((0, 1 + i, i))
        edges.append((1 + i, 11, 0))
    spec = PathTaskSpec(
        node_count=12,
        edges=tuple(edges),
        start=0,
        target=11,
        max_len=2,
        vocab_size=11,
    )
    return TaskInstance(prompt_id=0, label=11, spec=spec)


@pytest.fixture
def uniform_policy_v4() -> PolicyTable:
    return PolicyTable(Vocab(4), max_len=2)


def random_policy(vocab_size: int, max_len: int, rng: np.random.Generator,
                  prompt_ids=(0,), scale: float = 1.0) -> PolicyTable:
    """Policy with random logits stored at every prefix of every prompt."""
    policy = PolicyTable(Vocab(vocab_size), max_len)
    for pid in prompt_ids:
        stack = [()]
        while stack:
            prefix = stack.pop()
            policy.set_logits(pid, prefix, scale * rng.normal(size=vocab_size))
            if len(prefix) + 1 < max_len:
                for tok in range(vocab_size - 1):
                    stack.append(prefix + (tok,))
    return policy


def rollout_group(policy, prompt_id, trajectories, rewards, old_logps=None):
    """A one-prompt Rollouts record of Trajectories, numbered by prefix_ids at
    policy's shape.

    Each rollout's behavior log-probs are old_logps[i], or else its own
    per_token_logp, and its total is its total_logp.
    """
    trajectories = tuple(trajectories)
    if old_logps is None:
        old_logps = [t.per_token_logp for t in trajectories]
    return Rollouts(
        (prompt_id,), sequence_batch(policy, ((prompt_id, t.tokens) for t in trajectories)),
        np.array([lp for old in old_logps for lp in old], float),
        np.array([t.total_logp for t in trajectories], float), np.array(rewards, np.intp),
        np.array([len(trajectories)], np.intp))


def trajectories(group):
    """A record's rollouts as Trajectories, read off its arrays; each
    per_token_logp holds the rollout's behavior log-probs."""
    tokens, logps, start, out = group.batch.tokens.tolist(), group.logps.tolist(), 0, []
    prompts = np.repeat(group.prompt_ids, group.sizes).tolist()
    for prompt_id, length, total in zip(prompts, group.batch.lengths.tolist(),
                                        group.totals.tolist()):
        out.append(Trajectory(prompt_id, tuple(tokens[start:start + length]),
                              tuple(logps[start:start + length]), total))
        start += length
    return out


def reference_sample_groups(policy, tasks, cfg, seed):
    """The groups rl_step samples for tasks, as it drew them before one record
    held a step's rollouts: each retry's flat batch split into one one-prompt
    record per prompt, every task at retry 0 and then, under DAPO, those still
    degenerate, each task keeping its last draw."""
    attempts = 1 + (cfg.dapo_max_resamples if cfg.clip.objective_kind == "dapo" else 0)
    groups, todo, n = [None] * len(tasks), list(range(len(tasks))), cfg.group_size
    table, starts, accepts = Suite(tasks).walks
    for retry in range(attempts):
        u = derive_rng(seed, retry).random((len(todo), n, policy.max_len))
        batch, logps, totals, rewards = sample_batch(
            policy, [tasks[i].prompt_id for i in todo], u, (table, starts[todo], accepts[todo]))
        lengths, totals = batch.lengths.reshape(-1, n), totals.reshape(-1, n)
        rewards = rewards.reshape(-1, n)
        ends = np.cumsum([0] + lengths.sum(axis=1).tolist()).tolist()
        for k, (i, a, b) in enumerate(zip(todo, ends, ends[1:])):
            groups[i] = Rollouts((tasks[i].prompt_id,), SequenceBatch(
                batch.ids[a:b], batch.tokens[a:b], lengths[k]), logps[a:b], totals[k],
                rewards[k], np.array([n], np.intp))
        todo = [i for i in todo if not 0 < groups[i].rewards.sum() < n]
        if not todo:
            break
    return groups


def group_fields(group):
    """A record's contents as plain values, to compare records by what they hold."""
    return (group.prompt_ids, group.batch.ids.tolist(), group.batch.tokens.tolist(),
            group.batch.lengths.tolist(), group.logps.tolist(), group.totals.tolist(),
            group.rewards.tolist(), group.sizes.tolist())


def finite_difference_blocks(value_fn, policy, keys, h=1e-5):
    """Central finite differences of value_fn(policy) per logit coordinate."""
    out = {}
    size = policy.vocab.size
    for key in keys:
        fd = np.zeros(size)
        for v in range(size):
            plus = policy.copy()
            vec = plus.logit_vector(*key).copy()
            vec[v] += h
            plus.set_logits(key[0], key[1], vec)
            minus = policy.copy()
            vec = minus.logit_vector(*key).copy()
            vec[v] -= h
            minus.set_logits(key[0], key[1], vec)
            fd[v] = (value_fn(plus) - value_fn(minus)) / (2 * h)
        out[key] = fd
    return out


def by_key(policy, gradient):
    """A Gradient record as a dict from (prompt_id, prefix) to block, in the record's order."""
    return {prefix_key(policy, ident): block
            for ident, block in zip(gradient.ids.tolist(), gradient.blocks)}


def by_id(policy, gradient):
    """A dict from (prompt_id, prefix) to block as a Gradient record, in the dict's order."""
    ids = [prefix_id(policy, *key) for key in gradient]
    blocks = np.array(list(gradient.values()), dtype=float).reshape(len(ids), policy.vocab.size)
    return Gradient(np.array(ids, dtype=np.int64), blocks)


def reference_save_checkpoint(policy, path):
    """save_checkpoint as it was before saves reused a rendering: every row
    printed afresh, written straight to path."""
    lines = [f"squeezelab-policy v1 vocab={policy.vocab.size} max_len={policy.max_len}"]
    keys = [prefix_key(policy, ident) for ident in policy._rows]
    rows = policy._logit_rows()[list(policy._rows.values())].tolist()
    for (prompt_id, tokens), vec in sorted(zip(keys, rows)):
        prefix_txt = ",".join(str(t) for t in tokens) if tokens else "-"
        lines.append(f"{prompt_id} {prefix_txt} {' '.join(map(repr, vec))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_score_gradient(policy, ids, rows, tokens, weights):
    """score_gradient as it was before np.bincount: ids slotted by a dict in
    order of first appearance, blocks summed by np.add.at from -0.0."""
    blocks = -np.exp(policy._log_prob_table()[rows])
    blocks[np.arange(len(ids)), tokens] += 1.0
    blocks *= np.asarray(weights, dtype=float)[:, None]
    slots: dict[int, int] = {}
    index = [slots.setdefault(ident, len(slots)) for ident in ids.tolist()]
    # -0.0 is the exact additive identity, so each sum starts at its first term.
    sums = np.full((len(slots), policy.vocab.size), -0.0)
    np.add.at(sums, index, blocks)
    return Gradient(np.fromiter(slots, np.int64, len(slots)), sums)


def reference_support_coverage(policy, tasks, prob_floor):
    """support_coverage as it was before a suite's correct sets were joined
    once: each task's set numbered at its own shape by one prefix_ids call per
    sequence, the sets joined on every call, each mass a _left_fold of its
    task's slice and each count a count_nonzero of it."""
    tasks = list(tasks)
    for task in tasks:
        shape = (task.spec.vocab_size, task.spec.max_len)
        if shape != (policy.vocab.size, policy.max_len):
            raise ValueError(f"task {task.prompt_id} at vocab={shape[0]} max_len={shape[1]}, "
                             f"policy at vocab={policy.vocab.size} max_len={policy.max_len}")
    sets = []
    for task in tasks:
        table = PolicyTable(Vocab(task.spec.vocab_size), task.spec.max_len)
        seqs = task.correct_sequences
        ids = [i for tokens in seqs for i in prefix_ids(table, task.prompt_id, tokens)]
        sets.append(SequenceBatch(np.array(ids, np.int64),
                                  np.fromiter(chain.from_iterable(seqs), np.intp, len(ids)),
                                  np.fromiter(map(len, seqs), np.intp, len(seqs))))
    totals = sequence_log_probs(policy, join_batches(sets))[1]
    probs = np.fromiter(map(math.exp, totals.tolist()), float, len(totals))
    ends = np.cumsum([0] + [len(batch.lengths) for batch in sets]).tolist()
    return [CoverageRecord(int(np.count_nonzero(probs[a:b] >= prob_floor)), b - a,
                           _left_fold(probs[a:b])) for a, b in zip(ends, ends[1:])]


def flat_score_gradient(policy, terms):
    """score_gradient of (prompt_id, prefix, token, weight) terms, passed as a flat batch;
    the Gradient record it returns."""
    ids = np.array([prefix_id(policy, prompt_id, prefix) for prompt_id, prefix, _tok, _w in terms],
                   np.int64)
    return score_gradient(policy, ids, prefix_rows(policy, ids),
                          [tok for *_, tok, _w in terms], [w for *_, w in terms])


# The IRL functions take a sequence of demo blocks, each a SequenceBatch;
# these give their one-block form, a flat Trajectory list in and one value out.

def demo_batch(policy, demos):
    """Demo Trajectories as the SequenceBatch the IRL functions take, numbered by prefix_ids."""
    return sequence_batch(policy, ((t.prompt_id, t.tokens) for t in demos))


def demo_blocks(policy, blocks):
    """Each block of demo Trajectories as a SequenceBatch."""
    return [demo_batch(policy, block) for block in blocks]


def batch_sequences(batch):
    """Each sequence of a SequenceBatch as a token tuple."""
    tokens, lengths = batch.tokens.tolist(), batch.lengths.tolist()
    starts = np.cumsum([0] + lengths).tolist()
    return [tuple(tokens[start:start + n]) for start, n in zip(starts, lengths)]


def irl_value(policy, demos):
    """sps.irl_value of demos as one block."""
    return sps.irl_value(policy, [demo_batch(policy, demos)])[0]


def irl_loss(policy, demos):
    """sps.irl_loss of demos as one block: (value, gradient by (prompt_id, prefix))."""
    (value,), grad = sps.irl_loss(policy, [demo_batch(policy, demos)])
    return value, by_key(policy, grad)


def irl_descent_step(policy, demos, lr):
    """sps.irl_descent_step on demos as one block: (policy, value)."""
    policy, (value,) = sps.irl_descent_step(policy, [demo_batch(policy, demos)], lr)
    return policy, value
