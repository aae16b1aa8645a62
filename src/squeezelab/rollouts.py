"""An RL step's rollouts as one record: the sampler's flat batch.

sample_trajectories keeps one policy.sample_batch call as a Rollouts record;
record[k] is prompt k's rollouts as a one-prompt record, and rollout_record
joins records into one. A record computes what a step derives from its
rollouts alone (group_advantages, DAPO's kept groups, the live groups joined
with each token's advantage and weight, the mean reward, and L2TE's
candidates by prompt and rank keys) on first use and keeps it, so reused
steps and the per-prompt L2TE calls derive it once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np

from .policy import (PolicyTable, SequenceBatch, _read_only, _runs, join_batches,
                     sample_batch)


@dataclass(frozen=True)
class AdvantageVector:
    values: np.ndarray
    degenerate: bool


def group_advantages(rewards) -> AdvantageVector:
    """Group-normalized advantages (R - mean)/std with population std.

    All-equal rewards have zero variance; those groups get all-zero
    advantages and the degenerate flag. The result depends on the reward
    tuple alone, so it is computed once per tuple and shared: its values
    array is read-only.
    """
    return _advantages(tuple(rewards))


@lru_cache(maxsize=1024)
def _advantages(rewards: tuple) -> AdvantageVector:
    r = np.asarray(rewards, dtype=float)
    if r.shape[0] < 2:
        raise ValueError("a group needs at least 2 rollouts")
    mean = r.mean()
    std = r.std()  # population convention (divide by G)
    if std == 0.0:
        return AdvantageVector(_read_only(np.zeros_like(r)), degenerate=True)
    return AdvantageVector(_read_only((r - mean) / std), degenerate=False)


def dapo_filter(groups) -> tuple[Rollouts | list[Rollouts], int]:
    """Drop groups whose rewards are all-0 or all-1 (no learning signal): the
    others, a record's as a record and a list of one-prompt records as a list,
    and how many were dropped."""
    if not isinstance(groups, Rollouts):
        batch = list(groups)
        kept = [g for g in batch if 0 < g.rewards.sum() < len(g.rewards)]
        return kept, len(batch) - len(kept)
    kept = [k for k, rewards in enumerate(groups.reward_tuples) if 0 < sum(rewards) < len(rewards)]
    return groups.take(kept), len(groups) - len(kept)


@dataclass(frozen=True, eq=False)
class Rollouts:
    """The rollouts of one RL step as flat arrays, prompt after prompt."""

    prompt_ids: tuple[int, ...]
    batch: SequenceBatch  # every rollout's tokens and the prefix ids they were drawn at
    logps: np.ndarray     # each token's behavior log-prob
    totals: np.ndarray    # each rollout's left-fold total of them
    rewards: np.ndarray   # each rollout's reward, 0 or 1
    sizes: np.ndarray     # each prompt's rollout count

    def __len__(self) -> int:
        return len(self.prompt_ids)

    def __getitem__(self, k: int) -> Rollouts:
        """Prompt k's rollouts as a one-prompt record."""
        return self.take([range(len(self))[k]])  # IndexError past the end, which ends iteration

    @cached_property
    def reward_tuples(self) -> list[tuple[int, ...]]:
        rewards, bounds = self.rewards.tolist(), [0, *accumulate(self.sizes.tolist())]
        return [tuple(rewards[a:b]) for a, b in zip(bounds, bounds[1:])]

    def take(self, picks) -> Rollouts:
        """The groups at positions picks, in that order, as one record; all of
        them in order share this record's arrays."""
        if list(picks) == list(range(len(self))):
            return replace(self)  # not self, which live and kept would hold in a cycle
        picks, lengths = np.array(picks, np.intp), self.batch.lengths
        rollout = _runs((np.cumsum(self.sizes) - self.sizes)[picks], self.sizes[picks])
        token = _runs((np.cumsum(lengths) - lengths)[rollout], lengths[rollout])
        return Rollouts(tuple(self.prompt_ids[k] for k in picks.tolist()), SequenceBatch(
            self.batch.ids[token], self.batch.tokens[token], lengths[rollout]),
            self.logps[token], self.totals[rollout], self.rewards[rollout], self.sizes[picks])

    @cached_property
    def kept(self) -> Rollouts:
        """The groups dapo_filter keeps."""
        return dapo_filter(self)[0]

    @cached_property
    def live(self) -> tuple[Rollouts, np.ndarray, np.ndarray, np.ndarray]:
        """The groups whose advantages are not degenerate, each of their rollouts'
        advantage, and each of their tokens' advantage and GRPO weight,
        1 / (groups * G * |y|)."""
        advs = [group_advantages(rewards) for rewards in self.reward_tuples]
        keep = [k for k, adv in enumerate(advs) if not adv.degenerate]
        live, adv = self.take(keep), np.concatenate([np.empty(0)] + [advs[k].values for k in keep])
        lengths = live.batch.lengths
        scale = len(self) * np.repeat(live.sizes, live.sizes) * lengths
        return live, adv, np.repeat(adv, lengths), 1.0 / np.repeat(scale, lengths)

    @cached_property
    def mean_reward(self) -> float:
        return float(np.mean(self.rewards)) if len(self.rewards) else 0.0

    @cached_property
    def candidates(self) -> dict[int, np.ndarray]:
        """Each prompt id's rollout positions in record order, from one stable
        argsort of the rollouts' prompt ids."""
        prompt = np.repeat(np.array(self.prompt_ids, np.int64), self.sizes)
        order = np.argsort(prompt, kind="stable")
        ids, starts = np.unique(prompt[order], return_index=True)
        return dict(zip(ids.tolist(), np.split(order, starts[1:])))

    @cached_property
    def token_keys(self) -> np.ndarray:
        """Each rollout's behavior total per token (L2TE's rank key)."""
        return self.totals / np.maximum(self.batch.lengths, 1)


def rollout_record(groups) -> Rollouts:
    """groups as one Rollouts record: a record as it is, and records joined in order."""
    if isinstance(groups, Rollouts):
        return groups
    parts = list(groups)
    if len(parts) == 1:
        return parts[0]
    return Rollouts(tuple(chain.from_iterable(p.prompt_ids for p in parts)),
                    join_batches(p.batch for p in parts),
                    np.concatenate([np.empty(0)] + [p.logps for p in parts]),
                    np.concatenate([np.empty(0)] + [p.totals for p in parts]),
                    np.concatenate([np.empty(0, np.intp)] + [p.rewards for p in parts]),
                    np.concatenate([np.empty(0, np.intp)] + [p.sizes for p in parts]))


def sample_trajectories(policy: PolicyTable, prompt_ids, u: np.ndarray, walks=None) -> Rollouts:
    """sample_batch's rollouts as one Rollouts record, n per prompt."""
    prompt_ids, (count, n, _) = tuple(int(p) for p in prompt_ids), u.shape
    return Rollouts(prompt_ids, *sample_batch(policy, prompt_ids, u, walks),
                    np.full(count, n, np.intp))
