"""Group-relative policy-gradient objectives: GRPO, DAPO, and GSPO.

All three share one skeleton: sample G rollouts per prompt (one
sample_trajectories call per step serves every prompt, rewarded by the
tasks' fused validators), normalize
the binary rewards within each group into advantages, and maximize a clipped
importance-weighted surrogate. They differ in where the ratio lives (token
level for GRPO/DAPO, a per-sequence geometric mean for GSPO), how tokens are
averaged (per-sequence mean for GRPO/GSPO, one global token mean for DAPO),
the clip widths, and whether a KL leash to a reference snapshot is applied
(GRPO only). Groups with all-equal rewards carry no signal and are skipped.

A step's rollouts are one rollouts.Rollouts record, the sampler's flat
batch with the prefix ids it drew at (rollout_record joins hand-built
records into one). The record keeps what depends on the rollouts alone, so
steps that reuse it derive that once. Each objective gathers the
new and reference log-probs with one token_log_probs call each; GRPO and
DAPO are one clipped token surrogate of array expressions, and GSPO takes
each sequence ratio from its slice of the flat log-prob difference. Value
and KL sums are left folds in token order and each token's KL term follows
its policy-gradient term, so the bits equal a per-token loop's; every
gradient is one policy.score_gradient call. Values and analytical gradients
are exact, so brute-force summation and finite differences can check them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrajectory, NumericOverflow, OneSidedGroup
from .policy import (
    Gradient,
    PolicyTable,
    Trajectory,
    _accumulate_fold,
    _token_logps,
    apply_update,
    derive_rng,
    entropy,
    greedy_decode_batch,
    prefix_rows,
    sample_trajectory,  # noqa: F401  (callers read objectives.sample_trajectory)
    score_gradient,
    sequence_log_probs,
    token_log_probs,
)
from .rollouts import (
    Rollouts,
    dapo_filter,  # noqa: F401  (callers read objectives.dapo_filter)
    group_advantages,  # noqa: F401  (callers read objectives.group_advantages)
    rollout_record,
    sample_trajectories,
)
from .tasks import Suite, TaskInstance

GRPO = "grpo"
DAPO = "dapo"
GSPO = "gspo"
OBJECTIVE_KINDS = (GRPO, DAPO, GSPO)


@dataclass(frozen=True)
class ClipConfig:
    """Clip widths, KL coefficient, and which objective they belong to."""

    objective_kind: str
    eps_low: float
    eps_high: float
    beta: float = 0.0

    def __post_init__(self):
        if self.objective_kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.objective_kind!r}")
        if not (0 < self.eps_low <= self.eps_high):
            raise ValueError("need 0 < eps_low <= eps_high")
        if self.objective_kind == GRPO and self.eps_low != self.eps_high:
            raise ValueError("grpo uses a symmetric clip range: need eps_high == eps_low")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        if self.objective_kind != GRPO and self.beta != 0.0:
            raise ValueError("only grpo carries a KL term: need beta == 0")

    @staticmethod
    def grpo(eps: float = 0.2, beta: float = 0.01) -> "ClipConfig":
        return ClipConfig(GRPO, eps, eps, beta)

    @staticmethod
    def dapo(eps_low: float = 0.2, eps_high: float = 0.28) -> "ClipConfig":
        return ClipConfig(DAPO, eps_low, eps_high, 0.0)

    @staticmethod
    def gspo(eps_low: float = 3e-4, eps_high: float = 4e-4) -> "ClipConfig":
        return ClipConfig(GSPO, eps_low, eps_high, 0.0)


def sequence_ratio_gspo(policy: PolicyTable, old_logps, trajectory: Trajectory) -> float:
    """Geometric mean of the token ratios over one trajectory."""
    if len(trajectory.tokens) == 0:
        raise EmptyTrajectory("sequence ratio undefined for an empty trajectory")
    new_lp = _token_logps(policy, trajectory.prompt_id, trajectory.tokens)
    old = np.asarray(old_logps, dtype=float)
    return float(np.exp((new_lp - old).mean()))


@dataclass
class ObjectiveReport:
    value: float
    gradient: Gradient
    clipped_token_fraction: float
    kl_to_ref: float
    objective_kind: str


def _clipped_token_batch(record: Rollouts, policy: PolicyTable, ref_policy: PolicyTable | None,
                         cfg: ClipConfig, w: np.ndarray) -> ObjectiveReport:
    """The clipped token-ratio surrogate shared by GRPO and DAPO.

    Each token of the record's live groups adds its weight in w times
    min(r * A, clip(r, 1-eps_low, 1+eps_high) * A); tokens in the clipped
    branch contribute zero gradient. With cfg.beta > 0 and a reference
    policy, beta times the per-token KL(pi || pi_ref) estimate
    r_ref - log r_ref - 1 (r_ref = pi_ref/pi), weighted the same way, is
    subtracted. All tokens are computed in one pass of array expressions.
    """
    live, _, adv, _ = record.live
    joined = live.batch
    ids, tokens = joined.ids, joined.tokens
    n = len(ids)
    if not n:
        return ObjectiveReport(0.0, score_gradient(policy, ids, [], [], []), 0.0, 0.0,
                               cfg.objective_kind)
    rows = prefix_rows(policy, ids)
    new_lp = token_log_probs(policy, joined, rows)
    ratios = np.exp(new_lp - live.logps)
    unclipped_term = ratios * adv
    clipped_term = np.minimum(np.maximum(ratios, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high) * adv
    clipped = clipped_term < unclipped_term
    pg_value = _accumulate_fold(w * np.where(clipped, clipped_term, unclipped_term))
    pg_weights = (w * adv) * ratios
    if cfg.beta > 0.0 and ref_policy is not None:
        ref_lp = token_log_probs(ref_policy, joined)
        log_rr = ref_lp - new_lp
        # math.exp, not np.exp: the two differ in the last bit on some inputs.
        try:
            rr = np.fromiter(map(math.exp, log_rr.tolist()), float, n)
        except OverflowError as exc:
            raise NumericOverflow(f"KL ratio pi_ref/pi = exp({log_rr.max()}) overflows") from exc
        kl_value = _accumulate_fold(w * (rr - log_rr - 1.0))
        # Each token's KL term follows its policy-gradient term, if it has one.
        emit = np.column_stack([~clipped, np.ones(n, dtype=bool)]).ravel()
        term_token = np.repeat(np.arange(n), 2)[emit]
        weights = np.column_stack([pg_weights, -cfg.beta * w * (1.0 - rr)]).ravel()[emit]
    else:
        kl_value = 0.0
        term_token = np.flatnonzero(~clipped)
        weights = pg_weights[term_token]
    gradient = score_gradient(policy, ids[term_token], rows[term_token], tokens[term_token],
                              weights)
    return ObjectiveReport(value=float(pg_value - cfg.beta * kl_value),
                           gradient=gradient,
                           clipped_token_fraction=int(np.count_nonzero(clipped)) / n,
                           kl_to_ref=float(kl_value), objective_kind=cfg.objective_kind)


def grpo_objective(groups, policy: PolicyTable, ref_policy: PolicyTable | None,
                   cfg: ClipConfig) -> ObjectiveReport:
    """Clipped token-ratio surrogate with per-sequence averaging and a KL leash.

    value = mean over groups of (1/G) sum_i (1/|y_i|) sum_t
            min(r * A, clip(r, 1-eps, 1+eps) * A), minus beta times the
    per-token KL(pi || pi_ref) estimate aggregated the same way.
    Degenerate (all-equal-reward) groups contribute zero.
    """
    assert cfg.objective_kind == GRPO
    record = rollout_record(groups)
    if not len(record):
        raise ValueError("empty batch")
    *_, w = record.live
    return _clipped_token_batch(record, policy, ref_policy, cfg, w)


def dapo_objective(groups, policy: PolicyTable, cfg: ClipConfig) -> ObjectiveReport:
    """Token-level surrogate with one global token mean and asymmetric clip.

    Every token across the groups kept by dapo_filter carries weight
    1/(total tokens), so long trajectories weigh proportionally more than
    under GRPO's per-sequence mean. When no group is kept the step is a
    zero report: value 0, no gradient blocks. No KL term.
    """
    assert cfg.objective_kind == DAPO
    kept = rollout_record(groups).kept
    _, _, adv, _ = kept.live
    w = np.full(len(adv), 1.0 / max(len(kept.batch.tokens), 1))
    return _clipped_token_batch(kept, policy, None, cfg, w)


def gspo_objective(groups, policy: PolicyTable, cfg: ClipConfig) -> ObjectiveReport:
    """Sequence-ratio surrogate: clip gates whole responses, not tokens.

    value = mean over groups of (1/G) sum_i min(s_i * A_i, clip(s_i) * A_i)
    with s_i the geometric-mean token ratio. A clipped sequence contributes
    zero gradient for all of its tokens; otherwise each token receives the
    A_i * s_i / |y_i| share of the score.
    """
    assert cfg.objective_kind == GSPO
    record = rollout_record(groups)
    if not len(record):
        raise ValueError("empty batch")
    live, adv, *_ = record.live
    joined, lengths = live.batch, live.batch.lengths
    rows = prefix_rows(policy, joined.ids)
    diff = token_log_probs(policy, joined, rows) - live.logps
    # Each ratio is the np.mean of its own slice, as sequence_ratio_gspo takes it.
    ratios = np.ones(len(lengths))
    for i, (stop, length) in enumerate(zip(np.cumsum(lengths).tolist(), lengths.tolist())):
        if length:
            ratios[i] = np.exp(diff[stop - length:stop].mean())
    w = 1.0 / (len(record) * np.repeat(live.sizes, live.sizes))
    unclipped_term = ratios * adv
    clipped_term = np.minimum(np.maximum(ratios, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high) * adv
    clipped = clipped_term < unclipped_term
    nonempty = lengths > 0
    value = _accumulate_fold((w * np.where(clipped, clipped_term, unclipped_term))[nonempty])
    terms = np.flatnonzero(np.repeat(~clipped, lengths))
    weights = np.repeat(w * adv * ratios / np.maximum(lengths, 1), lengths)[terms]
    gradient = score_gradient(policy, joined.ids[terms], rows[terms], joined.tokens[terms],
                              weights)
    considered = int(lengths.sum())
    frac = int(lengths[clipped].sum()) / considered if considered else 0.0
    return ObjectiveReport(value=float(value), gradient=gradient,
                           clipped_token_fraction=frac,
                           kl_to_ref=0.0, objective_kind=GSPO)


@dataclass(frozen=True)
class ContrastiveRecord:
    """Eq.-style contrastive split of the group signal (diagnostic only)."""

    var_term: float
    pos_expectation: float
    neg_expectation: float

    @property
    def value(self) -> float:
        return self.var_term * (self.pos_expectation - self.neg_expectation)


def contrastive_decomposition(group: Rollouts, policy: PolicyTable) -> ContrastiveRecord:
    """Bernoulli-variance times the gap in length-normalized likelihoods.

    group is a one-prompt record. Expectations are empirical means over its
    positive and negative rollouts of pi_theta(y|x)/|y| under the current
    policy, with log pi_theta(y|x) the left-fold total sequence_log_probs
    gives, as trajectory_log_prob's.
    """
    rewards = group.rewards
    if rewards.min() == rewards.max():
        raise OneSidedGroup("need at least one positive and one negative rollout")
    p_hat = float(rewards.mean())
    var_term = math.sqrt(p_hat * (1.0 - p_hat))
    totals = sequence_log_probs(policy, group.batch)[1]
    pos, neg = [], []
    for reward, total, length in zip(rewards.tolist(), totals.tolist(),
                                     group.batch.lengths.tolist()):
        lik = math.exp(total) / max(length, 1)
        (pos if reward == 1 else neg).append(lik)
    return ContrastiveRecord(var_term=var_term,
                             pos_expectation=float(np.mean(pos)),
                             neg_expectation=float(np.mean(neg)))


@dataclass(frozen=True)
class StepRecord:
    step: int
    objective_kind: str
    value: float
    clipped_frac: float
    kl: float
    mean_reward: float
    entropy_root: float
    greedy_logp: float


def sample_group(policy: PolicyTable, task: TaskInstance, group_size: int,
                 rng: np.random.Generator) -> Rollouts:
    """Sample G rollouts for one task, rewarded by the task's fused validator,
    as a one-prompt record."""
    return sample_trajectories(policy, [task.prompt_id],
                               rng.random((1, group_size, policy.max_len)), Suite([task]).walks)


def rl_step(policy: PolicyTable, task_batch, cfg, seed: int,
            ref_policy: PolicyTable | None = None, step_index: int = 0, groups=None):
    """One RL update: sample, score, normalize, step the policy.

    `cfg` is an SpsConfig (group size, clip config, learning rate). Retry r
    samples its prompts, every task at r = 0 and then, under DAPO, those
    still degenerate, from one block, derive_rng(seed, r).random((prompts,
    group_size, max_len)). Pre-sampled `groups` may be passed to reuse a
    rollout batch across several gradient steps; their behavior log-probs
    then refer to the policy that sampled them. Returns the new policy, a
    StepRecord and the groups it stepped on: the handed-in groups, or the
    Rollouts record it sampled, each prompt's last draw in task order.
    """
    tasks = Suite(task_batch)
    if groups is None:
        attempts = 1 + (cfg.dapo_max_resamples if cfg.clip.objective_kind == DAPO else 0)
        blocks, last, todo = [], {}, list(range(len(tasks)))
        table, starts, accepts = tasks.walks
        for retry in range(attempts):
            u = derive_rng(seed, retry).random((len(todo), cfg.group_size, policy.max_len))
            block = sample_trajectories(policy, [tasks[i].prompt_id for i in todo], u,
                                        (table, starts[todo], accepts[todo]))
            # Each task's last draw, by its position in the blocks joined.
            last.update((i, sum(map(len, blocks)) + k) for k, i in enumerate(todo))
            blocks.append(block)
            todo = [i for i, rewards in zip(todo, block.reward_tuples)
                    if not 0 < sum(rewards) < cfg.group_size]
            if not todo:
                break
        groups = rollout_record(blocks).take([last[i] for i in range(len(tasks))])
    record = rollout_record(groups)

    kind = cfg.clip.objective_kind
    if kind == GRPO:
        report = grpo_objective(record, policy, ref_policy or policy, cfg.clip)
    elif kind == DAPO:
        report = dapo_objective(record, policy, cfg.clip)
    else:
        report = gspo_objective(record, policy, cfg.clip)

    # Parameter blocks are disjoint per prompt, so the batch-mean gradient
    # shrinks every block by 1/batch. The step undoes that factor and makes
    # rl_lr a per-prompt rate independent of suite size.
    step = cfg.rl_lr * len(record)
    new_policy = policy
    if step != 0.0 and len(report.gradient.ids):
        new_policy = apply_update(policy, report.gradient, step)

    step_record = StepRecord(
        step=step_index,
        objective_kind=kind,
        value=report.value,
        clipped_frac=report.clipped_token_fraction,
        kl=report.kl_to_ref,
        mean_reward=record.mean_reward,
        entropy_root=_mean_root_entropy(new_policy, tasks),
        greedy_logp=_mean_greedy_logp(new_policy, tasks),
    )
    return new_policy, step_record, groups


def _mean_root_entropy(policy: PolicyTable, tasks) -> float:
    """np.mean of each task's root entropy, bit for bit the per-row entropy's.

    The root rows come from one gather of the cached log-prob table, and the
    entropies from one row-wise pass; a row with a probability that underflows
    to 0 goes to entropy, which drops such entries from its sum.
    """
    rows = prefix_rows(policy, np.array([int(t.prompt_id) * policy.span for t in tasks],
                                        np.int64))
    probs = np.exp(policy._log_prob_table()[rows])
    positive = (probs > 0.0).all(axis=1)
    vals = np.empty(len(rows))
    vals[positive] = -(probs[positive] * np.log(probs[positive])).sum(axis=1)
    for i in np.flatnonzero(~positive).tolist():
        vals[i] = entropy(probs[i])
    return float(np.mean(vals))


def _mean_greedy_logp(policy: PolicyTable, tasks) -> float:
    _, _, totals = greedy_decode_batch(policy, [t.prompt_id for t in tasks])
    return float(np.mean(totals))
