"""Self-play squeezing countermeasure: RL phases alternated with an IRL stage.

Each iteration collects grouped rollouts with one of the clipped objectives,
selects a small demonstration set per prompt from the lowest-likelihood
rollouts (L2TE), and fits the policy to those demos by gradient descent on
their mean negative log-likelihood. Fitting a degenerate empirical
distribution over the demos is exactly maximizing demo likelihood, which
pushes probability mass back toward trajectories the RL phase squeezed down.
Each rollout is kept once, in the Rollouts record of the RL step that
sampled it (under reuse_rollouts only the first step samples): l2te_select
gets each prompt's RolloutGroup of each record, a view of its arrays, ranks
them by behavior totals and takes each demo it picks out of its group's
arrays, with the ids the sampler recorded, so no demo token is numbered
again. Every IRL function takes a sequence of blocks, each a SequenceBatch
of demos whose ids name its prompts.
Every IRL step, in the training loop and outside it, is one call of
irl_step: step s descends on one block of demos per prompt, or on one block
of the whole suite's demos (irl_scope), each block the circular
irl_batch_size slice of its demos that starts at s. One guarded descent
serves every block at once. Blocks never share a prompt, so they own
disjoint rows of the policy and each block's loss moves only with its own
step: the descent joins all blocks into one SequenceBatch once, for one
policy.score_gradient call (the one place score blocks are formed), each
line-search pass is one apply_update of the searching and accepted blocks'
steps and one irl_value call, and only blocks whose loss rose halve their
step and retry. Values are per-block left folds of the demo totals one
sequence_log_probs call gives: bit for bit a descent on each block in turn.
A baseline loop with the IRL stage disabled shares every other code path so
the two runs differ only by that stage.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .artifacts import csv_text
from .errors import NoRollouts
from .metrics import mean_mass_on_correct, pass_at_k_exact, support_coverage
from .objectives import (
    ClipConfig,
    StepRecord,
    _mean_greedy_logp,
    _mean_root_entropy,
    rl_step,
)
from .policy import (
    Gradient,
    PolicyTable,
    SequenceBatch,
    _left_fold,
    apply_update,
    join_batches,
    prefix_rows,
    save_checkpoint,
    score_gradient,
    sequence_log_probs,
    take_sequences,
)
from .rollouts import Rollouts
from .tasks import Suite

LOW_LIKELIHOOD = "low_likelihood"
POSITIVE_AUGMENT = "positive_augment"
SCOPES = ("per_prompt", "full_suite")


@dataclass(frozen=True)
class SpsConfig:
    """Schedule and stage constants for the alternating loop.

    The policy's parameter blocks are disjoint per prompt, so a full-batch
    mean scales every prompt's gradient by 1/prompts; rl_step undoes that, so
    rl_lr is a per-prompt rate. irl_scope "per_prompt" (the default) makes
    each prompt's demos a block with its own mean loss and its own line
    search; "full_suite" averages the loss over every selected demo at once,
    joined into one block. Either way one descent step serves every block.
    irl_batch_size, when set, limits each block to a circular slice of that
    many demos in either scope. The demo candidates of an iteration are the
    rollouts its RL steps sampled: rl_steps_per_iteration * group_size per
    prompt, or group_size with reuse_rollouts, which samples only at the
    first step.
    """

    group_size: int = 8
    sampling_size: int = 3
    irl_steps_per_iteration: int = 4
    irl_batch_size: int | None = None
    rl_steps_per_iteration: int = 4
    rl_lr: float = 0.05
    irl_lr: float = 0.005
    quantile: float | None = None
    min_negatives_for_pure_l2te: int = 1
    max_iterations: int = 8
    clip: ClipConfig = field(default_factory=ClipConfig.grpo)
    l2te_raw_total: bool = False
    irl_scope: str = "per_prompt"
    dapo_max_resamples: int = 0
    reuse_rollouts: bool = False
    convergence_epsilon: float | None = None
    trace_metrics: bool = False
    trace_prob_floor: float = 1e-4
    checkpoint_every: int = 1

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2: advantages are relative to the group")
        if not 1 <= self.sampling_size <= self.group_size:
            raise ValueError("need 1 <= sampling_size <= group_size")
        if self.irl_batch_size is not None and self.irl_batch_size < 1:
            raise ValueError("irl_batch_size must be >= 1 (or unset)")
        if self.irl_steps_per_iteration < 0:
            raise ValueError("irl_steps_per_iteration must be >= 0")
        if self.rl_steps_per_iteration < 1:
            raise ValueError("rl_steps_per_iteration must be >= 1")
        if self.quantile is not None and not 0 < self.quantile <= 1:
            raise ValueError("quantile must satisfy 0 < q <= 1")
        if self.irl_scope not in SCOPES:
            raise ValueError(f"irl_scope must be one of {SCOPES}")
        if self.min_negatives_for_pure_l2te < 0:
            raise ValueError("min_negatives_for_pure_l2te must be >= 0")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (0 <= self.rl_lr < math.inf and 0 <= self.irl_lr < math.inf):
            raise ValueError("rl_lr and irl_lr must be finite and >= 0")
        if self.dapo_max_resamples < 0:
            raise ValueError("dapo_max_resamples must be >= 0")
        if self.convergence_epsilon is not None and not self.convergence_epsilon > 0:
            raise ValueError("convergence_epsilon must be > 0 (or unset)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class DemoEntry:
    normalized_logp: float
    quantile_rank: float
    source: str


@dataclass(frozen=True)
class DemoSet:
    entries: tuple[DemoEntry, ...]
    batch: SequenceBatch  # the demos' sequences, in entry order

    def __len__(self) -> int:
        return len(self.entries)


def l2te_select(groups, prompt_id: int, cfg: SpsConfig) -> DemoSet:
    """Pick the k lowest-likelihood rollouts for one prompt as IRL demos.

    The candidates are the prompt's rollouts in `groups`, a sequence of
    RolloutGroups, in group then draw order. They are ranked by behavior
    total log-prob per token (the raw total with l2te_raw_total)
    ascending, ties keeping that order. With enough negative-reward
    rollouts around (>= min_negatives_for_pure_l2te) the bottom k are taken
    as they come; otherwise every available negative is taken and the
    lowest-ranked positive-reward rollouts fill up the remaining slots,
    marked positive_augment. A quantile q widens or narrows the candidate
    window to the bottom ceil(q*n) ranks (never below k, so the set stays
    full). Each demo is taken from its own group's recorded arrays.
    """
    live = [group for group in groups if group.prompt_id == prompt_id]
    if not live:
        raise NoRollouts(f"no rollouts sampled for prompt {prompt_id}")
    rewards = [r for group in live for r in group.rewards]
    totals = np.concatenate([group.totals for group in live])
    lengths = 1 if cfg.l2te_raw_total else np.concatenate([g.batch.lengths for g in live])
    keys = (totals / np.maximum(lengths, 1)).tolist()
    n = len(keys)
    k = min(cfg.sampling_size, n)
    order = sorted(range(n), key=keys.__getitem__)
    if cfg.quantile is not None:
        window = order[:max(k, math.ceil(cfg.quantile * n))]
    else:
        window = order
    negatives = [i for i in window if rewards[i] == 0]
    if len(negatives) >= cfg.min_negatives_for_pure_l2te:
        chosen = [(i, LOW_LIKELIHOOD) for i in window[:k]]
    else:
        chosen = [(i, LOW_LIKELIHOOD) for i in negatives[:k]]
        positives = [i for i in window if rewards[i] == 1]
        for i in positives:
            if len(chosen) >= k:
                break
            chosen.append((i, POSITIVE_AUGMENT))
    denom = max(n - 1, 1)
    entries = tuple(
        DemoEntry(normalized_logp=keys[i], quantile_rank=order.index(i) / denom, source=src)
        for i, src in chosen
    )
    sources = [(group.batch, j) for group in live for j in range(group.size)]
    return DemoSet(entries, take_sequences(sources[i] for i, _ in chosen))


def _block_values(policy: PolicyTable, blocks, terms: SequenceBatch, rows=None) -> list[float]:
    """Each block's mean demo NLL from one sequence_log_probs call.

    terms are the blocks joined (join_batches), and rows, if given, their
    rows of the policy's table. Each demo's total and each block's sum of
    totals are left folds, so a block's value is bit for bit the one
    trajectory_log_prob's totals give.
    """
    sizes = [len(block.lengths) for block in blocks]
    if not all(sizes):
        raise ValueError("demos must be nonempty")
    totals = sequence_log_probs(policy, terms, rows)[1]
    stops = np.cumsum(sizes).tolist()
    return [-_left_fold(totals[stop - size:stop]) / size for size, stop in zip(sizes, stops)]


def irl_value(policy: PolicyTable, blocks, terms=None) -> list[float]:
    """Mean negative log-likelihood of each block of demos, a SequenceBatch.

    terms, if given, are the blocks joined, so a caller that holds them
    skips the join.
    """
    return _block_values(policy, blocks, join_batches(blocks) if terms is None else terms)


def irl_loss(policy: PolicyTable, blocks, terms=None) -> tuple[list[float], Gradient]:
    """Forward-KL fit to the degenerate distribution over each block of demos.

    Each block's loss reduces to its mean demo NLL, bit for bit the value
    irl_value gives; the gradient with respect to the logits is the sum over
    blocks of the negated mean score, so descending it raises every block's
    demo likelihood. All terms go to one score_gradient call in block order,
    so each prefix's terms add up in the order a per-block call would add them.
    terms are as irl_value takes them.
    """
    if terms is None:
        terms = join_batches(blocks)
    rows = prefix_rows(policy, terms.ids)
    values = _block_values(policy, blocks, terms, rows)
    weights = np.repeat([-1.0 / len(block.lengths) for block in blocks],
                        [len(block.tokens) for block in blocks])
    return values, score_gradient(policy, terms.ids, rows, terms.tokens, weights)


def irl_descent_step(policy: PolicyTable, blocks, lr: float,
                     max_halvings: int = 30) -> tuple[PolicyTable, list[float]]:
    """One guarded descent step on irl_loss over disjoint blocks of demos.

    No two blocks may hold demos of the same prompt, so each block owns its
    own rows and its loss moves only with its own step. A block's step is
    accepted only if its loss does not increase; otherwise its rate is halved
    and retried, while accepted blocks keep theirs. Each line-search pass is
    one apply_update of the searching and accepted blocks' steps and one
    irl_value call; the pass after which none searches is the result, each
    block as a descent on it alone. A block that gives up after max_halvings,
    or sits at a stationary point, keeps its rows and allocates none. Returns
    the policy and each block's loss; the input itself when no block moved.
    """
    # The demos do not change during the descent: they are joined once.
    terms = join_batches(blocks)
    term_prompt = terms.ids // policy.span
    term_block = np.repeat(np.arange(len(blocks)), [len(block.ids) for block in blocks])
    prompts, first = np.unique(term_prompt, return_index=True)
    owner = term_block[first]  # each prompt's block
    shared = owner[np.searchsorted(prompts, term_prompt)] != term_block
    if shared.any():
        raise ValueError(f"demo blocks share prompt {term_prompt[shared.argmax()]}")
    if lr == 0.0:
        return policy, irl_value(policy, blocks, terms)
    values, grad = irl_loss(policy, blocks, terms)
    if not len(grad.ids):
        return policy, values
    id_block = owner[np.searchsorted(prompts, grad.ids // policy.span)]
    steps = np.full(len(blocks), float(lr))
    searching = np.bincount(id_block, minlength=len(blocks)) > 0
    moved = np.zeros(len(blocks), dtype=bool)

    def update(on: np.ndarray) -> PolicyTable:
        # x + 1.0 * (-step * g) is bitwise x + (-step) * g.
        live = on[id_block]
        scaled = -steps[id_block[live], None] * grad.blocks[live]
        return apply_update(policy, Gradient(grad.ids[live], scaled), 1.0)

    for _ in range(max_halvings + 1):
        cand = update(searching | moved)
        # Accepted blocks keep their step, so their values stand.
        cand_values = irl_value(cand, blocks, terms)
        for b in np.flatnonzero(searching).tolist():
            if cand_values[b] <= values[b]:
                values[b] = cand_values[b]
                searching[b] = False
                moved[b] = True
            else:
                steps[b] /= 2.0
        if not searching.any():
            return cand, values
    return (update(moved) if moved.any() else policy), values


def _circular_batch(demos: SequenceBatch, batch_size: int | None, s: int) -> SequenceBatch:
    n = len(demos.lengths)
    if batch_size is None or batch_size >= n:
        return demos
    return take_sequences((demos, (s * batch_size + j) % n) for j in range(batch_size))


def irl_step(policy: PolicyTable, demo_sets, cfg: SpsConfig, s: int) -> tuple[PolicyTable, float]:
    """Step s of the IRL stage; returns the new policy and the mean IRL loss.

    demo_sets holds one SequenceBatch of demos per prompt. In "per_prompt"
    scope each is its own block; in "full_suite" scope they are joined into
    one block. One guarded descent step serves every block, and the loss is
    the mean over blocks. Each block is the circular irl_batch_size slice of
    its demos that starts at s * irl_batch_size, or all of them when the
    size is unset.
    """
    if cfg.irl_scope == "full_suite":
        demo_sets = [join_batches(demo_sets)]
    policy, losses = irl_descent_step(
        policy, [_circular_batch(demos, cfg.irl_batch_size, s) for demos in demo_sets],
        cfg.irl_lr)
    return policy, float(np.mean(losses))


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    phase: str
    step: int
    objective: float | None
    irl_loss: float | None
    mean_reward: float | None
    entropy_root: float
    greedy_logp: float
    pass_at_k: float | None
    support_coverage: float | None
    seed: int


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    step_records: list[StepRecord] = field(default_factory=list)
    # (iteration, file name, exact Avg@k) of each checkpoint the loop wrote.
    checkpoints: list[tuple[int, str, float]] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(vars(r)) + "\n" for r in self.records)

    def steps_csv(self) -> str:
        """steps.csv: one line per StepRecord, its fields in order."""
        names = [f.name for f in fields(StepRecord)]
        return csv_text(names, [(r.step, r.objective_kind,
                                 *(float(getattr(r, name)) for name in names[2:]))
                                for r in self.step_records])


def _step_seed(master: int, iteration: int, step: int) -> int:
    return int(np.random.SeedSequence([master, iteration, step]).generate_state(1)[0])


# The k of the exact i.i.d. Pass@k in each traced step.
_TRACE_PASS_K = 3


def _trace_eval(policy, tasks, cfg: SpsConfig):
    """Exact Pass@k, mean support coverage and the records of one suite pass, or Nones."""
    if not cfg.trace_metrics:
        return None, None, None
    recs = support_coverage(policy, tasks, cfg.trace_prob_floor)
    pk = float(np.mean([pass_at_k_exact(rec.mass_on_correct, _TRACE_PASS_K) for rec in recs]))
    return pk, float(np.mean([rec.covered / rec.total for rec in recs])), recs


def _loop(base_policy: PolicyTable, task_suite, cfg: SpsConfig, seed: int,
          irl_enabled: bool, out_dir=None) -> tuple[PolicyTable, TrainTrace]:
    master = int(seed)
    tasks = Suite(task_suite)
    policy = base_policy
    trace = TrainTrace()
    global_step = 0
    prev_avg = None
    for it in range(cfg.max_iterations):
        sampled: list[Rollouts] = []  # each fresh step's rollouts, in task order
        ref = policy
        cached_groups = None
        for s in range(cfg.rl_steps_per_iteration):
            seed = _step_seed(master, it, s)
            policy, record, groups = rl_step(
                policy, tasks, cfg, seed, ref_policy=ref, step_index=global_step,
                groups=cached_groups)
            if cached_groups is None:
                sampled.append(groups)
            if cfg.reuse_rollouts:
                cached_groups = groups
            pk, cov, recs = _trace_eval(policy, tasks, cfg)
            trace.records.append(TraceRecord(
                iter=it, phase="RL", step=global_step,
                objective=record.value, irl_loss=None,
                mean_reward=record.mean_reward,
                entropy_root=record.entropy_root,
                greedy_logp=record.greedy_logp,
                pass_at_k=pk, support_coverage=cov, seed=seed))
            trace.step_records.append(record)
            global_step += 1
        if irl_enabled and cfg.irl_steps_per_iteration > 0 and cfg.irl_lr > 0:
            demo_sets = [l2te_select([step[k] for step in sampled], t.prompt_id, cfg).batch
                         for k, t in enumerate(tasks)]
            for s in range(cfg.irl_steps_per_iteration):
                policy, mean_loss = irl_step(policy, demo_sets, cfg, s)
                pk, cov, recs = _trace_eval(policy, tasks, cfg)
                trace.records.append(TraceRecord(
                    iter=it, phase="IRL", step=global_step,
                    objective=None, irl_loss=mean_loss,
                    mean_reward=None,
                    entropy_root=_mean_root_entropy(policy, tasks),
                    greedy_logp=_mean_greedy_logp(policy, tasks),
                    pass_at_k=pk, support_coverage=cov, seed=master))
                global_step += 1
        checkpoint = (out_dir is not None and cfg.checkpoint_every > 0
                      and (it + 1) % cfg.checkpoint_every == 0)
        if not checkpoint and cfg.convergence_epsilon is None:
            continue
        # One exact mass serves the checkpoint's rank and the stop rule; a traced run
        # reads it off the records of the step that made this policy.
        avg = mean_mass_on_correct(recs or support_coverage(policy, tasks, 0.0))
        if checkpoint:
            name = f"checkpoint_iter{it + 1:03d}.txt"
            save_checkpoint(policy, f"{out_dir}/{name}")
            trace.checkpoints.append((it + 1, name, avg))
        if cfg.convergence_epsilon is not None:
            if prev_avg is not None and abs(avg - prev_avg) < cfg.convergence_epsilon:
                break
            prev_avg = avg
    return policy, trace


def sps_loop(base_policy: PolicyTable, task_suite, cfg: SpsConfig, seed: int,
             out_dir=None) -> tuple[PolicyTable, TrainTrace]:
    """Alternate RL phases with the IRL stage for cfg.max_iterations.

    With cfg.convergence_epsilon set, the loop stops after the first
    iteration whose exact Avg@k over the training tasks moved by less than
    epsilon since the iteration before.
    """
    return _loop(base_policy, task_suite, cfg, seed, irl_enabled=True, out_dir=out_dir)


def grpo_baseline_loop(base_policy: PolicyTable, task_suite, cfg: SpsConfig,
                       seed: int, out_dir=None) -> tuple[PolicyTable, TrainTrace]:
    """The same schedule with the IRL stage disabled, for fair comparison."""
    return _loop(base_policy, task_suite, cfg, seed, irl_enabled=False, out_dir=out_dir)
