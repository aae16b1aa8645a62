"""Evaluation metrics: Pass@k, Avg@k, accuracy histograms, similarity,
support coverage, and greedy-log-prob drift.

The tabular setting permits exact versions of quantities that are only
estimable at scale: support coverage reads the probability of every correct
trajectory straight off the policy, and the unbiased Pass@k estimator is
computed with exact integer binomials so it matches brute-force subset
enumeration bit for bit. Samples come from one sampler call per matrix or
Monte Carlo estimate, with rewards from the tasks' fused validators.

Each task enumerates its correct set once (TaskInstance.correct_sequences),
and a suite's sets are joined and numbered once (tasks.Suite.correct), so a
suite's support and mass take one call of the sequence_log_probs kernel.
The mass p gives exact Avg@k (mean_mass_on_correct) and exact i.i.d. Pass@k
(pass_at_k_exact), the expectations of the sampled estimators; the training
loop reads only these and samples nothing to measure. Coverage and mass give
the bits of the per-sequence loop they replace. Similarity is the exact mean
over all sample pairs, rounded once: each prompt's distinct samples, found
in the sampler's arrays, share bigrams by one table product, and their pairs
weigh by the samples they stand for.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InsufficientSamples, KExceedsN
from .policy import (PolicyTable, SequenceBatch, greedy_decode_batch, left_folds, sample_batch,
                     sequence_log_probs)
from .tasks import Suite, TaskInstance

BUCKET_CENTERS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class SampleMatrix:
    """n sampled token sequences per prompt with their binary rewards.

    batch holds the samples as the sampler drew them, one flat SequenceBatch
    of n sequences per prompt, prompt after prompt; rewards is (prompts, n).
    """

    prompt_ids: tuple[int, ...]
    rewards: np.ndarray
    batch: SequenceBatch | None = None

    def __post_init__(self):
        r = np.asarray(self.rewards)
        if r.ndim != 2 or r.shape[0] != len(self.prompt_ids):
            raise ValueError("rewards must be a (prompts, n) matrix")
        if r.size and not np.isin(r, (0, 1)).all():
            raise ValueError("rewards must be binary")

    @property
    def n(self) -> int:
        return int(self.rewards.shape[1])

    @property
    def prompt_count(self) -> int:
        return int(self.rewards.shape[0])

    @cached_property
    def correct(self) -> np.ndarray:
        """Each prompt's number of rewarded samples."""
        return self.rewards.sum(axis=1).astype(np.intp)


def sample_matrix(policy: PolicyTable, tasks, n: int,
                  rng: np.random.Generator) -> SampleMatrix:
    """Draw n fresh samples per task from one (tasks, n, max_len) block of rng; score them."""
    tasks = Suite(tasks)
    batch, _, _, rewards = sample_batch(policy, [task.prompt_id for task in tasks],
                                        rng.random((len(tasks), n, policy.max_len)), tasks.walks)
    return SampleMatrix(prompt_ids=tuple(task.prompt_id for task in tasks),
                        rewards=rewards.reshape(len(tasks), n), batch=batch)


@dataclass(frozen=True)
class PassAtKEstimate:
    k: int
    value: float
    method: str
    stderr: float | None = None


def pass_at_k_unbiased(n: int, c: int, k: int) -> float:
    """Exact expectation of max reward over uniform k-subsets of n samples.

    Computed as (C(n,k) - C(n-c,k)) / C(n,k) with exact integer binomials
    and one final division, which reproduces brute-force subset enumeration
    bit for bit (a running-product form does not).
    """
    if not 0 <= c <= n:
        raise ValueError("need 0 <= c <= n")
    if k < 1:
        raise ValueError("need k >= 1")
    if k > n:
        raise KExceedsN(f"k={k} exceeds sample count n={n}")
    total = math.comb(n, k)
    return (total - math.comb(n - c, k)) / total


def pass_at_k_exact(p: float, k: int) -> float:
    """Exact i.i.d. Pass@k of a task whose correct set holds mass p: 1 - (1 - p)^k.

    It is the expectation of pass_at_k_unbiased over n >= k samples.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    return 1.0 - (1.0 - p) ** k


def pass_at_k_mc(policy: PolicyTable, task: TaskInstance, k: int, trials: int,
                 rng: np.random.Generator) -> PassAtKEstimate:
    """Monte Carlo Pass@k: the share of trials with a reward among their k
    samples, taken in order from sample_matrix's trials * k samples of task."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    rewards = sample_matrix(policy, [task], trials * k, rng).rewards.reshape(trials, k)
    p_hat = int(np.count_nonzero(rewards.any(axis=1))) / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return PassAtKEstimate(k=k, value=p_hat, method="monte_carlo", stderr=stderr)


def avg_at_k(matrix: SampleMatrix) -> float:
    """Mean single-sample accuracy: per-prompt mean reward, averaged.

    With a constant n across prompts this equals the pooled mean over all
    samples, and equals Pass@1 averaged over prompts.
    """
    return float(matrix.rewards.mean(axis=1).mean())


@dataclass(frozen=True)
class AccuracyHistogram:
    bucket_edges: tuple[float, ...]
    counts: tuple[int, ...]


def accuracy_histogram(matrix: SampleMatrix) -> AccuracyHistogram:
    """Per-prompt pass rates snapped to the nearest of 11 bucket centers.

    Centers are 0.0, 0.1, ..., 1.0 with ties going up; the assignment
    (20*c + n) // (2*n) is exact integer arithmetic, so boundary rates like
    exactly 0.05 land deterministically in the 0.1 bucket.
    """
    n = matrix.n
    counts = np.bincount((20 * matrix.correct + n) // (2 * n), minlength=11)
    return AccuracyHistogram(bucket_edges=BUCKET_CENTERS, counts=tuple(counts.tolist()))


def similarity(trajectories) -> float:
    """100 times the mean pairwise Jaccard similarity of token-bigram sets.

    Two empty bigram sets count as identical (Jaccard 1). Lower values mean
    more diverse samples. The value is the exact mean over all pairs,
    rounded once, so it does not depend on the samples' order. Each sample
    is keyed by its tuple's number among the distinct ones (_similarities).
    """
    items, distinct = [tuple(t) for t in trajectories], {}
    keys = np.array([[distinct.setdefault(t, len(distinct)) for t in items]], np.int64)
    lengths = np.fromiter(map(len, items), np.intp, len(items))
    tokens = np.fromiter(chain.from_iterable(items), np.int64, int(lengths.sum()))
    return _similarities(tokens, lengths, keys)[0]


def sample_similarities(policy: PolicyTable, matrix: SampleMatrix) -> list[float]:
    """similarity of each prompt's samples in matrix, in prompt order. Each
    sample is keyed by the prefix id it ends in: its last recorded id
    stepped by its last token (_similarities)."""
    batch = matrix.batch
    last = np.cumsum(batch.lengths) - 1
    ids, tokens = batch.ids[last], batch.tokens[last]
    base = ids // policy.span * policy.span
    keys = base + (ids - base) * policy.vocab.size + tokens + 1
    return _similarities(batch.tokens, batch.lengths, keys.reshape(matrix.rewards.shape))


# Most (row, sequence, sequence) cells of one block of _similarities. Each
# int64 temporary of a block takes 8 bytes a cell: at 1 << 16 cells the
# 256-sample eval of a 16-task suite peaked 1.3 MB higher, and no faster.
_SIMILARITY_CELLS = 1 << 14


def _similarities(tokens, lengths, keys) -> list[float]:
    """similarity of each row of samples, for flat tokens of the given lengths,
    row after row, and a (rows, n) array of keys, equal within a row for
    equal sequences only.

    Sorting each row's keys finds its distinct sequences and their counts.
    Each distinct sequence gets a 0/1 row over the bigrams seen, and one
    matrix product per block of rows counts every intersection. A pair of
    distinct sequences a, b stands for c_a c_b sample pairs and a with itself
    for c_a (c_a - 1) / 2, so over the lcm of the union sizes twice a row's
    sum is an integer, taken in int64 (in Python ints where it could pass
    2**63), and 100 times the mean is one int true division, correctly
    rounded.
    """
    count, n = keys.shape
    if n < 2:
        raise InsufficientSamples("similarity needs at least 2 trajectories")
    order = np.argsort(keys, axis=1)
    keys = np.take_along_axis(keys, order, 1)
    new = np.ones(keys.shape, bool)
    new[:, 1:] = keys[:, 1:] != keys[:, :-1]
    first, sizes = np.flatnonzero(new), new.sum(axis=1)
    distinct = np.full(count * n, -1)
    distinct[(order + np.arange(count)[:, None] * n).reshape(-1)[first]] = np.arange(len(first))
    seq = np.repeat(distinct, lengths)  # each token's distinct sequence, -1 in a repeat
    pair = np.flatnonzero((seq[1:] == seq[:-1]) & (seq[1:] >= 0))  # tokens[i], tokens[i + 1]
    dense = np.unique(np.concatenate([tokens[pair], tokens[pair + 1]]), return_inverse=True)[1]
    col = np.unique(dense[:len(pair)] * len(dense) + dense[len(pair):], return_inverse=True)[1]
    owner = np.repeat(np.arange(count), sizes)
    slot = np.arange(len(first)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = int(sizes.max(initial=1))
    inc = np.zeros((count, width, col.max(initial=-1) + 1))
    inc[owner[seq[pair]], slot[seq[pair]], col] = 1.0
    c = np.zeros((count, width), np.int64)
    c[owner, slot] = np.diff(first, append=new.size)
    out, diag, step = [], np.arange(width), max(1, _SIMILARITY_CELLS // width ** 2)
    for r0 in range(0, count, step):
        block = inc[r0:r0 + step]
        inter = np.matmul(block, block.swapaxes(1, 2)).astype(np.int64)
        size = inter[:, diag, diag]
        union = size[:, :, None] + size[:, None] - inter
        top = int(union.max())
        scale = math.lcm(*range(1, top + 1))
        dtype = np.int64 if n * n * scale < 1 << 63 else object
        # Each pair's Jaccard value times scale: scale / union per shared
        # bigram, and scale for two empty sets, whose union is 0.
        inter += union == 0
        pairs = np.array([scale] + [scale // u for u in range(1, top + 1)], dtype)[union]
        pairs *= inter
        cb = c[r0:r0 + step].astype(dtype)
        totals = (cb * (np.matmul(pairs, cb[..., None])[..., 0] - pairs[:, diag, diag])).sum(1)
        out += [100 * t / (scale * n * (n - 1)) for t in totals.tolist()]
    return out


@dataclass(frozen=True)
class CoverageRecord:
    covered: int
    total: int
    mass_on_correct: float


def support_coverage(policy: PolicyTable, tasks, prob_floor: float) -> list[CoverageRecord]:
    """Count and weigh each task's correct trajectories the policy still reaches.

    One record per task, in task order: covered counts the trajectories whose
    exact policy probability is at least prob_floor, and mass_on_correct sums
    the probabilities of the whole correct set regardless of the floor. The
    suite's joined sets (tasks.Suite.correct) take one sequence_log_probs
    call, which folds each sequence on its own; each probability is math.exp
    of its total, each mass a left fold over the task's set in set order
    (left_folds), and the counts one np.bincount: the bits of
    trajectory_log_prob per sequence. The sets are numbered at the tasks'
    shape, so a policy of another vocab size or max_len is a ValueError.
    """
    if not tasks:
        return []
    for task in tasks:
        shape = (task.spec.vocab_size, task.spec.max_len)
        if shape != (policy.vocab.size, policy.max_len):
            raise ValueError(f"task {task.prompt_id} at vocab={shape[0]} max_len={shape[1]}, "
                             f"policy at vocab={policy.vocab.size} max_len={policy.max_len}")
    sets = Suite(tasks).correct
    totals = sequence_log_probs(policy, sets.batch)[1]
    probs = np.fromiter(map(math.exp, totals.tolist()), float, len(totals))
    masses = left_folds(probs, sets.layout).tolist()
    covered = np.bincount(sets.owners[probs >= prob_floor], minlength=len(tasks)).tolist()
    return [CoverageRecord(c, n, m) for c, n, m in zip(covered, sets.sizes.tolist(), masses)]


def mean_mass_on_correct(records) -> float:
    """Exact Avg@k: the task mean of the records' masses on their correct sets.

    It is the expectation of avg_at_k over any number of samples, and the
    expression evaluation_report writes as its support mass.
    """
    return float(np.mean([rec.mass_on_correct for rec in records]))


@dataclass(frozen=True)
class GreedyDriftRow:
    prompt_id: int
    greedy_logp_current: float
    greedy_logp_base: float
    drift: float


@dataclass(frozen=True)
class GreedyDriftReport:
    rows: tuple[GreedyDriftRow, ...]
    mean_current: float
    mean_base: float
    mean_drift: float


def greedy_logprob_report(policy: PolicyTable, base_policy: PolicyTable,
                          tasks) -> GreedyDriftReport:
    """Per-task greedy log-prob under each policy's own greedy trajectory.

    Positive drift (current minus base) signals sharpening: the policy
    concentrates more mass on its modal sequence than the base did.
    """
    prompt_ids = [task.prompt_id for task in tasks]
    totals = [greedy_decode_batch(pol, prompt_ids)[2].tolist() for pol in (policy, base_policy)]
    rows = [GreedyDriftRow(prompt_id=prompt_id, greedy_logp_current=cur, greedy_logp_base=base,
                           drift=cur - base)
            for prompt_id, cur, base in zip(prompt_ids, *totals)]
    return GreedyDriftReport(
        rows=tuple(rows),
        mean_current=float(np.mean([r.greedy_logp_current for r in rows])),
        mean_base=float(np.mean([r.greedy_logp_base for r in rows])),
        mean_drift=float(np.mean([r.drift for r in rows])),
    )


def evaluation_report(policy: PolicyTable, base_policy: PolicyTable, tasks,
                      suite_name: str, n: int, ks, prob_floor: float,
                      rng: np.random.Generator) -> dict:
    """Assemble the full evaluation dictionary for one policy snapshot.

    Pass@k values use the unbiased estimator on n samples per prompt,
    averaged over prompts; ks above n are clamped to n with a warning.
    Similarity is the mean over prompts of the pairwise bigram similarity
    among that prompt's samples. Support numbers are summed over tasks and
    the mass field is the per-task mean.
    """
    matrix = sample_matrix(policy, tasks, n, rng)
    used_ks = []
    for k in ks:
        if k > n:
            warnings.warn(f"clamping k={k} to n={n}", stacklevel=2)
            k = n
        if k not in used_ks:
            used_ks.append(k)
    correct = matrix.correct.tolist()
    pass_rates = {}
    for k in used_ks:
        values = {c: pass_at_k_unbiased(n, c, k) for c in set(correct)}
        pass_rates[str(k)] = float(np.mean([values[c] for c in correct]))
    sims = sample_similarities(policy, matrix)
    records = support_coverage(policy, tasks, prob_floor)
    drift = greedy_logprob_report(policy, base_policy, tasks)
    hist = accuracy_histogram(matrix)
    return {
        "suite": suite_name,
        "n": n,
        "k": used_ks,
        "pass_at_k": pass_rates,
        "avg_at_k": avg_at_k(matrix),
        "histogram": {"edges": list(hist.bucket_edges), "counts": list(hist.counts)},
        "similarity_bigram_jaccard": float(np.mean(sims)),
        "greedy_drift_mean": drift.mean_drift,
        "support": {"covered": sum(rec.covered for rec in records),
                    "total": sum(rec.total for rec in records),
                    "mass": mean_mass_on_correct(records)},
    }
