"""Tabular autoregressive softmax policies over small token vocabularies.

A policy stores one logit vector per (prompt, prefix) pair as a row of one
dense array; a prefix without one reads the shared all-zero row (uniform).
A prefix is one integer, its prefix id, found by arithmetic alone
(prefix_id); each version numbers its rows in one dict and, on the first
array lookup, derives from it one read-only dense index over its prompts' id
range, so prefix_rows of an int64 array is one subtraction, one clip and one
gather (past _DENSE_IDS ids, and for lists, the dict serves). Each version
also computes the log-softmax of all its rows once, on the first read, for
every reader; an update recomputes only the rows it touched and hands on the
index patched with its new rows. _walk is the one walk of the
prefix tree: it advances every walk of every prompt together one token depth
per numpy step on int64 prefix ids, and steps a suite's joined walk table
in the same pass. Sampling and greedy decoding differ only in the token
rule: sample_batch, at temperature 1, counts each row's first V - 1 cumulative
probabilities at or below the walk's uniform, into one flat batch (which
rollouts.sample_trajectories keeps as an RL step's record);
greedy_decode_batch takes each row's argmax. A checkpoint save
keeps its rendering on the policy, and copies hand it on, so the next save
of a lineage prints only the rows that are new or whose bits changed; a load
parses each distinct prefix field once and every value in one pass. Every set
of sequences (RL groups, IRL demos, correct sets) is one SequenceBatch of
flat terms, recorded by the sampler or numbered in arrays by sequence_batch,
and one kernel reads it: token_log_probs gathers every token's log-prob at once,
and sequence_log_probs adds each sequence's left-fold total.
score_gradient is the one place score blocks (onehot - probs) are formed,
from a flat batch of terms (prefix id, table row, token, weight), and sums
them per id with np.bincount; every gradient is one Gradient record, an id
array and a block array. The highest
token id is the terminator: sampling and greedy decoding stop at it or at
max_len. Everything here is exact, so closed-form claims about softmax
update dynamics are directly checkable.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, chain, repeat

import numpy as np

from .artifacts import write_whole
from .errors import (
    CheckpointCorrupt,
    InvalidLogits,
    InvalidToken,
    NumericOverflow,
    PrefixExhausted,
)

# Rows a new table allocates before its first doubling (row 0 is the zero row).
_INITIAL_ROWS = 8

# The widest id range a dense row index covers; past it, lookups use the dict.
# Every live version may hold its own 4-byte-per-id index: at 32 prompts x
# max_len 6 (175k ids) a run's peak RSS rose 7% over the dict's, at 87k ids 2%.
_DENSE_IDS = 1 << 16

# Public key for a conditional distribution: (prompt_id, tokens-so-far).
PrefixKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Vocab:
    """Token index set. The last id (size - 1) is the terminator."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")

    @property
    def terminator(self) -> int:
        return self.size - 1


@dataclass(frozen=True)
class Prefix:
    """A (prompt, tokens-so-far) conditioning context.

    The token list may be empty (the root of a prompt) and should not contain
    the terminator except as its final element.
    """

    prompt_id: int
    tokens: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))


@dataclass(frozen=True)
class TokenDistribution:
    """A strictly positive probability vector over the vocabulary."""

    probs: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """A sampled or decoded token sequence with its log-probabilities.

    Token lists end with the terminator or run to max_len.
    """

    prompt_id: int
    tokens: tuple[int, ...]
    per_token_logp: tuple[float, ...]
    total_logp: float


class PolicyTable:
    """Prefix-indexed logit table defining an autoregressive softmax policy.

    Logits live in one dense (rows, V) array. Row 0 is all zeros and serves
    every prefix without a stored vector; each stored prefix owns one later
    row through the _rows index, keyed by prefix id, in order of first
    allocation. Rows grow by doubling the array, so adding a prefix costs
    amortised O(1). span is the number of prefixes of length 0..max_len,
    the range of ids one prompt owns.

    A table computes the log-softmax of all its rows once, on the first read,
    and every reader uses that cached table; set_logits drops the cache. The
    dense row index (_row_index) is derived from _rows and cached the same
    way.
    """

    def __init__(self, vocab: Vocab, max_len: int):
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        self.vocab = vocab
        self.max_len = max_len
        self.span = (vocab.size ** (max_len + 1) - 1) // (vocab.size - 1)
        self._rows: dict[int, int] = {}
        self._data = np.zeros((_INITIAL_ROWS, vocab.size))
        # Read-only log-softmax of _logit_rows(), or None until first read.
        self._logp: np.ndarray | None = None
        # The same table as cumulative probabilities (the sampler), or None
        # until first read.
        self._cum: np.ndarray | None = None
        # The rows as the last save_checkpoint of this lineage wrote them:
        # their logits' uint64 bits, each row's line and (prompt_id, prefix)
        # sort key, and the row indices in key order. Never changed once
        # built.
        self._rendering: tuple[np.ndarray, list, list, list] | None = None
        # Read-only (lo, rows) of _row_index, or None until first read.
        self._index: tuple[int, np.ndarray | None] | None = None

    def _allocate(self, ident: int) -> int:
        """Row of a stored prefix id; a new id gets the next row, initially zero."""
        row = self._rows.get(ident)
        if row is None:
            row = len(self._rows) + 1
            self._reserve(row + 1)
            self._rows[ident] = row
        return row

    def _reserve(self, rows: int) -> None:
        """Double the array until it holds `rows` rows; the rows it adds are zero."""
        capacity = len(self._data)
        while capacity < rows:
            capacity *= 2
        if capacity > len(self._data):
            grown = np.zeros((capacity, self.vocab.size))
            grown[:len(self._data)] = self._data
            self._data = grown

    def _row_index(self) -> tuple[int, np.ndarray | None]:
        """(lo, rows): rows[i] is the row of id lo + i (0 if unstored) over the
        stored prompts' whole id range, then one trailing 0; rows is None if
        that range passes _DENSE_IDS ids or int64. Built on first read."""
        if self._index is None:
            lo = hi = 0
            if self._rows:
                lo = min(self._rows) // self.span * self.span
                hi = (max(self._rows) // self.span + 1) * self.span
            rows = None
            if hi - lo <= _DENSE_IDS and -1 << 63 <= lo and hi <= 1 << 63:
                count = len(self._rows)
                rows = np.zeros(hi - lo + 1, np.int32)
                rows[np.fromiter(self._rows, np.int64, count) - lo] = np.fromiter(
                    self._rows.values(), np.int32, count)
                rows = _read_only(rows)
            self._index = (lo, rows)
        return self._index

    def _logit_rows(self) -> np.ndarray:
        """Read-only view of the zero row and every stored row."""
        return _read_only(self._data[:len(self._rows) + 1])

    def _log_prob_table(self) -> np.ndarray:
        """The cached log-softmax of every row, computed on the first read."""
        if self._logp is None:
            self._logp = _read_only(_log_softmax(self._logit_rows()))
        return self._logp

    def logit_vector(self, prompt_id: int, tokens: tuple[int, ...]) -> np.ndarray:
        """Stored logits for a prefix, or the implicit zero vector (read-only)."""
        return _read_only(self._data[self._rows.get(prefix_id(self, prompt_id, tokens), 0)])

    def set_logits(self, prompt_id: int, tokens, vec) -> None:
        """Store logits for a prefix; raises as prefix_id does."""
        ident = prefix_id(self, prompt_id, tokens)
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (self.vocab.size,):
            raise ValueError(f"logit vector must have length {self.vocab.size}")
        if not np.isfinite(arr).all():
            raise InvalidLogits("logit vector contains non-finite entries")
        row = self._allocate(ident)
        self._data[row] = arr
        self._logp = self._cum = self._index = None

    def stored_items(self) -> list[tuple[PrefixKey, np.ndarray]]:
        rows = self._logit_rows()
        return [(prefix_key(self, ident), rows[row]) for ident, row in self._rows.items()]

    @property
    def stored_prefix_count(self) -> int:
        return len(self._rows)

    def copy(self) -> "PolicyTable":
        clone = PolicyTable(self.vocab, self.max_len)
        clone._rows = dict(self._rows)
        clone._data = self._data.copy()
        # The caches are never written in place, so the clone can share them.
        clone._logp, clone._cum, clone._index = self._logp, self._cum, self._index
        clone._rendering = self._rendering
        return clone


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """The package's one log-softmax, of a vector or of each row of a matrix.

    Every probability is exp of it. Each row's log-normaliser is math.log of
    the row's sum, one row at a time: np.log can differ in the last bit.
    """
    shifted = z - z.max(axis=-1, keepdims=True)
    sums = np.exp(shifted).sum(axis=-1, keepdims=True)
    return shifted - np.fromiter(map(math.log, sums.ravel()), float,
                                 sums.size).reshape(sums.shape)


def softmax(logits) -> TokenDistribution:
    """Numerically stable softmax of a logit vector."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidLogits("softmax input contains non-finite entries")
    return TokenDistribution(np.exp(_log_softmax(z)))


def _log_probs(policy: PolicyTable, prompt_id: int, tokens: tuple[int, ...]) -> np.ndarray:
    """Read-only row of the policy's cached log-prob table for one prefix."""
    return policy._log_prob_table()[policy._rows.get(prefix_id(policy, prompt_id, tokens), 0)]


def prefix_ids(policy: PolicyTable, prompt_id: int, tokens) -> list[int]:
    """The prefix id each token of a sequence is drawn at.

    prompt_id * span + h, where h is the prefix's index in a complete
    V-ary tree: 0 for (), h * V + token + 1 for a child. Ids are Python
    ints; a SequenceBatch holds them as int64, and its producers reject
    prompts whose ids leave that range. Raises as check_sequence does.
    """
    check_sequence(policy, tokens)
    size, base, h = policy.vocab.size, int(prompt_id) * policy.span, 0
    ids = []
    for tok in tokens:
        ids.append(base + h)
        h = h * size + int(tok) + 1
    return ids


def prefix_id(policy: PolicyTable, prompt_id: int, tokens) -> int:
    """The id of the prefix (prompt_id, tokens); raises as check_sequence does."""
    check_sequence(policy, tokens)
    size, h = policy.vocab.size, 0
    for tok in tokens:
        h = h * size + int(tok) + 1
    return int(prompt_id) * policy.span + h


def prefix_key(policy: PolicyTable, ident: int) -> PrefixKey:
    """The (prompt_id, prefix) key of a prefix id."""
    prompt_id, h = divmod(ident, policy.span)
    tokens = []
    while h:
        h, tok = divmod(h - 1, policy.vocab.size)
        tokens.append(tok)
    return prompt_id, tuple(reversed(tokens))


def prefix_rows(policy: PolicyTable, ids) -> np.ndarray:
    """Each id's row of the policy's tables (0, the zero row, if unstored).

    ids is an int64 array or a list of ints. An array reads the dense index:
    an id below lo wraps to a large uint64, past every row, so every id
    outside the index's range reads its trailing 0. A list, or an index too
    wide to build, reads the dict one id at a time.
    """
    if isinstance(ids, np.ndarray):
        lo, rows = policy._row_index()
        if rows is not None:
            return rows.take(np.minimum((ids - lo).view(np.uint64), len(rows) - 1))
        ids = ids.tolist()
    return np.fromiter(map(policy._rows.get, ids, repeat(0)), np.intp, len(ids))


def _check_int64(policy: PolicyTable, prompt_ids: list[int]) -> None:
    """NumericOverflow if the prefix ids of prompt_ids leave int64."""
    if prompt_ids and not (-1 << 63 <= min(prompt_ids) * policy.span
                           < (max(prompt_ids) + 1) * policy.span < 1 << 63):
        raise NumericOverflow(f"prompts {min(prompt_ids)}..{max(prompt_ids)} at "
                              f"vocab={policy.vocab.size} max_len={policy.max_len} "
                              f"have prefix ids beyond 2**63")


def _token_logps(policy: PolicyTable, prompt_id: int, tokens: tuple[int, ...]) -> np.ndarray:
    """log pi(tokens[t] | tokens[:t]) for every t, gathered from the cached table."""
    rows = prefix_rows(policy, prefix_ids(policy, prompt_id, tokens))
    return policy._log_prob_table()[rows, list(tokens)]


@dataclass(frozen=True, eq=False)
class SequenceBatch:
    """Sequences as flat terms, sequence after sequence in token order (see sequence_batch)."""

    ids: np.ndarray      # the int64 prefix id each token is drawn at
    tokens: np.ndarray   # each token's id
    lengths: np.ndarray  # each sequence's length

    @cached_property
    def padding(self) -> tuple[np.ndarray, tuple[int, int]]:
        """padded_layout of the sequences, built on first use: where
        sequence_log_probs puts each token's log-prob."""
        return padded_layout(self.lengths)

    @cached_property
    def starts(self) -> list[int]:
        """Where each sequence's terms start, then where the last one's end."""
        return [0, *accumulate(self.lengths.tolist())]


def padded_layout(lengths: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Where each term of flat runs of the given lengths goes in a zero-padded
    array: its index in a flat array of the given shape, a row of zeros and
    then one row per position in a run, with a column per run."""
    n = len(lengths)
    run = np.repeat(np.arange(n), lengths)
    depth = np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]
    return (depth + 1) * n + run, (int(lengths.max(initial=0)) + 1, n)


def left_folds(values: np.ndarray, layout: tuple[np.ndarray, tuple[int, int]]) -> np.ndarray:
    """Each run's left fold from 0.0 of its values in order, for runs laid out
    by padded_layout: np.add.accumulate adds the padded rows in order, and
    adding the padding's 0.0 is exact."""
    slots, shape = layout
    padded = np.zeros(shape)
    padded.reshape(-1)[slots] = values
    return np.add.accumulate(padded)[-1]


def take_sequences(picks) -> SequenceBatch:
    """Sequence i of batch b for each (b, i) of picks, in that order, with its recorded ids."""
    ids, tokens, lengths = [np.empty(0, np.int64)], [np.empty(0, np.intp)], []
    for batch, i in picks:
        start, stop = batch.starts[i], batch.starts[i + 1]
        ids.append(batch.ids[start:stop])
        tokens.append(batch.tokens[start:stop])
        lengths.append(stop - start)
    return SequenceBatch(np.concatenate(ids), np.concatenate(tokens), np.array(lengths, np.intp))


def sequence_batch(policy: PolicyTable, sequences) -> SequenceBatch:
    """The (prompt_id, tokens) pairs as one SequenceBatch at policy's shape.

    The ids are prefix_ids', numbered in arrays: the tokens go into a padded
    (depth, sequence) matrix, and one Horner step per token depth gives every
    sequence's next prefix id. Raises NumericOverflow as _walk, then as
    check_sequence does at the first sequence that fails it.
    """
    sequences = list(sequences)
    prompt_ids = [int(pid) for pid, _ in sequences]
    _check_int64(policy, prompt_ids)
    size, count = policy.vocab.size, len(sequences)
    lengths = np.fromiter((len(t) for _, t in sequences), np.intp, count)
    try:
        tokens = np.fromiter(chain.from_iterable(t for _, t in sequences), np.intp,
                             int(lengths.sum()))
    except OverflowError:
        tokens = None
    if (tokens is None or lengths.max(initial=0) > policy.max_len
            or (len(tokens) and not 0 <= tokens.min() <= tokens.max() < size)):
        for _, t in sequences:
            check_sequence(policy, t)
    layout = padded_layout(lengths)
    depth = layout[1][0] - 1
    padded = np.zeros(layout[1], np.int64)
    padded.reshape(-1)[layout[0]] = tokens
    ids = np.empty_like(padded)
    h = np.zeros(count, np.int64)
    base = np.array([pid * policy.span for pid in prompt_ids], np.int64)
    for t in range(depth):
        ids[t + 1] = base + h
        h = h * size + padded[t + 1] + 1
    return SequenceBatch(ids.reshape(-1)[layout[0]], tokens, lengths)


def join_batches(batches) -> SequenceBatch:
    """Several SequenceBatches as one, batch after batch."""
    batches = list(batches) or [SequenceBatch(np.empty(0, np.int64), np.empty(0, np.intp),
                                              np.empty(0, np.intp))]
    return SequenceBatch(ids=np.concatenate([b.ids for b in batches]),
                         tokens=np.concatenate([b.tokens for b in batches]),
                         lengths=np.concatenate([b.lengths for b in batches]))


def token_log_probs(policy: PolicyTable, batch: SequenceBatch, rows=None) -> np.ndarray:
    """Every token's log-prob under policy, from one gather of the cached table;
    rows, if given, are the batch ids' rows (prefix_rows)."""
    if rows is None:
        rows = prefix_rows(policy, batch.ids)
    return policy._log_prob_table()[rows, batch.tokens]


def sequence_log_probs(policy: PolicyTable, batch: SequenceBatch,
                       rows=None) -> tuple[np.ndarray, np.ndarray]:
    """token_log_probs and every sequence's total log-prob under policy.

    Each total is a left fold from 0.0 in token order, as
    trajectory_log_prob's (left_folds). An empty sequence totals 0.0.
    """
    logps = token_log_probs(policy, batch, rows)
    return logps, left_folds(logps, batch.padding)


def token_distribution(policy: PolicyTable, prefix: Prefix) -> TokenDistribution:
    """Conditional next-token distribution at a prefix."""
    if len(prefix.tokens) >= policy.max_len:
        raise PrefixExhausted(
            f"prefix of length {len(prefix.tokens)} has no next token "
            f"(max_len={policy.max_len})")
    return TokenDistribution(np.exp(_log_probs(policy, prefix.prompt_id, prefix.tokens)))


def trajectory_log_prob(policy: PolicyTable, prompt_id: int, tokens) -> tuple[np.ndarray, float]:
    """Per-token and total log-probability of a token sequence.

    The empty sequence has total log-prob 0 (empty product).
    """
    per_token = _token_logps(policy, prompt_id, tuple(int(t) for t in tokens))
    return per_token, _left_fold(per_token)


def check_sequence(policy: PolicyTable, tokens: tuple[int, ...]) -> None:
    """Raise PrefixExhausted if tokens is longer than max_len, else InvalidToken
    at its first token outside the vocabulary."""
    if len(tokens) > policy.max_len:
        raise PrefixExhausted(
            f"sequence of length {len(tokens)} exceeds max_len={policy.max_len}")
    for tok in tokens:
        if not 0 <= tok < policy.vocab.size:
            raise InvalidToken(f"token {tok} outside vocab of size {policy.vocab.size}")


def _left_fold(values: np.ndarray) -> float:
    """((0.0 + values[0]) + values[1]) + ...: not np.sum, which pairs terms from 8
    on, nor the builtin sum, which is compensated from Python 3.12 on."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def make_trajectory(policy: PolicyTable, prompt_id: int, tokens) -> Trajectory:
    """Package a token sequence with its log-probs under the policy."""
    per_token, total = trajectory_log_prob(policy, prompt_id, tokens)
    return Trajectory(prompt_id, tuple(int(t) for t in tokens),
                      tuple(float(x) for x in per_token), total)


def _walk(policy: PolicyTable, prompt_ids: list[int], n: int, u=None,
          walks=None) -> tuple[SequenceBatch, np.ndarray, np.ndarray, np.ndarray]:
    """The one walk of the prefix tree: n walks per prompt advance together,
    one token depth per numpy step, on int64 prefix ids.

    With u, of shape (prompts * n, max_len), token t of walk j is the first
    token whose cumulative probability exceeds u[j, t], or the terminator if
    rounding leaves u above them all; without u it is the argmax of the
    cached log-prob row, ties going to the lowest id. A walk stops at the
    terminator or at max_len. NumericOverflow if a prompt's ids leave int64.
    Returns the walks, prompt after prompt, as one SequenceBatch with the
    prefix ids they were drawn at; each token's log-prob; each walk's total,
    a left fold of its log-probs in token order; and each walk's reward, 1
    exactly when a walk of prompt i ends in accept[i] of walks, a joined
    (table, start, accept) as tasks.Suite.walks indexed by the prompts'
    tasks, and 0 without walks.
    """
    _check_int64(policy, prompt_ids)
    count, depth, size = len(prompt_ids), policy.max_len, policy.vocab.size
    logp = policy._log_prob_table()
    if u is not None and policy._cum is None:
        policy._cum = _read_only(np.cumsum(np.exp(logp), axis=1))
    walkers = count * n
    table, state, accept = None, np.zeros(walkers, np.intp), -1  # without walks, no reward
    if walks is not None:
        table, state, accept = walks[0], np.repeat(walks[1], n), np.repeat(walks[2], n)
    ids, tokens = np.zeros((walkers, depth), np.int64), np.zeros((walkers, depth), np.intp)
    logps, totals = np.zeros((walkers, depth)), np.zeros(walkers)
    live, base = np.arange(walkers), np.repeat(np.array(prompt_ids, np.int64) * policy.span, n)
    h = np.zeros(walkers, np.int64)
    flat_logp = logp.reshape(-1)
    # Column v of the cumulative table, read at a row's first cell.
    columns = [] if u is None else [policy._cum.reshape(-1)[v:] for v in range(size - 1)]
    for t in range(depth):
        ident = base + h
        rows = prefix_rows(policy, ident)
        cells = rows * size
        if u is None:
            tok = logp[rows].argmax(axis=1)
        else:
            # A row's cumulative values never decrease, so the count of its first
            # V - 1 values <= u is the first token past u, capped at the terminator.
            x, tok = u[live, t], np.zeros(len(rows), np.intp)
            for column in columns:
                tok += column.take(cells) <= x
        lp = flat_logp.take(cells + tok)
        ids[live, t], tokens[live, t], logps[live, t] = ident, tok, lp
        totals[live] += lp
        # The terminator keeps a walk's state, so a stopped walk's state is final.
        if table is not None:
            state[live] = table[state[live] + tok]
        more = tok != size - 1
        live, base, h = live[more], base[more], h[more] * size + tok[more] + 1
    ended = tokens == size - 1
    lengths = np.where(ended.any(axis=1), ended.argmax(axis=1) + 1, depth)
    drawn = np.arange(depth) < lengths[:, None]
    return (SequenceBatch(ids[drawn], tokens[drawn], lengths), logps[drawn], totals,
            (state == accept).astype(np.intp))


def sample_batch(policy: PolicyTable, prompt_ids, u: np.ndarray, walks=None):
    """Ancestral samples from the policy as _walk returns them, prompt after prompt.

    u has shape (prompts, n, max_len): token t of rollout j of prompt i is
    drawn by _walk from u[i, j, t]; walks and rewards are as there.
    """
    prompt_ids, (count, n, depth) = [int(p) for p in prompt_ids], u.shape
    if (count, depth) != (len(prompt_ids), policy.max_len):
        raise ValueError(f"u of shape {u.shape} for {len(prompt_ids)} prompts at max_len {depth}")
    return _walk(policy, prompt_ids, n, u.reshape(count * n, depth), walks)


def sample_trajectory(policy: PolicyTable, prompt_id: int,
                      rng: np.random.Generator) -> Trajectory:
    """One ancestral sample from one rng.random(max_len) block."""
    batch, logps, totals, _ = sample_batch(policy, [prompt_id], rng.random((1, 1, policy.max_len)))
    return Trajectory(int(prompt_id), tuple(batch.tokens.tolist()), tuple(logps.tolist()),
                      totals.item())


def greedy_decode_batch(policy: PolicyTable,
                        prompt_ids) -> tuple[SequenceBatch, np.ndarray, np.ndarray]:
    """Argmax decoding of every prompt by _walk; ties resolve to the lowest token id.

    Returns the decodes as one SequenceBatch, sequence i being prompt i's,
    each token's log-prob and each decode's total. NumericOverflow for
    prompts whose prefix ids pass 2**63, as the sampler.
    """
    return _walk(policy, [int(p) for p in prompt_ids], 1)[:3]


def greedy_decode(policy: PolicyTable, prompt_id: int) -> Trajectory:
    """greedy_decode_batch of one prompt; total_logp adds the log-probs in token order."""
    batch, logps, totals = greedy_decode_batch(policy, [prompt_id])
    return Trajectory(prompt_id, tuple(batch.tokens.tolist()), tuple(logps.tolist()),
                      totals.item())


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector, with 0 * ln 0 := 0."""
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True, eq=False)
class Gradient:
    """A gradient w.r.t. the policy's logits: blocks[i] is the block of ids[i]."""

    ids: np.ndarray     # int64 prefix ids, distinct, ascending
    blocks: np.ndarray  # (len(ids), V) floats


def score_gradient(policy: PolicyTable, ids, rows, tokens, weights) -> Gradient:
    """Weighted sum of score functions, sum_i w_i * grad log pi(token_i | prefix_i).

    The terms come as a flat batch: ids[i] is term i's int64 prefix id,
    rows[i] its row of the policy's table (prefix_rows(policy, ids) gives
    them), tokens[i] its token and weights[i] its weight. The gradient of
    log pi(token | prefix) w.r.t. that prefix's logits is onehot(token) - probs,
    so the result holds each prefix id, in ascending order, with the sum
    over its terms of weight * (onehot - probs), added in term order. Every
    term's row is gathered from the cached log-prob table at once. Ids are
    slotted by one np.unique, and np.bincount adds every (slot, token) sum
    in term order, from +0.0: a sum of -0.0 terms reads +0.0, the same once
    added to any logit but -0.0, which no run holds (README). This is the
    one place score blocks are formed.
    """
    size = policy.vocab.size
    blocks = -np.exp(policy._log_prob_table()[rows])
    blocks[np.arange(len(ids)), tokens] += 1.0
    blocks *= np.asarray(weights, dtype=float)[:, None]
    uniq, slot = np.unique(ids, return_inverse=True)
    cells = (slot[:, None] * size + np.arange(size)).ravel()
    sums = np.bincount(cells, blocks.ravel(), len(uniq) * size)
    return Gradient(uniq, sums.reshape(len(uniq), size))


def grad_log_prob(policy: PolicyTable, trajectory: Trajectory) -> Gradient:
    """Analytical gradient of total_logp w.r.t. the policy's logits.

    For each visited prefix the block is indicator(chosen) - probs, the
    softmax score function; the blocks of a repeated prefix add up.
    """
    batch = sequence_batch(policy, [(trajectory.prompt_id, trajectory.tokens)])
    return score_gradient(policy, batch.ids, prefix_rows(policy, batch.ids), batch.tokens,
                          np.ones(len(batch.ids)))


def apply_update(policy: PolicyTable, gradient: Gradient, step_size: float) -> PolicyTable:
    """Return a new policy with logits[ids[i]] += step_size * blocks[i] for each i.

    The input policy is left untouched. The ids' rows are read with
    prefix_rows; the ids with none, numbered in gradient order after the
    stored ones, get new rows starting from zero (the table doubles as it
    grows). The touched rows are gathered, updated and scattered back in one
    pass. The new policy's dense index is the input's, patched with the new
    rows, or none if a new id falls outside its range. If the input's
    log-prob table is already computed, the new policy's table reuses it and
    recomputes only the touched rows.
    """
    if not math.isfinite(step_size):
        raise NumericOverflow(f"non-finite step size {step_size}")
    ids = gradient.ids
    rows = prefix_rows(policy, ids)  # first, so the copy shares a fresh index
    out = policy.copy()
    new = np.flatnonzero(rows == 0)
    if len(new):
        count = len(out._rows)
        rows[new] = np.arange(count + 1, count + 1 + len(new))
        out._rows.update(zip(ids[new].tolist(), rows[new].tolist()))
        out._reserve(count + len(new) + 1)
        lo, index = policy._row_index()
        if index is not None:  # a range too wide stays too wide
            offsets = (ids[new] - lo).view(np.uint64)
            out._index = None
            if offsets.max() < len(index) - 1:
                patched = index.copy()
                patched[offsets] = rows[new]
                out._index = (lo, _read_only(patched))
    updated = out._data[rows] + step_size * gradient.blocks
    finite = np.isfinite(updated).all(axis=1)
    if not finite.all():
        key = prefix_key(policy, int(ids[np.argmin(finite)]))
        raise NumericOverflow(f"update produced non-finite logits at prefix {key}")
    out._data[rows] = updated
    out._cum = None
    if policy._logp is not None:
        logp = np.empty((out.stored_prefix_count + 1, policy.vocab.size))
        logp[:len(policy._logp)] = policy._logp
        logp[rows] = _log_softmax(updated)
        out._logp = _read_only(logp)
    return out


CHECKPOINT_HEADER_RE = re.compile(r"^squeezelab-policy v1 vocab=(\d+) max_len=(\d+)$")


def save_checkpoint(policy: PolicyTable, path) -> None:
    """Write the policy as a line-oriented text checkpoint.

    Floats are printed with repr so a load reproduces the exact bit pattern;
    prefixes are sorted so save -> load -> save is byte-identical. The file
    is written whole or not at all (artifacts.write_whole).

    A save reuses the rendering its policy's lineage last saved (copy and
    apply_update hand it on): only rows appended since then, or whose logits
    changed bit for bit, are printed again. Bits, not floats, are compared,
    since 0.0 == -0.0 but their reprs differ. A table only ever appends
    rows, so a rendering's rows are the first rows of every table that holds
    it. A policy without one, such as a loaded one, prints every row.
    """
    ids = list(policy._rows)  # numbered 1, 2, ... in insertion order
    values = policy._logit_rows()[1:]
    bits = values.view(np.uint64)
    old_bits, old_lines, old_keys, old_order = policy._rendering or (bits[:0], [], [], [])
    done, count = len(old_lines), len(ids)
    keys = old_keys + [prefix_key(policy, ident) for ident in ids[done:]]
    lines = old_lines + [""] * (count - done)
    redo = np.flatnonzero((bits[:done] != old_bits).any(axis=1)).tolist()
    redo += range(done, count)
    for i, vec in zip(redo, values[redo].tolist()):
        prompt_id, tokens = keys[i]
        lines[i] = f"{prompt_id} {','.join(map(str, tokens)) or '-'} {' '.join(map(repr, vec))}"
    order = old_order + list(range(done, count))
    if count > done:
        order.sort(key=keys.__getitem__)
    header = f"squeezelab-policy v1 vocab={policy.vocab.size} max_len={policy.max_len}"
    text = "\n".join([header, *map(lines.__getitem__, order)]) + "\n"
    write_whole(path, text)
    policy._rendering = (bits.copy(), lines, keys, order)


def _prefix_tokens(field: str) -> tuple[int, ...]:
    """The tokens of a checkpoint line's prefix field; ValueError if one is not an int."""
    return () if field == "-" else tuple(int(t) for t in field.split(","))


def _line_fault(policy: PolicyTable, line: str) -> str | None:
    """The first of a checkpoint line's own checks that fails, as its message:
    blank, field count, int and float parse, prefix; None if all pass."""
    if not line.strip():
        return "blank line inside checkpoint"
    fields = line.split(" ")
    if len(fields) != 2 + policy.vocab.size:
        return f"expected {2 + policy.vocab.size} fields, got {len(fields)}"
    try:
        int(fields[0])
        tokens = _prefix_tokens(fields[1])
        list(map(float, fields[2:]))
    except ValueError as exc:
        return str(exc)
    try:
        check_sequence(policy, tokens)
    except (InvalidToken, PrefixExhausted) as exc:
        return f"prefix {fields[1]!r}: {exc}"
    return None


def load_checkpoint(path) -> PolicyTable:
    """Parse a checkpoint file; malformed content raises CheckpointCorrupt.

    Each distinct prompt and prefix field is parsed once; every value goes
    through float in one pass into one array, and finiteness and duplicate
    prefixes are checked over all rows at once. A fault names the file's
    first line that has one, with that line's first failing check in the
    order blank, field count, int and float parse, prefix (_line_fault),
    finiteness, duplicate.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines:
        raise CheckpointCorrupt("empty checkpoint file", line=1)
    m = CHECKPOINT_HEADER_RE.match(lines[0])
    if m is None:
        raise CheckpointCorrupt(f"bad header {lines[0]!r}", line=1)
    size, max_len = int(m.group(1)), int(m.group(2))
    if size < 2 or max_len < 1:
        raise CheckpointCorrupt(f"invalid dimensions vocab={size} max_len={max_len}", line=1)
    policy = PolicyTable(Vocab(size), max_len)
    body = lines[1:]

    @cache
    def prompt(field):
        try:
            return int(field) * policy.span
        except ValueError:
            return None

    @cache
    def offset(field):
        try:
            return prefix_id(policy, 0, _prefix_tokens(field))
        except (ValueError, InvalidToken, PrefixExhausted):
            return None

    ids, texts, width = [], [], 2 + size
    for line in body:  # up to the first line whose count, int or prefix check fails
        fields = line.split(" ")
        if len(fields) != width:
            break
        base, h = prompt(fields[0]), offset(fields[1])
        if base is None or h is None:
            break
        ids.append(base + h)
        texts += fields[2:]
    count = len(ids)
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        count = next(i for i in range(count) if _line_fault(policy, body[i]))
        values = np.fromiter(map(float, texts[:count * size]), float, count * size)
    values = values.reshape(count, size)
    faults = []  # (line index, message) of the first fault each check finds
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        faults.append((int(finite.argmin()), "non-finite logit value"))
    policy._rows = dict(zip(ids[:count], range(1, count + 1)))
    if len(policy._rows) < count:
        seen = set()
        dup = next(i for i, ident in enumerate(ids) if ident in seen or seen.add(ident))
        faults.append((dup, "duplicate prefix " + " ".join(body[dup].split(" ")[:2])))
    if count < len(body):
        faults.append((count, _line_fault(policy, body[count])))
    if faults:
        index, message = min(faults, key=lambda fault: fault[0])
        raise CheckpointCorrupt(message, line=index + 2)
    policy._data = np.concatenate([np.zeros((1, size)), values])
    return policy


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent RNG stream addressed by (master_seed, *path indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(p) for p in path]]))
