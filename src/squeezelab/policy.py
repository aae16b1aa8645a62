"""Tabular autoregressive softmax policies over small token vocabularies.

A policy stores one logit vector per (prompt, prefix) pair; any prefix without
a stored vector behaves as all-zero logits, so every conditional distribution
is defined (uniform) without allocation. The highest token id acts as the
terminator: sampling and greedy decoding stop when it is emitted or when the
sequence reaches max_len. Everything here is exact: sampling, log-probs, and
the analytical score-function gradient, which makes closed-form claims about
softmax update dynamics directly checkable.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointCorrupt,
    InvalidLogits,
    InvalidToken,
    NumericOverflow,
    PrefixExhausted,
    TemperatureTooLow,
)

MIN_TEMPERATURE = 1e-6

# Internal key for a conditional distribution: (prompt_id, tokens-so-far).
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

    @property
    def key(self) -> PrefixKey:
        return (self.prompt_id, self.tokens)


@dataclass(frozen=True)
class TokenDistribution:
    """A strictly positive probability vector over the vocabulary."""

    probs: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """A sampled or decoded token sequence with its log-probabilities.

    Token lists end with the terminator or run to max_len. Log-probs are
    always the policy's own (temperature-1) probabilities.
    """

    prompt_id: int
    tokens: tuple[int, ...]
    per_token_logp: tuple[float, ...]
    total_logp: float


@dataclass
class SparseGradient:
    """Per-prefix gradient blocks w.r.t. policy logits.

    blocks maps a prefix key to a dense length-V vector. For a single
    log-prob term each block sums to zero (softmax score identity).
    """

    blocks: dict[PrefixKey, np.ndarray] = field(default_factory=dict)

    def accumulate(self, key: PrefixKey, vec: np.ndarray, weight: float = 1.0) -> None:
        existing = self.blocks.get(key)
        if existing is None:
            self.blocks[key] = weight * vec
        else:
            existing += weight * vec

    def scaled(self, factor: float) -> "SparseGradient":
        return SparseGradient({k: factor * v for k, v in self.blocks.items()})


class PolicyTable:
    """Prefix-indexed logit table defining an autoregressive softmax policy."""

    def __init__(self, vocab: Vocab, max_len: int,
                 logits: dict[PrefixKey, np.ndarray] | None = None):
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        self.vocab = vocab
        self.max_len = max_len
        self._logits: dict[PrefixKey, np.ndarray] = {}
        if logits:
            for key, vec in logits.items():
                self.set_logits(key[0], key[1], vec)

    def logit_vector(self, prompt_id: int, tokens: tuple[int, ...]) -> np.ndarray:
        """Stored logits for a prefix, or the implicit zero vector."""
        vec = self._logits.get((prompt_id, tuple(tokens)))
        if vec is None:
            return np.zeros(self.vocab.size)
        return vec

    def set_logits(self, prompt_id: int, tokens, vec) -> None:
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (self.vocab.size,):
            raise ValueError(f"logit vector must have length {self.vocab.size}")
        if not np.all(np.isfinite(arr)):
            raise InvalidLogits("logit vector contains non-finite entries")
        self._logits[(int(prompt_id), tuple(int(t) for t in tokens))] = arr.copy()

    def stored_items(self):
        return self._logits.items()

    @property
    def stored_prefix_count(self) -> int:
        return len(self._logits)

    def copy(self) -> "PolicyTable":
        clone = PolicyTable(self.vocab, self.max_len)
        clone._logits = {k: v.copy() for k, v in self._logits.items()}
        return clone


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """The package's one log-softmax; every probability is exp of it."""
    shifted = z - z.max()
    return shifted - math.log(np.exp(shifted).sum())


def softmax(logits) -> TokenDistribution:
    """Numerically stable softmax of a logit vector."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidLogits("softmax input contains non-finite entries")
    return TokenDistribution(np.exp(_log_softmax(z)))


def _log_probs(policy: PolicyTable, prompt_id: int, tokens: tuple[int, ...]) -> np.ndarray:
    return _log_softmax(policy.logit_vector(prompt_id, tokens))


def _score_block(policy: PolicyTable, prompt_id: int, prefix: tuple[int, ...],
                 tok: int) -> np.ndarray:
    """Gradient of log pi(tok | prefix) w.r.t. that prefix's logits: onehot - probs."""
    block = -np.exp(_log_probs(policy, prompt_id, prefix))
    block[tok] += 1.0
    return block


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
    toks = tuple(int(t) for t in tokens)
    if len(toks) > policy.max_len:
        raise PrefixExhausted(
            f"sequence of length {len(toks)} exceeds max_len={policy.max_len}")
    per_token = np.empty(len(toks))
    for t, tok in enumerate(toks):
        if not 0 <= tok < policy.vocab.size:
            raise InvalidToken(f"token {tok} outside vocab of size {policy.vocab.size}")
        per_token[t] = _log_probs(policy, prompt_id, toks[:t])[tok]
    return per_token, float(per_token.sum())


def make_trajectory(policy: PolicyTable, prompt_id: int, tokens) -> Trajectory:
    """Package a token sequence with its log-probs under the policy."""
    per_token, total = trajectory_log_prob(policy, prompt_id, tokens)
    return Trajectory(prompt_id, tuple(int(t) for t in tokens),
                      tuple(float(x) for x in per_token), total)


def sample_trajectory(policy: PolicyTable, prompt_id: int, temperature: float,
                      rng: np.random.Generator) -> Trajectory:
    """Ancestral sampling from the policy, tempered at the draw only.

    The draw at each step uses softmax(logits / temperature); the returned
    log-probs are always the untempered (temperature-1) ones.
    """
    if temperature < MIN_TEMPERATURE:
        raise TemperatureTooLow(
            f"temperature {temperature} below {MIN_TEMPERATURE}; use greedy_decode")
    terminator = policy.vocab.terminator
    tokens: list[int] = []
    logps: list[float] = []
    for _ in range(policy.max_len):
        prefix = tuple(tokens)
        logp = _log_probs(policy, prompt_id, prefix)
        if temperature == 1.0:
            draw_probs = np.exp(logp)
        else:
            draw_probs = np.exp(_log_softmax(policy.logit_vector(prompt_id, prefix) / temperature))
        cum = np.cumsum(draw_probs)
        tok = int(np.searchsorted(cum, rng.random(), side="right"))
        if tok >= policy.vocab.size:
            tok = policy.vocab.size - 1
        tokens.append(tok)
        logps.append(float(logp[tok]))
        if tok == terminator:
            break
    return Trajectory(prompt_id, tuple(tokens), tuple(logps), float(sum(logps)))


def greedy_decode(policy: PolicyTable, prompt_id: int) -> Trajectory:
    """Argmax decoding; ties resolve to the lowest token id."""
    terminator = policy.vocab.terminator
    tokens: list[int] = []
    logps: list[float] = []
    for _ in range(policy.max_len):
        logp = _log_probs(policy, prompt_id, tuple(tokens))
        tok = int(np.argmax(logp))
        tokens.append(tok)
        logps.append(float(logp[tok]))
        if tok == terminator:
            break
    return Trajectory(prompt_id, tuple(tokens), tuple(logps), float(sum(logps)))


def entropy(d: TokenDistribution | np.ndarray) -> float:
    """Shannon entropy in nats, with 0 * ln 0 := 0."""
    p = d.probs if isinstance(d, TokenDistribution) else np.asarray(d, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def grad_log_prob(policy: PolicyTable, trajectory: Trajectory) -> SparseGradient:
    """Analytical gradient of total_logp w.r.t. the policy's logits.

    For each visited prefix the block is indicator(chosen) - probs, the
    softmax score function; repeated prefixes accumulate.
    """
    grad = SparseGradient()
    for t, tok in enumerate(trajectory.tokens):
        if not 0 <= tok < policy.vocab.size:
            raise InvalidToken(f"token {tok} outside vocab of size {policy.vocab.size}")
        prefix = trajectory.tokens[:t]
        grad.accumulate((trajectory.prompt_id, prefix),
                        _score_block(policy, trajectory.prompt_id, prefix, tok))
    return grad


def apply_update(policy: PolicyTable, gradient: SparseGradient,
                 step_size: float) -> PolicyTable:
    """Return a new policy with logits[prefix] += step_size * block.

    The input policy is left untouched; untouched blocks are shared.
    """
    if not math.isfinite(step_size):
        raise NumericOverflow(f"non-finite step size {step_size}")
    new_logits = dict(policy._logits)
    for key, block in gradient.blocks.items():
        base = new_logits.get(key)
        if base is None:
            base = np.zeros(policy.vocab.size)
        updated = base + step_size * block
        if not np.all(np.isfinite(updated)):
            raise NumericOverflow(f"update produced non-finite logits at prefix {key}")
        new_logits[key] = updated
    out = PolicyTable(policy.vocab, policy.max_len)
    out._logits = new_logits
    return out


CHECKPOINT_HEADER_RE = re.compile(r"^squeezelab-policy v1 vocab=(\d+) max_len=(\d+)$")


def save_checkpoint(policy: PolicyTable, path) -> None:
    """Write the policy as a line-oriented text checkpoint.

    Floats are printed with repr so a load reproduces the exact bit pattern;
    prefixes are sorted so save -> load -> save is byte-identical.
    """
    lines = [f"squeezelab-policy v1 vocab={policy.vocab.size} max_len={policy.max_len}"]
    for (prompt_id, tokens), vec in sorted(policy.stored_items()):
        prefix_txt = ",".join(str(t) for t in tokens) if tokens else "-"
        values = " ".join(repr(float(x)) for x in vec)
        lines.append(f"{prompt_id} {prefix_txt} {values}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> PolicyTable:
    """Parse a checkpoint file; malformed content raises CheckpointCorrupt."""
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
    seen: set[PrefixKey] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise CheckpointCorrupt("blank line inside checkpoint", line=lineno)
        fields = line.split(" ")
        if len(fields) != 2 + size:
            raise CheckpointCorrupt(
                f"expected {2 + size} fields, got {len(fields)}", line=lineno)
        try:
            prompt_id = int(fields[0])
            tokens = () if fields[1] == "-" else tuple(int(t) for t in fields[1].split(","))
            vec = np.array([float(x) for x in fields[2:]])
        except ValueError as exc:
            raise CheckpointCorrupt(str(exc), line=lineno) from exc
        if any(not 0 <= t < size for t in tokens):
            raise CheckpointCorrupt(f"token id outside vocab in prefix {fields[1]!r}",
                                    line=lineno)
        if len(tokens) > max_len:
            raise CheckpointCorrupt(f"prefix longer than max_len={max_len}", line=lineno)
        if not np.all(np.isfinite(vec)):
            raise CheckpointCorrupt("non-finite logit value", line=lineno)
        key = (prompt_id, tokens)
        if key in seen:
            raise CheckpointCorrupt(f"duplicate prefix {fields[0]} {fields[1]}", line=lineno)
        seen.add(key)
        policy._logits[key] = vec
    return policy


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent RNG stream addressed by (master_seed, *path indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(p) for p in path]]))
