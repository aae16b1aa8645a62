"""Closed-form verification of probability squeezing under negative logit updates.

Penalizing a single token m with a logit step eta < 0 rescales every other
probability by the same factor 1/denom where denom = 1 + p(m)(e^eta - 1) < 1,
so all surviving tokens gain mass in proportion to what they already hold and
the dominant token absorbs the largest absolute share. This module checks the
exact relation against a direct softmax recomputation, mirrors the same
algebra on a fully enumerated sequence distribution, and provides peakedness
diagnostics for watching distributions sharpen during training.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidToken, NotASqueezeSetting, SpaceTooLarge
from .policy import (
    PolicyTable,
    TokenDistribution,
    entropy,
    greedy_decode,
    sequence_batch,
    sequence_log_probs,
    softmax,
    _log_probs,
)

SEQUENCE_SPACE_BOUND = 100_000


@dataclass(frozen=True)
class SqueezeReport:
    """Before/after distributions for one penalized-token update."""

    before: TokenDistribution
    after: TokenDistribution
    m: int
    eta: float
    scale_factor: float  # Z / Z', the common rescale applied to j != m
    mass_delta: np.ndarray  # after - before, sums to zero
    denom: float  # 1 + p(m) (e^eta - 1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class SequenceSqueezeReport:
    """Idealized sequence-level squeeze over a fully enumerated space."""

    space: tuple[tuple[int, ...], ...]
    before_seq_probs: np.ndarray
    after_seq_probs: np.ndarray
    y_minus: tuple[int, ...]
    eta: float
    max_before: float
    max_after: float


def penalize_token(logits, m: int, eta: float) -> tuple[np.ndarray, SqueezeReport]:
    """Apply z[m] += eta and report the exact redistribution of mass."""
    z = np.asarray(logits, dtype=float)
    if not 0 <= m < z.shape[0]:
        raise InvalidToken(f"penalized index {m} outside vector of length {z.shape[0]}")
    before = softmax(z)
    new_logits = z.copy()
    new_logits[m] += eta
    after = softmax(new_logits)
    p_m = float(before.probs[m])
    denom = 1.0 + p_m * (np.exp(eta) - 1.0)
    report = SqueezeReport(
        before=before,
        after=after,
        m=m,
        eta=float(eta),
        scale_factor=1.0 / denom,
        mass_delta=after.probs - before.probs,
        denom=denom,
    )
    return new_logits, report


def check_squeeze_setting(before: np.ndarray, m: int, eta: float) -> None:
    """Raise NotASqueezeSetting unless eta is finite and < 0 and token m of
    the distribution before is not its argmax nor tied with it."""
    argmax = int(np.argmax(before))
    if eta >= 0:
        raise NotASqueezeSetting(f"eta must be negative, got {float(eta)}")
    if not np.isfinite(eta):
        raise NotASqueezeSetting(f"eta must be finite, got {float(eta)}")
    if m == argmax or before[m] >= before[argmax]:
        raise NotASqueezeSetting("penalized token is the dominant one")


def verify_squeeze(report: SqueezeReport, tol: float = 1e-12) -> list[CheckResult]:
    """Run the five named squeeze checks on a report.

    Requires a genuine squeeze setting (check_squeeze_setting): eta < 0 and
    the penalized token is not the current argmax.
    """
    before = report.before.probs
    after = report.after.probs
    m = report.m
    argmax = int(np.argmax(before))
    check_squeeze_setting(before, m, report.eta)

    others = np.arange(before.shape[0]) != m
    closed_form = before[others] / report.denom
    residual_a = float(np.max(np.abs(after[others] - closed_form)))

    residual_b = float(after[m] - before[m])

    ratios = after[others] / before[others]
    spread = float(np.max(ratios) - np.min(ratios))
    factor_ok = bool(np.all(ratios > 1.0))

    delta = report.mass_delta
    gain_ok = bool(np.argmax(delta) == argmax)
    residual_d = float(np.max(delta) - delta[argmax])

    residual_e = float(np.max(before) - np.max(after))

    return [
        CheckResult("closed_form_match", residual_a <= tol, residual_a),
        CheckResult("penalized_mass_drops", residual_b < 0, residual_b),
        CheckResult("common_factor_above_one", spread < tol and factor_ok, spread),
        CheckResult("dominant_gains_most", gain_ok, residual_d),
        CheckResult("max_prob_nondecreasing", residual_e <= tol, residual_e),
    ]


def enumerate_sequence_space(vocab_size: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    """All fixed-length token strings, the idealized sequence sample space."""
    if vocab_size ** max_len > SEQUENCE_SPACE_BOUND:
        raise SpaceTooLarge(
            f"{vocab_size}^{max_len} sequences exceed the bound {SEQUENCE_SPACE_BOUND}")
    return tuple(itertools.product(range(vocab_size), repeat=max_len))


def _sequence_probs(policy: PolicyTable, prompt_id: int,
                    space: tuple[tuple[int, ...], ...]) -> np.ndarray:
    batch = sequence_batch(policy, ((prompt_id, seq) for seq in space))
    return np.exp(sequence_log_probs(policy, batch)[1])


def sequence_squeeze(policy: PolicyTable, y_minus: tuple[int, ...],
                     eta: float, prompt_id: int = 0) -> SequenceSqueezeReport:
    """Idealized sequence-level squeeze: P'(y-) gets the e^eta factor, renormalize.

    The space is every length-max_len token string with probability given by
    the chain rule, which sums to one exactly. y_minus must name one element
    of that space.
    """
    if eta > 0:
        raise ValueError(f"eta must be <= 0 for a squeeze, got {eta}")
    target = tuple(int(t) for t in y_minus)
    if len(target) != policy.max_len:
        raise InvalidToken(
            f"penalized sequence must have length max_len={policy.max_len}, "
            f"got {len(target)}")
    space = enumerate_sequence_space(policy.vocab.size, policy.max_len)
    before = _sequence_probs(policy, prompt_id, space)
    idx = space.index(target)
    weights = before.copy()
    weights[idx] *= np.exp(eta)
    after = weights / weights.sum()
    return SequenceSqueezeReport(
        space=space,
        before_seq_probs=before,
        after_seq_probs=after,
        y_minus=target,
        eta=float(eta),
        max_before=float(before.max()),
        max_after=float(after.max()),
    )


@dataclass(frozen=True)
class PeakednessRecord:
    prompt_id: int
    max_seq_prob_est: float  # probability of the greedy trajectory
    mean_token_entropy: float
    greedy_total_logp: float


def peakedness_trace(policy: PolicyTable, prompts) -> list[PeakednessRecord]:
    """Greedy-path sharpness diagnostics, one record per prompt."""
    records = []
    for prompt_id in prompts:
        traj = greedy_decode(policy, prompt_id)
        step_entropies = [
            entropy(np.exp(_log_probs(policy, prompt_id, traj.tokens[:t])))
            for t in range(len(traj.tokens))
        ]
        records.append(PeakednessRecord(
            prompt_id=prompt_id,
            max_seq_prob_est=float(np.exp(traj.total_logp)),
            mean_token_entropy=float(np.mean(step_entropies)),
            greedy_total_logp=traj.total_logp,
        ))
    return records
