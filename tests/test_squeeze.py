"""Closed-form squeeze algebra checked against direct softmax recomputation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from squeezelab.errors import InvalidToken, NotASqueezeSetting, SpaceTooLarge
from squeezelab.policy import PolicyTable, Vocab, greedy_decode
from squeezelab.squeeze import (
    enumerate_sequence_space,
    peakedness_trace,
    penalize_token,
    sequence_squeeze,
    verify_squeeze,
)

from conftest import random_policy

# Oracle digits (mpmath) for logits [2, 1, 0, -3], m=3, eta=-1.
ORACLE_DENOM = 0.997179252765
ORACLE_AFTER0 = 0.664145800956
ORACLE_AFTER3 = 0.00164625284974


def test_penalize_token_reference_case():
    new_logits, report = penalize_token([2.0, 1.0, 0.0, -3.0], 3, -1.0)
    np.testing.assert_allclose(new_logits, [2.0, 1.0, 0.0, -4.0], atol=0)
    np.testing.assert_allclose(report.denom, ORACLE_DENOM, atol=1e-10)
    np.testing.assert_allclose(report.after.probs[0], ORACLE_AFTER0, atol=1e-10)
    np.testing.assert_allclose(report.after.probs[3], ORACLE_AFTER3, atol=1e-10)
    np.testing.assert_allclose(report.scale_factor, 1.0 / ORACLE_DENOM, atol=1e-10)
    np.testing.assert_allclose(report.mass_delta.sum(), 0.0, atol=1e-12)


def test_penalize_token_zero_eta_is_identity():
    _, report = penalize_token([0.3, -0.2, 1.4], 1, 0.0)
    np.testing.assert_allclose(report.after.probs, report.before.probs, atol=0)
    np.testing.assert_allclose(report.denom, 1.0, atol=1e-15)


def test_penalize_token_uniform_hand_algebra():
    _, report = penalize_token([5.0, 5.0, 5.0, 5.0], 0, -math.log(2))
    np.testing.assert_allclose(report.denom, 0.875, atol=1e-12)
    np.testing.assert_allclose(report.after.probs[0], 1 / 7, atol=1e-12)
    np.testing.assert_allclose(report.after.probs[1:], [2 / 7] * 3, atol=1e-12)


def test_penalize_token_range_check():
    with pytest.raises(InvalidToken):
        penalize_token([0.0, 1.0], 2, -1.0)


def test_verify_squeeze_reference_case_all_pass():
    _, report = penalize_token([2.0, 1.0, 0.0, -3.0], 3, -1.0)
    checks = verify_squeeze(report)
    assert [c.name for c in checks] == [
        "closed_form_match",
        "penalized_mass_drops",
        "common_factor_above_one",
        "dominant_gains_most",
        "max_prob_nondecreasing",
    ]
    assert all(c.passed for c in checks)


def test_verify_squeeze_deep_penalty_mass_flows_to_argmax():
    logits = [3.0, 1.0, 0.0, -6.0]
    _, report = penalize_token(logits, 3, -10.0)
    assert all(c.passed for c in verify_squeeze(report))
    # Nearly all removed mass lands on the argmax in proportion to its share.
    removed = report.before.probs[3] - report.after.probs[3]
    share = report.before.probs[0] / (1.0 - report.before.probs[3])
    np.testing.assert_allclose(report.mass_delta[0], removed * share, rtol=1e-9)
    assert report.mass_delta[0] == report.mass_delta.max()


def test_verify_squeeze_rejects_non_squeeze_settings():
    _, report = penalize_token([2.0, 1.0, 0.0, -3.0], 0, -1.0)
    with pytest.raises(NotASqueezeSetting):
        verify_squeeze(report)  # penalizing the argmax
    _, report = penalize_token([2.0, 1.0, 0.0, -3.0], 3, 0.5)
    with pytest.raises(NotASqueezeSetting):
        verify_squeeze(report)  # eta must be negative


def test_closed_form_against_random_cases():
    rng = np.random.default_rng(17)
    for _ in range(300):
        dim = int(rng.integers(2, 65))
        logits = rng.normal(scale=2.0, size=dim)
        m = int(rng.integers(dim))
        eta = float(-rng.uniform(1e-3, 5.0))
        _, report = penalize_token(logits, m, eta)
        others = np.arange(dim) != m
        np.testing.assert_allclose(
            report.after.probs[others], report.before.probs[others] / report.denom,
            atol=1e-12)
        np.testing.assert_allclose(
            report.after.probs[m], report.before.probs[m] * math.exp(eta) / report.denom,
            atol=1e-12)
        ratios = report.after.probs[others] / report.before.probs[others]
        assert ratios.max() - ratios.min() < 1e-12


def test_eta_to_minus_infinity_limit():
    logits = np.array([1.5, 0.2, -0.7, 0.9])
    _, report = penalize_token(logits, 2, -30.0)
    p = report.before.probs
    assert report.after.probs[2] < 1e-9
    expected = p / (1.0 - p[2])
    others = np.arange(4) != 2
    np.testing.assert_allclose(report.after.probs[others], expected[others], atol=1e-9)


def test_sequence_squeeze_uniform_reference_case():
    policy = PolicyTable(Vocab(2), max_len=2)
    report = sequence_squeeze(policy, (0, 0), -1.0)
    np.testing.assert_allclose(report.before_seq_probs, [0.25] * 4, atol=1e-12)
    np.testing.assert_allclose(report.after_seq_probs.sum(), 1.0, atol=1e-9)
    idx = report.space.index((0, 0))
    np.testing.assert_allclose(report.after_seq_probs[idx], 0.109231772573, atol=1e-9)
    others = [i for i in range(4) if i != idx]
    np.testing.assert_allclose(report.after_seq_probs[others], 0.296922742476, atol=1e-9)


def test_sequence_squeeze_zero_eta_identity():
    rng = np.random.default_rng(3)
    policy = random_policy(3, 2, rng)
    report = sequence_squeeze(policy, (1, 2), 0.0)
    np.testing.assert_allclose(report.after_seq_probs, report.before_seq_probs, atol=0)


def test_sequence_squeeze_max_after_never_drops_on_random_policies():
    rng = np.random.default_rng(23)
    for trial in range(50):
        vocab = int(rng.integers(2, 4))
        max_len = int(rng.integers(2, 4))
        policy = random_policy(vocab, max_len, rng, scale=1.2)
        report = sequence_squeeze(
            policy, tuple(rng.integers(vocab, size=max_len)), float(-rng.uniform(0.1, 3)))
        np.testing.assert_allclose(report.before_seq_probs.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(report.after_seq_probs.sum(), 1.0, atol=1e-9)
        modal = report.space[int(np.argmax(report.before_seq_probs))]
        if report.y_minus != modal:
            assert report.max_after >= report.max_before - 1e-12


def test_sequence_space_bound():
    with pytest.raises(SpaceTooLarge):
        enumerate_sequence_space(10, 6)


def test_peakedness_trace_uniform_policy():
    policy = PolicyTable(Vocab(4), max_len=5)
    records = peakedness_trace(policy, [0, 1])
    assert [r.prompt_id for r in records] == [0, 1]
    for rec in records:
        np.testing.assert_allclose(rec.greedy_total_logp, 5 * math.log(0.25), atol=1e-10)
        np.testing.assert_allclose(rec.mean_token_entropy, math.log(4), atol=1e-10)
        np.testing.assert_allclose(rec.max_seq_prob_est, 0.25 ** 5, atol=1e-12)


def test_peakedness_trace_one_hot_policy_has_near_zero_entropy():
    policy = PolicyTable(Vocab(4), max_len=3)
    for prefix in [(), (1,), (1, 1)]:
        vec = np.zeros(4)
        vec[1] = 20.0
        policy.set_logits(0, prefix, vec)
    rec = peakedness_trace(policy, [0])[0]
    assert rec.mean_token_entropy < 1e-6


def test_repeated_penalties_never_reduce_argmax_probability():
    rng = np.random.default_rng(31)
    logits = rng.normal(size=5)
    argmax = int(np.argmax(logits))
    prev = np.max(np.exp(logits) / np.exp(logits).sum())
    for step in range(25):
        m = int(rng.integers(5))
        if m == argmax:
            continue
        logits, report = penalize_token(logits, m, -0.4)
        cur = float(report.after.probs.max())
        assert cur >= prev - 1e-12
        prev = cur
