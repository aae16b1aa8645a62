"""Pass@k estimators, histograms, diversity, coverage, and drift metrics."""
from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from functools import cached_property
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab import metrics as metrics_module
from squeezelab import tasks as tasks_module
from squeezelab.artifacts import csv_text, json_text
from squeezelab.errors import InsufficientSamples, KExceedsN
from squeezelab.metrics import (
    BUCKET_CENTERS,
    SampleMatrix,
    accuracy_histogram,
    avg_at_k,
    evaluation_report,
    greedy_logprob_report,
    mean_mass_on_correct,
    pass_at_k_exact,
    pass_at_k_mc,
    pass_at_k_unbiased,
    sample_matrix,
    sample_similarities,
    similarity,
    support_coverage,
)
from squeezelab.policy import (
    PolicyTable,
    Vocab,
    apply_update,
    derive_rng,
    grad_log_prob,
    greedy_decode_batch,
    make_trajectory,
    trajectory_log_prob,
)
from squeezelab.sps import SpsConfig, sps_loop
from squeezelab.tasks import (
    FamilyParams,
    PathTaskSpec,
    Suite,
    TaskInstance,
    build_suite_policy,
    enumerate_correct,
    make_benchmark_suite,
    skewed_base_policy,
)

from conftest import (batch_sequences, by_id, by_key, random_policy,
                      reference_support_coverage)


def matrix_from_counts(counts, n):
    """One reward row per entry of counts, each with that many leading ones."""
    rows = [[1] * c + [0] * (n - c) for c in counts]
    return SampleMatrix(prompt_ids=tuple(range(len(counts))),
                        rewards=np.asarray(rows, dtype=int))


# ---------------------------------------------------------------------------
# pass@k


def test_pass_at_k_boundary_values():
    for k in range(1, 9):
        assert pass_at_k_unbiased(8, 0, k) == 0.0
        assert pass_at_k_unbiased(8, 8, k) == 1.0
    np.testing.assert_allclose(pass_at_k_unbiased(8, 2, 4),
                               1.0 - 15.0 / 70.0, atol=1e-9)
    np.testing.assert_allclose(pass_at_k_unbiased(8, 2, 4), 0.785714, atol=1e-6)


def test_pass_at_k_validates_arguments():
    with pytest.raises(KExceedsN):
        pass_at_k_unbiased(8, 2, 9)
    with pytest.raises(ValueError):
        pass_at_k_unbiased(8, 9, 1)
    with pytest.raises(ValueError):
        pass_at_k_unbiased(8, 2, 0)


def test_pass_at_one_is_exactly_the_accuracy():
    for n in range(1, 13):
        for c in range(n + 1):
            assert pass_at_k_unbiased(n, c, 1) == c / n


def test_pass_at_k_matches_subset_enumeration_bitwise():
    # Treat the first c of n samples as correct and average the subset max
    # over every k-subset. The estimator must reproduce this float exactly.
    for n in range(2, 13):
        for k in range(1, n + 1):
            combos = list(itertools.combinations(range(n), k))
            for c in range(n + 1):
                hits = sum(1 for combo in combos if combo[0] < c)
                assert pass_at_k_unbiased(n, c, k) == hits / len(combos)


def test_pass_at_k_monotone_in_k_and_c():
    for n in (5, 8, 11):
        for c in range(n + 1):
            vals = [pass_at_k_unbiased(n, c, k) for k in range(1, n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for k in (1, 2, n):
            vals = [pass_at_k_unbiased(n, c, k) for c in range(n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", [0.0, 1e-6, 0.05, 0.125, 1 / 3, 0.5, 0.81, 0.97, 1.0])
def test_exact_pass_at_k_is_the_expectation_of_the_unbiased_estimator(p):
    # With c ~ Binomial(n, p) correct samples, the estimator's mean is the
    # i.i.d. Pass@k 1 - (1 - p)^k, so the exact form replaces the sampled one.
    n = 8
    for k in range(1, n + 1):
        expected = math.fsum(math.comb(n, c) * p ** c * (1 - p) ** (n - c)
                             * pass_at_k_unbiased(n, c, k) for c in range(n + 1))
        assert abs(expected - pass_at_k_exact(p, k)) <= 1e-12
    assert pass_at_k_exact(p, 1) == 1.0 - (1.0 - p)
    with pytest.raises(ValueError):
        pass_at_k_exact(p, 0)


def test_mean_mass_on_correct_is_the_reports_support_mass(diamond_task):
    rng = np.random.default_rng(4)
    policy = PolicyTable(Vocab(4), max_len=2)
    suite = [diamond_task, TaskInstance(prompt_id=1, label=diamond_task.label,
                                        spec=diamond_task.spec)]
    for task in suite:
        for tokens in ((), (0,), (1,)):
            policy.set_logits(task.prompt_id, tokens, rng.normal(size=4))
    report = evaluation_report(policy, policy, suite, "unit", n=4, ks=[1],
                               prob_floor=0.5, rng=derive_rng(5))
    mass = mean_mass_on_correct(support_coverage(policy, suite, 0.0))
    assert mass == report["support"]["mass"]
    assert mass == float(np.mean([reference_coverage(policy, task, 0.0)[2] for task in suite]))


def test_pass_at_k_monte_carlo_agrees_with_closed_form(diamond_task):
    # Uniform policy: each of the two correct length-2 paths has mass 1/16,
    # so a single draw succeeds with p = 1/8 and pass@4 = 1 - (7/8)^4.
    policy = PolicyTable(Vocab(4), max_len=2)
    est = pass_at_k_mc(policy, diamond_task, k=4, trials=10_000,
                       rng=derive_rng(99, 0))
    truth = 1.0 - (7.0 / 8.0) ** 4
    assert est.method == "monte_carlo"
    assert est.stderr is not None and est.stderr > 0
    assert abs(est.value - truth) <= 3.0 * est.stderr


@pytest.mark.parametrize("k", [0, -1])
def test_pass_at_k_monte_carlo_rejects_k_below_one(diamond_task, k):
    policy = PolicyTable(Vocab(4), max_len=2)
    with pytest.raises(ValueError, match="need k >= 1"):
        pass_at_k_mc(policy, diamond_task, k=k, trials=3, rng=derive_rng(99, 0))


def test_avg_at_k_mixes_prompt_rates():
    matrix = matrix_from_counts([1, 3], n=4)
    np.testing.assert_allclose(avg_at_k(matrix), 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# histogram


def test_histogram_all_unsolved():
    hist = accuracy_histogram(matrix_from_counts([0] * 7, n=6))
    assert hist.bucket_edges == BUCKET_CENTERS
    assert hist.counts == (7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_histogram_exact_bucket_centers_and_ties_up():
    # Rate 0.1 lands on its center; rate 0.05 ties upward into the same
    # bucket; rate 1.0 fills the last one.
    hist = accuracy_histogram(matrix_from_counts([1], n=10))
    assert hist.counts[1] == 1
    hist = accuracy_histogram(matrix_from_counts([1], n=20))
    assert hist.counts[1] == 1
    hist = accuracy_histogram(matrix_from_counts([10], n=10))
    assert hist.counts[10] == 1


def test_histogram_skewed_suite_fixture():
    counts_per_prompt = [0] * 98 + [1] * 44 + [2] * 5 + [3] * 2 + [4]
    assert len(counts_per_prompt) == 150
    hist = accuracy_histogram(matrix_from_counts(counts_per_prompt, n=10))
    assert hist.counts == (98, 44, 5, 2, 1, 0, 0, 0, 0, 0, 0)
    lines = csv_text(("bucket", "count"), zip(hist.bucket_edges, hist.counts)).splitlines()
    assert lines[0] == "bucket,count"
    assert lines[1] == "0.0,98"
    assert lines[2] == "0.1,44"
    assert len(lines) == 12


# ---------------------------------------------------------------------------
# similarity


def test_similarity_identical_and_disjoint():
    assert similarity([(0, 1, 2), (0, 1, 2)]) == 100.0
    assert similarity([(0, 1), (2, 3)]) == 0.0


def test_similarity_one_third_overlap():
    np.testing.assert_allclose(similarity([(0, 1, 2), (0, 1, 3)]),
                               33.333, atol=1e-2)
    np.testing.assert_allclose(similarity([(0, 1, 2), (0, 1, 3)]),
                               100.0 / 3.0, atol=1e-9)


def test_similarity_symmetric_and_permutation_invariant():
    trio = [(0, 1, 2), (0, 1, 3), (4, 5)]
    baseline = similarity(trio)
    for perm in itertools.permutations(trio):
        assert similarity(list(perm)) == baseline
    assert similarity([trio[1], trio[0]]) == similarity([trio[0], trio[1]])


def test_similarity_short_sequences_count_as_identical():
    # No bigrams on either side: empty sets compare equal.
    assert similarity([(0,), (1,)]) == 100.0


def test_similarity_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        similarity([(0, 1)])


def reference_similarity(sequences):
    """The all-pairs loop: every pair's Jaccard value added exactly, as a
    Fraction, and 100 times the mean rounded once."""
    sets = [frozenset(zip(tokens, tokens[1:])) for tokens in sequences]
    total = Fraction(0)
    pairs = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            union = len(a | b)
            total += 1 if union == 0 else Fraction(len(a & b), union)
            pairs += 1
    return float(100 * total / pairs)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.lists(st.integers(0, 3), max_size=6).map(tuple), min_size=1,
                     max_size=8),
       data=st.data())
def test_similarity_matches_the_all_pairs_loop(pool, data):
    # A one-sequence pool gives all-identical samples; lengths 0 and 1 give
    # empty bigram sets; small pools repeat sequences.
    n = data.draw(st.integers(2, 60))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    items = [pool[p] for p in picks]
    assert similarity(items) == reference_similarity(items)


def test_similarity_of_600_samples_is_exact():
    # 600 samples of 42 distinct sequences, some with empty bigram sets.
    rng = np.random.default_rng(24)
    pool = [(), (3,)] + [tuple(rng.integers(0, 4, size=rng.integers(2, 8)).tolist())
                         for _ in range(40)]
    items = [pool[p] for p in rng.integers(0, len(pool), 600)]
    assert similarity(items) == reference_similarity(items)


def test_similarity_is_exact_past_int64():
    # Long sequences over 40 tokens: the lcm of the union sizes up to the
    # largest passes 2**63, so the sums are taken in Python ints.
    rng = np.random.default_rng(31)
    pool = [tuple(rng.integers(0, 40, size=rng.integers(2, 30)).tolist()) for _ in range(12)]
    items = [pool[p] for p in rng.integers(0, len(pool), 50)]
    sets = [frozenset(zip(tokens, tokens[1:])) for tokens in pool]
    assert math.lcm(*range(1, max(len(a | b) for a in sets for b in sets) + 1)) >= 1 << 63
    assert similarity(items) == reference_similarity(items)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data())
def test_one_kernel_call_gives_each_prompts_similarity(seed, n, data):
    # Several prompts' samples in one call: a repeated task, a task moved to
    # a negative prompt id, and a cell budget small enough that the prompts
    # are taken a few at a time, or one at a time.
    suite = make_benchmark_suite(seed % 1000, FamilyParams(count=3, max_len=5, mid_layers=3))
    policy = build_suite_policy(suite, data.draw(st.sampled_from([0.0, 2.0])), seed)
    tasks = [*suite, suite[0], replace(suite[1], prompt_id=-7)]
    matrix = sample_matrix(policy, tasks, n, np.random.default_rng(seed))
    samples = batch_sequences(matrix.batch)
    expected = [reference_similarity(samples[i * n:(i + 1) * n]) for i in range(len(tasks))]
    assert [similarity(samples[i * n:(i + 1) * n]) for i in range(len(tasks))] == expected
    for cells in (1, 64, 1 << 16):
        with mock.patch.object(metrics_module, "_SIMILARITY_CELLS", cells):
            assert sample_similarities(policy, matrix) == expected


# ---------------------------------------------------------------------------
# coverage and drift


def test_support_coverage_uniform_diamond(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    (rec,) = support_coverage(policy, [diamond_task], prob_floor=0.01)
    assert (rec.covered, rec.total) == (2, 2)
    np.testing.assert_allclose(rec.mass_on_correct, 0.125, atol=1e-12)
    # A floor above 1/16 hides both paths but leaves the mass untouched.
    (rec,) = support_coverage(policy, [diamond_task], prob_floor=0.07)
    assert rec.covered == 0
    np.testing.assert_allclose(rec.mass_on_correct, 0.125, atol=1e-12)


def test_support_coverage_zero_floor_counts_everything(diamond_task):
    policy = skewed_base_policy(diamond_task, 3.0, seed=0)
    (rec,) = support_coverage(policy, [diamond_task], prob_floor=0.0)
    assert rec.covered == rec.total == 2


def test_support_coverage_skew_hides_the_off_path(diamond_task):
    policy = skewed_base_policy(diamond_task, 5.0, seed=0)
    (rec,) = support_coverage(policy, [diamond_task], prob_floor=0.01)
    assert rec.covered == 1
    assert rec.mass_on_correct > 0.9


def reference_coverage(policy, task, prob_floor):
    """(covered, total, mass) from one trajectory_log_prob per correct sequence."""
    correct = enumerate_correct(task)
    covered = 0
    mass = 0.0
    for tokens in correct:
        p = math.exp(trajectory_log_prob(policy, task.prompt_id, tokens)[1])
        mass += p
        covered += p >= prob_floor
    return covered, len(correct), mass


def _bits(records):
    return [(rec.covered, rec.total, rec.mass_on_correct.hex()) for rec in records]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(1, 6), data=st.data())
def test_support_coverage_matches_the_per_sequence_loop(seed, max_len, data):
    params = FamilyParams(count=3, vocab_size=data.draw(st.integers(3, 5)), max_len=max_len,
                          min_solutions=1, mid_layers=data.draw(st.integers(0, max_len - 1)),
                          layer_width=data.draw(st.integers(1, 3)))
    suite = make_benchmark_suite(seed, params)
    # Without skew every prefix reads row 0; with it only the boosted path is stored.
    policy = build_suite_policy(suite, data.draw(st.sampled_from([0.0, 3.0])), seed)
    rng = np.random.default_rng(seed)
    # Task lists called in turn, none of which may read another's joined sets:
    # another suite at the same shape, a subset, the suite reordered, and a
    # copy with every prompt moved by 3.
    other = make_benchmark_suite(seed + 1, params)
    subset = data.draw(st.lists(st.sampled_from(suite), min_size=1, max_size=3))
    shifted = [replace(task, prompt_id=task.prompt_id + 3) for task in suite]
    lists = [suite, other, suite, subset, suite[::-1], shifted, other, shifted]
    for _ in range(data.draw(st.integers(0, 3)) + 1):
        for floor in (0.0, 1e-4, 1.0):
            records = support_coverage(policy, suite, floor)
            assert len(records) == len(suite)
            for rec, task in zip(records, suite):
                assert (rec.covered, rec.total, rec.mass_on_correct) == \
                    reference_coverage(policy, task, floor)
            for tasks in lists:
                assert _bits(support_coverage(policy, tasks, floor)) == \
                    _bits(reference_support_coverage(policy, tasks, floor))
        # Rows added after the table's first read: one correct sequence of
        # some task, and a prefix no correct sequence of it reaches.
        task = suite[int(rng.integers(len(suite)))]
        correct = sorted(enumerate_correct(task))
        tokens = correct[int(rng.integers(len(correct)))]
        gradient = by_key(policy, grad_log_prob(policy, make_trajectory(policy, task.prompt_id,
                                                                        tokens)))
        gradient[(task.prompt_id, (params.vocab_size - 1,))] = rng.normal(size=params.vocab_size)
        policy = apply_update(policy, by_id(policy, gradient), float(rng.choice([0.5, 5.0])))


def test_support_coverage_rejects_a_policy_of_another_shape(diamond_task):
    # The task's cached set is numbered at vocab 4 and max_len 2; no other
    # shape reads it, wider or narrower, and a suite is checked task by task.
    for size, max_len in ((4, 1), (4, 3), (5, 2), (3, 2)):
        with pytest.raises(ValueError) as err:
            support_coverage(PolicyTable(Vocab(size), max_len), [diamond_task], 1e-4)
        assert str(err.value) == (f"task 0 at vocab=4 max_len=2, "
                                  f"policy at vocab={size} max_len={max_len}")
    # At max_len 1 the diamond has no solution, so no such task exists.
    for size, max_len in ((4, 3), (5, 2), (3, 2)):
        spec = replace(diamond_task.spec, vocab_size=size, max_len=max_len)
        suite = [diamond_task, TaskInstance(prompt_id=1, label=diamond_task.label, spec=spec)]
        with pytest.raises(ValueError) as err:
            support_coverage(PolicyTable(Vocab(4), 2), suite, 1e-4)
        assert str(err.value) == (f"task 1 at vocab={size} max_len={max_len}, "
                                  f"policy at vocab=4 max_len=2")


def test_training_and_evaluation_enumerate_each_task_once(monkeypatch):
    # A small ledger_deep-style run: generation, skew, the per-step ledger
    # and the evaluation report all read one enumeration per task, and one
    # join of the suite's correct sets and of its walk tables.
    original = tasks_module.enumerate_correct
    calls = Counter()

    def counting(task):
        calls[task] += 1
        return original(task)

    for name, module in list(sys.modules.items()):
        if name.startswith("squeezelab") and getattr(module, "enumerate_correct", None) is original:
            monkeypatch.setattr(module, "enumerate_correct", counting)
    builds = Counter()
    for table in ("correct", "walks"):
        def counted(suite, build=getattr(Suite, table).func, table=table):
            builds[table, id(suite)] += 1
            return build(suite)
        prop = cached_property(counted)
        prop.__set_name__(Suite, table)
        monkeypatch.setattr(Suite, table, prop)
    suite = make_benchmark_suite(4, FamilyParams(count=4, max_len=5, mid_layers=3))
    base = build_suite_policy(suite, 4.0, 4)
    cfg = SpsConfig(max_iterations=2, rl_steps_per_iteration=2, irl_steps_per_iteration=2,
                    trace_metrics=True)
    final, _ = sps_loop(base, suite, cfg, 4)
    evaluation_report(final, base, suite, "guard", n=16, ks=[1, 4], prob_floor=1e-4,
                      rng=derive_rng(4))
    assert all(calls[task] == 1 for task in suite)
    assert max(calls.values()) == 1
    assert builds == {("correct", id(suite)): 1, ("walks", id(suite)): 1}


def test_greedy_drift_zero_against_self(diamond_task):
    policy = skewed_base_policy(diamond_task, 2.0, seed=1)
    report = greedy_logprob_report(policy, policy, [diamond_task])
    assert report.mean_drift == 0.0
    assert all(r.drift == 0.0 for r in report.rows)
    np.testing.assert_allclose(report.mean_current, report.mean_base, rtol=1e-15)


def test_greedy_drift_positive_after_sharpening(diamond_task):
    base = PolicyTable(Vocab(4), max_len=2)
    sharp = skewed_base_policy(diamond_task, 5.0, seed=1)
    report = greedy_logprob_report(sharp, base, [diamond_task])
    assert report.mean_drift > 0.0
    row = report.rows[0]
    np.testing.assert_allclose(row.drift,
                               row.greedy_logp_current - row.greedy_logp_base,
                               rtol=1e-15)
    np.testing.assert_allclose(report.mean_base, 2 * math.log(0.25), atol=1e-12)


def test_exact_quantities_survive_token_relabelling():
    # Relabel the edge tokens of a task, and the columns and prefixes of a
    # policy with random (so tie-free) logits at every prefix, by one
    # permutation that keeps the terminator. Coverage counts and the greedy
    # decode map through it. The mass and the greedy log-prob agree only to
    # rounding: the correct set iterates in token-id order, and the
    # log-softmax adds its terms in that order. The sampler reads cumulative
    # probabilities in token-id order too, so sampled runs are not
    # invariant; similarity reads only which bigrams samples share, so
    # relabelled samples keep its bits.
    task = make_benchmark_suite(4, FamilyParams(count=1, max_len=5, mid_layers=3))[0]
    perm = (2, 0, 1, 3)

    def relabel(tokens):
        return tuple(perm[t] for t in tokens)

    spec = task.spec
    moved = TaskInstance(task.prompt_id, task.label, PathTaskSpec(
        node_count=spec.node_count, edges=tuple((u, v, perm[t]) for u, v, t in spec.edges),
        start=spec.start, target=spec.target, max_len=spec.max_len,
        vocab_size=spec.vocab_size))
    policy = random_policy(4, spec.max_len, np.random.default_rng(10), (task.prompt_id,))
    moved_policy = PolicyTable(Vocab(4), spec.max_len)
    for (prompt_id, prefix), vec in policy.stored_items():
        assert len(set(vec.tolist())) == 4
        moved_vec = np.empty(4)
        moved_vec[list(perm)] = vec
        moved_policy.set_logits(prompt_id, relabel(prefix), moved_vec)

    assert set(moved.correct_sequences) == set(map(relabel, task.correct_sequences))
    for floor in (0.0, 5e-4, 1e-3, 2e-3):
        (rec,) = support_coverage(policy, [task], floor)
        (moved_rec,) = support_coverage(moved_policy, [moved], floor)
        assert (moved_rec.covered, moved_rec.total) == (rec.covered, rec.total)
        assert moved_rec.mass_on_correct == pytest.approx(rec.mass_on_correct, rel=1e-14)
    greedy = greedy_decode_batch(policy, [task.prompt_id])
    moved_greedy = greedy_decode_batch(moved_policy, [task.prompt_id])
    assert moved_greedy[0].tokens.tolist() == list(relabel(greedy[0].tokens.tolist()))
    assert moved_greedy[2][0] == pytest.approx(greedy[2][0], rel=1e-14)

    samples = batch_sequences(sample_matrix(policy, [task], 300, np.random.default_rng(11)).batch)
    assert similarity([relabel(s) for s in samples]) == similarity(samples)


# ---------------------------------------------------------------------------
# sampling and the assembled report


def test_sample_matrix_shape_and_determinism(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    a = sample_matrix(policy, [diamond_task], 6, derive_rng(3, 1))
    b = sample_matrix(policy, [diamond_task], 6, derive_rng(3, 1))
    assert a.prompt_ids == (0,)
    assert a.rewards.shape == (1, 6)
    assert a.n == 6 and a.prompt_count == 1
    np.testing.assert_array_equal(a.rewards, b.rewards)
    samples_a, samples_b = batch_sequences(a.batch), batch_sequences(b.batch)
    assert len(samples_a) == 6 and samples_a == samples_b


@pytest.mark.parametrize("iterations", [0, 1])
def test_sampled_pass_at_k_centres_on_the_exact_value(iterations):
    # The mean of the unbiased Pass@k over seed-pinned sample matrices lies
    # within 4 standard errors of the exact 1 - (1 - p)^k of each task's
    # mass p, averaged over a default suite, on the base policy and after
    # an SPS iteration. The standard error is exact: each task's estimator
    # variance summed over its Binomial(n, p) reward counts.
    suite = make_benchmark_suite(5, FamilyParams())
    policy = build_suite_policy(suite, 4.0, 5)
    if iterations:
        policy, _ = sps_loop(policy, suite, SpsConfig(max_iterations=iterations), 5)
    n, draws = 16, 150
    counts = np.array([sample_matrix(policy, suite, n, derive_rng(77, d)).rewards.sum(axis=1)
                       for d in range(draws)])
    masses = [rec.mass_on_correct for rec in support_coverage(policy, suite, 0.0)]
    for k in (1, 4):
        exact = [pass_at_k_exact(p, k) for p in masses]
        variance = sum(math.comb(n, c) * p ** c * (1 - p) ** (n - c)
                       * (pass_at_k_unbiased(n, c, k) - e) ** 2
                       for p, e in zip(masses, exact) for c in range(n + 1)) / len(suite) ** 2
        sampled = np.mean([[pass_at_k_unbiased(n, int(c), k) for c in row] for row in counts])
        z = (sampled - np.mean(exact)) / math.sqrt(variance / draws)
        assert abs(z) < 4.0, (k, z)


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix(prompt_ids=(0,), rewards=np.array([0, 1]))
    with pytest.raises(ValueError):
        SampleMatrix(prompt_ids=(0,), rewards=np.array([[0, 2]]))


def test_evaluation_report_schema(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    report = evaluation_report(policy, policy, [diamond_task], "unit", n=8,
                               ks=[1, 4], prob_floor=1e-4, rng=derive_rng(5))
    assert set(report) == {"suite", "n", "k", "pass_at_k", "avg_at_k",
                           "histogram", "similarity_bigram_jaccard",
                           "greedy_drift_mean", "support"}
    assert report["suite"] == "unit"
    assert report["k"] == [1, 4]
    assert set(report["pass_at_k"]) == {"1", "4"}
    assert report["pass_at_k"]["4"] >= report["pass_at_k"]["1"]
    assert len(report["histogram"]["counts"]) == 11
    assert report["support"]["total"] == 2
    assert report["greedy_drift_mean"] == 0.0
    text = json_text(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_evaluation_report_clamps_oversized_k(diamond_task):
    policy = PolicyTable(Vocab(4), max_len=2)
    with pytest.warns(UserWarning, match="clamping k=9"):
        report = evaluation_report(policy, policy, [diamond_task], "unit",
                                   n=4, ks=[1, 9, 4], prob_floor=1e-4,
                                   rng=derive_rng(6))
    assert report["k"] == [1, 4]
    assert set(report["pass_at_k"]) == {"1", "4"}
