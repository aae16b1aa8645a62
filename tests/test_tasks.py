"""Path tasks: validation, exact solution enumeration, suite generation."""
from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.errors import GenerationFailed, SuiteCorrupt
from squeezelab.policy import PolicyTable, Vocab, entropy, greedy_decode, prefix_ids, softmax
from squeezelab.tasks import (
    ENUMERATION_BOUND,
    FamilyParams,
    PathTaskSpec,
    Suite,
    TaskInstance,
    build_suite_policy,
    enumerate_correct,
    load_suite,
    make_benchmark_suite,
    skewed_base_policy,
    suite_json,
    validate,
)


def test_validate_reaching_target(diamond_task):
    assert validate(diamond_task, (0, 0)).reward == 1
    assert validate(diamond_task, (1, 0)).reward == 1
    assert validate(diamond_task, (0, 0)).extracted == 3


def test_validate_empty_sequence_when_start_is_not_target(diamond_task):
    result = validate(diamond_task, ())
    assert result.reward == 0
    assert result.extracted == 0


def test_validate_undefined_edge_fails_extraction(diamond_task):
    result = validate(diamond_task, (0, 1))  # no token-1 edge out of mid1
    assert result.reward == 0
    assert result.extracted is None


def test_validate_terminator_ends_walk_early(diamond_task):
    # Terminator (token 3) in step one stops the walk on the start node.
    assert validate(diamond_task, (3, 0)).reward == 0
    assert validate(diamond_task, (3, 0)).extracted == 0


def test_enumerate_correct_diamond(diamond_task):
    assert enumerate_correct(diamond_task) == {(0, 0), (1, 0)}


def test_enumerate_correct_ladder_has_ten_routes(ladder_task):
    correct = enumerate_correct(ladder_task)
    assert correct == {(i, 0) for i in range(10)}


def test_enumerate_correct_appends_terminator_for_short_paths():
    # Single edge to the target with room to spare: the sequence must
    # close with the terminator to count as complete.
    spec = PathTaskSpec(node_count=2, edges=((0, 1, 0),), start=0, target=1,
                        max_len=3, vocab_size=3)
    task = TaskInstance(prompt_id=0, label=1, spec=spec)
    assert (0, 2) in enumerate_correct(task)


def test_oracle_consistency_with_validator(diamond_task):
    correct = enumerate_correct(diamond_task)
    vocab = diamond_task.spec.vocab_size
    terminator = vocab - 1
    space = []
    for length in range(1, diamond_task.spec.max_len + 1):
        for seq in itertools.product(range(vocab), repeat=length):
            if terminator in seq[:-1]:
                continue
            complete = seq[-1] == terminator or length == diamond_task.spec.max_len
            if complete:
                space.append(seq)
    for seq in space:
        expected = 1 if seq in correct else 0
        assert validate(diamond_task, seq).reward == expected


def test_task_construction_rejects_trivial_and_unreachable():
    spec = PathTaskSpec(node_count=2, edges=((0, 1, 0),), start=0, target=0,
                        max_len=2, vocab_size=3)
    with pytest.raises(GenerationFailed):
        TaskInstance(prompt_id=0, label=0, spec=spec)
    spec = PathTaskSpec(node_count=3, edges=((0, 1, 0),), start=0, target=2,
                        max_len=2, vocab_size=3)
    with pytest.raises(GenerationFailed):
        TaskInstance(prompt_id=0, label=2, spec=spec)


def reference_reachable(spec, target):
    """Breadth-first search: some walk of at most max_len edges from the start ends at target."""
    frontier = seen = {spec.start}
    for _ in range(spec.max_len):
        frontier = {v for u, v, _t in spec.edges if u in frontier} - seen
        if target in frontier:
            return True
        seen = seen | frontier
    return False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_task_rejects_exactly_the_targets_a_bfs_cannot_reach(data):
    # Random deterministic graphs, self-loops and longer cycles allowed.
    nodes, vocab = data.draw(st.integers(2, 6)), data.draw(st.integers(3, 5))
    edge_map = data.draw(st.dictionaries(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, vocab - 2)), st.integers(0, nodes - 1)))
    start, label = data.draw(st.lists(st.integers(0, nodes - 1), min_size=2, max_size=2,
                                      unique=True))
    spec = PathTaskSpec(node_count=nodes, edges=tuple((u, v, t) for (u, t), v in edge_map.items()),
                        start=start, target=label, max_len=data.draw(st.integers(1, 6)),
                        vocab_size=vocab)
    try:
        task = TaskInstance(prompt_id=5, label=label, spec=spec)
    except GenerationFailed as exc:
        assert not reference_reachable(spec, label)
        assert str(exc) == f"task 5: target {label} unreachable within {spec.max_len} steps"
    else:
        assert reference_reachable(spec, label)
        assert set(task.correct_sequences) == enumerate_correct(task) != set()


def test_load_suite_names_an_entry_past_the_enumeration_bound(tmp_path):
    # Both nodes have three edges, cycles among them, so there are
    # (3^14 - 1) / 2 walks of at most 13 steps to enumerate.
    assert (3 ** 14 - 1) // 2 > ENUMERATION_BOUND
    entry = {"prompt_id": 0, "label": 1, "nodes": 2, "start": 0, "max_len": 13,
             "edges": [[0, 0, 0], [0, 0, 1], [0, 1, 2], [1, 0, 0], [1, 1, 1], [1, 0, 2]]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(SuiteCorrupt) as err:
        load_suite(path, 4, 13)
    assert err.value.entry == 0
    assert str(err.value) == f"entry 0: more than {ENUMERATION_BOUND} walks within length 13"


def test_spec_rejects_nondeterministic_edges():
    with pytest.raises(ValueError):
        PathTaskSpec(node_count=3, edges=((0, 1, 0), (0, 2, 0)), start=0,
                     target=2, max_len=2, vocab_size=3)


def test_spec_rejects_terminator_edge_label():
    with pytest.raises(ValueError):
        PathTaskSpec(node_count=2, edges=((0, 1, 2),), start=0, target=1,
                     max_len=2, vocab_size=3)


def test_make_benchmark_suite_deterministic():
    params = FamilyParams(count=6, min_solutions=6)
    a = make_benchmark_suite(77, params)
    b = make_benchmark_suite(77, params)
    assert [t.spec for t in a] == [t.spec for t in b]
    assert [t.label for t in a] == [t.label for t in b]


def test_make_benchmark_suite_meets_min_solutions():
    params = FamilyParams(count=8, min_solutions=10)
    suite = make_benchmark_suite(5, params)
    assert len(suite) == 8
    for task in suite:
        assert len(enumerate_correct(task)) >= 10


def test_skewed_base_policy_zero_skew_is_uniform(diamond_task):
    policy = skewed_base_policy(diamond_task, 0.0, seed=1)
    assert policy.stored_prefix_count == 0


def test_skewed_base_policy_large_skew_makes_boosted_path_greedy(diamond_task):
    policy = skewed_base_policy(diamond_task, 5.0, seed=3)
    traj = greedy_decode(policy, diamond_task.prompt_id)
    assert validate(diamond_task, traj.tokens).reward == 1


def test_skewed_base_policy_entropy_decreases_with_skew(diamond_task):
    entropies = []
    for skew in (0.0, 1.0, 2.0, 4.0):
        policy = skewed_base_policy(diamond_task, skew, seed=9)
        root = policy.logit_vector(diamond_task.prompt_id, ())
        entropies.append(entropy(softmax(root).probs))
    assert all(a > b for a, b in zip(entropies, entropies[1:]))


def test_build_suite_policy_covers_all_prompts():
    params = FamilyParams(count=4, min_solutions=4)
    suite = make_benchmark_suite(11, params)
    policy = build_suite_policy(suite, skew=4.0, seed=11)
    prompt_ids = {key[0] for key, _vec in policy.stored_items()}
    assert prompt_ids == {t.prompt_id for t in suite}


def test_suite_round_trip(tmp_path):
    params = FamilyParams(count=3, min_solutions=4)
    suite = make_benchmark_suite(21, params)
    path = tmp_path / "suite.json"
    path.write_text(suite_json(suite), encoding="utf-8")
    loaded = load_suite(path, params.vocab_size, params.max_len)
    assert [t.spec for t in loaded] == [t.spec for t in suite]


@pytest.mark.parametrize("text,entry,message", [
    ('[{"prompt_id": 0}]', 0, "entry 0: missing key 'edges'"),
    ("not json", None, "not a JSON file: Expecting value"),
    ("[{", None, "not a JSON file: "),
    ('{"prompt_id": 0}', None, "expected a JSON list of tasks, got dict"),
    ("[]", None, "expected a non-empty JSON list of tasks"),
    ('[{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2},'
     ' {"prompt_id": 1, "label": 1, "nodes": 2, "edges": [[0, 1, 7]], "start": 0, "max_len": 2}]',
     1, "entry 1: edge token 7 outside vocab of size 4"),
    ('[{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1]], "start": 0, "max_len": 2}]',
     0, "entry 0: not enough values to unpack"),
    ("[3]", 0, "entry 0: "),
    ('[{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2},'
     ' {"prompt_id": -1, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2}]',
     1, "entry 1: prompt_id -1 is negative"),
    ('[{"prompt_id": 3, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2},'
     ' {"prompt_id": 3, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2}]',
     1, "entry 1: prompt_id 3 is negative or repeats an earlier one"),
    ('[{"prompt_id": 0, "label": 0, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2}]',
     0, "entry 0: task 0: start equals target (trivial task)"),
    ('[{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2},'
     ' {"prompt_id": 4, "label": 3, "nodes": 4, "edges": [[0, 1, 0], [1, 2, 0], [2, 3, 0]],'
     ' "start": 0, "max_len": 2}]',
     1, "entry 1: task 4: target 3 unreachable within 2 steps"),
    ('[{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 2},'
     ' {"prompt_id": 1, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0, "max_len": 3}]',
     1, "entry 1: max_len 3 is not the checkpoint's max_len 2"),
])
def test_load_suite_names_the_corrupt_entry(text, entry, message, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SuiteCorrupt) as err:
        load_suite(path, 4, 2)
    assert err.value.entry == entry
    assert str(err.value).startswith(message)


def test_reward_is_binary_over_random_walks(diamond_task, ladder_task):
    rng = np.random.default_rng(2)
    for task in (diamond_task, ladder_task):
        vocab = task.spec.vocab_size
        for _ in range(200):
            length = int(rng.integers(0, task.spec.max_len + 1))
            seq = tuple(rng.integers(vocab, size=length))
            assert validate(task, seq).reward in (0, 1)


def test_a_suite_joins_its_tables_once_and_keeps_them():
    params = FamilyParams(count=4, max_len=3, min_solutions=2, mid_layers=1)
    suite = make_benchmark_suite(5, params)
    assert isinstance(suite, Suite) and Suite(suite) is suite
    joined = suite.correct
    # Each table is built on its first read and kept; a suite handed down
    # reads the same tables.
    assert suite.correct is joined and Suite(suite).walks is suite.walks
    table = PolicyTable(Vocab(params.vocab_size), params.max_len)
    sequences = [(task.prompt_id, tokens) for task in suite for tokens in task.correct_sequences]
    assert joined.batch.ids.tolist() == [i for pid, tokens in sequences
                                         for i in prefix_ids(table, pid, tokens)]
    assert joined.batch.tokens.tolist() == [t for _, tokens in sequences for t in tokens]
    assert joined.sizes.tolist() == [len(task.correct_sequences) for task in suite]
    assert joined.owners.tolist() == [i for i, task in enumerate(suite)
                                      for _ in task.correct_sequences]
    # A second Suite of the same tasks builds its own tables, equal to these.
    again = Suite(list(suite))
    assert again is not suite and again == suite
    assert again.correct is not joined and np.array_equal(again.correct.batch.ids, joined.batch.ids)
    assert again.walks[0] is not suite.walks[0]
    assert all(map(np.array_equal, again.walks, suite.walks))
    wider = dataclasses.replace(suite[1], spec=dataclasses.replace(suite[1].spec, vocab_size=5))
    with pytest.raises(ValueError, match="share vocab_size and max_len"):
        Suite([suite[0], wider])
    with pytest.raises(ValueError, match="empty task suite"):
        Suite([])
