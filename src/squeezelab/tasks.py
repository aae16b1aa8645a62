"""Token-labeled graph path tasks with exact rule-based validation.

A task asks the policy to walk a small directed graph from a start node to a
target node by emitting edge tokens. Validation replays the walk: each token
must name an outgoing edge of the current node, the terminator ends the walk
early, and the reward is 1 exactly when the walk stops on the target. Because
the graphs are tiny the full set of correct trajectories is enumerable, which
turns exploration into a measurable quantity instead of a proxy. Each task
enumerates it once (TaskInstance.correct_sequences); a Suite joins its tasks'
sets (Suite.correct) and walk tables (Suite.walks) once per suite.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .artifacts import json_text
from .errors import GenerationFailed, SpaceTooLarge, SuiteCorrupt
from .policy import (PolicyTable, SequenceBatch, Vocab, derive_rng, padded_layout,
                     sequence_batch)

MAX_NODE_COUNT = 64
ENUMERATION_BOUND = 1_000_000


@dataclass(frozen=True)
class PathTaskSpec:
    """A deterministic token-labeled graph: at most one edge per (node, token)."""

    node_count: int
    edges: tuple[tuple[int, int, int], ...]  # (from_node, to_node, token_id)
    start: int
    target: int
    max_len: int
    vocab_size: int
    # (node, token) -> next node, built once from the edges and shared by
    # every validate and enumerate_correct call; never mutate it. It is not
    # compared or hashed, so equality and hashing see the fields above only.
    edge_map: Mapping[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.node_count <= MAX_NODE_COUNT:
            raise ValueError(f"node_count must be in [1, {MAX_NODE_COUNT}]")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        object.__setattr__(self, "edges", tuple((int(u), int(v), int(t)) for u, v, t in self.edges))
        terminator = self.vocab_size - 1
        edge_map: dict[tuple[int, int], int] = {}
        for u, v, t in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v},{t}) references unknown node")
            if not 0 <= t < self.vocab_size:
                raise ValueError(f"edge token {t} outside vocab of size {self.vocab_size}")
            if t == terminator:
                raise ValueError("the terminator token cannot label an edge")
            if (u, t) in edge_map:
                raise ValueError(f"duplicate edge for (node {u}, token {t})")
            edge_map[(u, t)] = v
        object.__setattr__(self, "edge_map", edge_map)
        if not 0 <= self.start < self.node_count:
            raise ValueError("start node out of range")
        if not 0 <= self.target < self.node_count:
            raise ValueError("target node out of range")

    @property
    def terminator(self) -> int:
        return self.vocab_size - 1


@dataclass(frozen=True)
class TaskInstance:
    """A prompt: reach `label` from the spec's start node.

    Construction enumerates correct_sequences: GenerationFailed if it is empty
    or the label is the start, SpaceTooLarge past ENUMERATION_BOUND walks.
    """

    prompt_id: int
    label: int
    spec: PathTaskSpec

    def __post_init__(self):
        if self.spec.start == self.label:
            raise GenerationFailed(
                f"task {self.prompt_id}: start equals target (trivial task)")
        if not self.correct_sequences:
            raise GenerationFailed(
                f"task {self.prompt_id}: target {self.label} unreachable "
                f"within {self.spec.max_len} steps")

    @cached_property
    def walk(self) -> tuple[np.ndarray, int, int]:
        """validate as the sampler's (table, start, accept): state node * V
        is the walk at node, table[state + token] the state after token; an
        undefined edge leads to a dead node and the terminator keeps the state."""
        size, nodes = self.spec.vocab_size, self.spec.node_count
        table = np.full((nodes + 1) * size, nodes * size, np.intp)
        table[size - 1:nodes * size:size] = np.arange(0, nodes * size, size)
        for (node, tok), nxt in self.spec.edge_map.items():
            table[node * size + tok] = nxt * size
        return table, self.spec.start * size, self.label * size

    @cached_property
    def correct_sequences(self) -> tuple[tuple[int, ...], ...]:
        """enumerate_correct's set in its iteration order, enumerated once."""
        return tuple(enumerate_correct(self))


@dataclass(frozen=True, eq=False)
class CorrectSets:
    """A suite's correct sets joined: batch holds every task's
    correct_sequences, task after task and each set in its order, numbered
    at the tasks' shape. sizes[i] is task i's set size, owners[j] the task
    of sequence j, and layout the padded_layout of the sets, for a left
    fold per task over its sequences."""

    batch: SequenceBatch
    sizes: np.ndarray
    owners: np.ndarray
    layout: tuple[np.ndarray, tuple[int, int]]


class Suite(tuple):
    """TaskInstances of one shape, with tables joined from them on first
    read and kept as long as the suite. Suite(tasks) is tasks itself when
    tasks is a Suite, so a suite handed down keeps its tables; ValueError
    if tasks is empty or mixes vocab_size or max_len."""

    def __new__(cls, tasks):
        if isinstance(tasks, Suite):
            return tasks
        suite = super().__new__(cls, tasks)
        if not suite:
            raise ValueError("empty task suite")
        if any((task.spec.vocab_size, task.spec.max_len) != suite.shape for task in suite):
            raise ValueError("suite tasks must share vocab_size and max_len")
        return suite

    @property
    def shape(self) -> tuple[int, int]:
        """The tasks' (vocab_size, max_len)."""
        return self[0].spec.vocab_size, self[0].spec.max_len

    @cached_property
    def walks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every task's walk in one (table, start, accept): each table shifted
        past those before it, start[i] and accept[i] task i's states there."""
        tables, starts, accepts = zip(*(task.walk for task in self))
        sizes = [len(table) for table in tables]
        shift = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        return (np.concatenate(tables) + np.repeat(shift, sizes),
                np.array(starts, np.intp) + shift, np.array(accepts, np.intp) + shift)

    @cached_property
    def correct(self) -> CorrectSets:
        """The correct sets joined; NumericOverflow as sequence_batch."""
        sizes = np.fromiter((len(task.correct_sequences) for task in self), np.intp, len(self))
        batch = sequence_batch(PolicyTable(Vocab(self.shape[0]), self.shape[1]),
                               ((task.prompt_id, tokens) for task in self
                                for tokens in task.correct_sequences))
        return CorrectSets(batch, sizes, np.repeat(np.arange(len(self)), sizes),
                           padded_layout(sizes))


@dataclass(frozen=True)
class ValidatorResult:
    reward: int
    extracted: int | None


def validate(task: TaskInstance, tokens) -> ValidatorResult:
    """Replay the walk; reward 1 iff it stops on the labelled node.

    An undefined edge fails extraction (reward 0, extracted None). The first
    terminator ends the walk; anything after it is ignored.
    """
    spec = task.spec
    edge_map = spec.edge_map
    node = spec.start
    for tok in tokens:
        tok = int(tok)
        if tok == spec.terminator:
            break
        nxt = edge_map.get((node, tok))
        if nxt is None:
            return ValidatorResult(reward=0, extracted=None)
        node = nxt
    return ValidatorResult(reward=1 if node == task.label else 0, extracted=node)


def enumerate_correct(task: TaskInstance) -> set[tuple[int, ...]]:
    """Exact set of complete trajectories with reward 1.

    A complete trajectory either ends with the terminator before max_len or
    runs edge tokens to exactly max_len. Enumeration walks the graph
    depth-first with the length bound, so cycles are safe. This is the
    reference; the package reads TaskInstance.correct_sequences, which
    calls it once per task.
    """
    spec = task.spec
    edge_map = spec.edge_map
    by_node: dict[int, list[tuple[int, int]]] = {}
    for (u, t), v in edge_map.items():
        by_node.setdefault(u, []).append((t, v))
    for lst in by_node.values():
        lst.sort()
    correct: set[tuple[int, ...]] = set()
    visited_walks = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(spec.start, ())]
    while stack:
        node, walk = stack.pop()
        visited_walks += 1
        if visited_walks > ENUMERATION_BOUND:
            raise SpaceTooLarge(
                f"more than {ENUMERATION_BOUND} walks within length {spec.max_len}")
        if node == task.label:
            if len(walk) < spec.max_len:
                correct.add(walk + (spec.terminator,))
            else:
                correct.add(walk)
        if len(walk) < spec.max_len:
            for t, v in by_node.get(node, ()):
                stack.append((v, walk + (t,)))
    return correct


@dataclass(frozen=True)
class FamilyParams:
    """Knobs for the layered-graph task generator."""

    count: int = 32
    vocab_size: int = 4
    max_len: int = 4
    min_solutions: int = 10
    mid_layers: int = 2
    layer_width: int = 3
    edge_density: float = 0.95
    decoy_count: int = 1

    def __post_init__(self):
        for name, least in (("count", 1), ("max_len", 1), ("mid_layers", 0), ("decoy_count", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.vocab_size < 3:
            raise ValueError("vocab_size must be >= 3: two edge tokens plus the terminator")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError("edge_density must be in (0, 1]")
        if self.mid_layers and self.layer_width < 1:
            raise ValueError("layer_width must be >= 1 when mid_layers >= 1")
        size, max_len = self.vocab_size, self.max_len
        if max_len >= 63 or self.count * (size ** (max_len + 1) - 1) // (size - 1) >= 1 << 63:
            raise ValueError(f"max_len {self.max_len} at vocab_size {self.vocab_size} and "
                             f"count {self.count} numbers prefix ids beyond 2**63")


def _generate_task(prompt_id: int, params: FamilyParams,
                   rng: np.random.Generator) -> TaskInstance | None:
    edge_tokens = params.vocab_size - 1
    width = params.layer_width
    layers: list[list[int]] = [[0]]
    next_id = 1
    for _ in range(params.mid_layers):
        layers.append(list(range(next_id, next_id + width)))
        next_id += width
    target = next_id
    final_layer = [target] + list(range(next_id + 1, next_id + 1 + params.decoy_count))
    next_id += 1 + params.decoy_count
    layers.append(final_layer)
    if next_id > MAX_NODE_COUNT:
        raise GenerationFailed(
            f"family params need {next_id} nodes, limit is {MAX_NODE_COUNT}")

    edges = []
    for layer, nxt_layer in zip(layers[:-1], layers[1:]):
        for node in layer:
            for tok in range(edge_tokens):
                if rng.random() < params.edge_density:
                    edges.append((node, nxt_layer[int(rng.integers(len(nxt_layer)))], tok))
    spec = PathTaskSpec(
        node_count=next_id,
        edges=tuple(edges),
        start=0,
        target=target,
        max_len=params.max_len,
        vocab_size=params.vocab_size,
    )
    try:
        task = TaskInstance(prompt_id=prompt_id, label=target, spec=spec)
    except (GenerationFailed, SpaceTooLarge):
        return None
    if len(task.correct_sequences) < params.min_solutions:
        return None
    return task


def make_benchmark_suite(seed: int, params: FamilyParams) -> Suite:
    """Deterministically generate `params.count` tasks, each with enough solutions."""
    tasks = []
    for prompt_id in range(params.count):
        task = None
        for attempt in range(1000):
            rng = derive_rng(seed, prompt_id, attempt)
            task = _generate_task(prompt_id, params, rng)
            if task is not None:
                break
        if task is None:
            raise GenerationFailed(
                f"no valid task for prompt {prompt_id} after 1000 attempts "
                f"(min_solutions={params.min_solutions})")
        tasks.append(task)
    return Suite(tasks)


def skewed_base_policy(task: TaskInstance, skew: float, seed: int) -> PolicyTable:
    """Uniform policy with one random correct trajectory boosted by +skew per step."""
    return build_suite_policy([task], skew, seed)


def build_suite_policy(tasks, skew: float, seed: int) -> PolicyTable:
    """One policy table covering a whole suite, skewed per task: at each prefix of
    one random correct trajectory a zero row with +skew at its token (a repeated
    prompt id keeps the later task's rows)."""
    tasks = Suite(tasks)
    if not 0 <= skew < math.inf:
        raise ValueError(f"skew must be finite and >= 0, got {skew}")
    policy = PolicyTable(Vocab(tasks.shape[0]), tasks.shape[1])
    if skew == 0:
        return policy
    for task in tasks:
        solutions = sorted(task.correct_sequences)
        chosen = solutions[int(derive_rng(seed, task.prompt_id).integers(len(solutions)))]
        for t, tok in enumerate(chosen):
            vec = np.zeros(policy.vocab.size)
            vec[tok] = skew
            policy.set_logits(task.prompt_id, chosen[:t], vec)
    return policy


def suite_json(tasks) -> str:
    """A task suite as the text of a JSON array, the file load_suite reads."""
    return json_text([
        {
            "prompt_id": task.prompt_id,
            "label": task.label,
            "nodes": task.spec.node_count,
            "edges": [[u, v, t] for u, v, t in task.spec.edges],
            "start": task.spec.start,
            "max_len": task.spec.max_len,
        }
        for task in tasks
    ])


def load_suite(path, vocab_size: int, max_len: int) -> Suite:
    """Read a suite file (suite_json's text) at a checkpoint's shape.

    The on-disk schema does not carry the vocab size, so the checkpoint's
    is given; every entry's max_len must be the checkpoint's. Prompt ids
    must be distinct and >= 0. Any entry that fails, another max_len and a
    correct set past ENUMERATION_BOUND included, is SuiteCorrupt naming it;
    so is an empty list.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise SuiteCorrupt(f"not a JSON file: {exc}") from exc
    if not isinstance(payload, list):
        raise SuiteCorrupt(f"expected a JSON list of tasks, got {type(payload).__name__}")
    if not payload:
        raise SuiteCorrupt("expected a non-empty JSON list of tasks")
    tasks, seen = [], {}
    for entry, obj in enumerate(payload):
        try:
            edges = tuple((int(u), int(v), int(t)) for u, v, t in obj["edges"])
            spec = PathTaskSpec(
                node_count=int(obj["nodes"]),
                edges=edges,
                start=int(obj["start"]),
                target=int(obj["label"]),
                max_len=int(obj["max_len"]),
                vocab_size=vocab_size,
            )
            if spec.max_len != max_len:
                raise ValueError(f"max_len {spec.max_len} is not the checkpoint's max_len {max_len}")
            prompt_id = int(obj["prompt_id"])
            if prompt_id < 0 or seen.setdefault(prompt_id, entry) != entry:
                raise ValueError(f"prompt_id {prompt_id} is negative or repeats an earlier one")
            tasks.append(TaskInstance(prompt_id=prompt_id, label=int(obj["label"]), spec=spec))
        except KeyError as exc:
            raise SuiteCorrupt(f"missing key {exc}", entry) from exc
        except (TypeError, ValueError, GenerationFailed, SpaceTooLarge) as exc:
            raise SuiteCorrupt(str(exc), entry) from exc
    return Suite(tasks)
