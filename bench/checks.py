"""Output checks on one operation's artifacts, run outside the timed interval.

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os


def artifact_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, except manifest.json (it holds wall-clock timings)."""
    digests = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def digest_problems(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Artifacts of a repeat that differ from the first run of the same config."""
    return [f"{name}: differs from the first run of this config and seed"
            for name in sorted(set(first) | set(again))
            if first.get(name) != again.get(name)]


def roundtrip_problems(lab, checkpoint: str, scratch: str) -> list[str]:
    """The checkpoint must survive load -> save byte for byte."""
    lab.save_checkpoint(lab.load_checkpoint(checkpoint), scratch)
    with open(checkpoint, "rb") as a, open(scratch, "rb") as b:
        same = a.read() == b.read()
    os.remove(scratch)
    return [] if same else [f"{checkpoint}: save -> load -> save is not byte-identical"]


def complete_sequences(vocab_size: int, max_len: int):
    """Every sequence the sampler can emit: edge tokens then the terminator,
    or max_len edge tokens."""
    terminator = vocab_size - 1
    edges = range(terminator)
    for k in range(max_len):
        for walk in itertools.product(edges, repeat=k):
            yield walk + (terminator,)
    yield from itertools.product(edges, repeat=max_len)


def normalization_problems(lab, checkpoint: str, prompt_id: int,
                           tol: float = 1e-12) -> list[str]:
    """Probabilities of all complete sequences of one prompt must sum to 1."""
    policy = lab.load_checkpoint(checkpoint)
    total = math.fsum(
        math.exp(lab.trajectory_log_prob(policy, prompt_id, seq)[1])
        for seq in complete_sequences(policy.vocab.size, policy.max_len))
    if abs(total - 1.0) > tol:
        return [f"{checkpoint}: prompt {prompt_id} sequence mass is {total!r}, not 1"]
    return []


def report_problems(path: str, prompt_count: int) -> list[str]:
    """Bounds and monotonicity that every evaluation report must satisfy."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if not 0.0 <= report["avg_at_k"] <= 1.0:
        problems.append(f"avg_at_k {report['avg_at_k']!r} outside [0, 1]")
    support = report["support"]
    if not 0 <= support["covered"] <= support["total"]:
        problems.append(f"support covered {support['covered']} > total {support['total']}")
    passes = [report["pass_at_k"][k] for k in sorted(report["pass_at_k"], key=int)]
    if any(not 0.0 <= p <= 1.0 for p in passes):
        problems.append(f"Pass@k outside [0, 1]: {passes}")
    if any(b < a for a, b in zip(passes, passes[1:])):
        problems.append(f"Pass@k decreases in k: {passes}")
    counts = sum(report["histogram"]["counts"])
    if counts != prompt_count:
        problems.append(f"histogram counts sum to {counts}, not {prompt_count} prompts")
    return [f"{path}: {p}" for p in problems]
