"""Spans around squeezelab's public functions, installed from outside the package.

Each traced function is replaced by a timing wrapper in every squeezelab
module namespace that holds it, because `from .policy import save_checkpoint`
binds the function object into the importing module at import time. Spans
stay in memory as (operation, parent, name, start, end) tuples; a span's id is
its index in `Tracer.spans`. Nothing in the package is edited.
"""
from __future__ import annotations

import gzip
import os
import sys
import time
from collections import Counter, defaultdict

# Layer -> the public functions that get a span. The private _log_probs is
# left out on purpose: it runs about 10^5 times per training run, and its cost
# shows up as self time of its public callers.
TRACED = {
    "tasks": ("make_benchmark_suite", "build_suite_policy", "enumerate_correct",
              "validate"),
    "policy": ("sample_trajectory", "trajectory_log_prob", "greedy_decode",
               "apply_update", "save_checkpoint", "load_checkpoint"),
    "objectives": ("rl_step", "sample_group", "group_advantages", "dapo_filter",
                   "grpo_objective", "dapo_objective", "gspo_objective"),
    "sps": ("l2te_select", "irl_descent_step", "irl_value"),
    "metrics": ("sample_matrix", "support_coverage", "evaluation_report"),
    "runner": ("run", "compare"),
    "config": ("ExperimentConfig.from_file",),
}

ROOT = "operation"

# Per-layer metrics besides each function's calls, s and self_s, with their
# units. Most are counted from arguments and results at span boundaries.
# Fractions are 0 when their base is 0.
COUNTERS = {
    "policy.save_checkpoint.bytes": "bytes",
    "policy.load_checkpoint.bytes": "bytes",
    "policy.stored_prefixes": "count",
    "objectives.degenerate_group_frac": "fraction",
    "objectives.dapo_resamples": "count",
    "objectives.clipped_frac": "fraction",
    "sps.irl_halvings": "count",
    "sps.irl_rejected_frac": "fraction",
    "sps.positive_augment_frac": "fraction",
    "metrics.sample_matrix.samples": "count",
    "unwrapped_s": "s",
    "trace_overhead_frac": "fraction",
}


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.rsplit('.', 1)[-1]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in (span_name(layer, q) for layer, qs in TRACED.items() for q in qs):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Collects spans for the operation run by `run_operation`."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.ranges: dict[int, range] = {}
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (self.op, parent, name, start, end)

    def run_operation(self, op: int, fn, *args):
        """Call fn(*args) as the root span of operation `op`."""
        self.op = op
        sid = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, ROOT, start, time.perf_counter())
            self.ranges[op] = range(sid, len(self.spans))
            self.op = None

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, time.perf_counter())
            if after is not None and self.op is not None:
                after(self.counts[self.op], args, kwargs, result)
            return result
        return traced

    # -- installation --------------------------------------------------

    def install(self, package: str = "squeezelab") -> None:
        """Wrap every TRACED function in every loaded module of `package`."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        hooks = _hooks()
        for layer, qualnames in TRACED.items():
            home = sys.modules[f"{package}.{layer}"]
            for qual in qualnames:
                name = span_name(layer, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self.wrap(name, original.__func__, hooks.get(name))
                    setattr(cls, attr, staticmethod(wrapped))
                    self._patches.append((cls, attr, original))
                    continue
                original = getattr(home, qual)
                wrapped = self.wrap(name, original, hooks.get(name))
                for module in modules:
                    if module.__dict__.get(qual) is original:
                        setattr(module, qual, wrapped)
                        self._patches.append((module, qual, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: span id, operation, parent, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,op,parent,name,start,end\n")
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{op},{parent},{name},{start!r},{end!r}\n")


def _hooks() -> dict:
    """After-call hooks that feed the counters, keyed by span name."""
    def save(counts, args, kwargs, result):
        counts["policy.save_checkpoint.bytes"] += os.path.getsize(args[1])
        counts["policy.stored_prefixes"] = max(counts["policy.stored_prefixes"],
                                               args[0].stored_prefix_count)

    def load(counts, args, kwargs, result):
        counts["policy.load_checkpoint.bytes"] += os.path.getsize(args[0])

    def advantages(counts, args, kwargs, result):
        counts["groups"] += 1
        counts["degenerate_groups"] += int(result.degenerate)

    def dapo_filter(counts, args, kwargs, result):
        # Dropped groups never reach group_advantages; count them here.
        counts["groups"] += result[1]
        counts["degenerate_groups"] += result[1]

    def rl_step(counts, args, kwargs, result):
        if kwargs.get("groups") is None:
            counts["fresh_groups"] += len(args[1])

    def descent(counts, args, kwargs, result):
        counts["irl_rejected"] += int(result[0] is args[0])

    def l2te(counts, args, kwargs, result):
        counts["demos"] += len(result)
        counts["augment_demos"] += sum(e.source == "positive_augment"
                                       for e in result.entries)

    def matrix(counts, args, kwargs, result):
        counts["metrics.sample_matrix.samples"] += int(result.rewards.size)

    return {
        "policy.save_checkpoint": save,
        "policy.load_checkpoint": load,
        "objectives.group_advantages": advantages,
        "objectives.dapo_filter": dapo_filter,
        "objectives.rl_step": rl_step,
        "sps.irl_descent_step": descent,
        "sps.l2te_select": l2te,
        "metrics.sample_matrix": matrix,
    }


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, ids) -> dict[int, float]:
    """Duration minus child coverage for each span id in `ids`.

    `ids` must hold every child of each span it holds, as one operation's
    id range does.
    """
    children = defaultdict(list)
    for sid in ids:
        op, parent, name, start, end = spans[sid]
        if parent >= 0:
            children[parent].append((start, end))
    return {sid: spans[sid][4] - spans[sid][3]
            - covered_length(children.get(sid, ()), spans[sid][3], spans[sid][4])
            for sid in ids}


def summarize(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-layer metrics for one operation, zeros for functions never reached.

    Also returns "_wall" (the root span's duration) and "_self_total" (the
    sum of every span's self time, root included), which must agree.
    """
    spans, counts = tracer.spans, tracer.counts[op]
    selfs = self_times(spans, tracer.ranges[op])
    out = {name: 0.0 for name in metric_units()}
    calls_in_descent = Counter()
    wall = self_total = 0.0
    for sid, self_s in selfs.items():
        span_op, parent, name, start, end = spans[sid]
        self_total += self_s
        if name == ROOT:
            wall = end - start
            out["unwrapped_s"] += self_s
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_s
        if name == "sps.irl_value" and spans[parent][2] == "sps.irl_descent_step":
            calls_in_descent[parent] += 1
    out["sps.irl_halvings"] = float(sum(max(n - 1, 0) for n in calls_in_descent.values()))
    for key in ("policy.save_checkpoint.bytes", "policy.load_checkpoint.bytes",
                "policy.stored_prefixes", "metrics.sample_matrix.samples",
                "objectives.clipped_frac"):
        out[key] = float(counts[key])
    out["objectives.dapo_resamples"] = (out["objectives.sample_group.calls"]
                                        - counts["fresh_groups"])
    out["objectives.degenerate_group_frac"] = _frac(counts["degenerate_groups"],
                                                    counts["groups"])
    out["sps.irl_rejected_frac"] = _frac(counts["irl_rejected"],
                                         out["sps.irl_descent_step.calls"])
    out["sps.positive_augment_frac"] = _frac(counts["augment_demos"], counts["demos"])
    out["_wall"] = wall
    out["_self_total"] = self_total
    return out


def _frac(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
