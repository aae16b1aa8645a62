#!/usr/bin/env python3
"""Turn a paired bench session into a committed BENCH_<pr>.json record.

    python3 scripts/bench_record.py PARENT_OUT CHANGE_OUT --pr N [--out PATH]

PARENT_OUT and CHANGE_OUT are the `bench/out` directories of two checkouts
(the parent commit and the change) after `bench/run.py --trace 0` ran on both
with the same workloads and seeds. Each `result-<workload>-seed<S>-trace0.json`
of one side is paired with the other side's file of the same workload and
seed. For every workload and end-to-end metric the record holds each side's
median and quartiles over the pairs, the per-pair values, how many pairs the
change won (strictly better, in the direction BENCHMARK.json gives), the
seeds, the operations attempted and failed, and the machine information the
runs reported. The record is written to PATH (default BENCH_<N>.json in the
current directory).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

RESULT_RE = re.compile(r"^result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(out_dir: str) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> parsed untraced result file of one side."""
    results = {}
    for path in glob.glob(os.path.join(out_dir, "result-*-trace0.json")):
        m = RESULT_RE.match(os.path.basename(path))
        if m:
            with open(path, "r", encoding="utf-8") as fh:
                results[(m["workload"], int(m["seed"]))] = json.load(fh)
    return results


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(parent: dict, change: dict, pr: int, better: dict[str, str]) -> dict:
    """The BENCH record of the (workload, seed) pairs present on both sides."""
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError("no (workload, seed) result is present on both sides")
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        sides = {"parent": [parent[(workload, s)] for s in seeds],
                 "change": [change[(workload, s)] for s in seeds]}
        names = [n for n in sides["parent"][0]["metrics"]
                 if all(n in r["metrics"] for rs in sides.values() for r in rs)]
        metrics = {}
        for name in names:
            direction = better.get(name, "lower")
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in sides.items()}
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            entry = {"unit": sides["parent"][0]["metrics"][name]["unit"], "better": direction,
                     "parent": spread(values["parent"]), "change": spread(values["change"]),
                     "change_wins": wins, "pairs": len(seeds)}
            base = entry["parent"]["median"]
            entry["median_rel_change"] = (entry["change"]["median"] - base) / base if base else None
            metrics[name] = entry
        workloads[workload] = {
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for rs in sides.values() for r in rs}),
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()},
            "failed": {side: sum(len(r["failures"]) for r in rs) for side, rs in sides.items()},
            "metrics": metrics,
        }
    machines = [r["machine"] for side in (parent, change) for r in side.values()]
    return {"pr": pr, "pairs": len(pairs), "machine": machines[0],
            "machines_agree": all(m == machines[0] for m in machines),
            "workloads": workloads}


def metric_directions(path: str) -> dict[str, str]:
    if not os.path.isfile(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", ())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_out")
    parser.add_argument("change_out")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        rec = record(load_results(args.parent_out), load_results(args.change_out), args.pr,
                     metric_directions(os.path.join(ROOT, "BENCHMARK.json")))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rec, fh, indent=2)
        fh.write("\n")
    for workload, entry in rec["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:15s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} wins {m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
