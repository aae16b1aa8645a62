"""scripts/bench_record.py: pairing bench results into a BENCH record."""
from __future__ import annotations

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write_result(out_dir, workload, seed, run_s, failures=()):
    os.makedirs(out_dir, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "seconds": 36, "trace": 0,
               "machine": {"nproc": 2}, "attempted": 5, "failures": list(failures),
               "metrics": {"run_s": {"value": run_s, "unit": "s", "samples": 5}}}
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace0.json"), "w") as fh:
        json.dump(payload, fh)


def test_record_pairs_by_workload_and_seed_and_counts_wins(tmp_path):
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    for seed, p, c in ((1, 1.0, 0.5), (2, 2.0, 2.5), (3, 3.0, 1.0), (4, 4.0, 4.0)):
        _write_result(parent, "paired_default", seed, p)
        _write_result(change, "paired_default", seed, c, failures=[{"op": 0}] if seed == 2 else [])
    _write_result(parent, "reuse_dapo", 9, 1.0)  # no partner: left out
    out = str(tmp_path / "BENCH_7.json")
    assert bench_record.main([parent, change, "--pr", "7", "--out", out]) == 0
    with open(out) as fh:
        rec = json.load(fh)
    assert rec["pr"] == 7 and rec["pairs"] == 4 and list(rec["workloads"]) == ["paired_default"]
    entry = rec["workloads"]["paired_default"]
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["failed"] == {"parent": 0, "change": 1}
    run_s = entry["metrics"]["run_s"]
    assert run_s["better"] == "lower"
    # Wins are strict: the tie at seed 4 counts for neither side.
    assert run_s["change_wins"] == 2 and run_s["pairs"] == 4
    assert run_s["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "values": [1.0, 2.0, 3.0, 4.0]}
    assert run_s["change"]["median"] == 1.75
    assert run_s["median_rel_change"] == pytest.approx(-0.3)


def test_record_without_common_pairs_fails(tmp_path):
    _write_result(str(tmp_path / "a"), "paired_default", 1, 1.0)
    _write_result(str(tmp_path / "b"), "paired_default", 2, 1.0)
    assert bench_record.main([str(tmp_path / "a"), str(tmp_path / "b"), "--pr", "1",
                              "--out", str(tmp_path / "x.json")]) == 1
    assert not (tmp_path / "x.json").exists()
