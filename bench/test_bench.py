"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import squeezelab  # noqa: E402
from squeezelab import objectives, policy, runner  # noqa: E402

TINY = ({"mode": "sps", "suite.count": 3, "sps.max_iterations": 2,
         "rl.steps_per_iteration": 1, "sps.irl_steps_per_iteration": 1,
         "eval.n": 8},)


def synthetic(spans, counts=None) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.spans = list(spans)
    tracer.ranges[0] = range(len(spans))
    tracer.counts[0] = Counter(counts or {})
    return tracer


def test_self_time_subtracts_nested_children():
    spans = [
        (0, -1, tracing.ROOT, 0.0, 10.0),
        (0, 0, "runner.run", 1.0, 4.0),
        (0, 1, "policy.save_checkpoint", 2.0, 3.0),
        (0, 0, "runner.compare", 5.0, 9.0),
    ]
    assert tracing.self_times(spans, range(4)) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    out = tracing.summarize(synthetic(spans), 0)
    assert out["unwrapped_s"] == 3.0
    assert out["runner.run.s"] == 3.0 and out["runner.run.self_s"] == 2.0
    assert out["_self_total"] == out["_wall"] == 10.0


def test_child_coverage_is_a_clipped_union():
    assert tracing.covered_length([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0) == 6.0
    assert tracing.covered_length([(8.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 3.0
    assert tracing.covered_length([(2.0, 3.0), (2.5, 2.7), (4.0, 4.0)], 0.0, 10.0) == 1.0
    assert tracing.covered_length([], 0.0, 10.0) == 0.0


def test_unreached_functions_report_zero_and_counters_derive():
    spans = [
        (0, -1, tracing.ROOT, 0.0, 10.0),
        (0, 0, "sps.irl_descent_step", 1.0, 5.0),
        (0, 1, "sps.irl_value", 2.0, 3.0),
        (0, 1, "sps.irl_value", 3.0, 4.0),
        (0, 1, "sps.irl_value", 4.0, 4.5),
        (0, 0, "sps.irl_descent_step", 6.0, 7.0),
        (0, 5, "sps.irl_value", 6.0, 6.5),
        (0, 0, "objectives.sample_group", 7.0, 8.0),
        (0, 0, "objectives.sample_group", 8.0, 9.0),
    ]
    counts = {"fresh_groups": 1, "irl_rejected": 1, "groups": 4, "degenerate_groups": 1}
    out = tracing.summarize(synthetic(spans, counts), 0)
    assert set(tracing.metric_units()) <= set(out)
    assert out["objectives.grpo_objective.calls"] == 0.0
    assert out["objectives.grpo_objective.s"] == 0.0
    assert out["sps.irl_halvings"] == 2.0
    assert out["sps.irl_rejected_frac"] == 0.5
    assert out["objectives.dapo_resamples"] == 1.0
    assert out["objectives.degenerate_group_frac"] == 0.25
    assert out["sps.positive_augment_frac"] == 0.0


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def finished_op(tmp_path):
    work = str(tmp_path / "work")
    paths = run.prepare(work, TINY, 8, seed=5)
    run.execute(squeezelab, work, *paths)
    return work


def test_checks_pass_on_an_untouched_run(finished_op):
    problems, digests = run.verify(squeezelab, finished_op, 1, 0, None)
    assert problems == []
    assert "train0/checkpoint_final.txt" in digests
    assert not any(name.endswith("manifest.json") for name in digests)


def test_edited_checkpoint_float_fails_the_repeat_check(finished_op):
    _, first = run.verify(squeezelab, finished_op, 1, 0, None)
    path = os.path.join(finished_op, "train0", "checkpoint_final.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(" ")
    fields[2] = repr(float(fields[2]) + 0.5)
    lines[1] = " ".join(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    problems, _ = run.verify(squeezelab, finished_op, 1, 0, first)
    assert problems == ["train0/checkpoint_final.txt: differs from the first run "
                        "of this config and seed"]


def test_reformatted_checkpoint_float_fails_the_roundtrip(finished_op):
    path = os.path.join(finished_op, "train0", "checkpoint_final.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(" ")
    fields[2] = f"{float(fields[2]):.3e}"
    lines[1] = " ".join(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = checks.roundtrip_problems(squeezelab, path, os.path.join(finished_op, "x"))
    assert len(problems) == 1 and "not byte-identical" in problems[0]


def test_inconsistent_eval_report_fails(finished_op):
    path = os.path.join(finished_op, "eval", "eval_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert checks.report_problems(path, 3) == []
    report["pass_at_k"] = {"1": 0.9, "4": 0.5}
    report["histogram"]["counts"][0] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    problems = checks.report_problems(path, 3)
    assert len(problems) == 2
    assert "decreases" in problems[0] and "histogram" in problems[1]


def test_unnormalized_policy_fails_the_sequence_mass_check(tmp_path):
    ok = squeezelab.PolicyTable(squeezelab.Vocab(4), 3)
    path = str(tmp_path / "ckpt.txt")
    squeezelab.save_checkpoint(ok, path)
    assert checks.normalization_problems(squeezelab, path, 0) == []
    assert len(list(checks.complete_sequences(4, 3))) == 1 + 3 + 9 + 27

    class Leaky:
        load_checkpoint = staticmethod(squeezelab.load_checkpoint)

        @staticmethod
        def trajectory_log_prob(pol, prompt_id, tokens):
            per_token, total = squeezelab.trajectory_log_prob(pol, prompt_id, tokens)
            return per_token, total + 1e-9
    assert len(checks.normalization_problems(Leaky, path, 0)) == 1


def test_traced_operation_accounts_for_its_wall_and_restores_the_package(tmp_path):
    originals = (runner.run, objectives.sample_trajectory, policy.save_checkpoint,
                 squeezelab.ExperimentConfig.__dict__["from_file"])
    work = str(tmp_path / "work")
    paths = run.prepare(work, TINY, 8, seed=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert objectives.sample_trajectory is not originals[1]
        tracer.run_operation(0, run.execute, squeezelab, work, *paths)
    finally:
        tracer.uninstall()
    assert (runner.run, objectives.sample_trajectory, policy.save_checkpoint,
            squeezelab.ExperimentConfig.__dict__["from_file"]) == originals
    out = tracing.summarize(tracer, 0)
    assert out["_self_total"] == pytest.approx(out["_wall"], abs=1e-9)
    assert out["runner.run.calls"] == 2 and out["runner.compare.calls"] == 1
    assert out["config.from_file.calls"] == 2
    assert out["sps.l2te_select.calls"] == 3 * 2
    assert out["policy.save_checkpoint.bytes"] > 0
    assert out["objectives.gspo_objective.calls"] == 0


def test_reference_clock_scales_by_the_samples_since_its_mark():
    clock = run.ReferenceClock()
    clock.walls, clock.cpus = [1.0, 1.0], [2.0, 2.0]
    mark = clock.mark()
    clock.walls += [run.REFERENCE_S / 2, run.REFERENCE_S / 2, 9.0]
    clock.cpus += [run.REFERENCE_S * 2, run.REFERENCE_S * 2, 9.0]
    assert clock.scales(mark) == pytest.approx((2.0, 0.5))
    clock.sample()
    assert len(clock.walls) == len(clock.cpus) == mark + 4 and clock.spent > 0


def test_reference_work_stays_clear_of_subnormal_floats():
    _, x = run.reference_work()
    assert np.all(np.abs(x) > 1e-6)
