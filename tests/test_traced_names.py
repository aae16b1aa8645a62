"""bench/tracing.py wraps package functions by name: every name must resolve, and
the arguments its counter hooks read by position must stay where they are."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import os

import pytest

from squeezelab import sps
from squeezelab.config import ExperimentConfig
from squeezelab.tasks import build_suite_policy, make_benchmark_suite

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_resolves_in_its_module():
    # Tracer.install looks each name up in its layer's module, and a dotted
    # name's method in its class's __dict__, where it unwraps __func__.
    for layer, qualnames in tracing.TRACED.items():
        home = importlib.import_module(f"squeezelab.{layer}")
        for qual in qualnames:
            if "." in qual:
                cls_name, attr = qual.split(".")
                method = getattr(home, cls_name).__dict__.get(attr)
                assert callable(getattr(method, "__func__", None)), f"{layer}.{qual}"
            else:
                assert callable(home.__dict__.get(qual)), f"{layer}.{qual}"


POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD


# (layer, function, the leading positional parameters its hook reads,
#  parameters the hook reads by keyword)
HOOKED = [
    ("policy", "save_checkpoint", ("policy", "path"), ()),
    ("policy", "load_checkpoint", ("path",), ()),
    ("objectives", "rl_step", ("policy", "task_batch"), ("groups",)),
    ("sps", "irl_descent_step", ("policy",), ()),
]


@pytest.mark.parametrize("layer,name,leading,keywords", HOOKED)
def test_hooked_functions_keep_the_parameters_their_hooks_read(layer, name, leading, keywords):
    assert name in tracing.TRACED[layer]
    hook = tracing.span_name(layer, name)
    assert hook in tracing._hooks()
    params = list(inspect.signature(
        getattr(importlib.import_module(f"squeezelab.{layer}"), name)).parameters.values())
    assert [p.name for p in params[:len(leading)]] == list(leading), hook
    assert all(p.kind is POSITIONAL for p in params[:len(leading)]), hook
    by_name = {p.name: p for p in params}
    for key in keywords:
        assert key in by_name and by_name[key].default is None, f"{hook}: {key}"


def traced(fn):
    """fn() as operation 0 of a Tracer installed around it; the tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_operation(0, fn)
    finally:
        tracer.uninstall()
    return tracer


def small_run(overrides, seed):
    cfg = ExperimentConfig.from_dict({"suite.count": 6, "sps.max_iterations": 3,
                                      "rl.steps_per_iteration": 4, **overrides})
    suite = make_benchmark_suite(seed, cfg.family_params())
    return build_suite_policy(suite, cfg["suite.skew"], seed), suite, cfg.sps_config()


def test_degenerate_group_frac_is_the_share_of_sampled_groups_with_equal_rewards():
    # dapo_filter and group_advantages read each rollout record once, however
    # many steps reuse it, so the counter is the share of degenerate groups.
    base, suite, cfg = small_run({"rl.objective": "dapo", "rl.reuse_rollouts": True,
                                  "rl.dapo_max_resamples": 0}, 11)
    stepped = []

    def run():
        inner = sps.rl_step  # the tracer's wrapper

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            stepped.append(result[2])
            return result

        sps.rl_step = recording
        try:
            sps.grpo_baseline_loop(base, suite, cfg, 11)
        finally:
            sps.rl_step = inner

    out = tracing.summarize(traced(run), 0)
    records = list({id(record): record for record in stepped}.values())
    assert len(records) == cfg.max_iterations
    groups = [g for record in records for g in record]
    degenerate = sum(len(set(g.rewards)) == 1 for g in groups)
    assert 0 < degenerate < len(groups)
    assert out["objectives.degenerate_group_frac"] == degenerate / len(groups)
    assert out["objectives.dapo_filter.calls"] == len(records)
    assert out["objectives.group_advantages.calls"] == len(groups) - degenerate


def test_l2te_select_yields_sampling_size_demos_per_prompt():
    base, suite, cfg = small_run({"sps.sampling_size": 2}, 12)
    tracer = traced(lambda: sps.sps_loop(base, suite, cfg, 12))
    calls = tracing.summarize(tracer, 0)["sps.l2te_select.calls"]
    assert calls == len(suite) * cfg.max_iterations
    assert tracer.counts[0]["demos"] == calls * cfg.sampling_size
