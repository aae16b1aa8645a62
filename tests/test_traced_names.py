"""bench/tracing.py wraps package functions by name: every name must resolve, and
the arguments its counter hooks read by position must stay where they are."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import os

import pytest

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
