"""bench/tracing.py wraps package functions by name: every name must resolve."""
from __future__ import annotations

import importlib
import importlib.util
import os

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
