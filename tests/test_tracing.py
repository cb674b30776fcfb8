"""The benchmark's per-layer span names resolve to spansphere's functions.

A traced run times a layer by the spans of the functions named in
`perfbench/tracing.py`'s PER_LAYER map; a name that no longer resolves
records no span, and its metric silently reads zero.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SPAN_NAMES = sorted(
    name
    for kind, names, _ in tracing.PER_LAYER.values()
    if kind in ("layer", "self")
    for name in names
)


def test_per_layer_names_spans():
    assert SPAN_NAMES
    assert "spheres.partite_sphere_a" in SPAN_NAMES
    assert "allocation.fill_blowup" in SPAN_NAMES


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_name_is_public_function_or_classmethod(name):
    module_name, *attrs = name.split(".")
    assert module_name in tracing.TRACED_MODULES
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert all(not a.startswith("_") for a in attrs), name
    if len(attrs) == 1:
        fn = vars(module).get(attrs[0])
        assert inspect.isfunction(fn), f"{name} is not a function"
        assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"
    else:
        cls_name, meth = attrs
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls), f"{module_name}.{cls_name} is not a class"
        assert isinstance(cls.__dict__.get(meth), classmethod), f"{name} is not a classmethod"
