"""The benchmark's tracer wraps rdmix functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("module_name, attr", [(t[0], t[1]) for t in layertrace.TARGETS])
def test_trace_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer replaces the entry in the owner's own namespace
    assert callable(owner.__dict__.get(leaf))
