"""The benchmark's tracer wraps rdmix functions by name; each name must resolve, and a
traced run must reach the functions it names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rdmix import ProblemData, simulate

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


def test_traced_run_counts_two_diffusion_solves_per_step():
    # the targets are looked up by name, so a layer that its caller stops calling
    # would read 0 calls while every name still resolves
    cfg = simulate.SimConfig(ProblemData(2, 1, 1, 2, 1, 1, 2), tau_end=0.01, grid_n=201,
                             grid_half_width=8.0, dtau_max=1e-3, sample_interval=0.005)
    tracer = layertrace.Tracer()
    with tracer.installed():
        simulate.run(cfg)
    metrics = {k: v for k, (v, _) in layertrace.layer_metrics(tracer.spans, {-1}).items()}
    assert metrics["simulate.steps_accepted"] > 0
    assert metrics["fdops.diffusion_calls"] == 2 * metrics["simulate.steps_accepted"]
    assert metrics["fdops.distinct_dtau"] > 0
    parents = [tracer.spans[rec[3]][0] for rec in tracer.spans if rec[0] == "fdops.diffusion"]
    assert parents and set(parents) == {"simulate.step"}
