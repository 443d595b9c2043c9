"""What the benchmark under bench/ calls in the package still works.

`bench/run.py --trace 1` looks every span target up by name; this loads
bench/child.py by path and runs its install_spans against a stand-in tracer,
so a rename in src/ that would break the traced benchmark fails here.
bench/workloads.py counts each workload's steps through the config parser,
the driver's builders and kinetic.step_times; the counts are pinned too.
bench/inputs.py builds the vortex_reference field with the package's grid
and NsState, and bench/make_expected.py reads the names pinned below.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import vbgk
from vbgk import cli, kinetic, model

ROOT = Path(__file__).resolve().parents[1]


class LookupTracer:
    """Looks each target up as the benchmark's tracer does and wraps nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, **kwargs):
        getattr(owner, attr)
        self.names.append(name)

    def count_fft(self, fft_module):
        pass


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_exist():
    child = load_bench_module("child")
    tracer = LookupTracer()
    child.install_spans(tracer)
    assert "diagnostics.compute_record" in tracer.names
    assert "driver.ReferenceTrajectory.at" in tracer.names


def test_bench_workload_step_counts():
    workloads = load_bench_module("workloads").WORKLOADS
    steps = {name: workload.steps() for name, workload in workloads.items()}
    assert steps == {"bounded_spectral": 1019, "sweep_upwind": 1529, "vortex_reference": 41}


def test_bench_vortex_input():
    u = load_bench_module("inputs").vortex_velocity(3, 16, 0.01)
    assert u.shape == (2, 16, 16)
    assert np.max(np.hypot(u[0], u[1])) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("owner, attr", [
    (kinetic, "transport_step"), (model, "KineticState"), (cli, "main"), (vbgk, "__version__"),
])
def test_bench_make_expected_targets(owner, attr):
    getattr(owner, attr)
