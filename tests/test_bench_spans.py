"""The functions bench/child.py wraps for its traced spans exist in the package.

`bench/run.py --trace 1` looks every span target up by name; this loads
bench/child.py by path and runs its install_spans against a stand-in tracer,
so a rename in src/ that would break the traced benchmark fails here.
"""

import importlib.util
from pathlib import Path

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


def test_bench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tracer = LookupTracer()
    child.install_spans(tracer)
    assert "diagnostics.compute_record" in tracer.names
    assert "driver.ReferenceTrajectory.at" in tracer.names
