"""Tests of the benchmark's own machinery.

    python3 -m pytest bench        (from the repository root)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from check import compare, fingerprint  # noqa: E402
from child import install_spans  # noqa: E402
from inputs import KMAX, vortex_velocity  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, child_env  # noqa: E402


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, thread=thread,
                request=None)


def test_self_time_subtracts_children():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 4.0, 5.0, 0),
             span(3, 1.5, 2.0, 1)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(7.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once_and_clips():
    # children from two threads overlap in [2, 3]; the last runs past the parent
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0, thread=1),
             span(2, 2.0, 5.0, 0, thread=2), span(3, 9.0, 12.0, 0, thread=2)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def _package_attributes():
    import numpy.fft

    from vbgk import driver

    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "vbgk" or name.startswith("vbgk."))]
    owners = mods + [numpy.fft, driver.ReferenceTrajectory]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_wrappers_record_spans_and_are_restored():
    from vbgk import kinetic
    from vbgk.grid import Grid
    from vbgk.model import initial_kinetic_state, make_params
    from vbgk.navier_stokes import taylor_green

    grid = Grid(16)
    params = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    ref, _ = taylor_green(grid, 0.0, 0.01)
    state = initial_kinetic_state(grid, np.stack([ref.u1, ref.u2]), params)
    before = _package_attributes()

    tracer = Tracer()
    install_spans(tracer)
    try:
        assert kinetic.relaxation_step is not before[(id(kinetic), "relaxation_step")]
        kinetic.strang_step(state, 1e-3, "spectral")
    finally:
        tracer.uninstall()

    assert _package_attributes() == before
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (strang,) = by_name["kinetic.strang_step"]
    assert [s.parent for s in by_name["kinetic.relaxation_step"]] == [strang.id, strang.id]
    relax_ids = {s.id for s in by_name["kinetic.relaxation_step"]}
    assert {s.parent for s in by_name["model.maxwellians"]} == relax_ids
    (transport,) = by_name["kinetic.transport_step"]
    assert transport.fft == 2 and strang.fft == 2 and tracer.fft_total() == 2
    recorded = len(tracer.spans)
    kinetic.strang_step(state, 1e-3, "spectral")
    assert len(tracer.spans) == recorded


def test_sweep_metrics_from_member_spans():
    wl = WORKLOADS["sweep_upwind"]
    spans = [Span(0, "driver.run_sweep", 0.0, 10.0, None, 1, None)]
    # two workers: members of 4 s and 2 s on one, 3 s and 1 s on the other
    for i, (start, end, thread) in enumerate([(0, 4, 1), (0, 3, 2), (3, 4, 2), (4, 6, 1)]):
        spans.append(Span(i + 1, "driver.run_simulation", start, end, 0, thread, 0.1 * i))
    metrics, sweep_s = run.layer_metrics(spans, 0, wl, threads=2)
    assert sweep_s == 10.0
    assert metrics["driver.run_sweep.imbalance"] == pytest.approx(4 / 2.5)
    assert metrics["driver.run_sweep.pool_busy_frac"] == pytest.approx(10 / (2 * 6))
    assert metrics["navier_stokes.ns_step.calls"] == 0


def test_output_check_reports_perturbed_expected_value():
    entry = json.loads((HERE / "expected.json").read_text())["bounded_spectral"]
    expected, tolerance = entry["expected"], entry["tolerance"]
    observed = dict(expected)
    assert compare(observed, expected, tolerance) == []

    key = "records.e0.last"
    perturbed = dict(expected, **{key: expected[key] * (1.0 + 1e-6)})
    problems = compare(observed, perturbed, tolerance)
    assert len(problems) == 1 and problems[0].startswith(key)

    assert compare(dict(observed, **{"records.rows": 6}), expected, tolerance)
    assert compare({k: v for k, v in observed.items() if k != key}, expected, tolerance)
    assert compare(dict(observed, **{key: float("nan")}), expected, tolerance)


def test_fingerprint_reads_records_and_snapshots(tmp_path):
    from vbgk.snapshots import write_snapshot

    (tmp_path / "records.csv").write_text("t,e0\n0,1\n0.5,3\n1,2\n")
    write_snapshot(tmp_path / "snapshot_000.vbgk", np.zeros((1, 8, 8)), 0.5)
    fp = fingerprint(WORKLOADS["bounded_spectral"], tmp_path)
    assert fp["records.rows"] == 3
    assert (fp["records.e0.last"], fp["records.e0.max"], fp["records.e0.mean"]) == (2, 3, 2)
    assert fp["snapshots.count"] == 1 and fp["snapshots.0.time"] == 0.5
    assert fp["snapshots.0.bytes"] == 20 + 8 * 8 * 8


def test_vortex_input_is_seeded_divergence_free_and_normalised():
    from vbgk.grid import Grid, linf_norm, spectral_divergence

    a = vortex_velocity(3, 32, 0.01)
    assert np.array_equal(a, vortex_velocity(3, 32, 0.01))
    assert not np.allclose(a, vortex_velocity(4, 32, 0.01))
    assert np.max(np.hypot(a[0], a[1])) == pytest.approx(1.0)
    assert linf_norm(spectral_divergence(Grid(32), a[0], a[1])) < 1e-12
    spectrum = np.abs(np.fft.fft2(a[0])) / 32 ** 2
    k = np.fft.fftfreq(32, 1 / 32)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    assert np.max(spectrum[(ksq > KMAX ** 2) | (ksq == 0)]) < 1e-14


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("mode", ["plain", "trace"])
def test_child_process_writes_a_result_in_every_mode(tmp_path, mode):

    wl = Workload(name="tiny_sweep", command="sweep", threads=2, epsilons=(0.2, 0.1, 0.05),
                  config={"epsilon": "0.2", "tau": "1.0", "lambda": "2.0", "nu": "0.01",
                          "rho_bar": "1.0", "n": "16", "t_end": "0.02", "record_every": "5",
                          "transport_mode": "upwind"})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.config_text())
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--",
         *wl.argv(str(cfg), str(tmp_path / "out"))],
        env=child_env(dict(os.environ), wl, str(HERE.parent / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 0 and result["run_starts"]
    assert ("spans" in result) == (mode == "trace")
    assert (tmp_path / "out" / "study.csv").is_file()
