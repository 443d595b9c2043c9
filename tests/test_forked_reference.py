"""The Navier-Stokes reference of a file-data run, stepped in a forked child.

Patching driver.ForkedChannel to hand back the record stream it is given
gives the serial run each test compares with.
"""

import dataclasses
import os
import pickle
import re

import numpy as np
import pytest

from vbgk import diagnostics, driver, kinetic, navier_stokes
from vbgk.cli import main
from vbgk.config import parse_config_text
from vbgk.errors import BlowupDetected, CflViolation
from vbgk.grid import Grid
from vbgk.snapshots import write_snapshot

BASE = """
epsilon = 0.1
tau = 1.0
lambda = 2.0
nu = 0.01
rho_bar = 1.0
n = 32
t_end = 0.05
record_every = 1
"""


def serial_reference(monkeypatch):
    """Make runs iterate the reference records in-process, with no child."""
    monkeypatch.setattr(driver, "ForkedChannel", lambda items: items)


def file_config(tmp_path, n=32):
    """BASE on a divergence-free velocity u = (d psi/dy, -d psi/dx) read from a file."""
    g = Grid(n)
    x, y = g.x, g.y
    # psi = 0.5 sin(x + 2y) + 0.3 cos(3x - y)
    u1 = np.cos(x + 2 * y) + 0.3 * np.sin(3 * x - y)
    u2 = -0.5 * np.cos(x + 2 * y) + 0.9 * np.sin(3 * x - y)
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, np.stack([u1, u2]), 0.0)
    text = BASE.replace("n = 32", f"n = {n}") + f"initial_data = file:{path}\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    return str(cfg_path), parse_config_text(text)


def count_records(monkeypatch):
    calls = []
    compute_record = diagnostics.compute_record

    def counted(*args):
        calls.append(args[-1])
        return compute_record(*args)

    monkeypatch.setattr(diagnostics, "compute_record", counted)
    return calls


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [32, 256])
def test_forked_reference_equals_serial_at_every_record_time(tmp_path, n):
    # a record is the velocity and three pairings, 2 n^2 + 3 doubles: 16 KiB
    # at n = 32 and just over 1 MiB at n = 256, more than the channel's pipe
    # holds, so there the child blocks partway through writing each record;
    # t_end goes as dx, so every n has 12 records
    _, cfg = file_config(tmp_path, n)
    cfg = dataclasses.replace(cfg, t_end=0.05 * 32 / n)
    report = driver.validate(cfg)
    _, times = kinetic.step_times(report.solver, report.params, report.grid.dx)
    assert len(times) == 12
    assert n == 32 or (2 * n * n + 3) * 8 > driver.PIPE_BYTES
    serial = driver.ReferenceTrajectory(cfg, report.grid, report.u0)
    forked = driver.ForkedChannel(driver._reference_records(
        driver.ReferenceTrajectory(cfg, report.grid, report.u0), times))
    try:
        for t in times:
            t_ref, (u_ref, pairings) = next(forked)
            u = serial.at(t)
            assert t_ref == t
            assert np.array_equal(u_ref, u)
            assert np.array_equal(pairings, diagnostics.pressure_pairings(report.grid, u))
        with pytest.raises(EOFError):  # the child sent every record and exited
            next(forked)
    finally:
        forked.close()
    assert_no_child_process()


@pytest.mark.parametrize("source", ["taylor_green", "file"])
def test_run_rejects_a_reference_record_at_another_time(tmp_path, monkeypatch, source):
    # the in-process and the forked record stream meet the same check
    _, cfg = file_config(tmp_path)
    if source == "taylor_green":
        cfg = dataclasses.replace(cfg, initial_data="taylor_green")
    reference_records = driver._reference_records

    def skip_record_1(reference, times):
        return reference_records(reference, times[:1] + times[2:])

    monkeypatch.setattr(driver, "_reference_records", skip_record_1)
    records = count_records(monkeypatch)
    report = driver.validate(cfg)
    _, times = kinetic.step_times(report.solver, report.params, report.grid.dx)
    message = f"reference record 1 is at t = {times[2]!r}, not t = {times[1]!r}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        driver.run_simulation(cfg, report)
    assert records == times[:1]
    assert_no_child_process()


def test_record_cut_short_is_not_handed_out(tmp_path, monkeypatch):
    # the child sends records 0 and 1 whole, then record 2's header and the
    # first 1000 bytes of its arrays, and exits
    _, cfg = file_config(tmp_path)
    report = driver.validate(cfg)
    _, times = kinetic.step_times(report.solver, report.params, report.grid.dx)
    serve = driver._serve

    def cut_in_record_2(items, write_fd):
        def items_then_cut():
            for k, (t, (u, p)) in enumerate(items):
                if k == 2:
                    header = pickle.dumps((t, [u.shape, p.shape]))
                    os.write(write_fd, header + u.tobytes()[:1000])
                    os._exit(0)
                yield t, (u, p)

        serve(items_then_cut(), write_fd)

    monkeypatch.setattr(driver, "_serve", cut_in_record_2)
    records = count_records(monkeypatch)
    message = f"reference process ended before record 2 at t = {times[2]!r}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        driver.run_simulation(cfg)
    assert records == times[:2]
    assert_no_child_process()


def test_file_data_records_byte_identical_to_serial_reference(tmp_path, monkeypatch):
    cfg_path, _ = file_config(tmp_path)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "forked")]) == 0
    serial_reference(monkeypatch)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "serial")]) == 0
    forked = (tmp_path / "forked" / "records.csv").read_bytes()
    assert forked == (tmp_path / "serial" / "records.csv").read_bytes()
    assert len(forked.splitlines()) == 13  # header and 12 records


def test_taylor_green_run_forks_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a Taylor-Green run forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg_path = tmp_path / "tg.cfg"
    cfg_path.write_text(BASE)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def raise_cfl_at_call(monkeypatch, k):
    """Make the k-th navier_stokes._evolve call from now on raise CflViolation."""
    evolve = navier_stokes._evolve
    calls = []

    def patched(*args):
        calls.append(args)
        if len(calls) == k:
            raise CflViolation(f"advective CFL = 1.5 exceeds 1 (call {k})")
        return evolve(*args)

    monkeypatch.setattr(navier_stokes, "_evolve", patched)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_reference_cfl_violation_surfaces_at_the_serial_record(tmp_path, monkeypatch,
                                                               capsys, k):
    # record 0 is u0 itself and each later record advances the flow with one
    # _evolve call, so the k-th call fails at record k, after k records
    cfg_path, _ = file_config(tmp_path)
    outcomes = []
    for forked in (True, False):
        if not forked:
            serial_reference(monkeypatch)
        raise_cfl_at_call(monkeypatch, k)  # inherited by the child at the fork
        records = count_records(monkeypatch)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / str(forked))])
        outcomes.append((code, capsys.readouterr().err, len(records)))
        assert_no_child_process()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (2, f"error: advective CFL = 1.5 exceeds 1 (call {k})\n", k)


def nan_after_transport(monkeypatch, step):
    """Put a NaN into f after the step-th transport of a run."""
    transport = kinetic._transport
    calls = []

    def patched(ws, dt, mode):
        transport(ws, dt, mode)
        calls.append(dt)
        if len(calls) == step:
            ws.f[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(kinetic, "_transport", patched)


def test_kinetic_blowup_on_file_data_leaves_no_child(tmp_path, monkeypatch):
    _, cfg = file_config(tmp_path)
    errors = []
    for forked in (True, False):
        if not forked:
            serial_reference(monkeypatch)
        nan_after_transport(monkeypatch, 4)
        output = driver.run_simulation(cfg)
        assert_no_child_process()
        errors.append(output.error)
        assert len(output.records) == 4  # steps 0 to 3; step 4 made the NaN
    assert all(isinstance(e, BlowupDetected) for e in errors)
    assert str(errors[0]) == str(errors[1])
    assert "non-finite values in kinetic state" in str(errors[0])
    assert errors[0].t_last_good == errors[1].t_last_good == output.records[-1].t


def test_exception_in_on_record_leaves_no_child(tmp_path, monkeypatch):
    _, cfg = file_config(tmp_path)
    compute_record = diagnostics.compute_record
    calls = []

    def fails_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("record failed")
        return compute_record(*args)

    monkeypatch.setattr(diagnostics, "compute_record", fails_third)
    with pytest.raises(RuntimeError, match="record failed"):
        driver.run_simulation(cfg)
    assert_no_child_process()
