"""Sweep members spread over forked processes, binned by step count.

Patching os.sched_getaffinity sets how many processes a sweep uses: one CPU
gives the serial sweep every forked one is compared with.
"""

import fcntl
import os
import pickle

import numpy as np
import pytest

from vbgk import driver
from vbgk.cli import main
from vbgk.config import parse_config_text
from vbgk.errors import BlowupDetected
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
record_every = 5
"""


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def upwind_sweep(tmp_path):
    return BASE + "transport_mode = upwind\n"


def file_data_sweep(tmp_path):
    g = Grid(32)
    # u = (d psi/dy, -d psi/dx) for psi = 0.5 sin(x + 2y) + 0.3 cos(3x - y)
    u1 = np.cos(g.x + 2 * g.y) + 0.3 * np.sin(3 * g.x - g.y)
    u2 = -0.5 * np.cos(g.x + 2 * g.y) + 0.9 * np.sin(3 * g.x - g.y)
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, np.stack([u1, u2]), 0.0)
    return BASE.replace("t_end = 0.05", "t_end = 0.02") + f"initial_data = file:{path}\n"


def blowup_sweep(tmp_path):
    # lambda = 2 is linearly unstable: by t = 2 at n = 16 the members at
    # eps = 0.05 and 0.025 lose density positivity; 0.025 takes the most
    # steps, so with two processes it runs here and 0.05 in the child
    return BASE.replace("n = 32", "n = 16").replace("t_end = 0.05", "t_end = 2.0")


def sweep_files(out):
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("module, name", [(fcntl, "F_SETPIPE_SZ"), (os, "sched_getaffinity")],
                         ids=["F_SETPIPE_SZ", "sched_getaffinity"])
def test_run_and_sweep_without_a_linux_only_call_write_the_same_files(tmp_path, monkeypatch,
                                                                       module, name):
    # both exist only on Linux (sched_getaffinity on a few other systems):
    # without them the pipe keeps its default size, and a sweep takes
    # os.cpu_count() processes; file data forks in a run and in a sweep
    cfg = tmp_path / "file.cfg"
    cfg.write_text(file_data_sweep(tmp_path))
    files = {}
    for missing in (False, True):
        if missing:
            monkeypatch.delattr(module, name)
        work = tmp_path / f"missing_{missing}"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", "--config", str(cfg), "--out", "run"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", "sw"]) == 0
        files[missing] = sweep_files(work)
    assert len(files[False]) > 6
    assert files[True] == files[False]


@pytest.mark.parametrize("make_config, code", [
    (upwind_sweep, 0), (file_data_sweep, 0), (blowup_sweep, 3)])
def test_forked_sweep_files_and_output_byte_identical_to_serial(tmp_path, monkeypatch,
                                                                capsys, make_config, code):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(make_config(tmp_path))
    outcomes = {}
    for cpus in (1, 2, 4):
        use_cpus(monkeypatch, cpus)
        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        monkeypatch.chdir(work)  # the same --out, so the same stdout
        assert main(["sweep", "--config", str(cfg), "--out", "sw"]) == code
        outcomes[cpus] = capsys.readouterr(), sweep_files(work / "sw")
    assert outcomes[2] == outcomes[1]
    assert outcomes[4] == outcomes[1]
    out, files = outcomes[1]
    assert len(files) == 6  # study.csv, rates.txt and four records.csv
    if code == 3:
        # the blow-up grows from round-off, so these figures pin the rounding
        # of the transport kernel as well as the members that fail
        assert [line for line in out.out.splitlines() if "failed" in line] == [
            "member run eps=0.05 failed: density must be positive, min = -0.0273245"
            " (last good time t=1.23)",
            "member run eps=0.025 failed: density must be positive, min = -0.057131"
            " (last good time t=0.66625)",
        ]


def test_blowup_detected_survives_pickling():
    error = pickle.loads(pickle.dumps(BlowupDetected("x", 0.5)))
    assert type(error) is BlowupDetected
    assert str(error) == "x (last good time t=0.5)"
    assert error.t_last_good == 0.5


def test_step_bins_longest_processing_time_first():
    # the sweep_upwind members' step counts
    costs = {0.2: 102.0, 0.1: 204.0, 0.05: 408.0, 0.025: 815.0}
    assert driver.step_bins(costs, 1) == [[0.2, 0.1, 0.05, 0.025]]
    assert driver.step_bins(costs, 2) == [[0.025], [0.2, 0.1, 0.05]]
    assert driver.step_bins(costs, 3) == [[0.025], [0.05], [0.2, 0.1]]
    assert driver.step_bins(costs, 4) == [[0.025], [0.05], [0.1], [0.2]]


def fail_members(monkeypatch, epsilons):
    run_simulation = driver.run_simulation

    def failing(cfg, report):
        if cfg.epsilon in epsilons:
            raise RuntimeError(f"injected at eps = {cfg.epsilon:g}")
        return run_simulation(cfg, report)

    monkeypatch.setattr(driver, "run_simulation", failing)


@pytest.mark.parametrize("failing", [(0.1,), (0.05,), (0.2, 0.05)])
def test_member_error_raised_as_in_a_serial_sweep(tmp_path, monkeypatch, failing):
    # with two processes eps = 0.05 runs here and 0.2 and 0.1 in the child;
    # as in a serial sweep, the first failing member's error is raised
    cfg = parse_config_text(upwind_sweep(tmp_path))
    fail_members(monkeypatch, failing)
    errors = []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError) as exc_info:
            driver.run_sweep(cfg, [0.2, 0.1, 0.05], tmp_path / f"sw{cpus}")
        errors.append(exc_info.value)
    assert type(errors[0]) is type(errors[1]) is RuntimeError
    assert str(errors[0]) == str(errors[1]) == f"injected at eps = {failing[0]:g}"


def test_member_process_that_sends_nothing_is_named(tmp_path, monkeypatch):
    # eps = 0.1 ends its process: with three processes it runs alone in one
    # child, which sends nothing; with two it runs after 0.2 in one child,
    # which sends 0.2 first.  Either way only 0.1 is named, and every other
    # child is reaped all the same
    run_simulation = driver.run_simulation
    parent = os.getpid()

    def dies_in_child(cfg, report):
        if os.getpid() != parent and cfg.epsilon == 0.1:
            os._exit(1)
        return run_simulation(cfg, report)

    monkeypatch.setattr(driver, "run_simulation", dies_in_child)
    cfg = parse_config_text(upwind_sweep(tmp_path))
    for cpus in (3, 2):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match=r"^sweep member process for eps = 0\.1 "
                                               r"ended without its results$"):
            driver.run_sweep(cfg, [0.2, 0.1, 0.05], tmp_path / f"sw{cpus}")


class Interrupted(BaseException):
    pass


def test_interrupted_sweep_reaps_its_member_processes(tmp_path, monkeypatch):
    run_simulation = driver.run_simulation
    parent = os.getpid()

    def interrupted_here(cfg, report):
        if os.getpid() == parent:
            raise Interrupted
        return run_simulation(cfg, report)

    monkeypatch.setattr(driver, "run_simulation", interrupted_here)
    use_cpus(monkeypatch, 3)
    cfg = parse_config_text(upwind_sweep(tmp_path))
    with pytest.raises(Interrupted):
        driver.run_sweep(cfg, [0.2, 0.1, 0.05], tmp_path / "sw")


def test_sweep_members_capture_no_snapshots(tmp_path, monkeypatch, capfd):
    # members run without an output directory, in this process and in a
    # forked one; 0.01 and 0.011 fall on one record, which would warn in a run
    use_cpus(monkeypatch, 2)
    text = upwind_sweep(tmp_path)
    plain = parse_config_text(text)
    with_snapshots = parse_config_text(text + "snapshot_times = 0.01, 0.011, 0.05\n")
    driver.run_sweep(plain, [0.2, 0.1, 0.05], tmp_path / "plain")
    capfd.readouterr()
    driver.run_sweep(with_snapshots, [0.2, 0.1, 0.05], tmp_path / "snap")
    assert "snapshot" not in capfd.readouterr().err
    assert list((tmp_path / "snap").rglob("snapshot_*.vbgk")) == []
    assert sweep_files(tmp_path / "snap") == sweep_files(tmp_path / "plain")
