import os
import re
import weakref

import numpy as np
import pytest

from vbgk import driver, kinetic, navier_stokes, snapshots
from vbgk import grid as gridmod
from vbgk.cli import main
from vbgk.config import parse_config_text
from vbgk.errors import BlowupDetected
from vbgk.grid import Grid
from vbgk.navier_stokes import taylor_green, taylor_green_velocity
from vbgk.snapshots import read_snapshot, write_snapshot

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


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "a = 0.00125" in out
    assert "PASS" in out
    # lambda = 2, tau = 1, nu = 0.01 is not dissipative; the line only informs
    assert ("diffusive condition nu/tau = 0.01 vs (max characteristic speed)^2 = 1.49988: "
            "VIOLATED") in out
    assert "validation OK" in out


def test_validate_constraint_violation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("lambda = 2.0", "lambda = 0.1"))
    assert main(["validate", "--config", cfg]) == 2


def test_validate_subcharacteristic_failure(tmp_path, capsys):
    # a stays valid but the characteristic speeds exceed lambda
    cfg = write_cfg(tmp_path, BASE.replace("lambda = 2.0", "lambda = 0.15"))
    assert main(["validate", "--config", cfg]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_validate_parse_error_has_line_number(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "\nbroken line here\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "n = 7",
    "c_relax = -1",
    "record_every = 0",
    "dt = -0.1",
    "s_prime = -1",
    "s = 0",
    "initial_data = file:/nonexistent",
    "t_end = nan",
    "t_end = inf",
    "dt = nan",
    "c_relax = nan",
    "c_transp = nan",
    "snapshot_times = nan",
    "snapshot_times = 0.5",  # after t_end = 0.05
    "snapshot_times = -1",
    "s = inf",
    "s_prime = inf",
])
def test_run_bad_config_value_exits_1(tmp_path, capsys, line):
    key = line.split("=")[0].strip()
    text = "".join(row + "\n" for row in BASE.splitlines()
                   if row.split("=")[0].strip() != key)
    cfg = write_cfg(tmp_path, text + line + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "line 0" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
# the output directory, too, has one setting: --out
@pytest.mark.parametrize("line", ["dt = 1e-3", "c_transp = 0.5", "output_dir = out"])
def test_step_settings_other_than_c_relax_are_unknown_keys(tmp_path, capsys, line, command):
    cfg = write_cfg(tmp_path, BASE + line + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    key = line.split()[0]
    line_no = len(BASE.splitlines()) + 1
    assert capsys.readouterr().err == f"config error: line {line_no}: unknown key {key!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("eps, line", [
    (1e-15, "c_relax = 1e-300"),  # c_relax * tau*eps^2 = 1e-330 underflows to 0
    (1e-200, ""),  # tau*eps^2 = 1e-400 underflows to 0
    (1e-15, "c_relax = 1e-290"),  # dt = 1e-320 > 0, but t_end + dt == t_end
], ids=["c_relax", "eps", "subnormal"])
def test_step_that_underflows_to_0_is_a_constraint_violation(tmp_path, capsys, command,
                                                             eps, line):
    text = BASE.replace("n = 32", "n = 16").replace("epsilon = 0.1", f"epsilon = {eps:g}")
    cfg = write_cfg(tmp_path, text + f"transport_mode = upwind\n{line}\n")
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--epsilons", f"{eps:g},{2 * eps:g},{3 * eps:g}"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"constraint violation: time step dt = min\(relaxation bound "
                        r"(0|\d\.\d+e-\d+), transport bound \d\.\d+e-\d+\) = \1 is below "
                        r"the float spacing 6\.93889e-18 at t_end = 0\.05\n", err)


def test_run_equilibrium_records(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("t_end = 0.05", "t_end = 1.0")
                    + "initial_data = zero\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    records = (tmp_path / "out" / "records.csv").read_text().splitlines()
    header = records[0].split(",")
    assert header == ["t", "e0", "es", "dev_k", "dev_h", "dev_m", "dev_xi",
                      "eta_surrogate", "rho_min", "rho_max", "sup_bound_functional"]
    for line in records[1:]:
        vals = dict(zip(header, map(float, line.split(","))))
        assert abs(vals["e0"]) < 1e-10
        assert abs(vals["es"]) < 1e-10
        assert abs(vals["sup_bound_functional"]) < 1e-10


def test_run_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "records.csv").read_bytes()
            == (tmp_path / "b" / "records.csv").read_bytes())


def test_run_writes_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "snapshot_times = 0.0, 0.02\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    snaps = sorted((tmp_path / "out").glob("snapshot_*.vbgk"))
    assert len(snaps) == 2
    fields, t = read_snapshot(snaps[0])
    assert fields.shape == (15, 32, 32)
    assert t == 0.0


def test_last_record_takes_the_snapshot_times_left(tmp_path):
    # the run ends within 1e-12 * t_end of t_end = 20, at 19.999999999998685,
    # short of 20 - 1e-12
    cfg = write_cfg(tmp_path, """
epsilon = 0.2
tau = 0.25
lambda = 3
nu = 1
rho_bar = 1
n = 16
t_end = 20
c_relax = 0.8
record_every = 1000
snapshot_times = 10, 20
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    snaps = sorted((tmp_path / "out").glob("snapshot_*.vbgk"))
    assert [read_snapshot(path)[1] for path in snaps] == [15.999999999999124,
                                                          19.999999999998685]


def test_run_blowup_exit_code_and_partial_csv(tmp_path):
    # lam = 2 sits in the linearly unstable regime of the model; at
    # eps = 0.025 with exact transport the run aborts before t_end
    text = BASE.replace("epsilon = 0.1", "epsilon = 0.025")
    text = text.replace("n = 32", "n = 64").replace("t_end = 0.05", "t_end = 0.6")
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert len(lines) > 2  # partial records flushed


def test_reference_matches_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["reference", "--config", cfg, "--out", str(tmp_path / "ref")]) == 0
    snaps = sorted((tmp_path / "ref").glob("reference_*.vbgk"))
    fields, t = read_snapshot(snaps[0])
    assert t == 0.0
    g = Grid(32)
    exact, p_exact = taylor_green(g, 0.0, 0.01)
    assert np.max(np.abs(fields[0] - exact.u1)) < 1e-12
    assert np.max(np.abs(fields[1] - exact.u2)) < 1e-12
    assert np.max(np.abs(fields[2] - p_exact)) < 1e-12
    # energy column decays like exp(-4 nu t)
    rows = (tmp_path / "ref" / "reference.csv").read_text().splitlines()[1:]
    for row in rows[:: max(1, len(rows) // 5)]:
        t, energy = map(float, row.split(","))
        assert energy == pytest.approx(0.5 * np.exp(-4 * 0.01 * t), rel=1e-12)


def test_reference_rejects_divergent_file_data(tmp_path, capsys):
    # the file's velocity is checked once, as it is read, so every command
    # that reads it exits 2 with the message run prints
    g = Grid(32)
    u0 = np.stack([np.sin(g.x), np.zeros((32, 32))])  # not divergence-free
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, u0, 0.0)
    cfg = write_cfg(tmp_path, BASE + f"initial_data = file:{path}\n")
    errors = {}
    for command in ("run", "validate", "reference", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        errors[command] = capsys.readouterr().err
    assert errors["run"].startswith("constraint violation: initial velocity has spectral "
                                    "divergence ")
    assert set(errors.values()) == {errors["run"]}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_command_rejects_non_finite_file_data(tmp_path, capsys, bad):
    # a NaN divergence passes no "> 1e-10" test, so without the finiteness
    # check reference wrote NaN snapshots and exited 0
    g = Grid(32)
    u0, _ = taylor_green_velocity(g, 0.0, 0.01)
    u0[1, 3, 5] = bad
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, u0, 0.0)
    cfg = write_cfg(tmp_path, BASE + f"initial_data = file:{path}\n")
    for command in ("validate", "run", "sweep", "reference"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (f"config error: initial data file {path} has "
                                           "non-finite values\n")
        assert not list((tmp_path / command).rglob("*"))


def test_file_initial_data_round_trip(tmp_path):
    g = Grid(32)
    tg, _ = taylor_green(g, 0.0, 0.01)
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, np.stack([tg.u1, tg.u2]), 0.0)
    cfg = write_cfg(tmp_path, BASE + f"initial_data = file:{path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_sweep_small_real_study(tmp_path):
    text = BASE + "transport_mode = upwind\n"
    cfg = write_cfg(tmp_path, text)
    code = main(["sweep", "--config", cfg, "--epsilons", "0.2,0.1,0.05",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    study = (tmp_path / "sw" / "study.csv").read_text().splitlines()
    assert study[0] == ("epsilon,sup_e0,sup_es,sup_dev_k,sup_dev_h,sup_dev_m,sup_dev_xi,"
                        "press_err_cos2x,press_err_cos2y,press_err_sinxsiny")
    assert len(study) == 4
    eps_col = [float(r.split(",")[0]) for r in study[1:]]
    assert eps_col == sorted(eps_col, reverse=True)
    rates = (tmp_path / "sw" / "rates.txt").read_text().splitlines()
    pairing_line = r"  eps = 0\.2 {6}cos2x \S+e\S+  cos2y \S+e\S+  sinxsiny \S+e\S+"
    assert any(re.fullmatch(pairing_line, line) for line in rates)
    assert (tmp_path / "sw" / "eps_0.2" / "records.csv").exists()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_sweep_validates_and_reads_u0_once_per_member(tmp_path, monkeypatch):
    validates = count_calls(monkeypatch, driver, "validate")
    reads = count_calls(monkeypatch, driver, "initial_velocity")
    cfg = write_cfg(tmp_path, BASE.replace("t_end = 0.05", "t_end = 0.01")
                    + "transport_mode = upwind\n")
    assert main(["sweep", "--config", cfg, "--epsilons", "0.2,0.1,0.05",
                 "--out", str(tmp_path / "sw")]) == 0
    assert len(validates) == 3
    assert len(reads) == 3


def test_file_data_run_reads_snapshot_once(tmp_path, monkeypatch):
    g = Grid(32)
    tg, _ = taylor_green(g, 0.0, 0.01)
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, np.stack([tg.u1, tg.u2]), 0.0)
    reads = count_calls(monkeypatch, snapshots, "read_snapshot")
    cfg = write_cfg(tmp_path, BASE.replace("t_end = 0.05", "t_end = 0.01")
                    + f"initial_data = file:{path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(reads) == 1


def test_reference_requests_run_no_divergence_check(tmp_path, monkeypatch):
    # the initial velocity is checked once as it is read; a request hands out
    # the reference velocity as an array and checks nothing
    g = Grid(32)
    u0, _ = taylor_green_velocity(g, 0.0, 0.01)
    path = tmp_path / "u0.vbgk"
    write_snapshot(path, u0, 0.0)
    exact, _ = taylor_green_velocity(g, 0.0035, 0.01)
    for source in ("taylor_green", f"file:{path}"):
        cfg = parse_config_text(BASE + f"initial_data = {source}\n")
        reference = driver.ReferenceTrajectory(cfg, g, driver.initial_velocity(cfg, g))
        checks = [count_calls(monkeypatch, module, "spectral_divergence")
                  for module in (navier_stokes, gridmod)]
        u, _ = reference.at(0.0035)  # file data: four substeps of at most 1e-3
        assert checks == [[], []]
        assert u.shape == (2, 32, 32)
        assert np.max(np.abs(u - exact)) < 1e-12
        monkeypatch.undo()
    assert reference._flow.t == 0.0035  # the file reference's flow


def test_sweep_invalid_member_fails_before_any_run(tmp_path, monkeypatch):
    runs = count_calls(monkeypatch, kinetic, "run")
    cfg = write_cfg(tmp_path, BASE)
    # members run in decreasing-epsilon order, so eps = 0 would come last
    assert main(["sweep", "--config", cfg, "--epsilons", "0.2,0.1,0",
                 "--out", str(tmp_path / "sw")]) == 2
    assert runs == []


@pytest.mark.parametrize("first_member_blows_up", [False, True])
def test_sweep_frees_each_report_once_its_member_has_run(tmp_path, monkeypatch,
                                                         first_member_blows_up):
    # the parent keeps the ValidationReport, with its initial velocity, of
    # only the members it has still to run: those of a forked child are
    # dropped once the child is forked, its own once each has run; a member
    # that blew up keeps its error, but not the frames of its run
    refs, alive = {}, {}
    validated, run_simulation, run = driver.validated, driver.run_simulation, kinetic.run

    def recorded(cfg):
        report = validated(cfg)
        refs[cfg.epsilon] = weakref.ref(report)
        return report

    def wrapped(cfg, report):
        alive[cfg.epsilon] = sorted(eps for eps, ref in refs.items() if ref() is not None)
        return run_simulation(cfg, report)

    def blows_up(state, *args):
        # 0.2 runs in this process, 0.19 in the child when there are two
        if first_member_blows_up and state.params.epsilon in (0.2, 0.19):
            raise BlowupDetected("injected", 0.0)
        return run(state, *args)

    monkeypatch.setattr(driver, "validated", recorded)
    monkeypatch.setattr(driver, "run_simulation", wrapped)
    monkeypatch.setattr(kinetic, "run", blows_up)
    cfg = parse_config_text(BASE.replace("t_end = 0.05", "t_end = 0.01")
                            + "transport_mode = upwind\n")
    # the step counts go as 1/eps, so two bins are {0.2, 0.17} and {0.19, 0.18}
    epsilons = [0.2, 0.19, 0.18, 0.17]
    expected = {
        1: {0.2: epsilons[::-1], 0.19: [0.17, 0.18, 0.19], 0.18: [0.17, 0.18], 0.17: [0.17]},
        2: {0.2: [0.17, 0.2], 0.17: [0.17]},
    }
    for cpus, alive_at_run in expected.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        refs.clear()
        alive.clear()
        sweep = driver.run_sweep(cfg, epsilons, tmp_path / f"sw{cpus}")
        assert alive == alive_at_run
        assert [ref() for ref in refs.values()] == [None] * 4
        assert sorted(sweep.failures) == ([0.19, 0.2] if first_member_blows_up else [])
        for eps in sweep.failures:
            assert sweep.runs[eps].error.__traceback__ is None


def test_sweep_rejects_too_few_epsilons(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--epsilons", "0.2,0.1"]) == 1
    # repeated values count once
    assert main(["sweep", "--config", cfg, "--epsilons", "0.1,0.1,0.1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: sweep needs >= 3 epsilons, got 2",
        "config error: sweep needs >= 3 epsilons, got 1",
    ]


def test_sweep_rejects_epsilons_that_name_one_directory(tmp_path, capsys, monkeypatch):
    # eps_{eps:g} is eps_0.1 for both 0.1 and 0.1000001, so one member's
    # records.csv would overwrite the other's
    validations = count_calls(monkeypatch, driver, "validated")
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--epsilons", "0.1,0.1000001,0.05",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: epsilons 0.1000001 and 0.1 would both write {out / 'eps_0.1'}\n")
    assert validations == [] and not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "reference"])
@pytest.mark.parametrize("out, reason", [("taken", "File exists"),
                                         ("taken/sub", "Not a directory")])
def test_output_directory_that_cannot_be_made_exits_1(tmp_path, capsys, command, out,
                                                      reason):
    (tmp_path / "taken").write_text("")
    cfg = write_cfg(tmp_path, BASE)
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot make output directory {tmp_path / out}: {reason}\n")


@pytest.mark.parametrize("command, name", [
    ("run", "records.csv"), ("run", "snapshot_000.vbgk"), ("sweep", "study.csv"),
    ("reference", "reference.csv"),
])
def test_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_cfg(tmp_path, BASE.replace("t_end = 0.05", "t_end = 0.01")
                    + "transport_mode = upwind\nsnapshot_times = 0\n")
    args = [command, "--config", cfg, "--out", str(out)]
    if command == "sweep":
        args += ["--epsilons", "0.2,0.1,0.05"]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"config error: cannot write {out / name}:"
                                       " Is a directory\n")


def test_sweep_member_directory_that_cannot_be_made_exits_1(tmp_path, capsys, monkeypatch):
    # the member directories are made before any member runs
    runs = count_calls(monkeypatch, driver, "run_simulation")
    out = tmp_path / "sw"
    out.mkdir()
    (out / "eps_0.1").write_text("")
    cfg = write_cfg(tmp_path, BASE.replace("t_end = 0.05", "t_end = 0.01")
                    + "transport_mode = upwind\n")
    assert main(["sweep", "--config", cfg, "--epsilons", "0.2,0.1,0.05",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot make output directory {out / 'eps_0.1'}: File exists\n")
    assert runs == []


def test_sweep_on_zero_data_exits_0_and_names_unfitted_functionals(tmp_path):
    # at rest every functional is exactly 0, which no log-log fit takes; the
    # sweep completes and names each functional it left out
    cfg = write_cfg(tmp_path, BASE.replace("n = 32", "n = 16").replace("nu = 0.01", "nu = 1.0")
                    .replace("tau = 1.0", "tau = 0.25").replace("lambda = 2.0", "lambda = 3.0")
                    + "initial_data = zero\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    rates = (tmp_path / "sw" / "rates.txt").read_text().splitlines()
    assert len((tmp_path / "sw" / "study.csv").read_text().splitlines()) == 5
    assert rates[3:9] == [f"{name:8s} not fitted: sup is 0 at eps = 0.2, 0.1, 0.05, 0.025"
                          for name in driver.RATE_FUNCTIONALS]


def test_sweep_output_independent_of_member_order(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "transport_mode = upwind\n")
    for order, name in (("0.2,0.1,0.05", "fwd"), ("0.05,0.2,0.1", "shuffled")):
        assert main(["sweep", "--config", cfg, "--epsilons", order,
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "fwd" / "study.csv").read_bytes()
            == (tmp_path / "shuffled" / "study.csv").read_bytes())
