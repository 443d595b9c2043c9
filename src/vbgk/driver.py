"""Orchestration shared by the CLI commands: validated runs, sweeps, reports.

All CSV output uses 17-significant-digit floats so files round-trip losslessly
and byte-identical reruns can be asserted.

A run on any data but Taylor-Green steps its Navier-Stokes reference in a
forked child process (``ForkedReference``), so the reference overlaps the
kinetic steps and records instead of adding to them.  The reference does not
depend on the kinetic state and the run's record times are known before it
starts (``kinetic.step_times``), so the child walks those times through
``ReferenceTrajectory.at``, the one reference code path.  The slot protocol:

* a shared anonymous mmap holds two slots, each a (3, n, n) float array of
  (u1, u2, p); record k goes to slot k % 2;
* after filling a slot the child sends the pickled pair (t, None) over a
  "ready" pipe; if ``at`` raised, it sends (t, error) instead and stops;
* the parent hands slot (k - 1) % 2 back, one byte over a "free" pipe, when
  it asks for record k, so the child runs at most one record ahead; the
  parent checks that the slot's t equals the requested t exactly and raises
  a reported error at that record, with its type and message;
* the child ends with ``os._exit`` (no stdio flush, no atexit handlers), on
  its last record, an error, or EOF or EPIPE on either pipe; ``close``
  closes the parent's ends and reaps the child with ``waitpid``.

The fork comes just before ``kinetic.run``, after the run's other set-up: in
a prototype that forked at the start of ``run_simulation``, the child's work
competed with the parent's set-up, which took 8-24% longer on 2 vCPU.
Taylor-Green runs and ``vbgk reference`` evaluate the reference in-process.
"""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import kinetic, model, navier_stokes, snapshots
from .config import RunConfig
from .errors import (
    BlowupDetected,
    ConfigError,
    ConstraintViolation,
    NonPositiveDensity,
)
from .grid import Grid
from .model import ModelParams

#: records.csv columns whose sup over a run is fitted against epsilon
RATE_FUNCTIONALS = ("e0", "es", "dev_k", "dev_h", "dev_m", "dev_xi")

STUDY_HEADER = ",".join(["epsilon"] + [f"sup_{name}" for name in RATE_FUNCTIONALS]
                        + [f"press_err_{phi}" for phi in diag.PRESSURE_TEST_FUNCTIONS])


def fmt(x: float) -> str:
    return f"{x:.17g}"


def build_grid(cfg: RunConfig) -> Grid:
    try:
        return Grid(cfg.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_params(cfg: RunConfig) -> ModelParams:
    return model.make_params(cfg.epsilon, cfg.tau, cfg.lam, cfg.nu, cfg.rho_bar)


def solver_config(cfg: RunConfig) -> kinetic.SolverConfig:
    try:
        return kinetic.SolverConfig(
            t_end=cfg.t_end,
            c_relax=cfg.c_relax,
            transport_mode=cfg.transport_mode,
            record_every=cfg.record_every,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def initial_velocity(cfg: RunConfig, grid: Grid) -> np.ndarray:
    """Initial velocity field (2, n, n) from the configured source.

    Velocity read from a file is checked here to be divergence-free, so
    validate, run, sweep and reference all reject the same data.
    """
    if cfg.initial_data == "taylor_green":
        return navier_stokes.taylor_green_velocity(grid, 0.0, cfg.nu)[0]
    if cfg.initial_data == "zero":
        return np.zeros((2, grid.n, grid.n))
    fields, _ = snapshots.read_snapshot(cfg.initial_data_path)
    if fields.shape != (2, grid.n, grid.n):
        raise ConfigError(
            f"initial data file has shape {fields.shape}, expected (2, {grid.n}, {grid.n})"
        )
    model.check_divergence_free(grid, fields)
    return fields


@dataclass(frozen=True)
class ValidationReport:
    """Checks of one config, with the grid, initial velocity u0 and solver they read."""

    params: ModelParams
    grid: Grid
    u0: np.ndarray
    subchar: model.SubcharacteristicReport
    solver: kinetic.SolverConfig

    @property
    def passed(self) -> bool:
        return self.subchar.passed

    @property
    def dissipative(self) -> bool:
        """nu/tau above the squared maximum characteristic speed on the box.

        Near equilibrium this is nu > tau*P'(rho_bar); where it fails the
        acoustic modes grow at every eps (README stability notes).  It is
        informational and not part of `passed`.
        """
        return self.params.nu / self.params.tau > self.subchar.max_char_speed ** 2

    def lines(self) -> list[str]:
        dt_relax, dt_transp = self.solver.dt_bounds(self.params, self.grid.dx)
        return [
            f"a = {self.params.a:.6g}  (nu/(2*lambda^2*tau), must lie in (0, 0.25))",
            f"subcharacteristic: {'PASS' if self.subchar.passed else 'FAIL'}"
            f"  speed margin = {self.subchar.speed_margin:.6g}"
            f"  (max characteristic speed {self.subchar.max_char_speed:.6g}"
            f" vs lambda {self.params.lam:.6g})",
            f"m5 coefficient 1-4a = {self.subchar.m5_coefficient:.6g}",
            "min eigenvalue of a*I +/- A'/(2 lambda) = "
            f"{self.subchar.min_maxwellian_jacobian_eig:.6g} (informational)",
            f"diffusive condition nu/tau = {self.params.nu / self.params.tau:.6g}"
            f" vs (max characteristic speed)^2 = {self.subchar.max_char_speed ** 2:.6g}"
            f": {'OK' if self.dissipative else 'VIOLATED'} (informational)",
            f"dt policy: relaxation bound {dt_relax:.6g}, transport bound {dt_transp:.6g}"
            f", dt = {self.solver.base_dt(self.params, self.grid.dx):.6g}",
        ]


def validate(cfg: RunConfig) -> ValidationReport:
    """Parameter constraints plus the sub-characteristic box check."""
    params = build_params(cfg)
    grid = build_grid(cfg)
    solver = solver_config(cfg)
    u0 = initial_velocity(cfg, grid)
    u_max = float(np.max(np.sqrt(u0[0] ** 2 + u0[1] ** 2)))
    return ValidationReport(
        params=params,
        grid=grid,
        u0=u0,
        subchar=model.check_subcharacteristic(params, u_max),
        solver=solver,
    )


def validated(cfg: RunConfig) -> ValidationReport:
    """validate(cfg), raising ConstraintViolation when the check fails."""
    report = validate(cfg)
    if not report.passed:
        raise ConstraintViolation(
            "sub-characteristic check failed: " + "; ".join(report.lines())
        )
    return report


class ReferenceTrajectory:
    """Reference velocity (2, n, n) and pressure evaluated at increasing times.

    Taylor-Green data uses the closed form (zero reference error).  Every
    other source, zero data included, advances the pseudo-spectral solver
    from u0, the initial velocity the caller has read and checked, between
    requested times.  The flow stays in vorticity coefficients from one
    request to the next; a request that steps converts it to velocity once,
    and a time within 1e-14 of the last one (t = 0 at first) gets the last
    velocity again, so t = 0 gives u0.
    """

    def __init__(self, cfg: RunConfig, grid: Grid, u0: np.ndarray):
        self._cfg = cfg
        self._grid = grid
        if cfg.initial_data != "taylor_green":
            self._u = u0
            self._flow = navier_stokes.VorticityFlow(grid, u0, cfg.nu, 0.0)
            u_max = max(float(np.max(np.abs(u0))), 1e-8)
            self._dt_max = min(1e-3, 0.25 * grid.dx / u_max)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self._cfg.initial_data == "taylor_green":
            return navier_stokes.taylor_green_velocity(self._grid, t, self._cfg.nu)
        if self._flow.advance(t, self._dt_max):
            self._u = self._flow.velocity()
        return self._u, navier_stokes.pressure_from_velocity(self._grid, self._u)


class ForkedReference:
    """reference.at at the increasing record times, stepped in a forked child.

    ``at(t)`` must be asked for the times in order and returns views into a
    shared slot, valid until the next call; ``close`` ends the child.  The
    slot protocol is in the module docstring.
    """

    def __init__(self, reference: ReferenceTrajectory, times: list[float], n: int):
        self._records = len(times)
        self._k = 0
        self._slots = np.ndarray((2, 3, n, n), buffer=mmap.mmap(-1, 2 * 3 * n * n * 8))
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if self._pid == 0:
            os.close(ready_r)
            os.close(free_w)
            _serve_reference(reference, times, self._slots, ready_w, free_r)
        os.close(ready_w)
        os.close(free_r)
        self._ready = os.fdopen(ready_r, "rb")
        self._free = free_w

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        k = self._k
        if 0 < k < self._records - 1:
            try:
                os.write(self._free, b"\0")  # slot (k - 1) % 2 takes record k + 1
            except BrokenPipeError:
                pass  # the child has stopped; what it sent is still in the ready pipe
        try:
            t_slot, error = pickle.load(self._ready)
        except EOFError:
            raise RuntimeError(f"reference process ended before record {k} at t = {t!r}") \
                from None
        if error is not None:
            raise error
        if t_slot != t:
            raise RuntimeError(f"reference record {k} is at t = {t_slot!r}, not t = {t!r}")
        self._k += 1
        slot = self._slots[k % 2]
        return slot[:2], slot[2]

    def close(self) -> None:
        """Close the pipes, so a waiting child exits, and reap the child."""
        os.close(self._free)
        self._ready.close()
        os.waitpid(self._pid, 0)


def _serve_reference(reference, times, slots, ready_fd: int, free_fd: int):
    """The forked child's body: fill slots at times until done, then os._exit.

    It runs transforms and elementwise numpy code only, none of which uses
    the BLAS threads that numpy may have started in the parent and that the
    fork does not copy.
    """
    try:
        with os.fdopen(ready_fd, "wb") as ready:
            for k, t in enumerate(times):
                # from record 2 on, wait until the parent frees slot k % 2
                if k >= 2 and not os.read(free_fd, 1):
                    break
                try:
                    u, p = reference.at(t)
                except Exception as exc:
                    pickle.dump((t, exc), ready)
                    break
                slots[k % 2, :2] = u
                slots[k % 2, 2] = p
                pickle.dump((t, None), ready)
                ready.flush()
    finally:
        os._exit(0)


@dataclass
class SimulationOutput:
    records: list[diag.DiagnosticsRecord]
    error: Exception | None
    snapshots: dict[float, model.KineticState]

    @property
    def completed(self) -> bool:
        return self.error is None

    def sup(self, name: str) -> float:
        return max(getattr(r, name) for r in self.records)

    def mean_pairing_error(self, phi: str) -> float:
        """Time-averaged pairing mismatch |<recovered - p_ref, phi>|."""
        return abs(float(np.mean([r.pairing_error[phi] for r in self.records])))


def run_simulation(cfg: RunConfig,
                   report: ValidationReport | None = None) -> SimulationOutput:
    """Validated kinetic run with per-record diagnostics.

    report is `validated(cfg)` when the caller has already made it.  On
    blow-up the partial records collected so far are kept and the exception
    is stored on the output instead of propagating.  States at the first
    record time at or after each configured snapshot time are captured.
    On any data but Taylor-Green the reference is stepped by a forked child
    (ForkedReference), which is reaped before this returns or raises.
    """
    report = validated(cfg) if report is None else report
    params, grid, u0 = report.params, report.grid, report.u0
    # made before the run's other arrays: made after them, the three test
    # functions held a vortex_reference process's peak RSS about 0.75 MB higher
    phis = diag.pressure_test_functions(grid)
    state0 = model.initial_kinetic_state(grid, u0, params)
    reference = ReferenceTrajectory(cfg, grid, u0)
    forked = None
    if cfg.initial_data != "taylor_green":
        _, times = kinetic.step_times(report.solver, params, grid.dx)
        reference = forked = ForkedReference(reference, times, grid.n)

    records: list[diag.DiagnosticsRecord] = []
    captured: dict[float, model.KineticState] = {}
    pending = sorted(cfg.snapshot_times)

    def on_record(t, state, step):
        u_ref, p_ref = reference.at(t)
        records.append(diag.compute_record(state, u_ref, p_ref, phis, cfg.s_prime, t))
        # snapshots keyed by the actual record time reached
        while pending and t >= pending[0] - 1e-12:
            pending.pop(0)
            captured[t] = state

    error = None
    try:
        kinetic.run(state0, report.solver, on_record)
    except (BlowupDetected, NonPositiveDensity) as exc:
        # kept without its traceback, whose frames hold the run's arrays
        error = exc.with_traceback(None)
    finally:
        if forked is not None:
            forked.close()
    return SimulationOutput(
        records=records,
        error=error,
        snapshots=captured,
    )


def write_records_csv(records, path) -> None:
    lines = [",".join(diag.RECORD_COLUMNS)]
    for r in records:
        lines.append(",".join(fmt(getattr(r, name)) for name in diag.RECORD_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def run_to_files(cfg: RunConfig, out_dir) -> SimulationOutput:
    """cmd_run body: records.csv plus optional snapshots at requested times."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output = run_simulation(cfg)
    write_records_csv(output.records, out_dir / "records.csv")
    for i, (t, state) in enumerate(sorted(output.snapshots.items())):
        snapshots.write_snapshot(
            out_dir / f"snapshot_{i:03d}.vbgk",
            state.f.reshape(15, cfg.n, cfg.n),
            t,
        )
    return output


@dataclass
class SweepOutput:
    epsilons: list[float]
    runs: dict[float, SimulationOutput]
    fits: dict[str, diag.ConvergenceStudyResult]
    failures: dict[float, str]


def _study_row(eps: float, output: SimulationOutput) -> str:
    """The study.csv row of one member, in STUDY_HEADER's order."""
    return ",".join(fmt(v) for v in (
        [eps] + [output.sup(name) for name in RATE_FUNCTIONALS]
        + [output.mean_pairing_error(phi) for phi in diag.PRESSURE_TEST_FUNCTIONS]))


def run_sweep(cfg: RunConfig, epsilons, out_dir) -> SweepOutput:
    """One simulation per epsilon, run in decreasing-epsilon order, then rate fits."""
    epsilons = sorted({float(e) for e in epsilons}, reverse=True)
    if len(epsilons) < 3:
        raise ConfigError(f"sweep needs >= 3 epsilons, got {len(epsilons)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    configs = {eps: cfg.with_epsilon(eps) for eps in epsilons}
    # every member is checked before any member runs; a member's report, with
    # its initial velocity, is dropped once that member has run
    reports = {eps: validated(sub) for eps, sub in configs.items()}
    runs = {eps: run_simulation(configs[eps], reports.pop(eps)) for eps in epsilons}
    failures: dict[float, str] = {}
    for eps in epsilons:
        sub_dir = out_dir / f"eps_{eps:g}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        write_records_csv(runs[eps].records, sub_dir / "records.csv")
        if not runs[eps].completed:
            failures[eps] = str(runs[eps].error)

    ok = [eps for eps in epsilons if eps not in failures]
    rows = [STUDY_HEADER] + [_study_row(eps, runs[eps]) for eps in ok]
    (out_dir / "study.csv").write_text("\n".join(rows) + "\n")

    # a log-log fit needs every supremum above 0; on zero data some are 0
    fits: dict[str, diag.ConvergenceStudyResult] = {}
    if len(ok) >= 3:
        for name in RATE_FUNCTIONALS:
            sups = [runs[e].sup(name) for e in ok]
            if all(sup > 0.0 for sup in sups):
                fits[name] = diag.fit_rate(ok, sups)
    (out_dir / "rates.txt").write_text(rates_report(cfg, fits, runs, ok, failures))
    return SweepOutput(epsilons=epsilons, runs=runs, fits=fits, failures=failures)


def rates_report(cfg: RunConfig, fits, runs, ok_epsilons, failures) -> str:
    lines = [
        "convergence rates: least-squares slope of log(sup_t functional) vs log(epsilon)",
        f"epsilons: {', '.join(f'{e:g}' for e in ok_epsilons)}",
        "",
    ]
    for name in RATE_FUNCTIONALS:
        fit = fits.get(name)
        if fit is not None:
            lines.append(
                f"{name:8s} slope = {fit.slope: .4f}  intercept = {fit.intercept: .4f}"
                f"  max residual = {fit.residual:.3e}"
            )
        elif len(ok_epsilons) >= 3:
            zero = [f"{e:g}" for e in ok_epsilons if not runs[e].sup(name) > 0.0]
            lines.append(f"{name:8s} not fitted: sup is 0 at eps = {', '.join(zero)}")
    delta_stmt = (cfg.s - cfg.s_prime) / (2.0 * cfg.s)
    delta_proof = cfg.s_prime / (2.0 * cfg.s)
    lines += [
        "",
        f"es target readings for s = {cfg.s:g}, s' = {cfg.s_prime:g}:",
        f"  1/2 - (s - s')/(2s) = {0.5 - delta_stmt:.4f}",
        f"  1/2 - s'/(2s)       = {0.5 - delta_proof:.4f}",
        "",
        "pressure pairing mismatch, time-averaged |<recovered - p_ref, phi>|:",
    ]
    for eps in ok_epsilons:
        lines.append(f"  eps = {eps:<8g} " + "  ".join(
            f"{phi} {runs[eps].mean_pairing_error(phi):.6e}"
            for phi in diag.PRESSURE_TEST_FUNCTIONS))
    if failures:
        lines.append("")
        for eps, msg in failures.items():
            lines.append(f"FAILED eps = {eps:g}: {msg}")
    lines += [
        "",
        "notes: entropy uses the quadratic surrogate with weight 1/(2 rho_bar);",
        "the eta_surrogate column is that surrogate, not a kinetic entropy.",
    ]
    return "\n".join(lines) + "\n"


def reference_to_files(cfg: RunConfig, out_dir) -> list[float]:
    """cmd_reference body: reference snapshots + energy series at record times."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = validate(cfg)
    _, times = kinetic.step_times(report.solver, report.params, report.grid.dx)
    reference = ReferenceTrajectory(cfg, report.grid, report.u0)
    rows = ["t,energy"]
    for i, t in enumerate(times):
        u, p = reference.at(t)
        snapshots.write_snapshot(out_dir / f"reference_{i:03d}.vbgk", np.stack([*u, p]), t)
        rows.append(f"{fmt(t)},{fmt(float(np.mean(u[0] ** 2 + u[1] ** 2)))}")
    (out_dir / "reference.csv").write_text("\n".join(rows) + "\n")
    return times
