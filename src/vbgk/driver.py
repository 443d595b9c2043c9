"""Orchestration shared by the CLI commands: validated runs, sweeps, reports.

All CSV output uses 17-significant-digit floats so files round-trip losslessly
and byte-identical reruns can be asserted.

The Navier-Stokes reference of a run and the members of a sweep run in
forked children through one channel, ``ForkedChannel``, an iterator over the
items of a generator that the child iterates.  The child sends each item
over one pipe: a pickled header (the value and its arrays' shapes), then the
arrays' raw float64 bytes, never pickled.  The parent reads the header, then
the bytes with ``readinto`` into one buffer it allocated once, and hands out
views valid until the next item; a short read raises EOFError, so a partly
sent item is never handed out.  An exception out of the generator is sent in
place of an item and raised in the parent.  The child ends with ``os._exit``
(no stdio flush, no atexit handlers); ``close`` kills and reaps it, whatever
it is doing.  The pipe is asked to hold ``PIPE_BYTES``, a whole reference
record up to n = 255, so the child writes one without waiting; a full pipe
blocks it, which bounds how far it runs ahead.

The reference does not depend on the kinetic state and a run's record times
are known before it starts (``kinetic.record_times``), so every reference
record of a run comes from one stream, ``_reference_records``: the
generator of (t, (u, pairings)) at those times, u through
``ReferenceTrajectory.at``, the one reference code path, and the three
pressure pairings <p, phi> from u (``diagnostics.pressure_pairings``); a
record needs no more of the pressure, so no pressure field is made and the
child sends 2 n^2 + 3 floats per record.  ``vbgk reference`` steps the same
ReferenceTrajectory and writes the pressure field itself.  A run reads
record k with ``next`` and checks that t equals its own record time
exactly.  A reference with a flow that moves, one with vorticity, comes
from a ``ForkedChannel``, so it overlaps the kinetic steps and records
instead of adding to them; the closed form of Taylor-Green data and a flow
without vorticity, as on zero data, step nothing and run in-process.  The
fork comes just before ``kinetic.run``, after the run's other set-up: in a
prototype that forked at the start of ``run_simulation``, the child's work
competed with the parent's set-up, which took 8-24% longer on 2 vCPU.
A record reads the state and moments that ``kinetic.run`` hands to on_record
and fills the grid's scratch, so a run makes no array for its records.

A sweep spreads its members over k = min(members, usable CPUs) processes,
since numpy work overlaps across processes and not across threads.  Every
member is validated first.  The members are then split into k bins by
longest processing time first (``step_bins``), a member's cost being its
step count t_end / dt; every member has the same n.  The parent forks one
child per bin after the first and then runs bin 0, the largest, itself, so
its own run starts as soon as a serial sweep's.  Each bin is one stream,
``_member_outputs``, of one item per member, in member order: bin 0's runs
here, every other bin's in a ``ForkedChannel``, and the parent reads each
with one ``next`` per member.  A member's error is the exception ``next``
raises, on the channel's own path; it ends its bin and is raised once every
bin is done, the first failing member's in member order, as in a serial
sweep.  A child that ends early is named in a RuntimeError with the members
it did not send.  A child sends each output as its member ends: the
sweep_upwind members pickle to 2.3-14.4 KB, about 170 B per record, so
unread outputs fill ``PIPE_BYTES`` and block it only after ~6000 records.

The one LAPACK call, ``polyfit`` in the rate fits, stays in the parent after
the join.  Children run transforms, elementwise numpy code, einsum sums and,
at n <= 64, the gemm of spectral shifts and derivatives, which OpenBLAS runs
on the calling thread at that size (``grid.MATRIX_KERNEL_MAX_CUBE``); none of
these uses the BLAS threads that numpy may have started in the parent and
that the fork does not copy.  The parent writes every file in member order, so the files
do not depend on k; with k = 1 no member forks.  A sweep writes no
snapshots: its members run without an output directory.  A file-data member
forks its own reference as well: in a 4-member n = 64 sweep on 2 vCPU, that
was faster than an in-process reference inside a member process in 11 of 12
alternating pairs.
"""

from __future__ import annotations

import dataclasses
import fcntl
import math
import os
import pickle
import sys
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

#: size asked for the pipe of a ForkedChannel, Linux's default pipe-max-size
PIPE_BYTES = 1 << 20

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


def make_dir(path) -> Path:
    """path, made with its parents if missing; an OSError becomes a ConfigError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from None
    return path


def write_text(path, text: str) -> None:
    """Write text to the file path; an OSError becomes a ConfigError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def initial_velocity(cfg: RunConfig, grid: Grid) -> np.ndarray:
    """Initial velocity field (2, n, n) from the configured source.

    Velocity read from a file is checked here to be finite and
    divergence-free, so validate, run, sweep and reference all reject the
    same data.
    """
    if cfg.initial_data == "taylor_green":
        return navier_stokes.taylor_green_velocity(grid, 0.0, cfg.nu)
    if cfg.initial_data == "zero":
        return np.zeros((2, grid.n, grid.n))
    fields, _ = snapshots.read_snapshot(cfg.initial_data_path)
    if fields.shape != (2, grid.n, grid.n):
        raise ConfigError(
            f"initial data file has shape {fields.shape}, expected (2, {grid.n}, {grid.n})"
        )
    if not np.all(np.isfinite(fields)):
        raise ConfigError(f"initial data file {cfg.initial_data_path} has non-finite values")
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
    """Parameter constraints plus the sub-characteristic box check.

    A step below the float spacing at t_end, as when tau*eps^2 or
    c_relax * tau*eps^2 underflows, raises ConstraintViolation: t + dt would
    not move past some t < t_end, so no run could end.
    """
    params = build_params(cfg)
    grid = build_grid(cfg)
    solver = solver_config(cfg)
    dt_relax, dt_transp = solver.dt_bounds(params, grid.dx)
    dt = min(dt_relax, dt_transp)
    if not dt >= math.ulp(cfg.t_end):
        raise ConstraintViolation(
            f"time step dt = min(relaxation bound {dt_relax:.6g}, transport bound"
            f" {dt_transp:.6g}) = {dt:.6g} is below the float spacing"
            f" {math.ulp(cfg.t_end):.6g} at t_end = {cfg.t_end:.6g}")
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
    """Reference velocity (2, n, n) evaluated at increasing times.

    Taylor-Green data uses the closed form (zero reference error) and has no
    flow.  Every other source has ``flow``, the VorticityFlow of u0, the
    initial velocity the caller has read and checked, which steps itself to
    each requested time (``VorticityFlow.at``); its velocity is valid until
    the next request.
    """

    def __init__(self, cfg: RunConfig, grid: Grid, u0: np.ndarray):
        self.grid, self.nu = grid, cfg.nu
        self.flow = (None if cfg.initial_data == "taylor_green"
                     else navier_stokes.VorticityFlow(grid, u0, cfg.nu, 0.0))

    def at(self, t: float) -> np.ndarray:
        if self.flow is None:
            return navier_stokes.taylor_green_velocity(self.grid, t, self.nu)
        return self.flow.at(t)


class ForkedChannel:
    """Iterator over the items (value, arrays) of a generator run in a forked child.

    ``next`` returns the items in order, the arrays as views valid until the
    next item; the end of the child, however it ends, raises EOFError.
    ``close`` ends the child.  The protocol is in the module docstring.
    """

    def __init__(self, items):
        read_fd, write_fd = os.pipe()
        # at the default 64 KiB an n = 128 record took six round trips, and
        # vortex_reference waited 2 ms per record in the median, not 0.2 ms
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux only
            try:
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:
                pass  # over the system's limit: the default pipe only costs time
        try:
            self._pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self._pid == 0:
            os.close(read_fd)
            _serve(items, write_fd)
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb")
        # one buffer for every item: each record sent as one protocol-5 pickle
        # instead cost 0.29 ms more per n = 128 record, and vortex_reference
        # steps_per_s fell 90.1 -> 83.5, behind in 6 of 6 pairs
        self._buffer = np.empty(0)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[object, list[np.ndarray]]:
        try:
            value, shapes = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            raise EOFError from None
        if shapes is None:
            raise value
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) > self._buffer.size:
            self._buffer = np.empty(sum(sizes))
        data = self._buffer[:sum(sizes)]
        if self._pipe.readinto(data) != data.nbytes:
            raise EOFError
        parts = np.split(data, np.cumsum(sizes)[:-1])
        return value, [part.reshape(shape) for part, shape in zip(parts, shapes)]

    def close(self) -> None:
        """Close the pipe, kill the child and reap it."""
        # imported only here: at start-up it adds about 0.15 MB to the peak
        # RSS of every process, forking or not
        import signal

        self._pipe.close()
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)


def _serve(items, write_fd: int):
    """The forked child's body: send each item of items, or what raised in
    place of the next one, then os._exit."""
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                for value, arrays in items:
                    arrays = [np.ascontiguousarray(a, dtype=float) for a in arrays]
                    pipe.write(pickle.dumps((value, [a.shape for a in arrays])))
                    for a in arrays:
                        pipe.write(a)
                    pipe.flush()
            except Exception as exc:
                pipe.write(pickle.dumps((exc, None)))
    finally:
        os._exit(0)


def _reference_records(reference: ReferenceTrajectory, times):
    """(t, (u, <p, phi> for each phi of PRESSURE_TEST_FUNCTIONS)) of the
    reference at each of times: the one record stream of a run."""
    for t in times:
        u = reference.at(t)
        yield t, (u, diag.pressure_pairings(reference.grid, u))


@dataclass
class SimulationOutput:
    records: list[diag.DiagnosticsRecord]
    error: Exception | None

    @property
    def completed(self) -> bool:
        return self.error is None

    def sup(self, name: str) -> float:
        return max(getattr(r, name) for r in self.records)

    def mean_pairing_error(self, phi: str) -> float:
        """Time-averaged pairing mismatch |<recovered, phi> - <p_ref, phi>|."""
        return abs(float(np.mean([r.pairing_error[phi] for r in self.records])))


def run_simulation(cfg: RunConfig, report: ValidationReport | None = None,
                   out_dir: Path | None = None) -> SimulationOutput:
    """Validated kinetic run with per-record diagnostics.

    report is `validated(cfg)` when the caller has already made it.  On
    blow-up the partial records collected so far are kept and the exception
    is stored on the output instead of propagating.  With out_dir, the first
    record at or after each configured snapshot time writes the state to a
    snapshot file there, and the last record takes every snapshot time not
    yet reached; times that one record takes share its file, with a warning
    on stderr.  A write failure ends the run with its ConfigError.
    The reference records come from _reference_records, stepped by a forked
    child (ForkedChannel) when the reference has a flow that moves; the
    child is reaped before this returns or raises.
    """
    report = validated(cfg) if report is None else report
    params, grid, u0 = report.params, report.grid, report.u0
    state0 = model.initial_kinetic_state(grid, u0, params)
    times = kinetic.record_times(report.solver, params, grid.dx)
    reference = ReferenceTrajectory(cfg, grid, u0)
    refs = _reference_records(reference, times)
    if reference.flow is not None and reference.flow.moves:
        refs = ForkedChannel(refs)

    records: list[diag.DiagnosticsRecord] = []
    pending = sorted(cfg.snapshot_times) if out_dir is not None else []
    names = (out_dir / f"snapshot_{i:03d}.vbgk" for i in range(len(pending)))

    def on_record(t, state, w, step):
        k = len(records)
        try:
            t_ref, (u_ref, p_pairings) = next(refs)
        except EOFError:
            raise RuntimeError(f"reference process ended before record {k} at t = {t!r}") \
                from None
        if t_ref != t:
            raise RuntimeError(f"reference record {k} is at t = {t_ref!r}, not t = {t!r}")
        records.append(diag.compute_record(state, w, u_ref, p_pairings, cfg.s_prime, t))
        # snapshots stamped with the actual record time reached; the run ends within
        # 1e-12 * max(1, t_end) of t_end, so the last record takes every time left
        taken = []
        while pending and (t >= pending[0] - 1e-12 or len(records) == len(times)):
            taken.append(pending.pop(0))
        if len(taken) > 1:
            print(f"warning: snapshot times {', '.join(f'{s:g}' for s in taken)} all fall"
                  f" on the record at t = {t!r}; one snapshot file holds them",
                  file=sys.stderr)
        if taken:
            # state is the stepper's own: written now, before the run steps it on
            snapshots.write_snapshot(next(names), state.f.reshape(15, grid.n, grid.n), t)

    error = None
    try:
        kinetic.run(state0, report.solver, on_record)
    except (BlowupDetected, NonPositiveDensity) as exc:
        # kept without its traceback, whose frames hold the run's arrays
        error = exc.with_traceback(None)
    finally:
        refs.close()
    return SimulationOutput(records=records, error=error)


def write_records_csv(records, path) -> None:
    lines = [",".join(diag.RECORD_COLUMNS)]
    for r in records:
        lines.append(",".join(fmt(getattr(r, name)) for name in diag.RECORD_COLUMNS))
    write_text(path, "\n".join(lines) + "\n")


def run_to_files(cfg: RunConfig, out_dir) -> SimulationOutput:
    """cmd_run body: the run, which writes the snapshots, then records.csv."""
    out_dir = make_dir(out_dir)
    output = run_simulation(cfg, out_dir=out_dir)
    write_records_csv(output.records, out_dir / "records.csv")
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
    """One simulation per epsilon, then rate fits; see the module docstring
    for how the members are spread over processes."""
    epsilons = sorted({float(e) for e in epsilons}, reverse=True)
    if len(epsilons) < 3:
        raise ConfigError(f"sweep needs >= 3 epsilons, got {len(epsilons)}")
    # epsilons that round to one eps_{eps:g} are neighbours in sorted order
    for big, small in zip(epsilons, epsilons[1:]):
        if f"{big:g}" == f"{small:g}":
            raise ConfigError(f"epsilons {big!r} and {small!r} would both write"
                              f" {Path(out_dir) / f'eps_{small:g}'}")
    out_dir = make_dir(out_dir)

    configs = {eps: dataclasses.replace(cfg, epsilon=eps) for eps in epsilons}
    # every member is checked before any member runs
    members = {eps: (sub, validated(sub)) for eps, sub in configs.items()}
    costs = {eps: cfg.t_end / report.solver.base_dt(report.params, report.grid.dx)
             for eps, (_, report) in members.items()}
    sub_dirs = {eps: make_dir(out_dir / f"eps_{eps:g}") for eps in epsilons}
    # sched_getaffinity is missing on some platforms, macOS among them
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    bins = step_bins(costs, min(len(epsilons), cpus))
    runs = _run_bins(members, bins)
    failures: dict[float, str] = {}
    for eps in epsilons:
        write_records_csv(runs[eps].records, sub_dirs[eps] / "records.csv")
        if not runs[eps].completed:
            failures[eps] = str(runs[eps].error)

    ok = [eps for eps in epsilons if eps not in failures]
    rows = [STUDY_HEADER] + [_study_row(eps, runs[eps]) for eps in ok]
    write_text(out_dir / "study.csv", "\n".join(rows) + "\n")

    # a log-log fit needs every supremum above 0; on zero data some are 0
    fits: dict[str, diag.ConvergenceStudyResult] = {}
    if len(ok) >= 3:
        for name in RATE_FUNCTIONALS:
            sups = [runs[e].sup(name) for e in ok]
            if all(sup > 0.0 for sup in sups):
                fits[name] = diag.fit_rate(ok, sups)
    write_text(out_dir / "rates.txt", rates_report(cfg, fits, runs, ok, failures))
    return SweepOutput(epsilons=epsilons, runs=runs, fits=fits, failures=failures)


def step_bins(costs: dict[float, float], k: int) -> list[list[float]]:
    """The members split into k bins, longest processing time first.

    Each member goes, in decreasing cost, to the bin with the least cost so
    far.  The bins come largest first, each in member (decreasing-epsilon)
    order.
    """
    bins: list[list[float]] = [[] for _ in range(k)]
    loads = [0.0] * k
    for eps in sorted(costs, key=costs.get, reverse=True):
        i = loads.index(min(loads))
        bins[i].append(eps)
        loads[i] += costs[eps]
    order = sorted(range(k), key=lambda i: loads[i], reverse=True)
    return [sorted(bins[i], reverse=True) for i in order]


def _run_bins(members, bins) -> dict[float, SimulationOutput]:
    """{eps: output} of every member in member order: bin 0 here, every
    other bin in a child.

    members maps eps to (config, report) and is emptied as the members are
    handed out, so no report outlives its member's run here or its fork.
    """
    runs, errors = dict.fromkeys(members), []
    streams = [_member_outputs({eps: members.pop(eps) for eps in bins[0]})]
    try:
        for epsilons in bins[1:]:
            streams.append(ForkedChannel(
                _member_outputs({eps: members.pop(eps) for eps in epsilons})))
        for epsilons, stream in zip(bins, streams):
            for i, eps in enumerate(epsilons):
                try:
                    runs[eps], _ = next(stream)
                except EOFError:
                    unsent = ", ".join(f"{e:g}" for e in epsilons[i:])
                    raise RuntimeError(f"sweep member process for eps = {unsent} ended"
                                       " without its results") from None
                except Exception as exc:
                    errors.append((eps, exc))
                    break
    finally:
        for stream in streams:
            stream.close()
    # when several members raise, the first in member order, as in a serial sweep
    if errors:
        raise max(errors, key=lambda e: e[0])[1]
    return runs


def _member_outputs(members):
    """(run_simulation output, no arrays) of each (config, report) of
    members, in order; each report is dropped as its member starts."""
    for eps in list(members):
        yield run_simulation(*members.pop(eps)), ()


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
    """cmd_reference body: reference snapshots (u1, u2, p) + energy series at
    record times."""
    out_dir = make_dir(out_dir)
    report = validate(cfg)
    times = kinetic.record_times(report.solver, report.params, report.grid.dx)
    reference = ReferenceTrajectory(cfg, report.grid, report.u0)
    rows = ["t,energy"]
    for i, t in enumerate(times):
        u = reference.at(t)
        p = navier_stokes.pressure_from_velocity(report.grid, u)
        snapshots.write_snapshot(out_dir / f"reference_{i:03d}.vbgk", np.stack([*u, p]), t)
        rows.append(f"{fmt(t)},{fmt(float(np.mean(u[0] ** 2 + u[1] ** 2)))}")
    write_text(out_dir / "reference.csv", "\n".join(rows) + "\n")
    return times
