"""Time integration of the kinetic system by Strang splitting.

Both substeps are exact flows of their subsystems:

* transport translates each density by c_i*dt/eps (a Fourier phase shift in
  spectral mode, or a first-order upwind sweep for cross-checking);
* relaxation has the closed-form solution
  f_i <- exp(-dt/(tau*eps^2)) * f_i + (1 - exp(-dt/(tau*eps^2))) * M_i(w),
  which holds because w = sum_i f_i is conserved by the relaxation flow.

The only discretization error is the splitting commutator.  The composition
is relaxation(dt/2) o transport(dt) o relaxation(dt/2), so recorded states
sit at relaxation-consistent points.  ``strang_step`` is that composition
written out; it is the reference the time loop is tested against.

``run`` does the same arithmetic with half the relaxation calls.  Because w
is invariant under relaxation, relaxation(a) o relaxation(b) =
relaxation(a + b), so the closing half of one step and the opening half of
the next merge into one call: each step is relaxation(owed + dt/2) then
transport(dt), and the owed closing relaxation(dt/2) is applied only before
a recorded state is handed out and at the end of the run.

Each substep is one kernel, ``_relax`` or ``_transport``, that updates the
f of a ``KineticState`` in place; its other buffers are the grid's scratch
(``grid.Scratch``), shared with the diagnostics records.  ``run``,
``relaxation_step`` and ``transport_step`` each copy their input state once
and call the same kernels, so each substep has one implementation.
Relaxation takes the moments w, which its caller sums, scales f by the
decay factor and adds (1 - decay) * M_i(w) through ``model.add_maxwellians``,
without building the (5, 3, n, n) Maxwellian stack.  One state per run:
``run`` copies its input once and steps that copy to the end, and on_record
receives it itself with the run's moments w, both valid until the callback
returns.  So the loop allocates nothing of state size, and a caller copies what it keeps.

Transport moves f_1 and f_3 along x and f_2 and f_4 along y, and f_5 not at
all, so spectral transport is a 1D shift along each mover's axis of motion:
``grid.spectral_shift`` by s, or by -s for negative speed.  Up to n = 64
(``SHIFT_MATRIX_MAX_CUBE``) the shift is a real n-by-n matrix M, made once
per (grid, s) by shifting the identity, and each mover is one matrix product
into the scratch: M.T @ f_i along x, f_i @ M along y, and M(-s) = M(s).T
for negative speed.  Each plane is moved relative to its first entry, so a
uniform plane, and with it a uniform equilibrium, stays exactly unchanged.
At n = 64 the product takes half the time of the transforms.  Above n = 64
each mover is one ``spectral_shift`` through the scratch's transform buffer.

At dt = c * tau*eps^2 the commutator is not small in eps: the linearized
cycle relaxes like the continuous model with tau replaced by
tau * (c/2) * coth(c/2), so its effective viscosity is nu * (c/2) * coth(c/2)
at every eps.  That is +8.2% at the default c_relax = 1, +2.1% at 0.5 and
+0.5% at 0.25; runs that measure O(eps^2) deviations from the relaxation
manifold need a small c_relax.  It is the only step setting: the step is
c * tau*eps^2 unless the transport bound of ``SolverConfig`` is smaller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import grid as gridmod
from .errors import BlowupDetected, CflViolation
from .model import (
    VELOCITY_DIRECTIONS,
    KineticState,
    add_maxwellians,
    check_density,
    density_fault,
)


#: bound on the upwind CFL number lam*dt/(eps*dx) of every step of run()
TRANSPORT_CFL = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping policy and diagnostics cadence.

    Every step is dt = min(c_relax * tau*eps^2, TRANSPORT_CFL * eps*dx/lam),
    the last one shortened to land on t_end.
    """

    t_end: float
    c_relax: float = 1.0
    transport_mode: str = "spectral"
    record_every: int = 10

    def __post_init__(self):
        # chained comparisons are false for NaN, and the upper bound rejects inf
        if not 0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not 0 < self.c_relax < np.inf:
            raise ValueError(f"c_relax must be finite and positive, got {self.c_relax}")
        if self.transport_mode not in ("spectral", "upwind"):
            raise ValueError(f"unknown transport mode {self.transport_mode!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def dt_bounds(self, params, dx: float) -> tuple[float, float]:
        """The relaxation and transport bounds on dt."""
        return (self.c_relax * params.relaxation_time,
                TRANSPORT_CFL * params.epsilon * dx / params.lam)

    def base_dt(self, params, dx: float) -> float:
        return min(self.dt_bounds(params, dx))


# f_1..f_4 as (axis of motion, sign of velocity along it); axes: x is -2, y is -1
_MOVERS = [(-2 if dx else -1, dx + dy) for dx, dy in VELOCITY_DIRECTIONS[:4].astype(int)]


#: largest n^3 at which spectral transport is a shift-matrix product.  OpenBLAS
#: runs a dgemm on the calling thread while m*n*k <= 65536 *
#: GEMM_MULTITHREAD_THRESHOLD (4 by default), and one n-by-n plane at n = 64 is
#: exactly 2^18.  Above it the product would start BLAS threads, which
#: spin-wait: on 2 vCPU, a 4-member spectral sweep at n = 128 with the product
#: took 1.4-14.9 s unpinned against 0.50-0.56 s with OPENBLAS_NUM_THREADS=1.
#: Single-threaded, the FFT kernel wins again above n of about 160.  The limit
#: is unverified on MKL and Accelerate builds of numpy.
SHIFT_MATRIX_MAX_CUBE = 2 ** 18


@lru_cache(maxsize=4)
def _shift_matrix(grid: gridmod.Grid, s: float) -> np.ndarray:
    """M with v @ M the spectral shift of a row v by +s; M(-s) = M(s).T.

    Row j is the shift of the unit vector e_j by the multiplier routine of
    ``grid.spectral_shift``, so both spectral kernels apply one operator.
    The table is built uncached: this build is its only reader.
    """
    table = gridmod._shift_table(grid, s)
    arr = gridmod._apply_multiplier(grid, np.eye(grid.n), "y", table, None, None)
    arr.setflags(write=False)
    return arr


def _transport_spectral(st: KineticState, dt: float) -> None:
    s = st.params.lam * dt / st.params.epsilon
    if st.grid.n ** 3 <= SHIFT_MATRIX_MAX_CUBE:
        _transport_matmul(st, s)
        return
    coeffs = gridmod.scratch(st.grid).coeffs
    for f_i, (axis, sign) in zip(st.f, _MOVERS):
        gridmod.spectral_shift(st.grid, f_i, "xy"[axis], sign * s, out=f_i, coeffs=coeffs)


def _transport_matmul(st: KineticState, s: float) -> None:
    """Spectral transport as one shift-matrix product per mover.

    M.T @ f_i along x and f_i @ M along y.  Each plane is moved relative to
    its first entry, which is added back on the way out, so a uniform plane
    stays exactly uniform.
    """
    M = _shift_matrix(st.grid, s)
    moved = gridmod.scratch(st.grid).field
    for f_i, (axis, sign) in zip(st.f, _MOVERS):
        mat = M if sign > 0 else M.T
        offsets = [float(plane[0, 0]) for plane in f_i]
        for plane, r in zip(f_i, offsets):
            plane -= r
        if axis == -2:
            np.matmul(mat.T, f_i, out=moved)
        else:
            np.matmul(f_i, mat, out=moved)
        for plane, out, r in zip(moved, f_i, offsets):
            np.add(plane, r, out=out)


def _transport_upwind(st: KineticState, dt: float) -> None:
    cfl = st.params.lam * dt / (st.params.epsilon * st.grid.dx)
    # run() keeps cfl <= TRANSPORT_CFL; transport_step and strang_step take any dt
    if cfl > 1.0 + 1e-12:
        raise CflViolation(f"upwind CFL = {cfl:.4g} exceeds 1")
    n = st.grid.n
    shifted = gridmod.scratch(st.grid).field
    dst = shifted.reshape(-1)
    for f_i, (axis, sign) in zip(st.f, _MOVERS):
        # f_i <- (1 - cfl)*f_i + cfl*(f_i rolled by sign along axis): positive
        # speed takes the backward neighbour.  The roll is a shift by k of the
        # flat view, contiguous and so unbuffered, which is right everywhere
        # but on the line that wraps round the axis of motion; that line is
        # then written from the other end of the axis.
        k = sign * (n if axis == -2 else 1)
        src = f_i.reshape(-1)
        if k > 0:
            np.multiply(src[:-k], cfl, out=dst[k:])
        else:
            np.multiply(src[-k:], cfl, out=dst[:k])
        edge = 0 if sign > 0 else -1
        np.multiply(f_i.swapaxes(axis, -1)[..., edge - sign], cfl,
                    out=shifted.swapaxes(axis, -1)[..., edge])
        f_i *= 1.0 - cfl
        f_i += shifted


def _transport(st: KineticState, dt: float, mode: str) -> None:
    if mode == "spectral":
        _transport_spectral(st, dt)
    elif mode == "upwind":
        _transport_upwind(st, dt)
    else:
        raise ValueError(f"unknown transport mode {mode!r}")


def relaxation_decay(h: float, params) -> float:
    """exp(-h/(tau*eps^2)), the weight relaxation over time h leaves on f."""
    return np.exp(-h / params.relaxation_time)


def _relax(st: KineticState, w: np.ndarray, dt: float) -> None:
    """Relax st.f over dt toward the Maxwellians of w, whose density the caller checked."""
    decay = relaxation_decay(dt, st.params)
    np.multiply(st.f, decay, out=st.f)
    add_maxwellians(st.f, w, 1.0 - decay, st.params, gridmod.scratch(st.grid).pair)


def transport_step(state: KineticState, dt: float, mode: str = "spectral") -> KineticState:
    """Advect each density along its velocity for time dt; f_5 is at rest."""
    if dt == 0.0:
        return state
    st = replace(state, f=state.f.copy())
    _transport(st, dt, mode)
    return st


def relaxation_step(state: KineticState, dt: float) -> KineticState:
    """Exact relaxation toward the local Maxwellians over time dt."""
    st = replace(state, f=state.f.copy())
    w = st.w()
    check_density(w[0])
    _relax(st, w, dt)
    return st


def strang_step(state: KineticState, dt: float, mode: str = "spectral") -> KineticState:
    """relaxation(dt/2) o transport(dt) o relaxation(dt/2)."""
    half = 0.5 * dt
    state = relaxation_step(state, half)
    state = transport_step(state, dt, mode)
    return relaxation_step(state, half)


def _time_grid(cfg: SolverConfig, dt_base: float):
    """(step, t, dt, is_record) after each step: the one time loop of the module.

    The last step is shortened to land on cfg.t_end and is always recorded.
    A dt_base below the float spacing at t_end raises ValueError: t + dt_base
    would not move past some t < t_end, so the loop would not end.
    """
    if not dt_base >= math.ulp(cfg.t_end):
        raise ValueError(f"time step {dt_base!r} is below the float spacing"
                         f" {math.ulp(cfg.t_end)!r} at t_end = {cfg.t_end!r}")
    t = 0.0
    step = 0
    t_eps = 1e-12 * max(1.0, cfg.t_end)
    while cfg.t_end - t > t_eps:
        dt = min(dt_base, cfg.t_end - t)
        t += dt
        step += 1
        final = cfg.t_end - t <= t_eps
        yield step, t, dt, final or step % cfg.record_every == 0


def _check_health(w: np.ndarray, t_last_good: float) -> None:
    """Raise BlowupDetected unless the moments w are finite with positive density.

    Every entry of f is summed into one entry of w, NaN and inf propagate
    through the sum (inf - inf is NaN) and through the extrema, so two
    reductions over w find a non-finite entry anywhere in f.
    """
    if not (np.isfinite(np.max(w)) and np.isfinite(np.min(w))):
        raise BlowupDetected("non-finite values in kinetic state", t_last_good)
    fault = density_fault(w[0])
    if fault is not None:
        raise BlowupDetected(fault, t_last_good)


def run(state: KineticState, cfg: SolverConfig, on_record=None) -> KineticState:
    """Advance to cfg.t_end and return the final state.

    Aborts with BlowupDetected on NaN or inf, or on loss of density
    positivity.  on_record(t, state, w, step_index) fires on the initial state,
    every cfg.record_every-th step, and on the final step.  state is the input
    at t = 0 and the stepper's own after that; w, its moments, is the sum over
    the input's copy at t = 0 (the input's own sum, bit for bit), and after a
    step the sum checked after transport, which the closing relaxation
    conserves.  Both are valid until on_record returns: a caller that keeps
    one must copy it.  The input state is never modified.

    The result equals a loop of strang_step up to round-off; the merged
    half-relaxations are described in the module docstring.  The input is
    checked before its record and the state after each transport, so no
    record and no kernel reads a faulty state; relaxation conserves w, so it
    needs no check of its own.
    """
    st = replace(state, f=state.f.copy())
    w = st.w()
    _check_health(w, 0.0)
    if on_record is not None:
        on_record(0.0, state, w, 0)
    t_prev = 0.0
    step = 0
    owed = 0.0  # closing half-relaxation deferred from the previous step
    for step, t, dt, is_record in _time_grid(cfg, cfg.base_dt(state.params, state.grid.dx)):
        _relax(st, w, owed + 0.5 * dt)
        _transport(st, dt, cfg.transport_mode)
        np.sum(st.f, axis=0, out=w)
        _check_health(w, t_prev)
        owed = 0.5 * dt
        if is_record:
            _relax(st, w, owed)
            owed = 0.0
            if on_record is not None:
                on_record(t, st, w, step)
        t_prev = t
    return state if step == 0 else st


def record_times(cfg: SolverConfig, params, dx: float) -> list[float]:
    """The times at which run() calls on_record, t = 0 first.

    The time grid is walked one step at a time and only the recorded times
    are kept, so the list grows with the record count, not the step count.
    """
    return [0.0] + [t for _, t, _, rec in _time_grid(cfg, cfg.base_dt(params, dx)) if rec]


def step_times(cfg: SolverConfig, params, dx: float) -> tuple[list[float], list[float]]:
    """Times after each step of run() and the recorded subset (with t = 0)."""
    grid = list(_time_grid(cfg, cfg.base_dt(params, dx)))
    return [t for _, t, _, _ in grid], [0.0] + [t for _, t, _, rec in grid if rec]
