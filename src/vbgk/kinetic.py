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

``run`` allocates one workspace (``_Workspace``) and updates it in place:
a copy of the state f, its moments w, two (3, n, n) flux buffers and the
transform scratch of one mover, each buffer made by the first kernel that
needs it.  Each substep is one in-place kernel, ``_relax`` or
``_transport``.  Relaxation scales f by the decay factor and adds
(1 - decay) * M_i(w) through ``model.add_maxwellians``, without building
the (5, 3, n, n) Maxwellian stack.  ``relaxation_step`` and
``transport_step`` copy their input into a fresh workspace and call the same
kernels, so each substep has one implementation; a transport-only
workspace holds no moments or flux buffers.  One copy per record:
on_record receives the workspace's state buffer itself, and once it returns
the loop continues on a copy, the only full-state allocation inside the
loop.  So no state handed out is written to afterwards, and the copy is not
alive while the callback computes its diagnostics.

Transport moves f_1 and f_3 along x and f_2 and f_4 along y, and f_5 not at
all.  Spectral transport therefore needs no 2D transform: each mover takes
one real 1D transform along its axis of motion, a phase multiplier and one
inverse transform, all written into the workspace.  The inverse real
transform keeps only the real part of the Nyquist coefficient, so the
multiplier there is cos(k s), the same as taking the real part of a complex
inverse transform.

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
from dataclasses import dataclass

import numpy as np

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


class _Workspace:
    """The buffers of one run: the state f and the kernels' scratch.

    The kernels below update f in place.  Each makes its scratch on first
    use, so a workspace that only transports holds no moments and a spectral
    run holds no upwind buffer.  Relaxation reads w = sum_i f_i, which the
    caller sums before the first relaxation and again after each transport;
    relaxation conserves it.
    """

    def __init__(self, state: KineticState):
        self.grid, self.params = state.grid, state.params
        self.f = state.f.copy()
        self.w = self.flux = self.real = self.coeffs = None

    def state(self) -> KineticState:
        return KineticState(grid=self.grid, params=self.params, f=self.f)


def _transport_spectral(ws: _Workspace, dt: float) -> None:
    n, p = ws.grid.n, ws.params
    s = p.lam * dt / p.epsilon
    shift = np.exp(-1j * s * np.arange(n // 2 + 1))
    if ws.coeffs is None:
        # one mover's coefficients along y, (3, n, n/2+1), or along x, (3, n/2+1, n)
        ws.coeffs = np.empty(3 * n * (n // 2 + 1), dtype=complex)
    for f_i, (axis, sign) in zip(ws.f, _MOVERS):
        phase = shift if sign > 0 else shift.conj()
        if axis == -2:
            coeffs = ws.coeffs.reshape(3, n // 2 + 1, n)
            phase = phase[:, None]
        else:
            coeffs = ws.coeffs.reshape(3, n, n // 2 + 1)
        np.fft.rfft(f_i, axis=axis, out=coeffs)
        coeffs *= phase
        np.fft.irfft(coeffs, n=n, axis=axis, out=f_i)


def _transport_upwind(ws: _Workspace, dt: float) -> None:
    cfl = ws.params.lam * dt / (ws.params.epsilon * ws.grid.dx)
    # run() keeps cfl <= TRANSPORT_CFL; transport_step and strang_step take any dt
    if cfl > 1.0 + 1e-12:
        raise CflViolation(f"upwind CFL = {cfl:.4g} exceeds 1")
    if ws.real is None:
        ws.real = np.empty(ws.f.shape[1:])
    for f_i, (axis, sign) in zip(ws.f, _MOVERS):
        # f_i <- (1 - cfl)*f_i + cfl*(f_i rolled by sign along axis): positive
        # speed takes the backward neighbour
        src, dst = f_i.swapaxes(axis, -1), ws.real.swapaxes(axis, -1)
        np.multiply(src[..., :-sign], cfl, out=dst[..., sign:])
        np.multiply(src[..., -sign:], cfl, out=dst[..., :sign])
        f_i *= 1.0 - cfl
        f_i += ws.real


def _transport(ws: _Workspace, dt: float, mode: str) -> None:
    if mode == "spectral":
        _transport_spectral(ws, dt)
    elif mode == "upwind":
        _transport_upwind(ws, dt)
    else:
        raise ValueError(f"unknown transport mode {mode!r}")


def relaxation_decay(h: float, params) -> float:
    """exp(-h/(tau*eps^2)), the weight relaxation over time h leaves on f."""
    return np.exp(-h / params.relaxation_time)


def _relax(ws: _Workspace, dt: float) -> None:
    """Relax ws.f over dt toward the Maxwellians of ws.w, whose density the caller checked."""
    if ws.flux is None:
        ws.flux = np.empty((2,) + ws.w.shape)
    decay = relaxation_decay(dt, ws.params)
    ws.f *= decay
    add_maxwellians(ws.f, ws.w, 1.0 - decay, ws.params, ws.flux)


def transport_step(state: KineticState, dt: float, mode: str = "spectral") -> KineticState:
    """Advect each density along its velocity for time dt; f_5 is at rest."""
    if dt == 0.0:
        return state
    ws = _Workspace(state)
    _transport(ws, dt, mode)
    return ws.state()


def relaxation_step(state: KineticState, dt: float) -> KineticState:
    """Exact relaxation toward the local Maxwellians over time dt."""
    ws = _Workspace(state)
    ws.w = ws.f.sum(axis=0)
    check_density(ws.w[0])
    _relax(ws, dt)
    return ws.state()


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
    positivity.  on_record(t, state, step_index) fires on the initial state,
    every cfg.record_every-th step, and on the final step.  Neither the input
    state nor any state handed to on_record is modified afterwards.

    The result equals a loop of strang_step up to round-off; the merged
    half-relaxations are described in the module docstring.  The input is
    checked before its record and the state after each transport, so no
    record and no kernel reads a faulty state; relaxation conserves w, so it
    needs no check of its own.
    """
    ws = _Workspace(state)
    ws.w = ws.f.sum(axis=0)
    _check_health(ws.w, 0.0)
    if on_record is not None:
        on_record(0.0, state, 0)
    t_prev = 0.0
    step = 0
    owed = 0.0  # closing half-relaxation deferred from the previous step
    for step, t, dt, is_record in _time_grid(cfg, cfg.base_dt(state.params, state.grid.dx)):
        _relax(ws, owed + 0.5 * dt)
        _transport(ws, dt, cfg.transport_mode)
        np.sum(ws.f, axis=0, out=ws.w)
        _check_health(ws.w, t_prev)
        owed = 0.5 * dt
        if is_record:
            _relax(ws, owed)
            owed = 0.0
            if on_record is not None:
                on_record(t, ws.state(), step)
                # the state handed out is never written again: step a copy of it
                ws.f = ws.f.copy()
        t_prev = t
    return state if step == 0 else ws.state()


def step_times(cfg: SolverConfig, params, dx: float) -> tuple[list[float], list[float]]:
    """Times after each step of run() and the recorded subset (with t = 0)."""
    grid = list(_time_grid(cfg, cfg.base_dt(params, dx)))
    return [t for _, t, _, _ in grid], [0.0] + [t for _, t, _, rec in grid if rec]
