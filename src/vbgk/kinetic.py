"""Time integration of the kinetic system by Strang splitting.

Both substeps are exact flows of their subsystems:

* transport translates each density by c_i*dt/eps (a Fourier phase shift in
  spectral mode, or a first-order upwind sweep for cross-checking);
* relaxation has the closed-form solution
  f_i <- M_i(w) + exp(-dt/(tau*eps^2)) * (f_i - M_i(w)),
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

Transport moves f_1 and f_3 along x and f_2 and f_4 along y, and f_5 not at
all.  Spectral transport therefore needs no 2D transform: the x-movers are
transposed so that all four movers travel along the last axis, and one real
1D transform there, a four-row phase table and one inverse transform move
them.  The inverse real transform keeps only the real part of the Nyquist
coefficient, so the multiplier there is cos(k s), the same as taking the
real part of a complex inverse transform.

At dt = c * tau*eps^2 the commutator is not small in eps: the linearized
cycle relaxes like the continuous model with tau replaced by
tau * (c/2) * coth(c/2), so its effective viscosity is nu * (c/2) * coth(c/2)
at every eps.  That is +8.2% at the default c_relax = 1, +2.1% at 0.5 and
+0.5% at 0.25; runs that measure O(eps^2) deviations from the relaxation
manifold need a small c_relax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, CflViolation, NonPositiveDensity
from .model import VELOCITY_DIRECTIONS, KineticState, maxwellians


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping policy and diagnostics cadence.

    dt None selects the automatic policy
    dt = min(c_relax * tau*eps^2, c_transp * eps*dx/lam, remaining time);
    a positive dt fixes the step instead.
    """

    t_end: float
    dt: float | None = None
    c_relax: float = 1.0
    c_transp: float = 0.5
    transport_mode: str = "spectral"
    record_every: int = 10

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"fixed dt must be positive, got {self.dt}")
        if self.c_relax <= 0 or self.c_transp <= 0:
            raise ValueError("dt policy multipliers must be positive")
        if self.transport_mode not in ("spectral", "upwind"):
            raise ValueError(f"unknown transport mode {self.transport_mode!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def base_dt(self, params, dx: float) -> float:
        if self.dt is not None:
            return self.dt
        return min(
            self.c_relax * params.relaxation_time,
            self.c_transp * params.epsilon * dx / params.lam,
        )


_NONPOSITIVE = "projected density non-positive before relaxation: min = {:.6g}"

# sign of the velocity of each of f_1..f_4 along its one axis of motion
_VELOCITY_SIGNS = VELOCITY_DIRECTIONS[:4].sum(axis=1)


def _transport_spectral(state: KineticState, dt: float) -> np.ndarray:
    n, p = state.grid.n, state.params
    s = p.lam * dt / p.epsilon
    f = state.f
    # the x-movers f_1, f_3 are transposed so every mover travels along the
    # contiguous last axis
    movers = np.stack([f[0].swapaxes(-1, -2), f[1], f[2].swapaxes(-1, -2), f[3]])
    phase = np.exp(-1j * s * np.outer(_VELOCITY_SIGNS, np.arange(n // 2 + 1)))
    coeffs = np.fft.rfft(movers, axis=-1)
    coeffs *= phase[:, None, None, :]
    moved = np.fft.irfft(coeffs, n=n, axis=-1)
    out = np.empty_like(f)
    out[0], out[2] = moved[0].swapaxes(-1, -2), moved[2].swapaxes(-1, -2)
    out[1], out[3] = moved[1], moved[3]
    out[4] = f[4]
    return out


def _transport_upwind(state: KineticState, dt: float) -> np.ndarray:
    grid, p = state.grid, state.params
    cfl = p.lam * dt / (p.epsilon * grid.dx)
    if cfl > 1.0 + 1e-12:
        raise CflViolation(f"upwind CFL = {cfl:.4g} exceeds 1")
    f = state.f.copy()
    # axes: x is -2, y is -1; positive speed uses the backward neighbour
    f[0] = (1.0 - cfl) * f[0] + cfl * np.roll(f[0], 1, axis=-2)
    f[1] = (1.0 - cfl) * f[1] + cfl * np.roll(f[1], 1, axis=-1)
    f[2] = (1.0 - cfl) * f[2] + cfl * np.roll(f[2], -1, axis=-2)
    f[3] = (1.0 - cfl) * f[3] + cfl * np.roll(f[3], -1, axis=-1)
    return f


def transport_step(state: KineticState, dt: float, mode: str = "spectral") -> KineticState:
    """Advect each density along its velocity for time dt; f_5 is at rest."""
    if dt == 0.0:
        return state
    if mode == "spectral":
        f = _transport_spectral(state, dt)
    elif mode == "upwind":
        f = _transport_upwind(state, dt)
    else:
        raise ValueError(f"unknown transport mode {mode!r}")
    return KineticState(grid=state.grid, params=state.params, f=f)


def relaxation_step(state: KineticState, dt: float,
                    w: np.ndarray | None = None) -> KineticState:
    """Exact relaxation toward the local Maxwellians over time dt.

    w, when given, must be state.w(); run() passes the moments it already
    holds, so that each step sums the densities once.
    """
    if w is None:
        w = state.w()
    rho_min = np.min(w[0])
    if rho_min <= 0.0:
        raise NonPositiveDensity(_NONPOSITIVE.format(rho_min))
    m = maxwellians(w, state.params)
    decay = np.exp(-dt / state.params.relaxation_time)
    f = state.f - m
    f *= decay
    f += m
    return KineticState(grid=state.grid, params=state.params, f=f)


def strang_step(state: KineticState, dt: float, mode: str = "spectral") -> KineticState:
    """relaxation(dt/2) o transport(dt) o relaxation(dt/2)."""
    half = 0.5 * dt
    state = relaxation_step(state, half)
    state = transport_step(state, dt, mode)
    return relaxation_step(state, half)


def _time_grid(cfg: SolverConfig, dt_base: float):
    """(step, t, dt, is_record) after each step: the one time loop of the module.

    The last step is shortened to land on cfg.t_end and is always recorded.
    """
    t = 0.0
    step = 0
    t_eps = 1e-12 * max(1.0, cfg.t_end)
    while cfg.t_end - t > t_eps:
        dt = min(dt_base, cfg.t_end - t)
        t += dt
        step += 1
        final = cfg.t_end - t <= t_eps
        yield step, t, dt, final or step % cfg.record_every == 0


def run(state: KineticState, cfg: SolverConfig, on_record=None) -> KineticState:
    """Advance to cfg.t_end and return the final state.

    Aborts with BlowupDetected on NaN or inf, or on loss of density
    positivity.  on_record(t, state, step_index) fires on the initial state,
    every cfg.record_every-th step, and on the final step.  Neither the input
    state nor any state handed to on_record is modified afterwards.

    The result equals a loop of strang_step up to round-off; the merged
    half-relaxations are described in the module docstring.
    """
    if on_record is not None:
        on_record(0.0, state, 0)
    w = state.w()
    t_prev = 0.0
    owed = 0.0  # closing half-relaxation deferred from the previous step
    for step, t, dt, is_record in _time_grid(cfg, cfg.base_dt(state.params, state.grid.dx)):
        try:
            state = relaxation_step(state, owed + 0.5 * dt, w=w)
        except NonPositiveDensity as exc:
            raise BlowupDetected(str(exc), t_prev) from exc
        state = transport_step(state, dt, cfg.transport_mode)
        w = state.w()
        # NaN compares false, so a NaN density reaches the finiteness check
        rho_min = np.min(w[0])
        if rho_min <= 0.0:
            raise BlowupDetected(_NONPOSITIVE.format(rho_min), t_prev)
        # NaN and inf propagate through the maximum, so one reduction finds both
        if not np.isfinite(np.max(np.abs(state.f))):
            raise BlowupDetected("non-finite values in kinetic state", t_prev)
        owed = 0.5 * dt
        if is_record:
            state = relaxation_step(state, owed, w=w)
            owed = 0.0
            if on_record is not None:
                on_record(t, state, step)
        t_prev = t
    return state


def step_times(cfg: SolverConfig, params, dx: float) -> tuple[list[float], list[float]]:
    """Times after each step of run() and the recorded subset (with t = 0)."""
    grid = list(_time_grid(cfg, cfg.base_dt(params, dx)))
    return [t for _, t, _, _ in grid], [0.0] + [t for _, t, _, rec in grid if rec]
