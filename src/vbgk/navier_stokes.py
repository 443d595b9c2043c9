"""Reference solutions of the 2D incompressible Navier-Stokes equations.

Two paths are provided:

* the decaying Taylor-Green vortex, an exact closed-form solution used as a
  zero-error reference for rate measurements;
* a vorticity-streamfunction pseudo-spectral solver (classical RK4 on the
  advection term with an exact integrating factor for diffusion and 2/3-rule
  dealiasing) for arbitrary divergence-free initial data.

The substeps advance the vorticity coefficients i kx u2_hat - i ky u1_hat:
ns_advance converts the velocity once, checks the advective CFL condition at
each substep on the velocity its first RK4 stage builds, and forms the
velocity and one (divergence-checked) NsState only at the target time.
ns_step is that path with one substep.  The vorticity leaves out the mean
velocity U, which is conserved on the torus: the substeps carry it from the
initial state and add it to the streamfunction's velocity, so it advects the
vorticity and the state at the target time keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, NotDivergenceFree
from .grid import Grid, linf_norm, spectral_divergence


@dataclass(frozen=True)
class NsState:
    """Divergence-free velocity field at time t."""

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    t: float
    nu: float

    def __post_init__(self):
        self.grid.check_field(self.u1)
        self.grid.check_field(self.u2)
        div = linf_norm(spectral_divergence(self.grid, self.u1, self.u2))
        if div > 1e-10:
            raise NotDivergenceFree(f"velocity divergence {div:.3e} > 1e-10")

    def energy(self) -> float:
        """Squared L2 norm of the velocity under the normalized measure."""
        return float(np.mean(self.u1 ** 2 + self.u2 ** 2))


def taylor_green(grid: Grid, t: float, nu: float) -> tuple[NsState, np.ndarray]:
    """Exact decaying vortex: u = (-cos x sin y, sin x cos y) e^{-2 nu t}.

    Returns the state and the mean-zero pressure
    p = -(cos 2x + cos 2y)/4 * e^{-4 nu t}.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    decay = np.exp(-2.0 * nu * t)
    x, y = grid.x, grid.y
    u1 = -np.cos(x) * np.sin(y) * decay
    u2 = np.sin(x) * np.cos(y) * decay
    p = -0.25 * (np.cos(2 * x) + np.cos(2 * y)) * decay ** 2
    return NsState(grid=grid, u1=u1, u2=u2, t=t, nu=nu), p


def _velocity(grid: Grid, w_hat: np.ndarray, mean) -> tuple[np.ndarray, np.ndarray]:
    """Real velocity (u1, u2) of the vorticity coefficients w_hat and mean velocity."""
    ksq = grid.ksq.copy()
    ksq[0, 0] = 1.0
    psi_hat = w_hat / ksq
    psi_hat[0, 0] = 0.0
    return (np.real(np.fft.ifft2(1j * grid.ky * psi_hat)) + mean[0],
            np.real(np.fft.ifft2(-1j * grid.kx * psi_hat)) + mean[1])


def _advection(grid: Grid, w_hat: np.ndarray, mask: np.ndarray, mean, u=None) -> np.ndarray:
    """-dealias(u . grad(omega)) in spectral space; u is the velocity of w_hat if known."""
    u1, u2 = _velocity(grid, w_hat, mean) if u is None else u
    wx = np.real(np.fft.ifft2(1j * grid.kx * w_hat))
    wy = np.real(np.fft.ifft2(1j * grid.ky * w_hat))
    rhs = np.fft.fft2(-(u1 * wx + u2 * wy))
    return rhs * mask


def _advance(state: NsState, dt: float, n_sub: int, t: float) -> NsState:
    """n_sub integrating-factor RK4 substeps of size dt, as the state at time t."""
    grid = state.grid
    cutoff = grid.n / 3.0  # 2/3-rule dealiasing
    mask = (np.abs(grid.kx) <= cutoff) & (np.abs(grid.ky) <= cutoff)
    w_hat = 1j * grid.kx * np.fft.fft2(state.u2) - 1j * grid.ky * np.fft.fft2(state.u1)
    mean = (np.mean(state.u1), np.mean(state.u2))
    e_half = np.exp(-state.nu * grid.ksq * dt / 2.0)
    e_full = e_half ** 2
    for _ in range(n_sub):
        u = _velocity(grid, w_hat, mean)
        cfl = max(linf_norm(u[0]), linf_norm(u[1])) * dt / grid.dx
        if cfl > 1.0:
            raise CflViolation(f"advective CFL = {cfl:.4g} exceeds 1")
        k1 = _advection(grid, w_hat, mask, mean, u)
        k2 = _advection(grid, e_half * (w_hat + 0.5 * dt * k1), mask, mean)
        k3 = _advection(grid, e_half * w_hat + 0.5 * dt * k2, mask, mean)
        k4 = _advection(grid, e_full * w_hat + dt * e_half * k3, mask, mean)
        w_hat = e_full * w_hat + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    u1, u2 = _velocity(grid, w_hat, mean)
    return NsState(grid=grid, u1=u1, u2=u2, t=t, nu=state.nu)


def ns_step(state: NsState, dt: float) -> NsState:
    """One integrating-factor RK4 step of the vorticity equation."""
    return _advance(state, dt, 1, state.t + dt)


def ns_advance(state: NsState, t_target: float, dt_max: float) -> NsState:
    """Step to exactly t_target using uniform substeps no larger than dt_max."""
    gap = t_target - state.t
    if gap < -1e-12:
        raise ValueError(f"cannot step backwards from t={state.t} to {t_target}")
    if gap <= 1e-14:
        return state
    n_sub = max(1, int(np.ceil(gap / dt_max - 1e-12)))
    return _advance(state, gap / n_sub, n_sub, t_target)


def pressure_from_velocity(state: NsState) -> np.ndarray:
    """Mean-zero p solving -lap(p) = div(div(u (x) u)), computed spectrally."""
    grid = state.grid
    t11 = np.fft.fft2(state.u1 * state.u1)
    t12 = np.fft.fft2(state.u1 * state.u2)
    t22 = np.fft.fft2(state.u2 * state.u2)
    rhs = -(grid.kx ** 2 * t11 + 2.0 * grid.kx * grid.ky * t12 + grid.ky ** 2 * t22)
    ksq = grid.ksq.copy()
    ksq[0, 0] = 1.0
    p_hat = rhs / ksq
    p_hat[0, 0] = 0.0
    return np.real(np.fft.ifft2(p_hat))
