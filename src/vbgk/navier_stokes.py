"""Reference solutions of the 2D incompressible Navier-Stokes equations.

Two paths are provided:

* the decaying Taylor-Green vortex, an exact closed-form solution used as a
  zero-error reference for rate measurements;
* a vorticity-streamfunction pseudo-spectral solver (classical RK4 on the
  advection term with an exact integrating factor for diffusion and 2/3-rule
  dealiasing) for arbitrary divergence-free initial data.

The solver works on real-transform (``rfft2``) coefficients, laid out
(n, n/2 + 1).  A VorticityFlow holds the vorticity coefficients
w_hat = i kx u2_hat - i ky u1_hat, the mean velocity U and the time.  Its
substeps run in ``_evolve``, the one time-stepping kernel, and ``velocity()``
forms the velocity (2, n, n) with one stacked inverse transform.  Velocities
pass between functions as plain (2, n, n) arrays; only NsState, the state
that ns_step takes and returns, runs a divergence check.  The driver's
ReferenceTrajectory keeps a VorticityFlow from one record to the next, so a
record converts only vorticity to velocity and pressure.  On any data but
Taylor-Green a run steps that trajectory in a forked child process
(``driver.ForkedReference``), ahead of the kinetic run: the child sends each
record's (t, u, p) over a pipe, the arrays as raw bytes, and the run reads
them into one buffer.  The protocol is in the ``driver`` docstring; nothing
in this module depends on which process runs it.

Each RK4 stage takes one stacked inverse transform of (u1, u2, dw/dx, dw/dy),
written into buffers made once per kernel call, and one forward transform of
the advection product; the wavenumber tables are made once per grid.
The advective CFL condition is checked on the velocity of the first stage of
every substep.  The vorticity leaves out U, which is conserved on the torus:
it is added to the streamfunction's velocity, so it advects the vorticity
and the state keeps it.

Derivatives of odd order (dw/dx, dw/dy, and d^2/dxdy in the pressure) drop
the Nyquist row and column, as ``grid.spectral_derivative`` does; the maps
between velocity and vorticity keep them, so converting a divergence-free
velocity to vorticity and back returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def taylor_green_velocity(grid: Grid, t: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact decaying vortex: u = (-cos x sin y, sin x cos y) e^{-2 nu t}.

    Returns the velocity (2, n, n) and the mean-zero pressure
    p = -(cos 2x + cos 2y)/4 * e^{-4 nu t}.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    decay = np.exp(-2.0 * nu * t)
    x, y = grid.x, grid.y
    u = np.stack([-np.cos(x) * np.sin(y) * decay, np.sin(x) * np.cos(y) * decay])
    p = -0.25 * (np.cos(2 * x) + np.cos(2 * y)) * decay ** 2
    return u, p


def taylor_green(grid: Grid, t: float, nu: float) -> tuple[NsState, np.ndarray]:
    """taylor_green_velocity as a checked NsState and the pressure."""
    u, p = taylor_green_velocity(grid, t, nu)
    return NsState(grid=grid, u1=u[0], u2=u[1], t=t, nu=nu), p


@dataclass(frozen=True)
class _Tables:
    """Multipliers on the rfft2 layout: ikx (n, 1) and iky (1, n/2+1) are i k;
    ddx and ddy are the same without the Nyquist row or column."""

    ikx: np.ndarray
    iky: np.ndarray
    ddx: np.ndarray
    ddy: np.ndarray
    inv_lap: np.ndarray   # 1/|k|^2, and 0 at k = 0
    neg_mask: np.ndarray  # -1 inside the 2/3 rule, 0 outside


@lru_cache(maxsize=8)
def _tables(grid: Grid) -> _Tables:
    kx, ky, ksq = grid.kx, grid.rky, grid.rksq
    inv_lap = np.zeros(ksq.shape)
    np.divide(1.0, ksq, out=inv_lap, where=ksq > 0)
    cutoff = grid.n / 3.0  # 2/3-rule dealiasing
    neg_mask = -((np.abs(kx) <= cutoff) & (ky <= cutoff)).astype(float)
    nyquist = grid.n // 2
    ddx, ddy = 1j * kx, 1j * ky
    ddx[nyquist] = 0.0
    ddy[:, nyquist] = 0.0
    return _Tables(ikx=1j * kx, iky=1j * ky, ddx=ddx, ddy=ddy,
                   inv_lap=inv_lap, neg_mask=neg_mask)


def _velocity_coeffs(tab: _Tables, w_hat: np.ndarray, out: np.ndarray) -> None:
    """(u1_hat, u2_hat) = (i ky, -i kx) psi_hat into out (2, n, n/2+1); psi_hat = w_hat/|k|^2."""
    np.multiply(w_hat, tab.inv_lap, out=out[1])
    np.multiply(out[1], tab.iky, out=out[0])
    np.multiply(out[1], -tab.ikx, out=out[1])


class _Stage:
    """Scratch of one kernel call: the stacked coefficients and fields of an RK4 stage."""

    def __init__(self, grid: Grid, mean):
        n = grid.n
        self.tab, self.mean = _tables(grid), mean
        self.coeffs = np.empty((4, n, n // 2 + 1), dtype=complex)
        self.fields = np.empty((4, n, n))

    def advection(self, w_hat: np.ndarray) -> np.ndarray:
        """-dealias(u . grad(omega)); fields[:2] keep the velocity u of w_hat."""
        c, f, n = self.coeffs, self.fields, self.fields.shape[-1]
        _velocity_coeffs(self.tab, w_hat, c)
        np.multiply(w_hat, self.tab.ddx, out=c[2])
        np.multiply(w_hat, self.tab.ddy, out=c[3])
        # the inverse rfft2 as its two 1D transforms: numpy's irfft2 does not pass out= on
        np.fft.ifft(c, axis=-2, out=c)
        np.fft.irfft(c, n=n, axis=-1, out=f)
        f[0] += self.mean[0]
        f[1] += self.mean[1]
        np.multiply(f[0], f[2], out=f[2])
        np.multiply(f[1], f[3], out=f[3])
        f[2] += f[3]
        rhs = np.fft.rfft2(f[2])
        rhs *= self.tab.neg_mask
        return rhs


def _evolve(grid: Grid, w_hat: np.ndarray, mean, nu: float, dt: float,
            n_sub: int) -> np.ndarray:
    """n_sub integrating-factor RK4 substeps of size dt; returns the advanced w_hat.

    w_hat itself is not written to, so a CflViolation leaves the caller's flow
    as it was.
    """
    stage = _Stage(grid, mean)
    e_half = np.exp(-nu * grid.rksq * dt / 2.0)
    e_full = e_half ** 2
    w = w_hat
    for _ in range(n_sub):
        k1 = stage.advection(w)
        cfl = linf_norm(stage.fields[:2]) * dt / grid.dx
        if cfl > 1.0:
            raise CflViolation(f"advective CFL = {cfl:.4g} exceeds 1")
        k2 = stage.advection(e_half * (w + 0.5 * dt * k1))
        k3 = stage.advection(e_half * w + 0.5 * dt * k2)
        k4 = stage.advection(e_full * w + dt * e_half * k3)
        w = e_full * w + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return w


class VorticityFlow:
    """A flow started from velocity u (2, n, n) at time t, held as its rfft2
    vorticity coefficients w_hat and mean velocity."""

    def __init__(self, grid: Grid, u: np.ndarray, nu: float, t: float):
        self.grid, self.nu, self.t = grid, nu, t
        u_hat = np.fft.rfft2(u)
        # the (0, 0) coefficients carry n^2 times the mean
        self.mean = tuple(float(c) for c in u_hat[:, 0, 0].real / grid.n ** 2)
        tab = _tables(grid)
        self.w_hat = tab.ikx * u_hat[1] - tab.iky * u_hat[0]

    def evolve(self, dt: float, n_sub: int, t: float) -> None:
        """n_sub substeps of size dt, as the flow at time t."""
        self.w_hat = _evolve(self.grid, self.w_hat, self.mean, self.nu, dt, n_sub)
        self.t = t

    def advance(self, t_target: float, dt_max: float) -> bool:
        """Step to exactly t_target using uniform substeps no larger than dt_max.

        Returns False, and leaves the flow alone, when t_target is within
        1e-14 of t.
        """
        gap = t_target - self.t
        if gap < -1e-12:
            raise ValueError(f"cannot step backwards from t={self.t} to {t_target}")
        if gap <= 1e-14:
            return False
        n_sub = max(1, int(np.ceil(gap / dt_max - 1e-12)))
        self.evolve(gap / n_sub, n_sub, t_target)
        return True

    def velocity(self) -> np.ndarray:
        """The velocity (2, n, n) at time t, one stacked inverse transform."""
        n = self.grid.n
        u_hat = np.empty((2, n, n // 2 + 1), dtype=complex)
        _velocity_coeffs(_tables(self.grid), self.w_hat, u_hat)
        u = np.fft.irfftn(u_hat, s=(n, n), axes=(-2, -1))
        u[0] += self.mean[0]
        u[1] += self.mean[1]
        return u


def ns_step(state: NsState, dt: float) -> NsState:
    """One integrating-factor RK4 step of the vorticity equation."""
    flow = VorticityFlow(state.grid, np.stack([state.u1, state.u2]), state.nu, state.t)
    flow.evolve(dt, 1, state.t + dt)
    u = flow.velocity()
    return NsState(grid=state.grid, u1=u[0], u2=u[1], t=flow.t, nu=state.nu)


def pressure_from_velocity(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Mean-zero p solving -lap(p) = div(div(u (x) u)) for u (2, n, n), computed spectrally."""
    tab = _tables(grid)
    u1, u2 = u
    t_hat = np.fft.rfft2(np.stack([u1 * u1, u1 * u2, u2 * u2]))
    t_hat[0] *= tab.ikx ** 2
    t_hat[1] *= 2.0 * tab.ddx * tab.ddy
    t_hat[2] *= tab.iky ** 2
    p_hat = t_hat.sum(axis=0)
    p_hat *= tab.inv_lap
    return np.fft.irfft2(p_hat, s=(grid.n, grid.n))
