"""Reference solutions of the 2D incompressible Navier-Stokes equations.

Two paths are provided:

* the decaying Taylor-Green vortex, an exact closed-form solution used as a
  zero-error reference for rate measurements;
* a vorticity-streamfunction pseudo-spectral solver (classical RK4 on the
  advection term with an exact integrating factor for diffusion and 2/3-rule
  dealiasing) for arbitrary divergence-free initial data.

The solver works on real-transform (``rfft2``) coefficients, laid out
(n, n/2 + 1).  A VorticityFlow holds the vorticity coefficients
w_hat = i kx u2_hat - i ky u1_hat, the mean velocity U, the time and one
workspace (``_Workspace``), made at its first step or velocity: every
buffer its substeps and its velocity need.  Its substeps run in
``_evolve``, the one time-stepping kernel, which writes each stage
combination in place and allocates no array of field size; ``velocity()``
forms the velocity
(2, n, n) with one stacked inverse transform into the workspace, so the
array it returns is valid until its next call.  Velocities pass between
functions as plain (2, n, n) arrays; only NsState, the state that ns_step
takes and returns, runs a divergence check.  The driver's
ReferenceTrajectory keeps a VorticityFlow from one record to the next, so a
record converts only vorticity to velocity.  How the driver hands the
records to a run, in-process or from a forked child, is in the ``driver``
docstring; nothing in this module depends on which process runs it.

Each RK4 stage takes one stacked inverse transform of (u1, u2, dw/dx, dw/dy)
and one forward transform of the advection product, both into the
workspace; the wavenumber tables are made once per grid.
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
        if not div <= 1e-10:
            raise NotDivergenceFree(f"velocity divergence {div:.3e} > 1e-10")

    def energy(self) -> float:
        """Squared L2 norm of the velocity under the normalized measure."""
        return float(np.mean(self.u1 ** 2 + self.u2 ** 2))


def taylor_green_velocity(grid: Grid, t: float, nu: float) -> np.ndarray:
    """Exact decaying vortex: u = (-cos x sin y, sin x cos y) e^{-2 nu t}, (2, n, n).

    Both axes share the grid's coordinates, so the trigonometric functions
    are evaluated on them once and the fields are their outer products, the
    same values as the 2D closed form.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    decay = np.exp(-2.0 * nu * t)
    x = grid.coords
    cos, sin = np.cos(x), np.sin(x)
    u = np.empty((2, grid.n, grid.n))
    np.multiply.outer(-cos, sin, out=u[0])
    np.multiply.outer(sin, cos, out=u[1])
    u *= decay
    return u


def taylor_green(grid: Grid, t: float, nu: float) -> tuple[NsState, np.ndarray]:
    """taylor_green_velocity as a checked NsState, and the mean-zero pressure
    p = -(cos 2x + cos 2y)/4 * e^{-4 nu t}, the outer sum of 1D values."""
    u = taylor_green_velocity(grid, t, nu)
    cos2 = np.cos(2 * grid.coords)
    p = np.add.outer(cos2, cos2)
    p *= -0.25
    p *= np.exp(-2.0 * nu * t) ** 2
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


class _Workspace:
    """Every buffer of one flow's kernel calls, made once.

    coeffs and fields are an RK4 stage's stacked coefficients (4, n, n/2+1)
    and fields (4, n, n); slopes holds k1..k4, combo the two buffers that
    form each stage's input, spare the w_hat that alternates with the flow's
    own, and u the velocity.  The multipliers of ``_tables`` (-i kx in
    place of i kx) and decay, exp(-nu |k|^2 dt/2), its square, twice it and
    dt times it for the step dt, are complex (n, n/2+1) arrays: numpy
    buffers an operand that it casts or broadcasts, a 128 KiB allocation
    per product at n = 128, and the products have the same bits either way.
    """

    def __init__(self, grid: Grid, mean, nu: float):
        n, half = grid.n, grid.n // 2 + 1
        self.grid, self.mean, self.nu = grid, mean, nu
        self.coeffs = np.empty((4, n, half), dtype=complex)
        self.fields = np.empty((4, n, n))
        self.slopes = np.empty((4, n, half), dtype=complex)
        self.combo = np.empty((2, n, half), dtype=complex)
        self.spare = np.empty((n, half), dtype=complex)
        self.u = np.empty((2, n, n))
        tab = _tables(grid)
        mult = np.empty((6, n, half), dtype=complex)
        for out, table in zip(mult, (tab.inv_lap, tab.iky, -tab.ikx, tab.ddx, tab.ddy,
                                     tab.neg_mask)):
            out[...] = table
        self.inv_lap, self.iky, self.neg_ikx, self.ddx, self.ddy, self.neg_mask = mult
        self.decay = np.zeros((4, n, half), dtype=complex)
        self.dt = None

    def set_step(self, dt: float) -> None:
        """Fill decay for the step dt, unless it holds dt already."""
        if dt == self.dt:
            return
        e_half, e_full, e_two, e_dt = self.decay.real
        # the operations of exp(-nu * rksq * dt / 2.0), in their order
        np.multiply(-self.nu, self.grid.rksq, out=e_half)
        e_half *= dt
        e_half /= 2.0
        np.exp(e_half, out=e_half)
        np.square(e_half, out=e_full)
        np.multiply(2.0, e_half, out=e_two)
        np.multiply(dt, e_half, out=e_dt)
        self.dt = dt

    def _velocity_coeffs(self, w_hat: np.ndarray, out: np.ndarray) -> None:
        """(u1_hat, u2_hat) = (i ky, -i kx) psi_hat into out (2, n, n/2+1),
        psi_hat = w_hat/|k|^2."""
        np.multiply(w_hat, self.inv_lap, out=out[1])
        np.multiply(out[1], self.iky, out=out[0])
        np.multiply(out[1], self.neg_ikx, out=out[1])

    def advection(self, w_hat: np.ndarray, out: np.ndarray) -> None:
        """-dealias(u . grad(omega)) into out; fields[:2] keep the velocity u of w_hat."""
        c, f, n = self.coeffs, self.fields, self.grid.n
        self._velocity_coeffs(w_hat, c)
        np.multiply(w_hat, self.ddx, out=c[2])
        np.multiply(w_hat, self.ddy, out=c[3])
        # the inverse rfft2 as its two 1D transforms: numpy's irfft2 does not pass out= on
        np.fft.ifft(c, axis=-2, out=c)
        np.fft.irfft(c, n=n, axis=-1, out=f)
        f[0] += self.mean[0]
        f[1] += self.mean[1]
        np.multiply(f[0], f[2], out=f[2])
        np.multiply(f[1], f[3], out=f[3])
        f[2] += f[3]
        np.fft.rfft2(f[2], out=out)
        out *= self.neg_mask

    def velocity(self, w_hat: np.ndarray) -> np.ndarray:
        """The velocity (2, n, n) of w_hat into u: the irfftn of its
        coefficients as its two 1D transforms, the second into u."""
        c = self.coeffs[:2]
        self._velocity_coeffs(w_hat, c)
        np.fft.ifft(c, axis=-2, out=c)
        np.fft.irfft(c, n=self.grid.n, axis=-1, out=self.u)
        self.u[0] += self.mean[0]
        self.u[1] += self.mean[1]
        return self.u


def _evolve(ws: _Workspace, w_hat: np.ndarray, dt: float, n_sub: int) -> np.ndarray:
    """n_sub integrating-factor RK4 substeps of size dt; returns the advanced
    w_hat, which is ws.spare.

    Every stage combination is written in place in the operand order of
    e_half * (w + 0.5*dt*k1), e_half*w + 0.5*dt*k2, e_full*w + dt*e_half*k3
    and e_full*w + dt/6 * (e_full*k1 + 2*e_half*(k2 + k3) + k4), so the
    result has their bits.  w_hat itself is not written to, so a
    CflViolation leaves the caller's flow as it was.
    """
    ws.set_step(dt)
    e_half, e_full, e_two, e_dt = ws.decay
    k1, k2, k3, k4 = ws.slopes
    a, b = ws.combo
    u = ws.fields[:2]
    w = w_hat
    for _ in range(n_sub):
        ws.advection(w, k1)
        cfl = max(float(u.max()), -float(u.min())) * dt / ws.grid.dx
        if cfl > 1.0:
            raise CflViolation(f"advective CFL = {cfl:.4g} exceeds 1")
        np.multiply(0.5 * dt, k1, out=a)
        np.add(w, a, out=a)
        np.multiply(e_half, a, out=a)
        ws.advection(a, k2)
        np.multiply(e_half, w, out=a)
        np.multiply(0.5 * dt, k2, out=b)
        np.add(a, b, out=a)
        ws.advection(a, k3)
        np.multiply(e_full, w, out=a)
        np.multiply(e_dt, k3, out=b)
        np.add(a, b, out=a)
        ws.advection(a, k4)
        np.multiply(e_full, k1, out=b)
        np.add(k2, k3, out=a)
        np.multiply(e_two, a, out=a)
        np.add(b, a, out=b)
        np.add(b, k4, out=b)
        np.multiply(dt / 6.0, b, out=b)
        # the first substep reads the flow's w_hat, every later one ws.spare
        np.multiply(e_full, w, out=ws.spare)
        np.add(ws.spare, b, out=ws.spare)
        w = ws.spare
    return w


class VorticityFlow:
    """A flow started from velocity u (2, n, n) at time t, held as its rfft2
    vorticity coefficients w_hat and mean velocity, and stepped in its own
    workspace (``_Workspace``).

    The workspace is made at the flow's first step or velocity, so a process
    that forks after making a flow has neither allocated nor touched it.
    """

    def __init__(self, grid: Grid, u: np.ndarray, nu: float, t: float):
        self.grid, self.nu, self.t = grid, nu, t
        u_hat = np.fft.rfft2(u)
        # the (0, 0) coefficients carry n^2 times the mean
        self.mean = tuple(float(c) for c in u_hat[:, 0, 0].real / grid.n ** 2)
        tab = _tables(grid)
        self.w_hat = tab.ikx * u_hat[1] - tab.iky * u_hat[0]
        self._ws = None

    def _workspace(self) -> _Workspace:
        if self._ws is None:
            self._ws = _Workspace(self.grid, self.mean, self.nu)
        return self._ws

    def evolve(self, dt: float, n_sub: int, t: float) -> None:
        """n_sub substeps of size dt, as the flow at time t."""
        ws = self._workspace()
        w_hat = _evolve(ws, self.w_hat, dt, n_sub)
        # the old w_hat becomes the spare that the next call writes
        ws.spare, self.w_hat = self.w_hat, w_hat
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
        """The velocity (2, n, n) at time t, in the workspace: valid until
        the next call."""
        return self._workspace().velocity(self.w_hat)


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
