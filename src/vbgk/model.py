"""Model parameters, Maxwellians, fluxes and the structural validator.

The kinetic model evolves five vector densities f_i (i = 1..5), each with
three components, attached to the velocities

    c_1 = (lam, 0), c_2 = (0, lam), c_3 = (-lam, 0), c_4 = (0, -lam), c_5 = 0,

scaled by 1/epsilon in the transport and 1/(tau*epsilon^2) in the relaxation.
The macroscopic state is w = sum_i f_i = (rho, q1, q2) with q = eps*rho*u.

Local equilibria (Maxwellians):

    M_{1,3}(w) = a*w +/- A_1(w)/(2*lam),
    M_{2,4}(w) = a*w +/- A_2(w)/(2*lam),
    M_5(w)     = (1 - 4a)*w,

with fluxes

    A_1(w) = (q1, q1^2/rho + P(rho), q1*q2/rho),
    A_2(w) = (q2, q1*q2/rho, q2^2/rho + P(rho)),

quadratic pressure P(rho) = (rho^2 - rho_bar^2) / (2*rho_bar), and the weight
a = nu / (2*lam^2*tau) which must lie in (0, 1/4).  These choices make
sum_i M_i = w and sum_i c_{ij} M_i = A_j identically, so w is conserved by
the relaxation and the diffusive limit is the 2D incompressible
Navier-Stokes system with viscosity nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .errors import (
    ConstraintViolation,
    NonPositiveDensity,
    NonPositiveInput,
    NotDivergenceFree,
)

#: discrete velocity directions, row i gives (c_i1, c_i2) in units of lam
VELOCITY_DIRECTIONS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]
)


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set; `a` is always recomputed from the others."""

    epsilon: float
    tau: float
    lam: float
    nu: float
    rho_bar: float
    a: float = field(init=False)

    def __post_init__(self):
        for name in ("epsilon", "tau", "lam", "nu", "rho_bar"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise NonPositiveInput(f"{name} must be positive, got {value}")
        if self.epsilon > 1.0:
            raise ConstraintViolation(f"epsilon must be <= 1, got {self.epsilon}")
        a = self.nu / (2.0 * self.lam ** 2 * self.tau)
        if not 0.0 < a < 0.25:
            raise ConstraintViolation(
                f"a = nu/(2*lam^2*tau) = {a:.6g} outside (0, 1/4)"
            )
        object.__setattr__(self, "a", a)

    @property
    def relaxation_time(self) -> float:
        """Time scale tau*eps^2 of the stiff relaxation."""
        return self.tau * self.epsilon ** 2


def make_params(epsilon, tau, lam, nu, rho_bar) -> ModelParams:
    """Build a ModelParams, validating positivity and the range of a."""
    return ModelParams(epsilon=float(epsilon), tau=float(tau), lam=float(lam),
                       nu=float(nu), rho_bar=float(rho_bar))


def density_fault(rho) -> str | None:
    """Why rho is not a valid density (finite and > 0 everywhere), or None."""
    rho_min = np.min(rho)
    if rho_min <= 0.0:
        return f"density must be positive, min = {rho_min:.6g}"
    # NaN compares false above; it and +inf propagate through the maximum
    return None if np.isfinite(np.max(rho)) else "density contains non-finite values"


def check_density(rho) -> np.ndarray:
    """rho as a float array; raises NonPositiveDensity with its density_fault."""
    rho = np.asarray(rho, dtype=float)
    fault = density_fault(rho)
    if fault is not None:
        raise NonPositiveDensity(fault)
    return rho


def _pressure_into(rho, params: ModelParams, out: np.ndarray) -> np.ndarray:
    np.multiply(rho, rho, out=out)
    out -= params.rho_bar ** 2
    out /= 2.0 * params.rho_bar
    return out


def pressure_derivative(rho, params: ModelParams):
    """P'(rho) = rho/rho_bar, the squared sound speed."""
    return rho / params.rho_bar


def fluxes(w: np.ndarray, params: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """A_1(w) and A_2(w), shape (2, 3, ...) for w of shape (3, ...).

    The pressure is evaluated once.  No density check: callers check rho > 0
    first.  out, when given, must be a C-contiguous (2, 3, ...) array; the
    result is written there and no other temporary of that size is made.
    """
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty((2,) + w.shape)
    rho, q1, q2 = w.reshape(3, -1)
    a1, a2 = out.reshape(2, 3, -1)
    # a2[2] holds P(rho) until q2^2/rho, made in a2[0], is added to it
    _pressure_into(rho, params, a2[2])
    np.multiply(q1, q1, out=a1[1])
    a1[1] /= rho
    a1[1] += a2[2]
    np.multiply(q1, q2, out=a1[2])
    a1[2] /= rho
    a2[1] = a1[2]
    np.multiply(q2, q2, out=a2[0])
    a2[0] /= rho
    a2[2] += a2[0]
    a1[0] = q1
    a2[0] = q2
    return out


def add_maxwellians(f: np.ndarray, w: np.ndarray, scale: float, params: ModelParams,
                    scratch: np.ndarray) -> None:
    """f += scale * M(w) in place, for f of shape (5, 3, ...) and w of shape (3, ...).

    scratch is a C-contiguous (2, 3, ...) buffer; it is overwritten.  No
    density check: callers check rho > 0 first.
    """
    a = params.a
    np.multiply(w, scale * a, out=scratch[0])
    for f_i in f[:4]:  # not f[:4] +=, whose broadcast fills an iterator buffer
        f_i += scratch[0]
    np.multiply(w, scale * (1.0 - 4.0 * a), out=scratch[0])
    f[4] += scratch[0]
    fluxes(w, params, out=scratch)
    scratch *= scale / (2.0 * params.lam)
    f[0] += scratch[0]
    f[1] += scratch[1]
    f[2] -= scratch[0]
    f[3] -= scratch[1]


def maxwellians(w: np.ndarray, params: ModelParams) -> np.ndarray:
    """All five Maxwellians, shape (5, 3, ...) for w of shape (3, ...)."""
    w = np.asarray(w, dtype=float)
    check_density(w[0])
    m = np.zeros((5,) + w.shape)
    add_maxwellians(m, w, 1.0, params, np.empty((2,) + w.shape))
    return m


def perturbed_maxwellians(grid: gridmod.Grid, w: np.ndarray,
                          params: ModelParams) -> np.ndarray:
    """Maxwellians corrected by -/+ a*eps*lam*tau * (spectral gradient of w).

    The corrections on the pairs (1, 3) and (2, 4) cancel, so the projection
    sum_i of the result reproduces w exactly.  Used to prepare initial data
    that sits on the first-order relaxation manifold (the fifth density is
    left at its plain Maxwellian); a short layer onto the slow manifold,
    O(eps^2) away, still forms within a few tau*eps^2.
    """
    w = grid.check_field(np.asarray(w, dtype=float))
    m = maxwellians(w, params)
    coeff = params.a * params.epsilon * params.lam * params.tau
    dwx = gridmod.spectral_derivative(grid, w, "x")
    dwy = gridmod.spectral_derivative(grid, w, "y")
    m[0] -= coeff * dwx
    m[1] -= coeff * dwy
    m[2] += coeff * dwx
    m[3] += coeff * dwy
    return m


@dataclass(frozen=True)
class KineticState:
    """Five vector densities on a grid: f has shape (5, 3, n, n)."""

    grid: gridmod.Grid
    params: ModelParams
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (5, 3, self.grid.n, self.grid.n):
            raise ValueError(
                f"kinetic state must have shape (5, 3, n, n), got {f.shape}"
            )
        object.__setattr__(self, "f", f)

    def w(self) -> np.ndarray:
        """Macroscopic moments (rho, q1, q2) = sum_i f_i, shape (3, n, n)."""
        return self.f.sum(axis=0)


def check_divergence_free(grid: gridmod.Grid, u0: np.ndarray) -> None:
    """Raise NotDivergenceFree unless the initial velocity u0 (2, n, n) is
    divergence-free to 1e-10; a NaN divergence fails too."""
    div_max = gridmod.linf_norm(gridmod.spectral_divergence(grid, u0[0], u0[1]))
    if not div_max <= 1e-10:
        raise NotDivergenceFree(
            f"initial velocity has spectral divergence {div_max:.3e} > 1e-10"
        )


def initial_kinetic_state(grid: gridmod.Grid, u0: np.ndarray,
                          params: ModelParams) -> KineticState:
    """Well-prepared kinetic data from a divergence-free velocity field.

    Builds w0 = (rho_bar, eps*rho_bar*u0) and places every density on the
    perturbed Maxwellians of w0.
    """
    u0 = grid.check_field(np.asarray(u0, dtype=float))
    if u0.shape != (2, grid.n, grid.n):
        raise ValueError(f"u0 must have shape (2, n, n), got {u0.shape}")
    check_divergence_free(grid, u0)
    scale = params.epsilon * params.rho_bar
    w0 = np.stack([
        np.full((grid.n, grid.n), params.rho_bar),
        scale * u0[0],
        scale * u0[1],
    ])
    return KineticState(grid=grid, params=params, f=perturbed_maxwellians(grid, w0, params))


# ---------------------------------------------------------------------------
# Jacobians and the sub-characteristic validator
# ---------------------------------------------------------------------------

def flux_jacobian(j: int, w_points: np.ndarray, params: ModelParams) -> np.ndarray:
    """Jacobian dA_j/dw at a batch of states, shape (N, 3) -> (N, 3, 3)."""
    if j not in (1, 2):
        raise ValueError(f"flux index must be 1 or 2, got {j}")
    w_points = np.asarray(w_points, dtype=float).reshape(-1, 3)
    rho, q1, q2 = w_points[:, 0], w_points[:, 1], w_points[:, 2]
    check_density(rho)
    dp = pressure_derivative(rho, params)
    n = w_points.shape[0]
    jac = np.zeros((n, 3, 3))
    if j == 1:
        jac[:, 0, 1] = 1.0
        jac[:, 1, 0] = dp - q1 ** 2 / rho ** 2
        jac[:, 1, 1] = 2.0 * q1 / rho
        jac[:, 2, 0] = -q1 * q2 / rho ** 2
        jac[:, 2, 1] = q2 / rho
        jac[:, 2, 2] = q1 / rho
    else:
        jac[:, 0, 2] = 1.0
        jac[:, 1, 0] = -q1 * q2 / rho ** 2
        jac[:, 1, 1] = q2 / rho
        jac[:, 1, 2] = q1 / rho
        jac[:, 2, 0] = dp - q2 ** 2 / rho ** 2
        jac[:, 2, 2] = 2.0 * q2 / rho
    return jac


def maxwellian_jacobians(w_points: np.ndarray, params: ModelParams) -> np.ndarray:
    """Jacobians dM_i/dw at a batch of states, shape (N, 3) -> (5, N, 3, 3).

    a*I +/- A_j'/(2*lam) for i = 1..4 and (1-4a)*I for i = 5; they sum to I and
    sum_i c_ij dM_i/dw = A_j' (the compatibility identities, differentiated).
    """
    half1, half2 = (flux_jacobian(j, w_points, params) / (2.0 * params.lam) for j in (1, 2))
    aw = params.a * np.eye(3)
    m5 = np.broadcast_to((1.0 - 4.0 * params.a) * np.eye(3), half1.shape)
    return np.stack([aw + half1, aw + half2, aw - half1, aw - half2, m5])


@dataclass(frozen=True)
class SubcharacteristicReport:
    """Outcome of the sub-characteristic check over the validator's state box.

    The box holds densities rho_bar*(1 +/- eps/2) and velocity components
    within +/- 2*u_max.  passed requires every characteristic speed of A_1',
    A_2' to stay below lam (so the kinetic speeds dominate the macroscopic
    ones); 1-4a > 0 holds for every ModelParams.  The minimum eigenvalue of
    the Maxwellian Jacobians (`maxwellian_jacobians`) is reported as well.
    It is non-negative (monotone Maxwellians) only when 2*a*lam exceeds every
    characteristic speed on the box, which near equilibrium needs
    nu/tau > lam*sqrt(P'(rho_bar)):
    negative at lam = 2, nu = 0.01, tau = 1 (a = 0.00125), positive at
    lam = 3, nu = 1, tau = 0.25 (a = 2/9) for eps <= 0.1.  It is
    informational only and not part of the pass criterion.
    """

    passed: bool
    speed_margin: float
    max_char_speed: float
    m5_coefficient: float
    min_maxwellian_jacobian_eig: float


def check_subcharacteristic(params: ModelParams, u_max: float) -> SubcharacteristicReport:
    """Characteristic speeds over the state box against lam, in closed form.

    The eigenvalues of A_j' are u_j and u_j +/- sqrt(P'(rho)) with
    u = q/rho = eps*v, so the largest speed on the box is
    eps*max|v| + sqrt(P'(rho_max)), taken at a corner.  The eigenvalues of
    a*I +/- A_j'/(2*lam) are a +/- (those)/(2*lam), and dM_5/dw = (1-4a)*I.
    """
    rho_max = params.rho_bar * (1.0 + 0.5 * params.epsilon)
    max_speed = float(params.epsilon * 2.0 * abs(u_max)
                      + np.sqrt(pressure_derivative(rho_max, params)))
    m5 = 1.0 - 4.0 * params.a
    margin = params.lam - max_speed
    return SubcharacteristicReport(
        passed=bool(margin > 0.0),
        speed_margin=margin,
        max_char_speed=max_speed,
        m5_coefficient=m5,
        min_maxwellian_jacobian_eig=min(params.a - max_speed / (2.0 * params.lam), m5),
    )
