"""Deviation functionals, error norms against a reference flow, rate fits.

The change of variables

    w = sum_i f_i,  m = (lam/eps)(f_1 - f_3),  xi = (lam/eps)(f_2 - f_4),
    k = f_1 + f_3,  h = f_2 + f_4

turns the kinetic system into relaxation form.  Near the diffusive limit
k and h collapse onto 2*a*w up to O(eps^2) and m, xi onto
A_j(w)/eps - tau*lam^2 * (gradient of k or h); the deviation norms below
measure the distance from that manifold.  The error functionals compare the
macroscopic fields against an incompressible reference solution:

    e0 = ||rho - rho_bar||_0 / eps + ||rho u - rho_bar u_ref||_0
    es = ||rho - rho_bar||_s' / eps + ||u - u_ref||_s'
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import grid as gridmod
from .errors import NonPositiveError, TooFewPoints
from .model import KineticState, ModelParams, check_density, fluxes


def error_functionals(grid: gridmod.Grid, rho: np.ndarray, u: np.ndarray, u_ref: np.ndarray,
                      params: ModelParams, s_prime: float) -> tuple[float, float]:
    """(e0, es) of density rho and velocity u = (q1, q2)/(eps*rho) against a
    reference velocity u_ref (2, n, n) on grid."""
    grid.check_field(rho)
    rho_dev = rho - params.rho_bar
    mom_dev = rho * u - params.rho_bar * u_ref
    vel_dev = u - u_ref
    e0 = gridmod.l2_norm(grid, rho_dev) / params.epsilon + gridmod.l2_norm(grid, mom_dev)
    es = (gridmod.sobolev_norm(grid, rho_dev, s_prime) / params.epsilon
          + gridmod.sobolev_norm(grid, vel_dev, s_prime))
    return e0, es


def deviation_norms(f: np.ndarray, w: np.ndarray, grid: gridmod.Grid,
                    params: ModelParams) -> tuple[float, float, float, float]:
    """L2 distances of the state f, with moments w = sum_i f_i, from the
    first-order relaxation manifold.

    Returns (dev_k, dev_h, dev_m, dev_xi) with
    dev_k = ||k - 2aw||, dev_m = ||m - A_1(w)/eps + tau*lam^2*dx(k)||
    and the y-analogues for h and xi.  Rejects a non-positive or non-finite
    density of w.
    """
    check_density(w[0])
    a = params.a
    visc = params.tau * params.lam ** 2
    fac = params.lam / params.epsilon
    k = f[0] + f[2]
    h = f[1] + f[3]
    dev_k = gridmod.l2_norm(grid, k - 2.0 * a * w)
    dev_h = gridmod.l2_norm(grid, h - 2.0 * a * w)
    a1, a2 = fluxes(w, params) / params.epsilon
    dkx = gridmod.spectral_derivative(grid, k, "x")
    dhy = gridmod.spectral_derivative(grid, h, "y")
    dev_m = gridmod.l2_norm(grid, fac * (f[0] - f[2]) - a1 + visc * dkx)
    dev_xi = gridmod.l2_norm(grid, fac * (f[1] - f[3]) - a2 + visc * dhy)
    return dev_k, dev_h, dev_m, dev_xi


def _pressure_field(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    field = (rho ** 2 - params.rho_bar ** 2) / (2.0 * params.rho_bar * params.epsilon ** 2)
    return field - np.mean(field)


def pairing(f: np.ndarray, phi: np.ndarray) -> float:
    """Normalized-measure inner product of two fields."""
    return float(np.mean(np.asarray(f) * np.asarray(phi)))


#: fixed smooth test functions phi(x, y) of the weak-star pressure proxy, by name
PRESSURE_TEST_FUNCTIONS = {
    "cos2x": lambda x, y: np.cos(2 * x),
    "cos2y": lambda x, y: np.cos(2 * y),
    "sinxsiny": lambda x, y: np.sin(x) * np.sin(y),
}


def pressure_test_functions(grid: gridmod.Grid) -> dict[str, np.ndarray]:
    """PRESSURE_TEST_FUNCTIONS evaluated on grid."""
    return {name: phi(grid.x, grid.y) for name, phi in PRESSURE_TEST_FUNCTIONS.items()}


def relative_entropy_surrogate(w: np.ndarray, w_ref: np.ndarray,
                               params: ModelParams) -> float:
    """Quadratic relative entropy eta(w) - eta(w_ref) - grad eta(w_ref).(w - w_ref).

    For eta = |q|^2/(2*rho) + rho^2/(2*rho_bar) this is, written out,
    (rho - rho_ref)^2/(2*rho_bar) + rho*|q/rho - q_ref/rho_ref|^2/2.
    A macroscopic surrogate for the kinetic relative entropy, whose exact
    form is not available in closed form; labeled as such in all outputs.
    """
    rho, rho_ref = w[0], w_ref[0]
    du = w[1:] / rho - w_ref[1:] / rho_ref
    dens = (rho - rho_ref) ** 2 / (2.0 * params.rho_bar) + 0.5 * rho * np.sum(du * du, axis=0)
    return float(np.mean(dens))


def bound_functional(w: np.ndarray, params: ModelParams) -> float:
    """|rho - rho_bar|_inf / eps + |rho u|_inf of the moments w, the quantity kept below M."""
    rho_dev = gridmod.linf_norm(w[0] - params.rho_bar) / params.epsilon
    mom = gridmod.linf_norm(np.sqrt((w[1] / params.epsilon) ** 2 + (w[2] / params.epsilon) ** 2))
    return rho_dev + mom


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One record of a run: a row of records.csv, whose columns are the float
    fields in order (RECORD_COLUMNS), and the pairing errors
    <recovered - p_ref, phi> keyed by the names of PRESSURE_TEST_FUNCTIONS."""

    t: float
    e0: float
    es: float
    dev_k: float
    dev_h: float
    dev_m: float
    dev_xi: float
    eta_surrogate: float
    rho_min: float
    rho_max: float
    sup_bound_functional: float
    pairing_error: dict[str, float]


RECORD_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord) if f.name != "pairing_error")


def compute_record(state: KineticState, u_ref: np.ndarray, p_ref: np.ndarray,
                   phis: dict[str, np.ndarray], s_prime: float, t: float) -> DiagnosticsRecord:
    """One record against the reference velocity u_ref (2, n, n) and pressure
    p_ref; phis is pressure_test_functions(grid).

    w is summed once, and deviation_norms makes the record's one density check.
    """
    grid = state.grid
    p = state.params
    w = state.w()
    dev_k, dev_h, dev_m, dev_xi = deviation_norms(state.f, w, grid, p)
    rho = w[0]
    e0, es = error_functionals(grid, rho, w[1:] / (p.epsilon * rho), u_ref, p, s_prime)
    w_ref = np.stack([
        np.full((grid.n, grid.n), p.rho_bar),
        p.epsilon * p.rho_bar * u_ref[0],
        p.epsilon * p.rho_bar * u_ref[1],
    ])
    recovered = _pressure_field(rho, p)
    return DiagnosticsRecord(
        t=t,
        e0=e0,
        es=es,
        dev_k=dev_k,
        dev_h=dev_h,
        dev_m=dev_m,
        dev_xi=dev_xi,
        eta_surrogate=relative_entropy_surrogate(w, w_ref, p),
        rho_min=float(np.min(rho)),
        rho_max=float(np.max(rho)),
        sup_bound_functional=bound_functional(w, p),
        pairing_error={name: pairing(recovered, phi) - pairing(p_ref, phi)
                       for name, phi in phis.items()},
    )


@dataclass(frozen=True)
class ConvergenceStudyResult:
    """Least-squares power-law fit through (log eps, log error)."""

    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    residual: float


def fit_rate(epsilons, errors) -> ConvergenceStudyResult:
    """Fit error ~ C * eps^slope; residual is the max |log error - fit|."""
    eps = np.asarray(list(epsilons), dtype=float)
    err = np.asarray(list(errors), dtype=float)
    if eps.size < 3:
        raise TooFewPoints(f"need >= 3 data points, got {eps.size}")
    if eps.size != err.size:
        raise ValueError("epsilons and errors must have equal length")
    if np.any(eps <= 0):
        raise NonPositiveError("epsilons must be positive")
    if np.any(err <= 0):
        raise NonPositiveError("errors must be positive for a log-log fit")
    order = np.argsort(-eps)
    eps, err = eps[order], err[order]
    log_e, log_err = np.log(eps), np.log(err)
    slope, intercept = np.polyfit(log_e, log_err, 1)
    residual = float(np.max(np.abs(log_err - (slope * log_e + intercept))))
    return ConvergenceStudyResult(
        epsilons=tuple(eps),
        errors=tuple(err),
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )

