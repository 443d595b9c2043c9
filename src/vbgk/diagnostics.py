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

A run takes a record every few steps, so a record allocates nothing of the
size of a field: compute_record, deviation_norms and error_functionals fill
the grid's scratch (``grid.Scratch``, which lists who uses which buffer).
The derivatives take real 1D transforms into it, both Sobolev norms share
one rfft2 (``grid.coefficient_norm`` weighs it), and the sums of squares
are taken over flat views.  A record reads the moments w that ``kinetic.run``
summed and checked, and pairs the recovered pressure through 1D
test-function factors.  The reference pressure reaches a record only as its
pairings, which ``pressure_pairings`` takes from the reference velocity with
1D sums: no pressure field is made for a run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import grid as gridmod
from .errors import NonPositiveError, TooFewPoints
from .model import KineticState, ModelParams, _pressure_into, check_density, fluxes


def error_functionals(grid: gridmod.Grid, rho: np.ndarray, u: np.ndarray, u_ref: np.ndarray,
                      params: ModelParams, s_prime: float) -> tuple[float, float]:
    """(e0, es) of density rho and velocity u = (q1, q2)/(eps*rho) against a
    reference velocity u_ref (2, n, n) on grid.

    One rfft2 of (rho - rho_bar, u - u_ref) gives both Sobolev norms.  u may
    lie in the grid scratch's field buffer, not in its pair buffer.
    """
    grid.check_field(rho)
    sc = gridmod.scratch(grid)
    devs = sc.pair.reshape(6, grid.n, grid.n)
    rho_dev, vel_dev, mom_dev, tmp = devs[0], devs[1:3], devs[3:5], devs[5]
    np.subtract(rho, params.rho_bar, out=rho_dev)
    for j in range(2):
        np.multiply(rho, u[j], out=mom_dev[j])
        np.multiply(params.rho_bar, u_ref[j], out=tmp)
        mom_dev[j] -= tmp
    np.subtract(u, u_ref, out=vel_dev)
    e0 = gridmod.l2_norm(grid, rho_dev) / params.epsilon + gridmod.l2_norm(grid, mom_dev)
    coeffs = np.fft.rfft2(devs[:3], out=sc.coeffs)
    es = (gridmod.coefficient_norm(grid, coeffs[0], s_prime) / params.epsilon
          + gridmod.coefficient_norm(grid, coeffs[1:], s_prime))
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
    sc = gridmod.scratch(grid)
    visc = params.tau * params.lam ** 2
    fac = params.lam / params.epsilon
    mom, field, real = sc.pair, sc.field, sc.real
    fluxes(w, params, out=mom)
    mom /= params.epsilon
    devs = []
    for j, axis in enumerate("xy"):
        # mom[j] <- fac*(f_j - f_{j+2}) - A_j/eps
        np.subtract(f[j], f[j + 2], out=real)
        real *= fac
        np.subtract(real, mom[j], out=mom[j])
        np.add(f[j], f[j + 2], out=field)
        np.multiply(2.0 * params.a, w, out=real)
        np.subtract(field, real, out=real)
        devs.append(gridmod.l2_norm(grid, real))
        gridmod.spectral_derivative(grid, field, axis, out=field, coeffs=sc.coeffs)
        field *= visc
        mom[j] += field
    dev_k, dev_h = devs
    return dev_k, dev_h, gridmod.l2_norm(grid, mom[0]), gridmod.l2_norm(grid, mom[1])


@dataclass(frozen=True)
class _Wave:
    """cos(k c), or sin(k c) when odd, of the 1D coordinates c."""

    k: int
    odd: bool = False

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return np.sin(self.k * c) if self.odd else np.cos(self.k * c)

    def derivative(self, c: np.ndarray) -> np.ndarray:
        return self.k * np.cos(self.k * c) if self.odd else -self.k * np.sin(self.k * c)


#: smooth test functions phi = a(x) * b(y) of the weak-star pressure proxy, by
#: name, as factors (a, b) of the 1D coordinates; each phi has zero mean, so
#: the pressure's mean, defined only up to a constant, reaches no pairing
PRESSURE_TEST_FUNCTIONS = {
    "cos2x": (_Wave(2), _Wave(0)),
    "cos2y": (_Wave(0), _Wave(2)),
    "sinxsiny": (_Wave(1, odd=True), _Wave(1, odd=True)),
}


def _pair(grid: gridmod.Grid, a: np.ndarray, b: np.ndarray, *fields: np.ndarray) -> float:
    """<product of fields, a(x) b(y)> on grid: rows against b, then against a.

    einsum calls no BLAS (see grid.l2_norm) and buffers nothing of field size
    this way; one einsum over both axes would buffer a field.
    """
    rows = np.einsum(",".join(["ij"] * len(fields)) + ",j->i", *fields, b)
    return float(np.einsum("i,i->", a, rows)) / grid.n ** 2


def pressure_pairings(grid: gridmod.Grid, u: np.ndarray) -> np.ndarray:
    """<p, phi> for each phi of PRESSURE_TEST_FUNCTIONS, in order, of the
    mean-zero pressure p of the velocity u (2, n, n).

    -lap(p) = div(div(u (x) u)), and phi = a(x) b(y) with single-mode factors
    is an eigenfunction, -lap(phi) = (kx^2 + ky^2) phi, so
    (kx^2 + ky^2) <p, phi> = <u_i u_j, d_i d_j phi>
                           = -kx^2 <u1^2, phi> - ky^2 <u2^2, phi> + 2 <u1 u2, a' b'>,
    the pairing of the spectral pressure (navier_stokes.pressure_from_velocity)
    up to round-off.  Each term is two sums over 1D factors: no pressure
    field and no transform are made.
    """
    u1, u2 = u
    x = grid.coords
    out = np.empty(len(PRESSURE_TEST_FUNCTIONS))
    for i, (fa, fb) in enumerate(PRESSURE_TEST_FUNCTIONS.values()):
        a, b = fa(x), fb(x)
        total = 0.0
        if fa.k:
            total -= fa.k ** 2 * _pair(grid, a, b, u1, u1)
        if fb.k:
            total -= fb.k ** 2 * _pair(grid, a, b, u2, u2)
        if fa.k and fb.k:
            total += 2.0 * _pair(grid, fa.derivative(x), fb.derivative(x), u1, u2)
        out[i] = total / (fa.k ** 2 + fb.k ** 2)
    return out


def relative_entropy_surrogate(w: np.ndarray, w_ref: np.ndarray, params: ModelParams,
                               out: np.ndarray | None = None) -> float:
    """Quadratic relative entropy eta(w) - eta(w_ref) - grad eta(w_ref).(w - w_ref).

    For eta = |q|^2/(2*rho) + rho^2/(2*rho_bar) this is, written out,
    (rho - rho_ref)^2/(2*rho_bar) + rho*|q/rho - q_ref/rho_ref|^2/2.
    A macroscopic surrogate for the kinetic relative entropy, whose exact
    form is not available in closed form; labeled as such in all outputs.
    out, when given, is a (3, ...) scratch of the shape of w; it is
    overwritten.
    """
    # flat (3, points) views, so that a single point (3,) works too
    w = np.reshape(w, (3, -1))
    w_ref = np.reshape(w_ref, (3, -1))
    out = np.empty(w.shape) if out is None else out.reshape(3, -1)
    rho, rho_ref = w[0], w_ref[0]
    du, tmp = out[:2], out[2]
    for j in range(2):
        np.divide(w[1 + j], rho, out=du[j])
        np.divide(w_ref[1 + j], rho_ref, out=tmp)
        du[j] -= tmp
    du *= du
    kinetic = du[0]
    kinetic += du[1]
    kinetic *= rho
    np.subtract(rho, rho_ref, out=tmp)
    tmp *= tmp
    tmp /= params.rho_bar
    tmp += kinetic
    # the halving is exact, so the factor 1/2 of both terms is taken last
    return 0.5 * float(np.mean(tmp))


def bound_functional(w: np.ndarray, params: ModelParams, out: np.ndarray | None = None) -> float:
    """|rho - rho_bar|_inf / eps + |rho u|_inf of the moments w, the quantity
    kept below M; out, when given, is a (2, ...) scratch and is overwritten."""
    if out is None:
        out = np.empty((2,) + np.shape(w)[1:])
    # subtracting a constant and sqrt are monotone, so the extrema can be
    # taken first: the same values with fewer passes
    rho_dev = max(float(np.max(w[0])) - params.rho_bar, params.rho_bar - float(np.min(w[0])))
    tmp, mom = out
    np.divide(w[1], params.epsilon, out=mom)
    mom *= mom
    np.divide(w[2], params.epsilon, out=tmp)
    tmp *= tmp
    mom += tmp
    return rho_dev / params.epsilon + float(np.sqrt(np.max(mom)))


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


def compute_record(state: KineticState, w: np.ndarray, u_ref: np.ndarray,
                   p_pairings: np.ndarray, s_prime: float, t: float) -> DiagnosticsRecord:
    """One record of state, whose moments are w, against the reference
    velocity u_ref (2, n, n) and the pairings <p_ref, phi> of the reference
    pressure, in the order of PRESSURE_TEST_FUNCTIONS (pressure_pairings).

    deviation_norms makes the record's one density check.  Every field is
    made in the grid's scratch, and the recovered pressure P(rho)/eps^2 is
    paired by two sums over 1D factors, so a record allocates nothing of the
    size of a field after the grid's first.  Its pairing errors are
    <P(rho)/eps^2, phi> - <p_ref, phi>.
    """
    grid = state.grid
    p = state.params
    sc = gridmod.scratch(grid)
    dev_k, dev_h, dev_m, dev_xi = deviation_norms(state.f, w, grid, p)
    rho = w[0]
    field = sc.field
    u = field[1:3]
    np.multiply(p.epsilon, rho, out=field[0])
    for j in range(2):
        np.divide(w[1 + j], field[0], out=u[j])
    e0, es = error_functionals(grid, rho, u, u_ref, p, s_prime)
    w_ref, tmp = sc.pair
    w_ref[0] = p.rho_bar
    np.multiply(p.epsilon * p.rho_bar, u_ref, out=w_ref[1:])
    eta = relative_entropy_surrogate(w, w_ref, p, out=tmp)
    # the recovered pressure keeps its mean (PRESSURE_TEST_FUNCTIONS)
    recovered = _pressure_into(rho, p, field[0])
    recovered /= p.epsilon ** 2
    x = grid.coords
    pairings = {name: _pair(grid, a(x), b(x), recovered) - float(p_ref)
                for (name, (a, b)), p_ref in zip(PRESSURE_TEST_FUNCTIONS.items(), p_pairings)}
    return DiagnosticsRecord(
        t=t,
        e0=e0,
        es=es,
        dev_k=dev_k,
        dev_h=dev_h,
        dev_m=dev_m,
        dev_xi=dev_xi,
        eta_surrogate=eta,
        rho_min=float(np.min(rho)),
        rho_max=float(np.max(rho)),
        sup_bound_functional=bound_functional(w, p, out=field[1:3]),
        pairing_error=pairings,
    )


@dataclass(frozen=True)
class ConvergenceStudyResult:
    """Least-squares power-law fit through (log eps, log error)."""

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
    log_e, log_err = np.log(eps), np.log(err)
    slope, intercept = np.polyfit(log_e, log_err, 1)
    residual = float(np.max(np.abs(log_err - (slope * log_e + intercept))))
    return ConvergenceStudyResult(slope=float(slope), intercept=float(intercept),
                                  residual=residual)

