import numpy as np
import pytest
from hypothesis import given, strategies as st

from vbgk.errors import (
    ConstraintViolation,
    NonPositiveDensity,
    NonPositiveInput,
    NotDivergenceFree,
)
from vbgk.diagnostics import relative_entropy_surrogate
from vbgk.grid import Grid
from vbgk.model import (
    check_subcharacteristic,
    flux_jacobian,
    fluxes,
    initial_kinetic_state,
    make_params,
    maxwellian_jacobians,
    maxwellians,
    perturbed_maxwellians,
)
from vbgk.navier_stokes import taylor_green

from conftest import random_field

VELOCITY_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])


def admissible_w(seed, size=1):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, size)
    q = rng.uniform(-0.4, 0.4, (2, size))
    return np.stack([rho, q[0], q[1]])


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_make_params_hand_value():
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    assert p.a == pytest.approx(0.00125, abs=1e-18)


def test_make_params_rejects_a_out_of_range():
    # a = 0.01 / (2 * 0.01 * 1) = 0.5 > 1/4
    with pytest.raises(ConstraintViolation):
        make_params(0.1, 1.0, 0.1, 0.01, 1.0)


@pytest.mark.parametrize("bad", ["epsilon", "tau", "lam", "nu", "rho_bar"])
def test_make_params_rejects_non_positive(bad):
    kwargs = dict(epsilon=0.1, tau=1.0, lam=2.0, nu=0.01, rho_bar=1.0)
    kwargs[bad] = 0.0
    with pytest.raises(NonPositiveInput):
        make_params(*kwargs.values())


def test_make_params_rejects_epsilon_above_one():
    with pytest.raises(ConstraintViolation):
        make_params(1.5, 1.0, 2.0, 0.01, 1.0)


@given(tau=st.floats(0.1, 5.0), lam=st.floats(0.5, 10.0), nu=st.floats(1e-4, 0.1))
def test_a_identity_for_accepted_params(tau, lam, nu):
    try:
        p = make_params(0.1, tau, lam, nu, 1.0)
    except ConstraintViolation:
        return
    assert p.a == pytest.approx(nu / (2 * lam ** 2 * tau), rel=1e-15)
    assert 0 < p.a < 0.25


# ---------------------------------------------------------------------------
# pressure and fluxes
# ---------------------------------------------------------------------------

def rest_w(rho):
    rho = np.asarray(rho, dtype=float)
    return np.stack([rho, np.zeros_like(rho), np.zeros_like(rho)])


def flux_pressure(rho, params):
    """P(rho), read as the q1 row of A_1 at zero momentum."""
    return fluxes(rest_w(rho), params)[0, 1]


def test_pressure_values(params_default):
    assert flux_pressure(1.0, params_default) == 0.0
    assert flux_pressure(1.2, params_default) == pytest.approx(0.22, abs=1e-15)
    p2 = make_params(0.1, 1.0, 2.0, 0.01, 2.0)
    assert flux_pressure(1.0, p2) == pytest.approx(-0.75, abs=1e-15)


def test_pressure_rejects_non_positive_density(params_default):
    # fluxes leaves the density check to its callers; maxwellians makes it
    with pytest.raises(NonPositiveDensity):
        maxwellians(rest_w(0.0), params_default)
    with pytest.raises(NonPositiveDensity):
        maxwellians(rest_w(np.array([1.0, -0.5])), params_default)


def test_pressure_strictly_increasing(params_default):
    rho = np.linspace(0.1, 3.0, 200)
    vals = flux_pressure(rho, params_default)
    assert np.all(np.diff(vals) > 0)


def test_flux_hand_values(params_default):
    w = np.array([1.0, 0.1, 0.2])
    a1, a2 = fluxes(w, params_default)
    assert a1 == pytest.approx([0.1, 0.01, 0.02], abs=1e-15)
    assert a2 == pytest.approx([0.2, 0.02, 0.04], abs=1e-15)


def test_flux_zero_momentum(params_default):
    w = np.array([1.0, 0.0, 0.0])
    assert np.all(fluxes(w, params_default) == 0.0)


@given(seed=st.integers(0, 2 ** 31))
def test_flux_swap_symmetry(seed, params_default):
    # swapping q1 <-> q2 exchanges A1 and A2 with middle/last rows swapped
    w = admissible_w(seed, 8)
    w_sw = np.stack([w[0], w[2], w[1]])
    a1s = fluxes(w_sw, params_default)[0]
    a2 = fluxes(w, params_default)[1]
    assert np.allclose(a1s, np.stack([a2[0], a2[2], a2[1]]), atol=1e-14)


# ---------------------------------------------------------------------------
# Maxwellians
# ---------------------------------------------------------------------------

def test_maxwellians_at_background(params_default):
    m = maxwellians(np.array([1.0, 0.0, 0.0]), params_default)
    for i in range(4):
        assert m[i] == pytest.approx([0.00125, 0.0, 0.0], abs=1e-18)
    assert m[4] == pytest.approx([0.995, 0.0, 0.0], abs=1e-15)


def test_maxwellians_equal_flux_stack(params_default):
    # one pressure evaluation must give exactly the flux-based formula
    w = admissible_w(7, 64).reshape(3, 8, 8)
    a, half = params_default.a, 1.0 / (2.0 * params_default.lam)
    a1, a2 = fluxes(w, params_default) * half
    expected = np.stack([a * w + a1, a * w + a2, a * w - a1, a * w - a2,
                         (1.0 - 4.0 * a) * w])
    assert np.array_equal(maxwellians(w, params_default), expected)
    w[0, 3, 5] = np.nan
    with pytest.raises(NonPositiveDensity, match="non-finite"):
        maxwellians(w, params_default)


@given(seed=st.integers(0, 2 ** 31))
def test_compatibility_identities(seed, params_default):
    w = admissible_w(seed, 16)
    m = maxwellians(w, params_default)
    assert np.max(np.abs(m.sum(axis=0) - w)) < 1e-12
    for j in (1, 2):
        lhs = np.einsum("i,ic...->c...", VELOCITY_MATRIX[:, j - 1] * params_default.lam, m)
        rhs = fluxes(w, params_default)[j - 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("seed", [3, 11])
def test_maxwellian_jacobians_match_finite_differences(seed):
    p = make_params(0.1, 0.25, 3.0, 1.0, 1.2)
    w = admissible_w(seed, 6)  # (3, N)
    jac = maxwellian_jacobians(w.T, p)
    assert jac.shape == (5, 6, 3, 3)
    h = 1e-6
    for c in range(3):
        dw = np.zeros((3, 1))
        dw[c] = h
        fd = (maxwellians(w + dw, p) - maxwellians(w - dw, p)) / (2 * h)  # (5, 3, N)
        assert np.max(np.abs(fd.transpose(0, 2, 1) - jac[..., c])) < 1e-8
    # the compatibility identities, differentiated
    assert np.max(np.abs(jac.sum(axis=0) - np.eye(3))) < 1e-15
    for j in (1, 2):
        lhs = np.einsum("i,inab->nab", VELOCITY_MATRIX[:, j - 1] * p.lam, jac)
        assert np.max(np.abs(lhs - flux_jacobian(j, w.T, p))) < 1e-14


@given(seed=st.integers(0, 2 ** 31), alpha=st.floats(0.1, 3.0))
def test_m5_is_exactly_linear(seed, alpha, params_default):
    w = admissible_w(seed, 4)
    m5 = maxwellians(w, params_default)[4]
    m5_scaled = (1.0 - 4.0 * params_default.a) * (alpha * w)
    assert np.allclose(alpha * m5, m5_scaled, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# perturbed Maxwellians and initial data
# ---------------------------------------------------------------------------

def test_perturbed_equals_plain_for_constant_w(grid32, params_default):
    w = np.stack([np.full((32, 32), 1.3), np.full((32, 32), 0.1), np.full((32, 32), -0.2)])
    assert np.max(np.abs(perturbed_maxwellians(grid32, w, params_default)
                         - maxwellians(w, params_default))) < 1e-13


def test_perturbed_projection_is_exact(grid32, params_default):
    w = np.stack([1.0 + 0.05 * random_field(1, 32), 0.1 * random_field(2, 32),
                  0.1 * random_field(3, 32)])
    m = perturbed_maxwellians(grid32, w, params_default)
    assert np.max(np.abs(m.sum(axis=0) - w)) < 1e-12


def test_perturbed_correction_scales_linearly_in_epsilon(grid32):
    w = np.stack([1.0 + 0.05 * random_field(4, 32), 0.1 * random_field(5, 32),
                  0.1 * random_field(6, 32)])
    diffs = []
    for eps in (0.2, 0.1, 0.05):
        p = make_params(eps, 1.0, 2.0, 0.01, 1.0)
        diffs.append(np.max(np.abs(perturbed_maxwellians(grid32, w, p)
                                   - maxwellians(w, p))))
    assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=1e-6)
    assert diffs[1] / diffs[2] == pytest.approx(2.0, rel=1e-6)


def test_initial_state_zero_velocity(grid32, params_default):
    state = initial_kinetic_state(grid32, np.zeros((2, 32, 32)), params_default)
    f5 = state.f[4]
    assert np.max(np.abs(f5[0] - 0.995)) < 1e-14
    assert np.max(np.abs(f5[1:])) < 1e-14
    for i in range(4):
        assert np.ptp(state.f[i][0]) < 1e-14  # constant densities


def test_initial_state_projection_identity(grid32, params_default):
    tg, _ = taylor_green(grid32, 0.0, params_default.nu)
    u0 = np.stack([tg.u1, tg.u2])
    state = initial_kinetic_state(grid32, u0, params_default)
    w = state.w()
    eps, rb = params_default.epsilon, params_default.rho_bar
    assert np.max(np.abs(w[0] - rb)) < 1e-13
    assert np.max(np.abs(w[1] - eps * rb * u0[0])) < 1e-13
    assert np.max(np.abs(w[2] - eps * rb * u0[1])) < 1e-13


def test_initial_state_rejects_gradient_field(grid32, params_default):
    # gradient of a non-harmonic potential is not divergence-free
    phi = np.sin(grid32.x) * np.sin(grid32.y)
    from vbgk.grid import spectral_derivative

    u0 = np.stack([spectral_derivative(grid32, phi, "x"),
                   spectral_derivative(grid32, phi, "y")])
    with pytest.raises(NotDivergenceFree):
        initial_kinetic_state(grid32, u0, params_default)


def test_initial_state_rejects_nan_velocity(grid32, params_default):
    # a NaN divergence is not <= 1e-10, so it fails the check
    u0 = np.zeros((2, 32, 32))
    u0[0, 4, 7] = np.nan
    with pytest.raises(NotDivergenceFree, match="divergence nan > 1e-10"):
        initial_kinetic_state(grid32, u0, params_default)


# ---------------------------------------------------------------------------
# entropy (the quadratic relative entropy of the limiting system)
# ---------------------------------------------------------------------------

BACKGROUND = np.array([1.0, 0.0, 0.0])


def test_entropy_at_background(params_default):
    assert relative_entropy_surrogate(BACKGROUND, BACKGROUND, params_default) == 0.0
    # a uniform density offset d costs d^2/(2*rho_bar)
    w = np.array([1.2, 0.0, 0.0])
    assert relative_entropy_surrogate(w, BACKGROUND, params_default) == pytest.approx(
        0.02, abs=1e-15)


def test_entropy_kinetic_part_quadratic(params_default):
    w1 = np.array([1.0, 0.2, -0.1])
    w2 = np.array([1.0, 0.4, -0.2])
    kinetic1 = relative_entropy_surrogate(w1, BACKGROUND, params_default)
    kinetic2 = relative_entropy_surrogate(w2, BACKGROUND, params_default)
    assert kinetic2 == pytest.approx(4.0 * kinetic1, rel=1e-12)


@given(seed=st.integers(0, 2 ** 31))
def test_entropy_convex_along_segments(seed, params_default):
    rng = np.random.default_rng(seed)
    wa = np.array([rng.uniform(0.5, 2.0), *rng.uniform(-0.4, 0.4, 2)])
    wb = np.array([rng.uniform(0.5, 2.0), *rng.uniform(-0.4, 0.4, 2)])
    eta = lambda th: relative_entropy_surrogate(wa + th * (wb - wa), BACKGROUND,
                                                params_default)
    h = 1e-3
    for theta in (0.25, 0.5, 0.75):
        second = (eta(theta + h) - 2 * eta(theta) + eta(theta - h)) / h ** 2
        assert second > -1e-6


# ---------------------------------------------------------------------------
# sub-characteristic validator
# ---------------------------------------------------------------------------

#: (epsilon, tau, lam, nu, rho_bar): README, dissipative, lam = 20, lam = 0.15
VALIDATOR_PARAMS = {
    "readme": (0.1, 1.0, 2.0, 0.01, 1.0),
    "dissipative": (0.1, 0.25, 3.0, 1.0, 1.0),
    "lam20": (0.05, 1.0, 20.0, 0.01, 1.0),
    "lam015": (0.1, 1.0, 0.15, 0.01, 1.0),
}


def _box_lattice(params, u_max, samples_per_axis=11):
    """The validator's state box on a lattice, as states (N, 3).

    Densities rho_bar*(1 +/- eps/2), velocity components within 2*u_max.
    """
    half = 0.5 * params.epsilon
    rho = np.linspace(params.rho_bar * (1.0 - half), params.rho_bar * (1.0 + half),
                      samples_per_axis)
    u = np.linspace(-2.0 * u_max, 2.0 * u_max, samples_per_axis)
    r, v1, v2 = np.meshgrid(rho, u, u, indexing="ij")
    r = r.ravel()
    return np.stack([r, params.epsilon * r * v1.ravel(), params.epsilon * r * v2.ravel()],
                    axis=1)


def _char_speeds_oracle(w_points, params):
    """Characteristic speeds via characteristic-polynomial roots."""
    speeds = []
    for j in (1, 2):
        for jac in flux_jacobian(j, w_points, params):
            coeffs = np.poly(jac)
            speeds.append(np.max(np.abs(np.roots(coeffs))))
    return max(speeds)


@pytest.mark.parametrize("u_max", [1.0, 0.37])
@pytest.mark.parametrize("name", sorted(VALIDATOR_PARAMS))
def test_closed_forms_match_eigvals_on_lattice(name, u_max):
    p = make_params(*VALIDATOR_PARAMS[name])
    pts = _box_lattice(p, u_max)
    speed = max(float(np.max(np.abs(np.linalg.eigvals(flux_jacobian(j, pts, p)))))
                for j in (1, 2))
    min_eig = float(np.min(np.linalg.eigvals(maxwellian_jacobians(pts, p)).real))
    report = check_subcharacteristic(p, u_max)
    assert abs(report.max_char_speed - speed) <= 1e-12
    assert abs(report.min_maxwellian_jacobian_eig - min_eig) <= 1e-12
    assert report.speed_margin == p.lam - report.max_char_speed


def test_subcharacteristic_passes_near_background(params_default):
    report = check_subcharacteristic(params_default, u_max=1.0)
    assert report.passed
    assert report.m5_coefficient == pytest.approx(1 - 4 * params_default.a)
    # plain Maxwellian Jacobians always carry a negative eigenvalue here
    assert report.min_maxwellian_jacobian_eig < 0
    # independent oracle at random states of the box stays below the maximum
    rng = np.random.default_rng(7)
    eps, rho_bar = params_default.epsilon, params_default.rho_bar
    rho = rng.uniform(rho_bar * (1 - eps / 2), rho_bar * (1 + eps / 2), 40)
    u1, u2 = rng.uniform(-2.0, 2.0, (2, 40))
    pts = np.stack([rho, eps * rho * u1, eps * rho * u2], axis=1)
    oracle = _char_speeds_oracle(pts, params_default)
    assert oracle <= report.max_char_speed + 1e-9


def test_subcharacteristic_fails_for_small_lambda():
    # lam = 0.15 keeps a < 1/4 but characteristic speeds ~1 exceed lam
    p = make_params(*VALIDATOR_PARAMS["lam015"])
    report = check_subcharacteristic(p, u_max=1.0)
    assert not report.passed
    assert report.max_char_speed > p.lam
