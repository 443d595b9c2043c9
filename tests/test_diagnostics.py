import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vbgk.diagnostics import (
    PRESSURE_TEST_FUNCTIONS,
    bound_functional,
    compute_record,
    deviation_norms,
    error_functionals,
    fit_rate,
    pressure_pairings,
    relative_entropy_surrogate,
)
from vbgk.errors import NonPositiveDensity, NonPositiveError, TooFewPoints
from vbgk.grid import Grid, l2_norm, sobolev_norm, spectral_derivative
from vbgk.kinetic import relaxation_step
from vbgk.model import KineticState, fluxes, initial_kinetic_state, make_params, maxwellians
from vbgk.navier_stokes import pressure_from_velocity, taylor_green_velocity

from conftest import equilibrium_state, random_field, random_state, taylor_green_state


def density_velocity(w, params):
    """rho and u = (q1, q2)/(eps*rho) of the moments w, the inputs of error_functionals."""
    return w[0], w[1:] / (params.epsilon * w[0])


def record(state, u_ref=None, p_ref=None, s_prime=0.0):
    """compute_record at t = 0 against u_ref, or the flow at rest, and the
    grid pairings of the pressure field p_ref, or 0."""
    g = state.grid
    if u_ref is None:
        u_ref = np.zeros((2, g.n, g.n))
    if p_ref is None:
        p_ref = np.zeros((g.n, g.n))
    return compute_record(state, state.w(), u_ref, grid_pairings(p_ref), s_prime, 0.0)


def phi_fields(g):
    """The pressure test functions written out as (n, n) fields on grid g."""
    return {"cos2x": np.cos(2 * g.x), "cos2y": np.cos(2 * g.y),
            "sinxsiny": np.sin(g.x) * np.sin(g.y)}


def grid_pairings(p):
    """<p, phi> = mean(p * phi) of an (n, n) field p, in the order of phi_fields."""
    g = Grid(p.shape[0])
    return np.array([np.mean(p * phi) for phi in phi_fields(g).values()])


# ---------------------------------------------------------------------------
# macroscopic fields, recovered by compute_record
# ---------------------------------------------------------------------------

def test_macro_fields_equilibrium(grid32, params_default):
    # against the flow at rest, e0 and es at s' = 0 bound rho - rho_bar, rho u and u
    r = record(equilibrium_state(grid32, params_default))
    assert abs(r.rho_min - params_default.rho_bar) < 1e-14
    assert abs(r.rho_max - params_default.rho_bar) < 1e-14
    assert r.e0 < 1e-13
    assert r.es < 1e-13


def test_macro_fields_recover_initial_velocity(grid32, params_default):
    # es at s' = 0 is ||rho - rho_bar|| / eps + ||u - u_ref||
    u_ref = taylor_green_velocity(grid32, 0.0, params_default.nu)
    r = record(taylor_green_state(grid32, params_default), u_ref=u_ref)
    assert r.es < 1e-12


def test_macro_fields_velocity_scaling(grid32, params_default):
    # against the flow at rest, es = d + ||u|| and e0 = d + ||rho u|| with
    # d = ||rho - rho_bar|| / eps, so doubling q doubles what d leaves
    p = params_default
    state = random_state(grid32, p, 21)
    f2 = state.f.copy()
    f2[:, 1:] *= 2.0
    r1, r2 = record(state), record(KineticState(grid32, p, f2))
    d = l2_norm(grid32, state.w()[0] - p.rho_bar) / p.epsilon
    assert r2.es - d == pytest.approx(2 * (r1.es - d), rel=1e-12)
    assert r2.e0 - d == pytest.approx(2 * (r1.e0 - d), rel=1e-12)


# ---------------------------------------------------------------------------
# the whole record against its functionals written out
# ---------------------------------------------------------------------------

def written_out_record(state, u_ref, p_ref, s_prime):
    """The record's functionals with plain numpy: full complex transforms,
    means of squares and the pressure and entropy formulas."""
    g, p, f = state.grid, state.params, state.f
    n = g.n
    k = np.fft.fftfreq(n, 1.0 / n)
    kx, ky = k[:, None], k[None, :]

    def l2(*fields):
        return np.sqrt(sum(np.mean(a * a) for a in fields))

    def hs(*fields):
        weight = (1.0 + kx ** 2 + ky ** 2) ** s_prime
        return np.sqrt(sum(np.sum(weight * np.abs(np.fft.fft2(a) / n ** 2) ** 2)
                           for a in fields))

    def d(a, kvec):
        # odd derivative: the Nyquist mode is dropped
        mult = 1j * np.where(np.abs(kvec) == n // 2, 0.0, kvec)
        return np.real(np.fft.ifft2(mult * np.fft.fft2(a)))

    w = f.sum(axis=0)
    rho, q1, q2 = w
    kk, hh = f[0] + f[2], f[1] + f[3]
    fac, visc = p.lam / p.epsilon, p.tau * p.lam ** 2
    pres = (rho ** 2 - p.rho_bar ** 2) / (2.0 * p.rho_bar)
    a1 = np.stack([q1, q1 * q1 / rho + pres, q1 * q2 / rho]) / p.epsilon
    a2 = np.stack([q2, q1 * q2 / rho, q2 * q2 / rho + pres]) / p.epsilon
    dm = fac * (f[0] - f[2]) - a1 + visc * np.stack([d(c, kx) for c in kk])
    dxi = fac * (f[1] - f[3]) - a2 + visc * np.stack([d(c, ky) for c in hh])
    u1, u2 = q1 / (p.epsilon * rho), q2 / (p.epsilon * rho)
    du1, du2 = q1 / rho - p.epsilon * u_ref[0], q2 / rho - p.epsilon * u_ref[1]
    recovered = pres / p.epsilon ** 2
    recovered -= recovered.mean()
    return {
        "e0": l2(rho - p.rho_bar) / p.epsilon
        + l2(rho * u1 - p.rho_bar * u_ref[0], rho * u2 - p.rho_bar * u_ref[1]),
        "es": hs(rho - p.rho_bar) / p.epsilon + hs(u1 - u_ref[0], u2 - u_ref[1]),
        "dev_k": l2(*(kk - 2.0 * p.a * w)),
        "dev_h": l2(*(hh - 2.0 * p.a * w)),
        "dev_m": l2(*dm),
        "dev_xi": l2(*dxi),
        "eta_surrogate": np.mean((rho - p.rho_bar) ** 2 / (2.0 * p.rho_bar)
                                 + 0.5 * rho * (du1 ** 2 + du2 ** 2)),
        "rho_min": rho.min(),
        "rho_max": rho.max(),
        "sup_bound_functional": np.max(np.abs(rho - p.rho_bar)) / p.epsilon
        + np.max(np.hypot(q1, q2)) / p.epsilon,
        "pairing_error": {name: np.mean((recovered - p_ref) * phi)
                          for name, phi in phi_fields(g).items()},
    }


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("seed", [3, 17])
def test_compute_record_equals_the_written_out_functionals(n, seed):
    g = Grid(n)
    p = make_params(0.05, 0.25, 3.0, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    u_ref = taylor_green_velocity(g, 0.3, p.nu)
    # the reference pressure of a seeded velocity, paired as a run pairs it
    u_p = np.stack([random_field(seed + 1, n), random_field(seed + 2, n)])
    p_ref = pressure_from_velocity(g, u_p)
    prepared = initial_kinetic_state(g, u_ref, p)
    random = KineticState(g, p, 0.3 + 0.05 * rng.random((5, 3, n, n)))
    for state in (random, prepared):
        for s_prime in (0.0, 1.5):
            got = compute_record(state, state.w(), u_ref, pressure_pairings(g, u_p),
                                 s_prime, 0.0)
            want = written_out_record(state, u_ref, p_ref, s_prime)
            # every pairing, sin x sin y too, is far from 0, so a factor would show
            assert min(abs(v) for v in want["pairing_error"].values()) > 1e-3
            # the prepared state's deviations and errors are pure round-off, ~1e-15
            for name, value in want.items():
                if name == "pairing_error":
                    assert got.pairing_error == pytest.approx(value, rel=1e-12, abs=1e-13)
                else:
                    assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=1e-13), name


@pytest.mark.parametrize("n", [32, 64])
def test_repeated_record_allocates_no_field(n):
    # the record scratch of a grid is made by its first record; later
    # records make nothing of the size of an (n, n) field
    g = Grid(n)
    p = make_params(0.05, 0.25, 3.0, 1.0, 1.0)
    u_ref = taylor_green_velocity(g, 0.3, p.nu)
    p_ref = pressure_pairings(g, u_ref)
    state = initial_kinetic_state(g, u_ref, p)
    w = state.w()
    first = compute_record(state, w, u_ref, p_ref, 1.0, 0.0)
    tracemalloc.start()
    try:
        second = compute_record(state, w, u_ref, p_ref, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < 8 * n * n


# ---------------------------------------------------------------------------
# error functionals
# ---------------------------------------------------------------------------

def test_error_functionals_zero_on_well_prepared_data(grid32, params_default):
    # the perturbed-Maxwellian corrections cancel in the projection, so the
    # macroscopic moments match the reference exactly at t = 0
    state = taylor_green_state(grid32, params_default)
    u_ref = taylor_green_velocity(grid32, 0.0, params_default.nu)
    rho, u = density_velocity(state.w(), params_default)
    e0, es = error_functionals(grid32, rho, u, u_ref, params_default, s_prime=2.0)
    assert e0 < 1e-11
    assert es < 1e-10


def test_error_functionals_self_reference(grid32, params_default):
    # comparing against the state's own velocity leaves only the density part
    state = random_state(grid32, params_default, 33)
    rho, u = density_velocity(state.w(), params_default)
    u_ref = rho * u / params_default.rho_bar
    e0, _ = error_functionals(grid32, rho, u, u_ref, params_default, s_prime=2.0)
    expected = l2_norm(grid32, rho - params_default.rho_bar) / params_default.epsilon
    assert e0 == pytest.approx(expected, rel=1e-12)


def test_es_monotone_in_s_prime(grid32, params_default):
    state = random_state(grid32, params_default, 34)
    u_ref = taylor_green_velocity(grid32, 0.0, params_default.nu)
    rho, u = density_velocity(state.w(), params_default)
    values = [error_functionals(grid32, rho, u, u_ref, params_default, s_prime=s)[1]
              for s in (0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_e0_equals_momentum_functional_at_s_zero(grid32, params_default):
    # replacing the velocity difference by the momentum difference at s' = 0
    # reproduces e0 exactly
    state = random_state(grid32, params_default, 35)
    u_ref = taylor_green_velocity(grid32, 0.0, params_default.nu)
    rho, u = density_velocity(state.w(), params_default)
    e0, _ = error_functionals(grid32, rho, u, u_ref, params_default, s_prime=2.0)
    p = params_default
    manual = (sobolev_norm(grid32, rho - p.rho_bar, 0.0) / p.epsilon
              + sobolev_norm(grid32, np.stack([rho * u[0] - p.rho_bar * u_ref[0],
                                               rho * u[1] - p.rho_bar * u_ref[1]]), 0.0))
    assert e0 == pytest.approx(manual, rel=1e-13)


# ---------------------------------------------------------------------------
# deviation norms
# ---------------------------------------------------------------------------

def deviations(state):
    return deviation_norms(state.f, state.w(), state.grid, state.params)


@given(seed=st.integers(0, 2 ** 31))
def test_deviation_norms_follow_the_change_of_variables(seed):
    # f built from chosen (w, m, xi, k, h) by the inverse of the change of
    # variables gives the deviations of those variables
    g = Grid(16)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    w, m, xi, k, h = (random_state(g, p, seed + 100 * j).w() for j in range(5))
    half = 0.5 * p.epsilon / p.lam
    f = np.stack([0.5 * k + half * m, 0.5 * h + half * xi,
                  0.5 * k - half * m, 0.5 * h - half * xi, w - k - h])
    a1, a2 = fluxes(w, p) / p.epsilon
    visc = p.tau * p.lam ** 2
    want = (l2_norm(g, k - 2.0 * p.a * w), l2_norm(g, h - 2.0 * p.a * w),
            l2_norm(g, m - a1 + visc * spectral_derivative(g, k, "x")),
            l2_norm(g, xi - a2 + visc * spectral_derivative(g, h, "y")))
    assert deviation_norms(f, w, g, p) == pytest.approx(want, rel=1e-12)


def test_deviations_vanish_at_equilibrium(grid32, params_default):
    devs = deviations(equilibrium_state(grid32, params_default))
    assert all(d < 1e-13 for d in devs)


def test_deviations_kh_vanish_on_maxwellian_states(grid32, params_default):
    state = random_state(grid32, params_default, 40)
    maxw = KineticState(grid32, params_default, maxwellians(state.w(), params_default))
    dev_k, dev_h, _, _ = deviations(maxw)
    assert dev_k < 1e-13
    assert dev_h < 1e-13


def test_deviations_mxi_vanish_on_well_prepared_data(grid32, params_default):
    # the gradient corrections cancel the viscous-flux term exactly at t = 0
    _, _, dev_m, dev_xi = deviations(taylor_green_state(grid32, params_default))
    assert dev_m < 1e-12
    assert dev_xi < 1e-12


def test_relaxed_states_sit_on_manifold(grid32, params_default):
    # after dt >= 50 tau eps^2 the state is Maxwellian to round-off
    state = random_state(grid32, params_default, 41)
    out = relaxation_step(state, 50.0 * params_default.relaxation_time)
    dev_k, dev_h, _, _ = deviations(out)
    assert dev_k <= 1e-10
    assert dev_h <= 1e-10


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
def test_deviations_reject_bad_density(grid32, params_default, bad):
    # every diagnostic that divides by or recovers from rho checks it first;
    # compute_record recovers u and the pressure from rho
    state = equilibrium_state(grid32, params_default)
    w = state.w()
    w[0, 3, 5] = bad
    with pytest.raises(NonPositiveDensity):
        deviation_norms(state.f, w, grid32, params_default)
    state.f[:, 0, 3, 5] = 0.0
    state.f[4, 0, 3, 5] = bad
    with pytest.raises(NonPositiveDensity):
        record(state)


# ---------------------------------------------------------------------------
# pressure recovery, paired by compute_record against a zero reference pressure
# ---------------------------------------------------------------------------

def test_pressure_recovery_at_background(grid32, params_default):
    r = record(equilibrium_state(grid32, params_default))
    assert max(abs(v) for v in r.pairing_error.values()) < 1e-12


@pytest.mark.parametrize("n", [8, 32, 128])
def test_test_functions_have_zero_mean(n):
    # so the record need not subtract the recovered pressure's mean
    x = Grid(n).coords
    for name, (a, b) in PRESSURE_TEST_FUNCTIONS.items():
        assert abs(np.mean(a(x)) * np.mean(b(x))) < 1e-15, name


def test_pressure_recovery_mean_zero(grid32, params_default):
    # the pressure is defined up to a constant: a uniform density off the
    # background recovers a constant, and a constant added to p_ref or to
    # the recovered pressure changes no pairing
    uniform = record(equilibrium_state(grid32, params_default, rho=1.3),
                     p_ref=np.full((32, 32), 7.0))
    assert max(abs(v) for v in uniform.pairing_error.values()) < 1e-13
    state = random_state(grid32, params_default, 50)
    shifted = record(state, p_ref=np.full((32, 32), -7.0)).pairing_error
    assert shifted == pytest.approx(record(state).pairing_error, rel=0, abs=1e-13)


def test_pairing_values(grid32, params_default):
    # the recovered pressure is 0 at the background, so p_ref = -phi pairs phi
    # with each test function: <cos 2x, cos 2x> = 1/2, <sin x sin y,
    # sin x sin y> = 1/4, and distinct test functions are orthogonal
    norms = {"cos2x": 0.5, "cos2y": 0.5, "sinxsiny": 0.25}
    for name, phi in phi_fields(grid32).items():
        r = record(equilibrium_state(grid32, params_default), p_ref=-phi)
        want = {other: norms[name] if other == name else 0.0 for other in norms}
        assert r.pairing_error == pytest.approx(want, abs=1e-13), name


@pytest.mark.parametrize("n", [16, 32, 64])
def test_pressure_pairings_are_those_of_the_spectral_pressure(n):
    # the identity |k|^2 <p, phi> = <u_i u_j, d_i d_j phi> on the grid: the
    # pairings equal those of the pressure field up to round-off
    g = Grid(n)
    u = np.stack([random_field(60 + n, n), random_field(61 + n, n)])
    want = grid_pairings(pressure_from_velocity(g, u))
    assert min(abs(want)) > 1e-3  # sin x sin y too, so a wrong factor would show
    assert np.max(np.abs(pressure_pairings(g, u) - want)) < 1e-14


@pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
def test_pressure_pairings_of_taylor_green(grid32, t):
    # p = -(cos 2x + cos 2y)/4 e^{-4 nu t}: <p, cos 2x> = <p, cos 2y> = -e^{-4 nu t}/8
    nu = 0.01
    decay = np.exp(-4.0 * nu * t)
    got = pressure_pairings(grid32, taylor_green_velocity(grid32, t, nu))
    assert np.max(np.abs(got - [-decay / 8, -decay / 8, 0.0])) < 1e-15


def test_warm_pairings_and_records_evaluate_no_test_function(monkeypatch):
    # the factors a(x), b(y) and their derivatives are made once per grid
    g = Grid(16)
    p = make_params(0.05, 0.25, 3.0, 1.0, 1.0)
    u_ref = taylor_green_velocity(g, 0.3, p.nu)
    state = initial_kinetic_state(g, u_ref, p)
    p_ref = pressure_pairings(g, u_ref)
    first = compute_record(state, state.w(), u_ref, p_ref, 1.0, 0.0)
    calls = []
    for name in ("cos", "sin"):
        def counting(*args, _wave=getattr(np, name), **kwargs):
            calls.append(_wave)
            return _wave(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    assert np.array_equal(pressure_pairings(g, u_ref), p_ref)
    assert compute_record(state, state.w(), u_ref, p_ref, 1.0, 0.0) == first
    assert calls == []


# ---------------------------------------------------------------------------
# entropy surrogate and bound functional
# ---------------------------------------------------------------------------

def test_relative_entropy_surrogate_properties(grid32, params_default):
    w_ref = np.stack([np.full((32, 32), 1.0), 0.01 * random_field(60, 32),
                      0.01 * random_field(61, 32)])
    assert relative_entropy_surrogate(w_ref, w_ref, params_default) == pytest.approx(0.0, abs=1e-15)
    w = w_ref + np.stack([0.01 * random_field(62, 32), 0.01 * random_field(63, 32),
                          0.01 * random_field(64, 32)])
    assert relative_entropy_surrogate(w, w_ref, params_default) > 0.0


@given(seed=st.integers(0, 2 ** 31))
def test_relative_entropy_surrogate_equals_eta_formula(seed):
    # eta(w) - eta(w_ref) - grad eta(w_ref).(w - w_ref) for
    # eta = |q|^2/(2 rho) + rho^2/(2 rho_bar), on random states and references
    g = Grid(16)
    p = make_params(0.1, 0.25, 3.0, 1.0, 1.2)
    w = random_state(g, p, seed).w()
    w_ref = random_state(g, p, seed + 1000).w()

    def eta(v):
        return 0.5 * (v[1] ** 2 + v[2] ** 2) / v[0] + v[0] ** 2 / (2.0 * p.rho_bar)

    rho_r, q_r = w_ref[0], w_ref[1:]
    grad = np.stack([-0.5 * (q_r[0] ** 2 + q_r[1] ** 2) / rho_r ** 2 + rho_r / p.rho_bar,
                     q_r[0] / rho_r, q_r[1] / rho_r])
    expected = float(np.mean(eta(w) - eta(w_ref) - np.sum(grad * (w - w_ref), axis=0)))
    assert abs(relative_entropy_surrogate(w, w_ref, p) - expected) <= 1e-15


def test_bound_functional_equilibrium(grid32, params_default):
    assert bound_functional(equilibrium_state(grid32, params_default).w(), params_default) < 1e-12


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_power_laws():
    eps = [0.2, 0.1, 0.05, 0.025]
    fit = fit_rate(eps, [3.7 * e ** 0.5 for e in eps])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual < 1e-12
    fit2 = fit_rate(eps, [0.3 * e ** 2 for e in eps])
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_perturbed_point_hand_check():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    errors = 2.0 * eps ** 0.5
    errors[2] *= 1.1
    fit = fit_rate(eps, errors)
    # independent closed-form least squares through (log eps, log err)
    x, y = np.log(eps), np.log(errors)
    sl = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    ic = y.mean() - sl * x.mean()
    assert fit.slope == pytest.approx(sl, rel=1e-12)
    assert fit.intercept == pytest.approx(ic, rel=1e-12)
    assert fit.residual == pytest.approx(np.max(np.abs(y - (sl * x + ic))), rel=1e-10)
    assert fit.slope != pytest.approx(0.5, abs=1e-3)


def test_fit_rate_orders_epsilons_decreasing():
    # the fit does not depend on the order of its points
    fit = fit_rate([0.05, 0.2, 0.1], [0.05 ** 2, 0.2 ** 2, 0.1 ** 2])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_errors():
    with pytest.raises(TooFewPoints):
        fit_rate([0.2, 0.1], [1.0, 0.5])
    with pytest.raises(NonPositiveError):
        fit_rate([0.2, 0.1, 0.05], [1.0, 0.0, 0.1])
    with pytest.raises(NonPositiveError):
        fit_rate([0.2, -0.1, 0.05], [1.0, 0.5, 0.1])
