import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vbgk.errors import BlowupDetected, CflViolation, ConstraintViolation, NonPositiveDensity
from vbgk.grid import Grid, l2_norm
from vbgk.kinetic import (
    SolverConfig,
    relaxation_step,
    run,
    step_times,
    strang_step,
    transport_step,
)
from vbgk.model import KineticState, initial_kinetic_state, make_params, maxwellians
from vbgk.navier_stokes import taylor_green

from conftest import random_field


def equilibrium_state(grid, params, rho=1.0):
    w = np.stack([np.full((grid.n, grid.n), rho),
                  np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))])
    return KineticState(grid, params, maxwellians(w, params))


def random_state(grid, params, seed):
    rng = np.random.default_rng(seed)
    f = np.empty((5, 3, grid.n, grid.n))
    for i in range(5):
        for c in range(3):
            f[i, c] = 0.05 * random_field(seed + 10 * i + c, grid.n)
    f[:, 0] += 0.3  # keep projected density positive
    return KineticState(grid, params, f)


def taylor_green_state(grid, params):
    tg, _ = taylor_green(grid, 0.0, params.nu)
    return initial_kinetic_state(grid, np.stack([tg.u1, tg.u2]), params)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_zero_dt_identity(grid32, params_default):
    st0 = random_state(grid32, params_default, 0)
    assert transport_step(st0, 0.0) is st0


def test_transport_shifts_by_lambda_dt_over_eps(grid32):
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    f = np.zeros((5, 3, 32, 32))
    f[:, 0] = 1.0
    f[0, 1] = np.sin(grid32.x)
    state = KineticState(grid32, p, f)
    dt = 0.05 * np.pi * p.epsilon / p.lam
    moved = transport_step(state, dt)
    expected = np.sin(grid32.x - 0.05 * np.pi)
    assert np.max(np.abs(moved.f[0, 1] - expected)) < 1e-12
    # resting family is untouched
    assert np.max(np.abs(moved.f[4] - f[4])) < 1e-13


@given(seed=st.integers(0, 2 ** 31), dt=st.floats(1e-4, 0.05))
def test_transport_preserves_means(seed, dt):
    g = Grid(16)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    st0 = random_state(g, p, seed)
    for mode in ("spectral", "upwind"):
        d = min(dt, 0.9 * p.epsilon * g.dx / p.lam)
        moved = transport_step(st0, d, mode)
        before = st0.f.mean(axis=(-2, -1))
        after = moved.f.mean(axis=(-2, -1))
        assert np.max(np.abs(before - after)) < 1e-13


def reference_spectral_transport(state, dt):
    """The 2D complex-transform formula that the 1D real transforms replace."""
    grid, p = state.grid, state.params
    s = p.lam * dt / p.epsilon
    F = np.fft.fft2(state.f, axes=(-2, -1))
    px = np.exp(-1j * grid.k1d * s)[:, None]
    py = np.exp(-1j * grid.k1d * s)[None, :]
    F[0] *= px
    F[1] *= py
    F[2] *= np.conj(px)
    F[3] *= np.conj(py)
    return np.real(np.fft.ifft2(F, axes=(-2, -1)))


@pytest.mark.parametrize("n", [16, 32])
def test_spectral_transport_nyquist_mode(n):
    # energy in the k = n/2 mode along both axes and a shift between grid points
    g = Grid(n)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    nyquist = np.cos(0.5 * n * g.x) + 0.5 * np.cos(0.5 * n * g.y) + np.cos(0.5 * n * (g.x + g.y))
    f = random_state(g, p, 5).f + 0.1 * nyquist
    state = KineticState(g, p, f)
    s = 0.37 * g.dx
    dt = s * p.epsilon / p.lam
    moved = transport_step(state, dt)
    assert np.max(np.abs(moved.f - reference_spectral_transport(state, dt))) < 1e-13
    assert np.array_equal(moved.f[4], f[4])
    # a pure Nyquist field cannot move between grid points: it is scaled by cos(k s)
    pure = np.zeros_like(f)
    pure[:, 0] = np.cos(0.5 * n * g.x)
    pure[:, 1] = np.cos(0.5 * n * g.y)
    out = transport_step(KineticState(g, p, pure), dt).f
    scale = np.cos(0.5 * n * s)
    assert np.max(np.abs(out[0, 0] - scale * pure[0, 0])) < 1e-13
    assert np.max(np.abs(out[1, 1] - scale * pure[1, 1])) < 1e-13
    assert np.max(np.abs(out[0, 1] - pure[0, 1])) < 1e-13  # constant along x


def test_upwind_cfl_violation(grid32, params_default):
    st0 = random_state(grid32, params_default, 1)
    dt_bad = 1.5 * params_default.epsilon * grid32.dx / params_default.lam
    with pytest.raises(CflViolation):
        transport_step(st0, dt_bad, "upwind")


def test_upwind_at_unit_cfl_is_exact_shift(grid32, params_default):
    st0 = random_state(grid32, params_default, 2)
    dt = params_default.epsilon * grid32.dx / params_default.lam
    up = transport_step(st0, dt, "upwind")
    sp = transport_step(st0, dt, "spectral")
    assert np.max(np.abs(up.f - sp.f)) < 1e-11


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------

def test_relaxation_fixed_point(grid32, params_default):
    st0 = equilibrium_state(grid32, params_default)
    for dt in (1e-4, 0.3, 17.0):
        out = relaxation_step(st0, dt)
        assert np.max(np.abs(out.f - st0.f)) < 1e-13


def test_relaxation_large_dt_reaches_maxwellian(grid32, params_default):
    st0 = random_state(grid32, params_default, 3)
    dt = 100.0 * params_default.relaxation_time
    out = relaxation_step(st0, dt)
    m = maxwellians(st0.w(), params_default)
    assert np.max(np.abs(out.f - m)) < 1e-12


@given(seed=st.integers(0, 2 ** 31), dt_factor=st.floats(0.01, 20.0))
def test_relaxation_conserves_w(seed, dt_factor):
    g = Grid(16)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    st0 = random_state(g, p, seed)
    out = relaxation_step(st0, dt_factor * p.relaxation_time)
    assert np.max(np.abs(out.w() - st0.w())) < 1e-13


# ---------------------------------------------------------------------------
# Strang composition
# ---------------------------------------------------------------------------

def test_equilibrium_invariant_many_steps(grid32, params_default):
    st0 = equilibrium_state(grid32, params_default)
    state = st0
    dt = SolverConfig(t_end=1.0).base_dt(params_default, grid32.dx)
    for _ in range(200):
        state = strang_step(state, dt)
    assert np.max(np.abs(state.f - st0.f)) < 1e-12


def test_strang_second_order_self_convergence():
    # fixed-dt errors against a dt/4 reference halve twice per dt halving
    g = Grid(32)
    p = make_params(0.2, 1.0, 2.0, 0.01, 1.0)
    st0 = taylor_green_state(g, p)

    def advance(dt, t_end=0.1):
        s = st0
        for _ in range(round(t_end / dt)):
            s = strang_step(s, dt)
        return s

    errs = []
    for dt in (0.01, 0.005):
        errs.append(np.max(np.abs(advance(dt).f - advance(dt / 4).f)))
    slope = np.log2(errs[0] / errs[1])
    assert 1.6 <= slope <= 2.2


@pytest.mark.parametrize("rho", [-0.1, np.nan])
def test_relaxation_rejects_bad_density(grid32, params_default, rho):
    # a negative minimum fails relaxation_step's positivity check; NaN
    # compares false there and is caught by its finiteness check
    f = equilibrium_state(grid32, params_default).f.copy()
    f[4, 0, 2, 3] = rho - f[:4, 0, 2, 3].sum()
    with pytest.raises(NonPositiveDensity):
        relaxation_step(KineticState(grid32, params_default, f), 0.01)


def test_strang_preserves_density_mean(grid32, params_default):
    state = taylor_green_state(grid32, params_default)
    mean0 = state.w()[0].mean()
    dt = SolverConfig(t_end=1.0).base_dt(params_default, grid32.dx)
    for _ in range(50):
        state = strang_step(state, dt)
    assert state.w()[0].mean() == pytest.approx(mean0, abs=1e-12)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_zero_t_end_returns_initial(grid32, params_default):
    st0 = taylor_green_state(grid32, params_default)
    assert run(st0, SolverConfig(t_end=0.0)) is st0


def test_run_equilibrium_stationary(grid32, params_default):
    st0 = equilibrium_state(grid32, params_default)
    final = run(st0, SolverConfig(t_end=1.0))
    assert np.max(np.abs(final.f - st0.f)) < 1e-11


def test_run_taylor_green_completes(params_default):
    st0 = taylor_green_state(Grid(64), params_default)
    final = run(st0, SolverConfig(t_end=0.5))
    assert np.min(final.w()[0]) > 0
    assert np.all(np.isfinite(final.f))


def test_run_record_callback_cadence(grid32, params_default):
    st0 = equilibrium_state(grid32, params_default)
    cfg = SolverConfig(t_end=0.05, record_every=7)
    seen = []
    run(st0, cfg, on_record=lambda t, s, step: seen.append((step, t)))
    steps, times = zip(*seen)
    assert steps[0] == 0 and times[0] == 0.0
    assert times[-1] == pytest.approx(0.05, rel=1e-9)
    _, expected = step_times(cfg, params_default, grid32.dx)
    assert list(times) == pytest.approx(expected)


def test_time_grid_partial_final_step():
    # 0.095 / 0.01: nine full steps and a half step; 4 does not divide 10
    g = Grid(8)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    cfg = SolverConfig(t_end=0.095, c_relax=1.0, record_every=4)
    dt_relax, dt_transp = cfg.dt_bounds(p, g.dx)
    assert dt_relax == pytest.approx(0.01, rel=1e-12) and dt_relax < dt_transp
    all_times, recorded = step_times(cfg, p, g.dx)
    assert len(all_times) == 10
    assert all_times[-1] == pytest.approx(0.095, rel=1e-12)
    assert recorded == [0.0, all_times[3], all_times[7], all_times[9]]
    assert np.diff([0.0] + all_times) == pytest.approx([0.01] * 9 + [0.005])
    seen = []
    run(equilibrium_state(g, p), cfg, on_record=lambda t, s, step: seen.append((step, t)))
    assert seen == list(zip([0, 4, 8, 10], recorded))


# the third step, 1e-320, is positive, but 0.05 + 1e-320 == 0.05
@pytest.mark.parametrize("eps, c_relax", [(1e-15, 1e-300), (1e-200, 1.0), (1e-15, 1e-290)])
def test_step_that_underflows_to_0_raises_instead_of_looping(eps, c_relax):
    g = Grid(8)
    p = make_params(eps, 1.0, 2.0, 0.01, 1.0)
    cfg = SolverConfig(t_end=0.05, c_relax=c_relax)
    dt = cfg.base_dt(p, g.dx)
    assert 0.05 + dt == 0.05
    message = (rf"^time step {re.escape(repr(dt))} is below the float spacing "
               rf"6\.938893903907228e-18 at t_end = 0\.05$")
    with pytest.raises(ValueError, match=message):
        step_times(cfg, p, g.dx)
    with pytest.raises(ValueError, match=message):
        run(equilibrium_state(g, p), cfg)


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("mode", ["spectral", "upwind"])
def test_run_matches_strang_step_loop(mode, record_every):
    # the merged half-relaxations and 1D transforms change only round-off
    g = Grid(32)
    p = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    tg = taylor_green_state(g, p)
    noise = np.stack([np.stack([random_field(100 + 3 * i + c, g.n) for c in range(3)])
                      for i in range(5)])
    st0 = KineticState(g, p, tg.f + 1e-3 * noise)
    f0 = st0.f.copy()
    cfg = SolverConfig(t_end=0.11, transport_mode=mode, record_every=record_every)
    recorded = {}
    final = run(st0, cfg, on_record=lambda t, s, step: recorded.update(
        {step: (s, s.f.copy())}))

    times, _ = step_times(cfg, p, g.dx)
    dts = np.diff([0.0] + times)
    assert len(dts) == 23 and dts[-1] < dts[0]  # partial final step
    assert sorted(recorded) == sorted({0, 23} | set(range(0, 23, record_every)))
    ref = {0: st0}
    state = st0
    for step, dt in enumerate(dts, start=1):
        state = strang_step(state, dt, mode)
        ref[step] = state
    assert np.max(np.abs(final.f - state.f)) <= 1e-12
    for step, (rec, _) in recorded.items():
        assert np.max(np.abs(rec.f - ref[step].f)) <= 1e-12, step
    # no state handed out is written to afterwards
    assert np.array_equal(st0.f, f0)
    for rec, f_at_record in recorded.values():
        assert np.array_equal(rec.f, f_at_record)


def test_run_aborts_on_high_wavenumber_instability():
    # at lam = 2 the model linearizes to growing modes around k*lam*tau*eps
    # ~ 0.85; with exact transport nothing damps them and the run must abort
    # rather than clamp (eps = 0.025 blows up near t ~ 0.46)
    g = Grid(64)
    p = make_params(0.025, 1.0, 2.0, 0.01, 1.0)
    st0 = taylor_green_state(g, p)
    with pytest.raises(BlowupDetected) as exc_info:
        run(st0, SolverConfig(t_end=0.6))
    assert 0.3 < exc_info.value.t_last_good < 0.6


@pytest.mark.parametrize("rho, message", [
    (0.0, "density must be positive, min = 0"),
    (-0.1, "density must be positive, min = -0.1"),
    (np.nan, "non-finite values in kinetic state"),
])
def test_run_rejects_bad_initial_density(grid32, params_default, rho, message):
    # the input is checked before its record, with the messages of the check
    # made after each transport
    f = equilibrium_state(grid32, params_default).f.copy()
    f[4, 0, 2, 3] = rho - f[:4, 0, 2, 3].sum()
    with pytest.raises(BlowupDetected, match=message) as exc_info:
        run(KineticState(grid32, params_default, f), SolverConfig(t_end=0.1))
    assert exc_info.value.t_last_good == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["spectral", "upwind"])
def test_run_aborts_on_non_finite_momentum(grid32, params_default, mode, bad):
    # the density stays positive, so only the finiteness check can catch it;
    # f[4] is at rest and f[0] moves along x
    for entry in ((4, 1, 5, 7), (0, 2, 5, 7)):
        f = taylor_green_state(grid32, params_default).f.copy()
        f[entry] = bad
        st0 = KineticState(grid32, params_default, f)
        seen = []
        with pytest.raises(BlowupDetected, match="non-finite values in kinetic state") as exc:
            run(st0, SolverConfig(t_end=0.1, transport_mode=mode),
                on_record=lambda t, s, step: seen.append(step))
        assert exc.value.t_last_good == 0.0
        # caught before the first record and the first relaxation
        assert seen == []


def test_spectral_and_upwind_agree_under_refinement():
    # smooth data, fixed eps: the transport modes converge to each other
    diffs = []
    for n in (32, 64, 128):
        g = Grid(n)
        p = make_params(0.2, 1.0, 2.0, 0.01, 1.0)
        st0 = taylor_green_state(g, p)
        out = {}
        for mode in ("spectral", "upwind"):
            out[mode] = run(st0, SolverConfig(t_end=0.1, transport_mode=mode))
        diffs.append(l2_norm(g, out["spectral"].f - out["upwind"].f))
    assert diffs[0] > diffs[1] > diffs[2]


def test_run_is_deterministic(grid32, params_default):
    st0 = taylor_green_state(grid32, params_default)
    a = run(st0, SolverConfig(t_end=0.1))
    b = run(st0, SolverConfig(t_end=0.1))
    assert np.array_equal(a.f, b.f)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, c_relax=np.inf)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, transport_mode="corner")
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, c_relax=0.0)
    # c_relax is the only step setting
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "t_end", "c_relax", "transport_mode", "record_every"]


@given(eps=st.floats(1e-3, 1.0), lam=st.floats(0.1, 100.0), tau=st.floats(1e-3, 10.0),
       n=st.integers(4, 512).map(lambda k: 2 * k), c_relax=st.floats(1e-3, 1e3))
def test_step_keeps_upwind_cfl_within_transport_bound(eps, lam, tau, n, c_relax):
    # every accepted config steps at upwind CFL <= 0.5, far inside the limit 1
    # that _transport_upwind enforces; recomputing the quotient from the step
    # can round one ulp above 0.5
    try:
        p = make_params(eps, tau, lam, 0.01, 1.0)
    except ConstraintViolation:
        assume(False)
    dx = Grid(n).dx
    dt = SolverConfig(t_end=1.0, c_relax=c_relax).base_dt(p, dx)
    assert lam * dt / (eps * dx) <= 0.5 * (1.0 + 1e-15)
