import tracemalloc

import numpy as np
import pytest

from vbgk import driver, navier_stokes
from vbgk.config import RunConfig
from vbgk.diagnostics import PRESSURE_TEST_FUNCTIONS
from vbgk.errors import CflViolation, NotDivergenceFree
from vbgk.grid import Grid, linf_norm, spectral_derivative, spectral_divergence
from vbgk.navier_stokes import (
    NsState,
    VorticityFlow,
    ns_step,
    pressure_from_velocity,
    taylor_green,
    taylor_green_velocity,
)


def smooth_div_free_state(grid, seed, nu=0.01, amplitude=1.0):
    rng = np.random.default_rng(seed)
    psi_hat = np.zeros((grid.n, grid.n), complex)
    for _ in range(6):
        kx, ky = rng.integers(1, 4, 2)
        psi_hat[kx % grid.n, ky % grid.n] = rng.standard_normal() + 1j * rng.standard_normal()
    psi = np.real(np.fft.ifft2(psi_hat)) * grid.n ** 2
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    u1 = np.real(np.fft.ifft2(1j * k[None, :] * np.fft.fft2(psi)))
    u2 = np.real(np.fft.ifft2(-1j * k[:, None] * np.fft.fft2(psi)))
    scale = amplitude / max(linf_norm(u1), linf_norm(u2))
    return NsState(grid, u1 * scale, u2 * scale, 0.0, nu)


def velocity(state):
    return np.stack([state.u1, state.u2])


def phi_fields(g):
    """The pressure test functions a(x) b(y) as (n, n) fields on grid g, in order."""
    return [a(g.x) * b(g.y) for a, b in PRESSURE_TEST_FUNCTIONS.values()]


def advanced(state, t_target, dt_max):
    """state stepped to t_target in uniform substeps no larger than dt_max."""
    flow = VorticityFlow(state.grid, velocity(state), state.nu, state.t)
    flow._dt_max = dt_max
    u = flow.at(t_target)
    return NsState(state.grid, u[0], u[1], flow.t, state.nu)


def test_taylor_green_point_values(grid32):
    state, _ = taylor_green(grid32, 0.0, 0.01)
    assert state.u1[0, 0] == 0.0
    assert state.u2[0, 0] == 0.0


@pytest.mark.parametrize("n", [8, 16, 64, 128])
@pytest.mark.parametrize("t, nu", [(0.0, 0.01), (0.37, 0.01), (2.5, 1.0)])
def test_taylor_green_velocity_is_the_2d_closed_form(n, t, nu):
    # the separable evaluation gives the 2D closed form bit for bit
    g = Grid(n)
    x, y, decay = g.x, g.y, np.exp(-2.0 * nu * t)
    u = taylor_green_velocity(g, t, nu)
    _, p = taylor_green(g, t, nu)
    assert np.array_equal(u[0], -np.cos(x) * np.sin(y) * decay)
    assert np.array_equal(u[1], np.sin(x) * np.cos(y) * decay)
    assert np.array_equal(p, -0.25 * (np.cos(2 * x) + np.cos(2 * y)) * decay ** 2)


def test_taylor_green_energy_decay(grid32):
    s0, _ = taylor_green(grid32, 0.0, 0.01)
    assert s0.energy() == pytest.approx(0.5, abs=1e-14)
    st, _ = taylor_green(grid32, 0.7, 0.01)
    assert st.energy() == pytest.approx(0.5 * np.exp(-4 * 0.01 * 0.7), rel=1e-12)


def test_taylor_green_satisfies_equations(grid32):
    # residual of momentum balance with the analytic time derivative
    t, nu = 0.3, 0.01
    state, p = taylor_green(grid32, t, nu)
    g = grid32
    for u, other, axis in ((state.u1, state.u2, "x"), (state.u2, state.u1, "y")):
        du_dt = -2.0 * nu * u
        adv = (state.u1 * spectral_derivative(g, u, "x")
               + state.u2 * spectral_derivative(g, u, "y"))
        lap = (spectral_derivative(g, u, "x", 2) + spectral_derivative(g, u, "y", 2))
        dp = spectral_derivative(g, p, axis)
        residual = du_dt + adv + dp - nu * lap
        assert linf_norm(residual) < 1e-10
    assert linf_norm(spectral_divergence(g, state.u1, state.u2)) < 1e-12


def test_ns_state_rejects_divergent_field(grid32):
    with pytest.raises(NotDivergenceFree):
        NsState(grid32, np.sin(grid32.x), np.zeros((32, 32)), 0.0, 0.01)


def test_ns_state_rejects_nan_velocity(grid32):
    u1 = np.zeros((32, 32))
    u1[2, 9] = np.nan
    with pytest.raises(NotDivergenceFree, match="divergence nan > 1e-10"):
        NsState(grid32, u1, np.zeros((32, 32)), 0.0, 0.01)


def test_ns_step_zero_velocity(grid32):
    z = np.zeros((32, 32))
    out = ns_step(NsState(grid32, z, z.copy(), 0.0, 0.01), 1e-2)
    assert np.all(out.u1 == 0.0) and np.all(out.u2 == 0.0)


def test_ns_step_cfl_guard(grid32):
    s = smooth_div_free_state(grid32, 5)
    with pytest.raises(CflViolation):
        ns_step(s, 10.0)


def test_flow_advance_cfl_guard(grid32):
    # the guard applies to each substep: max|u| = 1, so CFL = dt/dx per substep
    s = smooth_div_free_state(grid32, 5)
    dt = 0.8 * grid32.dx
    assert advanced(s, 4 * dt, dt).t == 4 * dt
    with pytest.raises(CflViolation):
        advanced(s, 2.2 * grid32.dx, 1.5 * grid32.dx)


def test_ns_matches_taylor_green(grid32):
    s, _ = taylor_green(grid32, 0.0, 0.01)
    s = advanced(s, 0.1, 1e-3)
    exact, _ = taylor_green(grid32, 0.1, 0.01)
    err = max(linf_norm(s.u1 - exact.u1), linf_norm(s.u2 - exact.u2))
    assert err < 1e-10


def test_ns_carries_mean_flow(grid32):
    # a uniform flow U is conserved on the torus and advects the vortex:
    # u = U + u_TG(x - U t, t), and the pressure is p_TG(x - U t, t)
    nu, t, mean = 0.1, 1.0, (0.5, -0.25)
    s0, _ = taylor_green(grid32, 0.0, nu)
    s = advanced(NsState(grid32, s0.u1 + mean[0], s0.u2 + mean[1], 0.0, nu), t, 1e-3)
    x, y = grid32.x - mean[0] * t, grid32.y - mean[1] * t
    decay = np.exp(-2.0 * nu * t)
    assert linf_norm(s.u1 - mean[0] + np.cos(x) * np.sin(y) * decay) < 1e-12
    assert linf_norm(s.u2 - mean[1] - np.sin(x) * np.cos(y) * decay) < 1e-12
    p_exact = -0.25 * (np.cos(2 * x) + np.cos(2 * y)) * decay ** 2
    assert linf_norm(pressure_from_velocity(grid32, velocity(s)) - p_exact) < 1e-12


def test_energy_never_increases(grid32):
    s = smooth_div_free_state(grid32, 8)
    for _ in range(40):
        before = s.energy()
        s = ns_step(s, 2e-3)
        assert s.energy() <= before * (1 + 1e-12)


def test_fourth_order_self_convergence():
    g = Grid(32)
    s0 = smooth_div_free_state(g, 3)
    ref = advanced(s0, 0.2, 1.25e-3)
    errs = []
    for dt in (0.02, 0.01):
        s = advanced(s0, 0.2, dt)
        errs.append(linf_norm(s.u1 - ref.u1) + linf_norm(s.u2 - ref.u2))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 24.0


def test_produced_states_divergence_free(grid32):
    s = smooth_div_free_state(grid32, 9)
    for _ in range(10):
        s = ns_step(s, 2e-3)
        assert linf_norm(spectral_divergence(grid32, s.u1, s.u2)) < 1e-10


def test_pressure_zero_velocity(grid32):
    p = pressure_from_velocity(grid32, np.zeros((2, 32, 32)))
    assert np.all(p == 0.0)


def test_pressure_matches_taylor_green(grid32):
    state, p_exact = taylor_green(grid32, 0.0, 0.01)
    p = pressure_from_velocity(grid32, velocity(state))
    assert linf_norm(p - p_exact) < 1e-10
    assert abs(np.mean(p)) < 1e-15


def file_reference(grid, state):
    """The driver's reference for file initial data, started from state."""
    cfg = RunConfig(epsilon=0.1, tau=1.0, lam=2.0, nu=state.nu, rho_bar=1.0, n=grid.n,
                    t_end=1.0, initial_data="file", initial_data_path="unused.vbgk")
    return driver.ReferenceTrajectory(cfg, grid, velocity(state))


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n", [32, 64])
def test_reference_trajectory_matches_round_trip_chain(n):
    # the trajectory keeps vorticity coefficients between requests; the chain
    # converts each returned velocity back, as a fresh VorticityFlow per request
    # does; the record stream's pairings are those of the chain's pressure
    g = Grid(n)
    s0 = smooth_div_free_state(g, 21, nu=0.05)
    reference = file_reference(g, s0)
    dt_max = min(1e-3, 0.25 * g.dx)  # the trajectory's bound at max |u| = 1
    chain = s0
    times = [float(t) for t in np.linspace(0.0, 0.03, 12)[1:]]
    for t, (u, pairings) in driver._reference_records(reference, times):
        chain = advanced(chain, t, dt_max)
        assert reference.flow.t == chain.t == t
        assert relative_error(u[0], chain.u1) < 1e-12
        assert relative_error(u[1], chain.u2) < 1e-12
        p = pressure_from_velocity(g, velocity(chain))
        want = [np.mean(p * phi) for phi in phi_fields(g)]
        assert np.max(np.abs(pairings - want)) < 1e-12 * np.max(np.abs(p))
        # u is the flow's buffer, valid until the next request
        chain = NsState(g, u[0].copy(), u[1].copy(), chain.t, chain.nu)


def test_reference_trajectory_cfl_guard(grid32):
    # the trajectory bounds its substeps at CFL 0.25 of the initial max |u| = 1;
    # a bound of 2 dx puts every substep at CFL 2, which the guard rejects
    s = smooth_div_free_state(grid32, 5)
    reference = file_reference(grid32, s)
    reference.at(1e-3)
    bound, reference.flow._dt_max = reference.flow._dt_max, 2.0 * grid32.dx
    with pytest.raises(CflViolation):
        reference.at(1e-3 + 4.0 * grid32.dx)
    # the failed request left the flow where it was
    reference.flow._dt_max = bound
    u = reference.at(2e-3)
    fresh = file_reference(grid32, s)
    fresh.at(1e-3)
    want = fresh.at(2e-3)
    assert np.array_equal(u, want)


def test_reference_trajectory_rejects_going_backwards(grid32):
    reference = file_reference(grid32, smooth_div_free_state(grid32, 5))
    reference.at(0.01)
    with pytest.raises(ValueError, match="backwards"):
        reference.at(0.005)


@pytest.mark.parametrize("source", ["zero", "uniform"])
def test_a_flow_without_vorticity_never_steps(grid32, monkeypatch, source):
    # zero data and a uniform flow have no vorticity: the reference hands out
    # its start velocity at every time, never steps, and still keeps its time
    def no_step(*args):
        raise AssertionError("a flow without vorticity stepped")

    monkeypatch.setattr(navier_stokes, "_evolve", no_step)
    if source == "zero":
        cfg = RunConfig(epsilon=0.1, tau=1.0, lam=2.0, nu=0.01, rho_bar=1.0, n=32,
                        t_end=1.0, initial_data="zero")
        want = np.zeros((2, 32, 32))
        reference = driver.ReferenceTrajectory(cfg, grid32,
                                               driver.initial_velocity(cfg, grid32))
    else:
        want = np.stack([np.full((32, 32), 0.3), np.full((32, 32), -0.7)])
        reference = file_reference(grid32, NsState(grid32, *want.copy(), 0.0, 0.01))
    assert not reference.flow.moves
    for t in (0.0, 1e-3, 1e-3, 0.37, 2.5):
        assert same_bits(reference.at(t), want)
        assert reference.flow.t == t
    with pytest.raises(ValueError, match="backwards"):
        reference.at(1.0)


# ---------------------------------------------------------------------------
# the workspace kernel against its written-out form
# ---------------------------------------------------------------------------

def written_out_advance(grid, w_hat, mean, nu, dt, n_sub):
    """n_sub IF-RK4 substeps in expression form with numpy's own transforms,
    each product allocating its result: the form whose bits _evolve keeps."""
    tab = navier_stokes._tables(grid)
    n = grid.n

    def advection(w):
        psi = w * tab.inv_lap
        c = np.stack([psi * tab.iky, psi * -tab.ikx, w * tab.ddx, w * tab.ddy])
        f = np.fft.irfftn(c, s=(n, n), axes=(-2, -1))
        f[0] += mean[0]
        f[1] += mean[1]
        return np.fft.rfft2(f[0] * f[2] + f[1] * f[3]) * tab.neg_mask

    e_half = np.exp(-nu * grid.rksq * dt / 2.0)
    e_full = e_half ** 2
    w = w_hat
    for _ in range(n_sub):
        k1 = advection(w)
        k2 = advection(e_half * (w + 0.5 * dt * k1))
        k3 = advection(e_half * w + 0.5 * dt * k2)
        k4 = advection(e_full * w + dt * e_half * k3)
        w = e_full * w + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return w


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def moving_flow(grid, seed=13, nu=0.05):
    """A flow from a seeded field with a mean velocity, so every table is used."""
    u0 = velocity(smooth_div_free_state(grid, seed, nu)) + np.array([0.3, -0.2])[:, None, None]
    return VorticityFlow(grid, u0, nu, 0.0)


def test_evolve_equals_the_written_out_substeps():
    # three substeps at each of two dt: the in-place stages, the alternating
    # w_hat buffers and the decay factors refilled for the new dt keep the bits
    g = Grid(32)
    flow = moving_flow(g)
    w = flow.w_hat.copy()
    for dt in (2e-3, 3.7e-3):
        flow.evolve(dt, 3, flow.t + 3 * dt)
        w = written_out_advance(g, w, flow.mean, flow.nu, dt, 3)
        assert same_bits(flow.w_hat, w)


def test_velocity_is_the_inverse_transform_of_its_coefficients():
    g = Grid(32)
    flow = moving_flow(g)
    flow.evolve(2e-3, 2, 4e-3)
    tab = navier_stokes._tables(g)
    psi = flow.w_hat * tab.inv_lap
    want = np.fft.irfftn(np.stack([psi * tab.iky, psi * -tab.ikx]), s=(32, 32), axes=(-2, -1))
    want[0] += flow.mean[0]
    want[1] += flow.mean[1]
    assert same_bits(flow.velocity(), want)


def test_cfl_violation_leaves_the_flow_and_a_retry_equals_a_fresh_flow(grid32):
    # after one step the flow's w_hat is the workspace's former spare buffer;
    # a step at CFL 4 fails and must leave it, its time and no stale factor
    s = smooth_div_free_state(grid32, 5)  # max |u| = 1
    dt = 0.5 * grid32.dx
    flow, fresh = (VorticityFlow(grid32, velocity(s), s.nu, 0.0) for _ in range(2))
    flow.evolve(dt, 2, 2 * dt)
    w_hat, t = flow.w_hat.copy(), flow.t
    with pytest.raises(CflViolation):
        flow.evolve(4.0 * grid32.dx, 3, t + 12.0 * grid32.dx)
    assert flow.t == t
    assert same_bits(flow.w_hat, w_hat)
    flow.evolve(dt, 3, t + 3 * dt)
    fresh.evolve(dt, 2, 2 * dt)
    fresh.evolve(dt, 3, t + 3 * dt)
    assert same_bits(flow.w_hat, fresh.w_hat)
    assert same_bits(flow.velocity(), fresh.velocity())


@pytest.mark.parametrize("n", [64, 128])
def test_a_warm_reference_request_allocates_less_than_one_coefficient_array(n):
    # the first stepped request makes the flow's workspace; after the second
    # record a request steps and converts in it, allocating nothing of field size
    g = Grid(n)
    reference = file_reference(g, smooth_div_free_state(g, 21))
    times = [k * 1.23e-3 for k in range(3)]
    for t in times[:2]:
        reference.at(t)
    tracemalloc.start()
    try:
        u = reference.at(times[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reference.flow.t == times[2] and u.shape == (2, n, n)
    assert peak < n * (n // 2 + 1) * 16
