"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.

The paper's H^s and relative-entropy estimates need the relaxation system to
be dissipative.  Linearized about (rho_bar, 0, 0), the acoustic modes with
|k| * lambda * tau * eps << 1 change at rate -(nu - tau * P'(rho_bar)) |k|^2,
whatever lambda is, so the diffusive limit is dissipative only when
nu > tau * P'(rho_bar).  At lambda = 2, nu = 0.01, tau = 1 that rate is
+0.99 |k|^2: the model itself grows (README stability notes,
scripts/stability_scan.py).

* Criteria 6, 7 and 8 test the theorem's claims, so they run in its regime:
  nu = 1, tau = 0.25, lambda = 3 (a = 2/9).  Each run first checks, at every
  epsilon, that `driver.validate` passes and that the diffusive
  sub-characteristic condition nu / tau > (max characteristic speed)^2 holds
  on the validator box; moving the parameters back fails that precondition
  with a message instead of a blow-up.  The criterion 6/8 sweep uses
  spectral transport (first-order upwind adds a numerical viscosity ~ a
  lambda dx / eps that grows as eps -> 0) and c_relax = 0.5: the Strang cycle
  with exact relaxation at dt = c * tau * eps^2 has effective viscosity
  nu * (c/2) coth(c/2), an eps-independent error (+8.2% at c = 1, +2.1% at
  c = 0.5) that would leave an O(eps) term in dev_m and dev_xi.
* Criteria 4 and 5 keep the upwind sweep at lambda = 2, nu = 0.01, tau = 1:
  upwind dissipation suppresses the high-wavenumber part of the unstable band
  so all four members complete, and the measured low-wavenumber functionals
  stay within ~15% of the exact-transport values wherever both complete.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vbgk import driver
from vbgk.config import RunConfig
from vbgk.diagnostics import fit_rate
from vbgk.grid import Grid, linf_norm, sobolev_norm
from vbgk.kinetic import SolverConfig, relaxation_step, run, strang_step
from vbgk.model import KineticState, fluxes, make_params, maxwellians
from vbgk.navier_stokes import ns_step, taylor_green

VELOCITIES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    cfg = RunConfig(
        epsilon=0.2, tau=1.0, lam=2.0, nu=0.01, rho_bar=1.0,
        n=64, t_end=0.5, record_every=10, transport_mode="upwind",
    )
    t0 = time.time()
    sweep = driver.run_sweep(cfg, [0.2, 0.1, 0.05, 0.025],
                             tmp_path_factory.mktemp("acceptance_sweep"))
    return sweep, time.time() - t0, cfg


#: model parameters inside the dissipative regime: nu / tau = 4 > P'(rho_bar) = 1
DISSIPATIVE = dict(tau=0.25, lam=3.0, nu=1.0, rho_bar=1.0)


def assert_dissipative(cfg):
    """Precondition of criteria 6-8: the configuration is one the theorem covers."""
    report = driver.validate(cfg)
    assert report.passed, "sub-characteristic check failed: " + "; ".join(report.lines())
    speed = report.subchar.max_char_speed
    assert report.dissipative, (
        f"eps = {cfg.epsilon:g}: nu / tau = {cfg.nu / cfg.tau:.4g} does not exceed "
        f"(max characteristic speed)^2 = {speed ** 2:.4g}, so the model is not "
        "dissipative (see README stability notes)")


@pytest.fixture(scope="module")
def dissipative_sweep(tmp_path_factory):
    cfg = RunConfig(
        epsilon=0.2, n=32, t_end=0.5, record_every=10, transport_mode="spectral",
        c_relax=0.5, **DISSIPATIVE,
    )
    epsilons = [0.2, 0.1, 0.05, 0.025]
    for eps in epsilons:
        assert_dissipative(cfg.with_epsilon(eps))
    return driver.run_sweep(cfg, epsilons, tmp_path_factory.mktemp("dissipative_sweep"))


def test_criterion_01_structural_identities():
    """sum_i M_i = w and sum_i c_ij M_i = A_j on 1e4 random admissible states."""
    t0 = time.time()
    params = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    rng = np.random.default_rng(2024)
    n_states = 10_000
    w = np.stack([
        rng.uniform(0.5, 2.0, n_states),
        rng.uniform(-0.5, 0.5, n_states),
        rng.uniform(-0.5, 0.5, n_states),
    ])
    m = maxwellians(w, params)
    err_proj = np.max(np.abs(m.sum(axis=0) - w))
    err_flux = 0.0
    for c_j, a_j in zip(VELOCITIES.T, fluxes(w, params)):
        lhs = np.einsum("i,ic...->c...", c_j * params.lam, m)
        err_flux = max(err_flux, np.max(np.abs(lhs - a_j)))
    wall = time.time() - t0
    ok = err_proj <= 1e-12 and err_flux <= 1e-12 and wall < 1.0
    assert verdict(1, "structural-identities", ok,
                   f"proj {err_proj:.2e}, flux {err_flux:.2e}, {wall:.2f}s")


def test_criterion_02_exact_substeps():
    """Relaxation conserves w to 1e-13; equilibrium survives 1000 Strang steps."""
    t0 = time.time()
    grid = Grid(64)
    params = make_params(0.1, 1.0, 2.0, 0.01, 1.0)
    rng = np.random.default_rng(7)
    f = 0.05 * rng.standard_normal((5, 3, 64, 64))
    f[:, 0] += 0.3
    state = KineticState(grid, params, f)
    drift = 0.0
    for dt_factor in (0.1, 1.0, 10.0):
        out = relaxation_step(state, dt_factor * params.relaxation_time)
        drift = max(drift, float(np.max(np.abs(out.w() - state.w()))))

    w_eq = np.stack([np.ones((64, 64)), np.zeros((64, 64)), np.zeros((64, 64))])
    f_eq = maxwellians(w_eq, params)
    eq = KineticState(grid, params, f_eq)
    dt = SolverConfig(t_end=1.0).base_dt(params, grid.dx)
    st = eq
    for _ in range(1000):
        st = strang_step(st, dt)
    eq_err = float(np.max(np.abs(st.f - f_eq)))
    wall = time.time() - t0
    ok = drift <= 1e-13 and eq_err <= 1e-11 and wall < 10.0
    assert verdict(2, "exact-substeps", ok,
                   f"w drift {drift:.2e}, equilibrium {eq_err:.2e}, {wall:.1f}s")


def test_criterion_03_reference_fidelity():
    """Pseudo-spectral NS reproduces the decaying vortex to 1e-8 at t = 1."""
    grid = Grid(64)
    state, _ = taylor_green(grid, 0.0, 0.01)
    e0 = state.energy()
    for _ in range(1000):
        state = ns_step(state, 1e-3)
    exact, _ = taylor_green(grid, 1.0, 0.01)
    err = max(linf_norm(state.u1 - exact.u1), linf_norm(state.u2 - exact.u2))
    energy_rel = abs(state.energy() - e0 * np.exp(-4 * 0.01 * 1.0)) / (e0 * np.exp(-0.04))
    ok = err <= 1e-8 and energy_rel <= 1e-8
    assert verdict(3, "reference-fidelity", ok,
                   f"Linf {err:.2e}, energy rel {energy_rel:.2e}")


def test_criterion_04_l2_rate(sweep_result):
    """Fitted slope of sup_t e0 over eps in {0.2,0.1,0.05,0.025} in [0.35, 0.7]."""
    sweep, wall, _ = sweep_result
    ok_members = not sweep.failures
    slope = sweep.fits["e0"].slope if ok_members else float("nan")
    ok = ok_members and 0.35 <= slope <= 0.7 and wall <= 900.0
    assert verdict(4, "l2-rate-sqrt-eps", ok,
                   f"slope {slope:.3f} in [0.35, 0.7], sweep {wall:.0f}s"
                   + (f", failures {sweep.failures}" if sweep.failures else ""))


def test_criterion_05_hs_rate(sweep_result):
    """Fitted slope of sup_t es (s' = 2, s = 3.5) in [0.25, 0.7]."""
    sweep, _, cfg = sweep_result
    ok_members = not sweep.failures
    slope = sweep.fits["es"].slope if ok_members else float("nan")
    reading_statement = 0.5 - (cfg.s - cfg.s_prime) / (2 * cfg.s)
    reading_proof = 0.5 - cfg.s_prime / (2 * cfg.s)
    ok = ok_members and 0.25 <= slope <= 0.7
    assert verdict(5, "hs-rate", ok,
                   f"slope {slope:.3f} in [0.25, 0.7]; target readings: "
                   f"{reading_statement:.3f} (statement), {reading_proof:.3f} (proof)")


def test_criterion_06_chapman_enskog_deviations(dissipative_sweep):
    """dev_k, dev_h slopes in [1.6, 2.4]; dev_m, dev_xi slopes >= 1.5."""
    sweep = dissipative_sweep
    assert not sweep.failures, f"member runs failed: {sweep.failures}"
    s = {name: sweep.fits[name].slope for name in ("dev_k", "dev_h", "dev_m", "dev_xi")}
    ok_kh = all(1.6 <= s[n] <= 2.4 for n in ("dev_k", "dev_h"))
    ok_mxi = all(s[n] >= 1.5 for n in ("dev_m", "dev_xi"))
    ok = ok_kh and ok_mxi
    assert verdict(6, "chapman-enskog-deviations", ok,
                   f"dev_k {s['dev_k']:.3f}, dev_h {s['dev_h']:.3f} (in [1.6, 2.4]); "
                   f"dev_m {s['dev_m']:.3f}, dev_xi {s['dev_xi']:.3f} (>= 1.5)")


def test_criterion_07_global_boundedness():
    """eps = 0.05 run to t_end = 5 stays below M = 4 rho_bar ||u0||_{s+1}."""
    cfg = RunConfig(epsilon=0.05, n=64, t_end=5.0, record_every=50, **DISSIPATIVE)
    assert_dissipative(cfg)
    t0 = time.time()
    report = driver.validated(cfg)
    output = driver.run_simulation(cfg, report)
    wall = time.time() - t0
    threshold = 4.0 * cfg.rho_bar * sobolev_norm(report.grid, report.u0, cfg.s + 1.0)
    sup = max(r.sup_bound_functional for r in output.records)
    ok = output.completed and sup < threshold and wall <= 600.0
    detail = f"sup {sup:.2f} vs M {threshold:.2f}, {wall:.0f}s"
    if not output.completed:
        detail += f"; aborted at t = {output.error.t_last_good:.3f}"
    assert verdict(7, "global-boundedness", ok, detail)


def test_criterion_08_pressure_proxy(dissipative_sweep):
    """Time-averaged pairings of the recovered pressure approach the analytic
    ones monotonically in eps, allowing one non-monotone step per test
    function (increments below 1e-12 are round-off, not violations)."""
    sweep = dissipative_sweep
    assert not sweep.failures, f"member runs failed: {sweep.failures}"
    details = []
    ok = True
    for phi in ("cos2x", "cos2y", "sinxsiny"):
        mism = [sweep.runs[eps].mean_pairing_error(phi) for eps in sweep.epsilons]
        violations = sum(1 for a, b in zip(mism, mism[1:]) if b > a + 1e-12)
        ok = ok and violations <= 1
        details.append(f"{phi}: " + "->".join(f"{v:.1e}" for v in mism)
                       + f" ({violations} up-steps)")
    assert verdict(8, "pressure-weak-star-proxy", ok, "; ".join(details))


def test_criterion_09_interpolation_inequality():
    """||f||_s' <= ||f||_0^(1-s'/s) ||f||_s^(s'/s) on 1000 random fields."""
    t0 = time.time()
    n = 16
    k = np.fft.fftfreq(n, 1.0 / n)
    kx, ky = k[:, None], k[None, :]
    ksq = kx ** 2 + ky ** 2
    rng = np.random.default_rng(11)
    fields = rng.standard_normal((1000, n, n))
    coeffs = np.fft.fft2(fields, axes=(-2, -1)) / n ** 2
    mask = (np.abs(kx) <= n // 4) & (np.abs(ky) <= n // 4)
    coeffs *= mask
    power = np.abs(coeffs) ** 2

    def norms(s):
        return np.sqrt(np.sum(power * (1.0 + ksq) ** s, axis=(-2, -1)))

    worst = 0.0
    for s, sp in ((3.5, 2.0), (4.0, 1.0), (3.1, 3.0)):
        theta = sp / s
        lhs = norms(sp)
        rhs = norms(0.0) ** (1 - theta) * norms(s) ** theta
        worst = max(worst, float(np.max(lhs / rhs)))
    wall = time.time() - t0
    ok = worst <= 1.0 + 1e-12 and wall < 5.0
    assert verdict(9, "interpolation-inequality", ok,
                   f"max lhs/rhs {worst:.15f}, {wall:.2f}s")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical CSV output across reruns of `run` and of `sweep`."""
    run_cfg = (
        "epsilon = 0.1\ntau = 1.0\nlambda = 2.0\nnu = 0.01\nrho_bar = 1.0\n"
        "n = 32\nt_end = 0.1\nrecord_every = 5\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(run_cfg)
    # the CLI subprocesses import the package from src/, as the tests do
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "vbgk.cli", "run", "--config", str(cfg_path),
             "--out", str(out)],
            env=env, capture_output=True).returncode
        assert code == 0
        outs.append((out / "records.csv").read_bytes())
    runs_identical = outs[0] == outs[1]

    sweep_cfg = run_cfg.replace("t_end = 0.1", "t_end = 0.2") + "transport_mode = upwind\n"
    cfg_path.write_text(sweep_cfg)
    studies = []
    for name in ("sw_a", "sw_b"):
        out = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "vbgk.cli", "sweep", "--config", str(cfg_path),
             "--epsilons", "0.2,0.1,0.05", "--out", str(out)],
            env=env, capture_output=True).returncode
        assert code == 0
        studies.append((out / "study.csv").read_bytes())
    sweeps_identical = studies[0] == studies[1]

    ok = runs_identical and sweeps_identical
    assert verdict(10, "determinism", ok,
                   f"reruns identical: {runs_identical}, "
                   f"sweep reruns identical: {sweeps_identical}")
