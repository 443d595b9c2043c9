"""Linear stability figures quoted in the README stability notes."""

import numpy as np
import pytest

from vbgk.grid import Grid
from vbgk.kinetic import SolverConfig
from vbgk.model import make_params
from vbgk.stability import generator, max_growth, strang_radius

ACCEPTANCE_EPSILONS = (0.2, 0.1, 0.05, 0.025)


def unstable(eps, lam):
    """nu = 0.01, tau = 1: nu < tau P'(rho_bar), the README's unstable example."""
    return make_params(eps, 1.0, lam, 0.01, 1.0)


def dissipative(eps):
    """nu = 1, tau = 0.25, lam = 3: the acceptance suite's dissipative regime."""
    return make_params(eps, 0.25, 3.0, 1.0, 1.0)


@pytest.mark.parametrize("eps, lam, rate, k", [
    (0.025, 2.0, 73.866, (12, 12)),
    (0.05, 20.0, -0.005, (1, 0)),
    (0.025, 32.0, 0.151, (1, 1)),
])
def test_readme_growth_rates(eps, lam, rate, k):
    got, got_k = max_growth(unstable(eps, lam), kmax=48)
    assert got == pytest.approx(rate, abs=1e-3)
    assert got_k == k


@pytest.mark.parametrize("eps", ACCEPTANCE_EPSILONS)
def test_dissipative_regime_has_no_growing_mode(eps):
    rate, k = max_growth(dissipative(eps), kmax=48)
    assert rate < 0
    assert rate == pytest.approx(-0.75, abs=5e-3)
    assert k == (1, 0)


def test_generator_conserves_w_at_k0():
    # L(0) is (P - I)/(tau eps^2): three zero eigenvalues (w) and twelve
    # equal to -1/(tau eps^2)
    p = dissipative(0.1)
    eig = np.sort(np.linalg.eigvals(generator(np.array([[0, 0]]), p)[0]).real)
    assert np.allclose(eig[-3:], 0.0, atol=1e-9)
    assert np.allclose(eig[:-3], -1.0 / p.relaxation_time, rtol=1e-12)


@pytest.mark.parametrize("eps, radius, abs_k, even_radius", [
    (0.2, 1.004740, (1, 1), 1.004281),
    (0.1, 1.011474, (3, 3), 1.009541),
])
def test_strang_radius_finds_odd_worst_mode(eps, radius, abs_k, even_radius):
    # at lam = 2, n = 64 the worst grid mode is odd; a scan of the even
    # wavenumbers only reported k = (2, 2) with even_radius
    r, k, _ = strang_radius(unstable(eps, 2.0), Grid(64), SolverConfig(t_end=1.0))
    assert r == pytest.approx(radius, abs=1e-6)
    assert r > even_radius
    assert (abs(k[0]), abs(k[1])) == abs_k


@pytest.mark.parametrize("c_relax", [1.0, 0.5])
@pytest.mark.parametrize("eps", ACCEPTANCE_EPSILONS)
def test_strang_cycle_stable_where_model_is(eps, c_relax):
    p = dissipative(eps)
    assert max_growth(p, kmax=16)[0] < 0
    r, _, _ = strang_radius(p, Grid(32), SolverConfig(t_end=1.0, c_relax=c_relax))
    # no mode grows, and the conserved moments of k = 0 keep modulus 1
    assert abs(r - 1.0) <= 1e-12
