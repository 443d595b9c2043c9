import numpy as np
import pytest
from hypothesis import given, strategies as st

from vbgk.errors import DimensionMismatch
from vbgk.grid import (Grid, l2_norm, linf_norm, sobolev_norm, spectral_derivative,
                       spectral_shift)

from conftest import random_field


def test_grid_validation():
    Grid(8)
    with pytest.raises(ValueError):
        Grid(6)
    with pytest.raises(ValueError):
        Grid(9)
    g = Grid(32)
    assert g.dx * g.n == pytest.approx(2 * np.pi, abs=1e-15)


def test_dimension_mismatch_rejected(grid32):
    with pytest.raises(DimensionMismatch):
        sobolev_norm(grid32, np.zeros((16, 16)), 1.0)
    with pytest.raises(DimensionMismatch):
        spectral_derivative(grid32, np.zeros((32, 16)), "x")


def test_derivative_analytic(grid32):
    x = grid32.x
    d = spectral_derivative(grid32, np.sin(x), "x")
    assert np.max(np.abs(d - np.cos(x))) < 1e-10
    d2 = spectral_derivative(grid32, np.sin(2 * x), "x", order=2)
    assert np.max(np.abs(d2 + 4 * np.sin(2 * x))) < 1e-10
    dy = spectral_derivative(grid32, np.sin(grid32.y), "y")
    assert np.max(np.abs(dy - np.cos(grid32.y))) < 1e-10


def test_derivative_of_constant_is_exactly_zero(grid32):
    d = spectral_derivative(grid32, np.full((32, 32), 7.5), "x")
    assert np.all(d == 0.0)


def test_derivative_zeroes_nyquist_for_odd_order(grid32):
    # pure Nyquist line: odd derivative must vanish instead of going complex
    f = np.cos(16 * grid32.x)
    d = spectral_derivative(grid32, f, "x", order=1)
    assert np.max(np.abs(d)) < 1e-10
    d2 = spectral_derivative(grid32, f, "x", order=2)
    assert np.max(np.abs(d2 + 256 * f)) < 1e-8


def test_derivative_rejects_bad_args(grid32):
    f = np.zeros((32, 32))
    with pytest.raises(ValueError):
        spectral_derivative(grid32, f, "z")
    with pytest.raises(ValueError):
        spectral_derivative(grid32, f, "x", order=0)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("order", [1, 2, 3, "shift"])
def test_derivative_of_stack_matches_2d_transform(axis, order):
    # the (i k)^order multiplier, or exp(-i k s) of spectral_shift, applied to
    # the full 2D transform, per field
    g = Grid(16)
    f = np.stack([random_field(60 + c, 16, amplitude=1.0 + c) for c in range(3)])
    f += np.cos(8 * (g.x if axis == "x" else g.y))  # a Nyquist line
    k = g.k1d.copy()
    if order == "shift":
        s = 0.37 * g.dx
        factor = np.exp(-1j * k * s)
        got = spectral_shift(g, f, axis, s)
    else:
        if order % 2 == 1:
            k[8] = 0.0
        factor = (1j * k) ** order
        got = spectral_derivative(g, f, axis, order)
    factor = factor[:, None] if axis == "x" else factor[None, :]
    want = np.real(np.fft.ifft2(np.fft.fft2(f) * factor))
    assert got.shape == f.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_shift_by_grid_points_is_a_roll_and_minus_s_undoes_s(axis):
    g = Grid(32)
    f = np.stack([random_field(80 + c, 32) for c in range(3)])
    along = -2 if axis == "x" else -1
    # exp(-i k m dx) is +-1 at the Nyquist wavenumber, so that line rolls too
    nyquist = f + np.cos(16 * (g.x if axis == "x" else g.y))
    for m in (1, 5, -3):
        rolled = spectral_shift(g, nyquist, axis, m * g.dx)
        assert np.max(np.abs(rolled - np.roll(nyquist, m, axis=along))) < 1e-13
    s = 0.37 * g.dx
    back = spectral_shift(g, spectral_shift(g, f, axis, s), axis, -s)
    assert np.max(np.abs(back - f)) < 1e-13


def test_norm_of_constant(grid32):
    one = np.ones((32, 32))
    assert l2_norm(grid32, one) == pytest.approx(1.0, abs=1e-13)
    for s in (0.0, 1.0, 2.5, 3.5):
        assert sobolev_norm(grid32, one, s) == pytest.approx(1.0, abs=1e-13)


def test_norm_of_sin(grid32):
    f = np.sin(grid32.x)
    assert l2_norm(grid32, f) ** 2 == pytest.approx(0.5, abs=1e-13)
    assert sobolev_norm(grid32, f, 1.0) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_vector_norm_root_sum_of_squares(grid32):
    f = np.stack([np.sin(grid32.x), np.cos(grid32.y)])
    expected = np.sqrt(0.5 + 0.5)
    assert l2_norm(grid32, f) == pytest.approx(expected, abs=1e-13)


def test_negative_sobolev_index_rejected(grid32):
    with pytest.raises(ValueError):
        sobolev_norm(grid32, np.ones((32, 32)), -0.5)


def test_linf_norm():
    f = np.array([[1.0, -3.5], [2.0, 0.0]])
    assert linf_norm(f) == 3.5


@given(seed=st.integers(0, 2 ** 31))
def test_parseval(seed):
    g = Grid(16)
    f = random_field(seed, 16)
    lhs = l2_norm(g, f) ** 2
    rhs = float(np.mean(f ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


@given(seed=st.integers(0, 2 ** 31))
def test_l2_norm_equals_sobolev_zero_on_stacks(seed):
    g = Grid(16)
    f = np.stack([random_field(seed + c, 16, amplitude=1.0 + c) for c in range(3)])
    assert l2_norm(g, f) == pytest.approx(sobolev_norm(g, f, 0.0), rel=1e-14, abs=0)


@given(seed=st.integers(0, 2 ** 31))
def test_sobolev_monotone_in_s(seed):
    g = Grid(16)
    f = random_field(seed, 16)
    norms = [sobolev_norm(g, f, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


@given(seed=st.integers(0, 2 ** 31),
       pair=st.sampled_from([(3.5, 2.0), (4.0, 1.0), (3.1, 3.0)]))
def test_interpolation_inequality(seed, pair):
    # ||f||_s' <= ||f||_0^(1-s'/s) * ||f||_s^(s'/s), Hoelder on the Fourier sum
    s, sp = pair
    g = Grid(16)
    f = random_field(seed, 16)
    theta = sp / s
    lhs = sobolev_norm(g, f, sp)
    rhs = sobolev_norm(g, f, 0.0) ** (1 - theta) * sobolev_norm(g, f, s) ** theta
    assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 3.5])
def test_sobolev_norm_equals_full_fourier_sum(s):
    # white-noise fields fill every mode, the Nyquist row and column included
    g = Grid(16)
    k = np.fft.fftfreq(g.n, 1.0 / g.n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    rng = np.random.default_rng(11)
    for f in (rng.standard_normal((16, 16)), rng.standard_normal((2, 16, 16))):
        coeffs = np.fft.fft2(f) / g.n ** 2
        want = np.sqrt(np.sum(np.abs(coeffs) ** 2 * (1.0 + ksq) ** s))
        assert sobolev_norm(g, f, s) == pytest.approx(want, rel=1e-13, abs=0)
