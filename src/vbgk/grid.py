"""Periodic 2D grid on [0, 2pi)^2 with Fourier transform services.

The package's 1D Fourier multipliers live here, ``spectral_derivative``
(i k)^order and ``spectral_shift`` exp(-i k s), the kinetic free transport;
both are one routine: a real 1D transform, a cached table, the inverse.

Conventions used everywhere in the package:

* fields are real ``(n, n)`` arrays; index ``(ix, iy)`` is the point
  ``(ix*dx, iy*dx)``, so the x coordinate varies along axis 0;
* norms use the normalized measure on the torus (divide by ``(2pi)^2``),
  so the constant field 1 has unit L2 norm and Parseval reads
  ``sum_k |f_hat_k|^2 = mean(f^2)``, where ``f_hat = fft2(f) / n^2`` and
  ``f_hat_0`` is the mean of the field;
* Sobolev norms are ``||f||_s^2 = sum_k (1+|k|^2)^s |f_hat_k|^2`` and
  vector fields take the root-sum-of-squares over leading components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n periodic grid on [0, 2pi)^2; n even, n >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 8, got {self.n}")

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @cached_property
    def coords(self) -> np.ndarray:
        """The n grid coordinates of either axis, shape (n,)."""
        arr = np.arange(self.n) * self.dx
        arr.setflags(write=False)
        return arr

    @cached_property
    def x(self) -> np.ndarray:
        """x coordinate, shape (n, n), constant along axis 1."""
        arr = np.repeat(self.coords[:, None], self.n, axis=1)
        arr.setflags(write=False)
        return arr

    @cached_property
    def y(self) -> np.ndarray:
        """y coordinate, shape (n, n), constant along axis 0."""
        arr = np.repeat(self.coords[None, :], self.n, axis=0)
        arr.setflags(write=False)
        return arr

    @cached_property
    def k1d(self) -> np.ndarray:
        """Integer wavenumbers in FFT order, shape (n,)."""
        arr = np.fft.fftfreq(self.n, d=1.0 / self.n)
        arr.setflags(write=False)
        return arr

    @cached_property
    def kx(self) -> np.ndarray:
        """Wavenumber along x, shape (n, 1) for broadcasting."""
        arr = self.k1d[:, None].copy()
        arr.setflags(write=False)
        return arr

    @cached_property
    def rky(self) -> np.ndarray:
        """Wavenumber along y of the rfft2 layout (ky >= 0), shape (1, n/2+1)."""
        arr = np.arange(self.n // 2 + 1, dtype=float)[None, :]
        arr.setflags(write=False)
        return arr

    @cached_property
    def rksq(self) -> np.ndarray:
        """|k|^2 on the rfft2 layout, shape (n, n/2+1)."""
        arr = self.kx ** 2 + self.rky ** 2
        arr.setflags(write=False)
        return arr

    def check_field(self, f: np.ndarray) -> np.ndarray:
        """Validate that f is a (..., n, n) array; returns it as float array."""
        f = np.asarray(f)
        if f.ndim < 2 or f.shape[-2:] != (self.n, self.n):
            raise DimensionMismatch(
                f"field shape {f.shape} does not match grid n={self.n}"
            )
        return f


class Scratch:
    """The buffers of one grid, shared by the stepper's kernels and the records.

    pair (2, 3, n, n), field (3, n, n) and coeffs, one stacked transform of
    3 n (n/2+1) complex values whose float view ``real`` also serves as a
    (3, n, n) buffer: 12 n^2 + 6 n floats, 0.40 MB at n = 64 and 1.58 MB at
    n = 128.  Their users:

    * kinetic relaxation: pair holds the Maxwellians' scaled terms;
    * kinetic transport: coeffs holds one mover's 1D transform, laid out
      (3, n, n/2+1) along either axis as in spectral_shift; field the moved
      mover of the shift-matrix product, or upwind its shifted copy;
    * diagnostics.deviation_norms: pair holds m - A(w)/eps for both
      directions; per direction, field holds k (or h), then its derivative,
      and real k - 2 a w before coeffs takes the transform;
    * diagnostics.error_functionals: pair holds rho - rho_bar, u - u_ref
      and rho u - rho_bar u_ref, coeffs their rfft2;
    * the rest of compute_record: field u, then the bound functional and
      the pressure mismatch; pair the entropy surrogate.

    Each user fills what it reads within one call, so one scratch per grid
    serves a run and its records; the stepper's own w, which a record
    reads, is not here.  Nothing that uses it is thread-safe.
    """

    def __init__(self, n: int):
        self.pair = np.empty((2, 3, n, n))
        self.field = np.empty((3, n, n))
        self.coeffs = np.empty((3, n, n // 2 + 1), dtype=complex)
        self.real = self.coeffs.reshape(-1).view(float)[:3 * n * n].reshape(3, n, n)


@lru_cache(maxsize=8)
def scratch(grid: Grid) -> Scratch:
    """The grid's Scratch, made on first use."""
    return Scratch(grid.n)


@lru_cache(maxsize=8)
def _derivative_factor(grid: Grid, order: int) -> np.ndarray:
    """(i k)^order for the wavenumber k of the last axis of the rfft layout,
    repeated on every row: shape (n, n/2+1)."""
    arr = np.repeat(((1j * np.arange(grid.n // 2 + 1)) ** order)[None, :], grid.n, axis=0)
    arr.setflags(write=False)
    return arr


def _shift_table(grid: Grid, s: float) -> np.ndarray:
    """exp(-i k s), the shift by s, laid out as _derivative_factor."""
    return np.repeat(np.exp(-1j * s * np.arange(grid.n // 2 + 1))[None, :], grid.n, axis=0)


@lru_cache(maxsize=8)
def _shift_factor(grid: Grid, s: float) -> np.ndarray:
    """_shift_table, cached for spectral_shift."""
    arr = _shift_table(grid, s)
    arr.setflags(write=False)
    return arr


def _apply_multiplier(grid: Grid, f: np.ndarray, axis: str, factor: np.ndarray,
                      out: np.ndarray | None, coeffs: np.ndarray | None) -> np.ndarray:
    """irfft(factor * rfft(f)) along 'x' or 'y': the one 1D multiplier routine.

    The transform is laid out (..., n, n/2+1), wavenumber last, along either
    axis (transposed along x), so one full (n, n/2+1) factor serves both and
    is multiplied plane by plane: no operand is broadcast, and numpy makes no
    iterator buffer.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    f = grid.check_field(f)
    if coeffs is None:
        coeffs = np.empty(f.shape[:-1] + factor.shape[-1:], dtype=complex)
    along = -2 if axis == "x" else -1
    F = np.fft.rfft(f, axis=along, out=coeffs if axis == "y" else coeffs.swapaxes(-1, -2))
    for plane in coeffs.reshape((-1,) + factor.shape):
        plane *= factor
    return np.fft.irfft(F, n=grid.n, axis=along, out=out)


def spectral_derivative(grid: Grid, f: np.ndarray, axis: str, order: int = 1,
                        out: np.ndarray | None = None,
                        coeffs: np.ndarray | None = None) -> np.ndarray:
    """Derivative of given order along 'x' or 'y' via (i k)^order multipliers.

    The multiplier depends on one wavenumber only, so one real 1D transform
    along that axis and its inverse do the work of a 2D pair; f may be a
    (..., n, n) stack.  The inverse real transform keeps only the real part
    of the Nyquist coefficient k = n/2, so odd orders drop that mode and the
    derivative of a real field stays real.

    out, when given, receives the derivative (the shape of f), and coeffs,
    when given, the transform: a C-contiguous complex (..., n, n/2+1)
    buffer, overwritten.
    """
    if order < 1 or int(order) != order:
        raise ValueError(f"derivative order must be a positive integer, got {order}")
    return _apply_multiplier(grid, f, axis, _derivative_factor(grid, int(order)), out, coeffs)


def spectral_shift(grid: Grid, f: np.ndarray, axis: str, s: float,
                   out: np.ndarray | None = None,
                   coeffs: np.ndarray | None = None) -> np.ndarray:
    """f translated by s along 'x' or 'y', f(x - s), via the multiplier exp(-i k s).

    The inverse real transform keeps only the real part of the Nyquist
    coefficient, so that mode is scaled by cos(k s), as the real part of a
    complex inverse would be.  The table is cached per (grid, s); out (which
    may be f) and coeffs are as for spectral_derivative.
    """
    return _apply_multiplier(grid, f, axis, _shift_factor(grid, s), out, coeffs)


@lru_cache(maxsize=8)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """(1+|k|^2)^s on the rfft2 layout, flat, for coefficient_norm.

    Each interior ky column stands for itself and its mirror -ky, so its
    weight is doubled; the ky = 0 and n/2 columns count once.  Each weight
    is repeated for the real and the imaginary part of its coefficient, the
    layout of a C-contiguous (n, n/2+1) complex array viewed as floats.
    """
    weight = np.ones(grid.rksq.shape) if s == 0 else (1.0 + grid.rksq) ** s
    weight[:, 1:grid.n // 2] *= 2.0
    arr = np.repeat(weight, 2, axis=-1).ravel()
    arr.setflags(write=False)
    return arr


def coefficient_norm(grid: Grid, coeffs: np.ndarray, s: float) -> float:
    """H^s norm of the field, or root-sum-of-squares over a stack, whose
    rfft2 coefficients are coeffs, a C-contiguous (..., n, n/2+1) array;
    squares coeffs in place."""
    weight = _sobolev_weight(grid, s)
    power = coeffs.view(float).reshape(-1, weight.size)
    np.multiply(power, power, out=power)
    # einsum, not @: see l2_norm
    return float(np.sqrt(np.einsum("ij,j->", power, weight))) / grid.n ** 2


def sobolev_norm(grid: Grid, f: np.ndarray, s: float) -> float:
    """H^s norm under the normalized-measure convention.

    Accepts (n, n) scalar fields or (..., n, n) stacks, which are reduced
    by root-sum-of-squares over the leading axes.
    """
    if s < 0:
        raise ValueError(f"Sobolev index must be >= 0, got {s}")
    f = grid.check_field(f)
    return coefficient_norm(grid, np.fft.rfft2(f), s)


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """sobolev_norm(grid, f, 0) without the transform: Parseval's identity.

    One sum of squares over the flat field, which makes no temporary when f
    is C-contiguous.
    """
    flat = grid.check_field(f).reshape(-1)
    # einsum, not np.dot: on a large field (a (3, 64, 64) stack is enough)
    # np.dot runs on BLAS threads, which spin-wait between calls and make
    # the sum depend on the thread count; einsum calls no BLAS
    return float(np.sqrt(np.einsum("i,i->", flat, flat) / grid.n ** 2))


def linf_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def spectral_divergence(grid: Grid, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    return spectral_derivative(grid, u1, "x") + spectral_derivative(grid, u2, "y")
