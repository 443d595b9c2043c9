"""Linear stability of the kinetic model about w = (rho_bar, 0, 0).

Linearized relaxation sends f to P f, where block (i, j) of the 15x15
projection P is dM_i/dw (`model.maxwellian_jacobians`, which sum to I), so
Fourier mode k evolves by L(k) = (P - I)/(tau*eps^2) - i diag(k.c_i)/eps,
and one Strang cycle by R(dt/2) T(dt) R(dt/2) with the exact relaxation
R(h) = P + exp(-h/(tau*eps^2)) (I - P), whose decay factor is the
stepper's own (`kinetic.relaxation_decay`).  Spectra are taken for all modes
in one batched call.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .kinetic import SolverConfig, relaxation_decay
from .model import VELOCITY_DIRECTIONS, ModelParams, maxwellian_jacobians


def _projection(params: ModelParams) -> np.ndarray:
    """Linearized relaxation target P at (rho_bar, 0, 0), shape (15, 15)."""
    jac = maxwellian_jacobians([params.rho_bar, 0.0, 0.0], params)[:, 0]
    return np.tile(jac.reshape(15, 3), (1, 5))


def _speeds(k: np.ndarray, params: ModelParams) -> np.ndarray:
    """k.c_i for every component of f, shape (K, 15), for integer modes (K, 2)."""
    kc = np.asarray(k, dtype=float) @ VELOCITY_DIRECTIONS.T
    return np.repeat(kc, 3, axis=1) * params.lam


def generator(k: np.ndarray, params: ModelParams) -> np.ndarray:
    """L(k) for integer modes k of shape (K, 2), shape (K, 15, 15)."""
    relax = (_projection(params) - np.eye(15)).astype(complex) / params.relaxation_time
    return relax - 1j * _speeds(k, params)[:, :, None] / params.epsilon * np.eye(15)


def max_growth(params: ModelParams, kmax: int) -> tuple[float, tuple[int, int]]:
    """Largest Re(eig L(k)) over 0 <= k2 <= k1 <= kmax, k != 0, and its k.

    The octant covers every mode up to the model's reflection symmetries.
    """
    k = np.array([(k1, k2) for k1 in range(kmax + 1) for k2 in range(k1 + 1)][1:])
    rates = np.max(np.linalg.eigvals(generator(k, params)).real, axis=1)
    i = int(np.argmax(rates))
    return float(rates[i]), (int(k[i, 0]), int(k[i, 1]))


def strang_radius(params: ModelParams, grid: Grid,
                  cfg: SolverConfig) -> tuple[float, tuple[int, int], float]:
    """Largest spectral radius of one Strang cycle over all modes of grid.

    The step is cfg.base_dt.  Returns (radius, k, dt); k = 0 has radius 1.
    """
    dt = cfg.base_dt(params, grid.dx)
    proj = _projection(params)
    decay = relaxation_decay(dt / 2, params)
    relax_half = proj + decay * (np.eye(15) - proj)
    k = np.stack(np.meshgrid(np.sort(grid.k1d), grid.k1d, indexing="ij"), axis=-1).reshape(-1, 2)
    radii = []
    # at most 4096 modes (n = 64) per eigvals call keeps each batch near 15 MB
    for part in np.array_split(k, -(-len(k) // 4096)):
        phase = np.exp(-1j * _speeds(part, params) * dt / params.epsilon)
        cycle = relax_half @ (phase[:, :, None] * np.eye(15)) @ relax_half
        radii.append(np.max(np.abs(np.linalg.eigvals(cycle)), axis=1))
    radii = np.concatenate(radii)
    i = int(np.argmax(radii))
    return float(radii[i]), (int(k[i, 0]), int(k[i, 1])), dt
