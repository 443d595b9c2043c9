"""Seeded initial data for the vortex_reference workload.

A random streamfunction psi with every mode 0 < |k| <= KMAX is turned into the
velocity u = (d psi / dy, -d psi / dx) analytically, scaled to max |u| = 1,
checked by the package's own divergence check (constructing an NsState raises
NotDivergenceFree) and written with snapshots.write_snapshot.
"""

from __future__ import annotations

import numpy as np

KMAX = 4


def vortex_velocity(seed: int, n: int, nu: float) -> np.ndarray:
    """Divergence-free (2, n, n) velocity with max |u| = 1 drawn from seed."""
    from vbgk.grid import Grid
    from vbgk.navier_stokes import NsState

    grid = Grid(n)
    rng = np.random.default_rng(seed)
    u1 = np.zeros((n, n))
    u2 = np.zeros((n, n))
    # one mode of each +-k pair: kx > 0, or kx = 0 with ky > 0
    for kx in range(KMAX + 1):
        for ky in range(-KMAX, KMAX + 1):
            if (kx == 0 and ky <= 0) or kx * kx + ky * ky > KMAX * KMAX:
                continue
            a, b = rng.standard_normal(2)
            phase = kx * grid.x + ky * grid.y
            # psi = a cos(phase) + b sin(phase); d psi / d phase:
            dpsi = -a * np.sin(phase) + b * np.cos(phase)
            u1 += ky * dpsi
            u2 -= kx * dpsi
    scale = 1.0 / float(np.max(np.hypot(u1, u2)))
    state = NsState(grid=grid, u1=u1 * scale, u2=u2 * scale, t=0.0, nu=nu)
    return np.stack([state.u1, state.u2])


def write_vortex(path, seed: int, n: int, nu: float) -> None:
    from vbgk.snapshots import write_snapshot

    write_snapshot(path, vortex_velocity(seed, n, nu), 0.0)

