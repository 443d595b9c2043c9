#!/usr/bin/env python3
"""Linear stability scan of the kinetic model about the uniform equilibrium.

For a grid of (epsilon, lambda) values this prints the maximal real part of
the spectrum of the 15x15 linearized generator (vbgk.stability) over the
wavenumbers up to --kmax, plus the spectral radius of one Strang cycle at the
automatic time step over all modes of an --n grid.

Positive rates mean the model itself (not the scheme) has growing modes.
For |k| lambda tau eps << 1 the acoustic modes change at rate
-(nu - tau P'(rho_bar)) |k|^2 whatever lambda is, so the model is
dissipative as eps -> 0 only if nu > tau P'(rho_bar) (P'(rho_bar) = 1 here).
At nu = 0.01, tau = 1 that fails: the growth peaks near
|k| lambda tau eps ~ 0.85 and the band reaches down to |k| = 1 unless
lambda tau eps is large (lambda ~ 20 stabilizes eps = 0.05; even
lambda = 32 leaves eps = 0.025 unstable).  At nu = 1, tau = 0.25,
lambda = 3 no mode grows at any eps.

Usage:
    python3 scripts/stability_scan.py [--nu 0.01] [--tau 1.0] [--kmax 48]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vbgk import stability
from vbgk.errors import ConstraintViolation
from vbgk.grid import Grid
from vbgk.kinetic import SolverConfig
from vbgk.model import make_params


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nu", type=float, default=0.01)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--kmax", type=int, default=48)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--epsilons", default="0.2,0.1,0.05,0.025")
    ap.add_argument("--lambdas", default="2,4,8,20,32")
    args = ap.parse_args()

    epsilons = [float(v) for v in args.epsilons.split(",")]
    lambdas = [float(v) for v in args.lambdas.split(",")]

    def params(eps, lam):
        return make_params(eps, args.tau, lam, args.nu, 1.0)

    print("max Re(eig) of the linearized generator over k (positive = growing):")
    for lam in lambdas:
        try:
            rates = [stability.max_growth(params(eps, lam), args.kmax) for eps in epsilons]
        except ConstraintViolation as exc:
            print(f"  lambda = {lam:g}: invalid ({exc})")
            continue
        print(f"  lambda = {lam:<4g} " + "   ".join(
            f"eps={eps:g}: {g:+8.3f}/s @k={k}" for eps, (g, k) in zip(epsilons, rates)))

    print(f"\nper-step spectral radius of the Strang cycle (n = {args.n}, auto dt):")
    grid, cfg = Grid(args.n), SolverConfig(t_end=1.0)
    for eps in epsilons:
        try:
            r, k, dt = stability.strang_radius(params(eps, lambdas[0]), grid, cfg)
        except ConstraintViolation as exc:
            print(f"  lambda = {lambdas[0]:g} eps = {eps:g}: invalid ({exc})")
            continue
        print(f"  lambda = {lambdas[0]:g} eps = {eps:<7g} dt = {dt:.3e}  "
              f"radius = {r:.6f} @k={k}  (log-rate {np.log(max(r, 1.0)) / dt:+.2f}/s)")


if __name__ == "__main__":
    main()
