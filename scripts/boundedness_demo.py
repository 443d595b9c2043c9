#!/usr/bin/env python3
"""Long-time boundedness demonstration in the stable regime.

At lambda = 20 (nu = 0.01, tau = 1) the linearized model has no growing
Fourier modes for eps = 0.05 (see stability_scan.py), and the long run with
exact transport stays far below the threshold M = 4 rho_bar ||u0||_{s+1}.
The same run at lambda = 2 aborts on blow-up near t ~ 1.3.

The transport-resolving step at lambda = 20 is small: 40744 steps, about
20 s on 2 vCPU (Python 3.11.7, numpy 2.4.6).

Usage:
    python3 scripts/boundedness_demo.py [--lam 20] [--t-end 5.0]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vbgk import driver, kinetic
from vbgk.config import RunConfig
from vbgk.grid import sobolev_norm


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lam", type=float, default=20.0)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--n", type=int, default=64)
    args = ap.parse_args()

    cfg = RunConfig(epsilon=args.epsilon, tau=1.0, lam=args.lam, nu=0.01,
                    rho_bar=1.0, n=args.n, t_end=args.t_end, record_every=200)
    t0 = time.time()
    report = driver.validated(cfg)
    out = driver.run_simulation(cfg, report)
    wall = time.time() - t0
    threshold = 4.0 * cfg.rho_bar * sobolev_norm(report.grid, report.u0, cfg.s + 1.0)
    if out.completed:
        sup = max(r.sup_bound_functional for r in out.records)
        times, _ = kinetic.step_times(report.solver, report.params, report.grid.dx)
        print(f"completed t_end = {cfg.t_end:g} in {wall:.0f}s ({len(times)} steps)")
        print(f"sup_t (|rho - rho_bar|_inf / eps + |rho u|_inf) = {sup:.4f}"
              f"  vs  M = {threshold:.2f}")
        return 0
    print(f"aborted: {out.error}")
    return 3


if __name__ == "__main__":
    sys.exit(main())
