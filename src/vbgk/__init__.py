"""Five-velocity vector kinetic relaxation approximation of the 2D
incompressible Navier-Stokes equations on the torus, with a pseudo-spectral
reference solver and an epsilon-sweep diagnostics harness."""

__version__ = "0.1.0"
