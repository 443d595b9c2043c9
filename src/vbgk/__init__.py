"""Five-velocity vector kinetic relaxation approximation of the 2D
incompressible Navier-Stokes equations on the torus, with a pseudo-spectral
reference solver and an epsilon-sweep diagnostics harness."""

from .config import RunConfig, parse_config, parse_config_text
from .diagnostics import (
    ConvergenceStudyResult,
    DiagnosticsRecord,
    RelaxationVars,
    deviation_norms,
    error_functionals,
    fit_rate,
    macro_fields,
    pressure_recovery,
    to_relaxation_vars,
)
from .grid import (
    Grid,
    l2_norm,
    linf_norm,
    sobolev_norm,
    spectral_derivative,
    to_spectral,
)
from .kinetic import (
    KineticState,
    SolverConfig,
    relaxation_step,
    run,
    strang_step,
    transport_step,
)
from .model import (
    ModelParams,
    check_subcharacteristic,
    flux,
    initial_kinetic_state,
    make_params,
    maxwellians,
    perturbed_maxwellians,
    pressure,
)
from .navier_stokes import NsState, ns_step, pressure_from_velocity, taylor_green

__version__ = "0.1.0"
