"""Steady-state heat transport in a dissipative qubit-qutrit-qubit chain."""

from .config import ConfigError, DerivedColumn, SweepAxis, SweepSpec, load_params, load_sweep
from .lindblad import (
    Liouvillian,
    build_superoperator,
    dissipator_apply,
    occupation,
    rhs_apply,
    unvec,
    vec,
)
from .model import (
    DIM,
    DIMS,
    BathChannel,
    SystemParams,
    bath_channels,
    free_hamiltonian,
    gibbs_state,
    interaction_lm,
    interaction_mr,
    local_hamiltonians,
    total_hamiltonian,
    transition_ops,
)
from .observables import HeatCurrents, bath_currents, heat_current, partial_trace, reduced_populations
from .solvers import (
    DensityMatrix,
    IntegrationError,
    SteadyStateError,
    SteadyStateResult,
    evolve,
    steady_state,
    trace_distance,
)
from .sweep import SweepRow, emit_csv, grid_points, run_sweep
from .svgplot import emit_plot

__version__ = "0.1.0"
