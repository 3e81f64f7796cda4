"""Spectral solvers for two-component spin-orbit-coupled condensates.

Ground states by normalized gradient flow (Fourier or sine pseudospectral),
real-time dynamics by second-order time splitting, center-of-mass dynamical
laws, and a config-driven experiment runner.
"""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .com import (
    ComClosedFormInputs,
    LdaSeries,
    LdaState,
    SeriesComparison,
    com_rhs_exact,
    compare_series,
    lda_conserved,
    lda_ode_solve,
    lda_initial_from_imbalance,
    xc_closed_form,
)
from .dynamics import (
    EvolveOptions,
    ModePropagator,
    TrajectorySeries,
    box_step,
    build_mode_propagators,
    evolve,
    tsfp_step,
)
from .grid import FOURIER, SINE, Axis, Grid, make_grid
from .ground_state import (
    GfdnOptions,
    GroundStateResult,
    LimitStudyResult,
    besp_solve,
    gfdn_solve,
    gfdn_step,
    lab_view,
    limit_study,
    multi_start,
    solve_ground_state,
)
from .model import (
    BOX,
    FREE,
    HARMONIC,
    LAB,
    TILDE,
    BandParams,
    Nondimensionalized,
    Observables,
    Params,
    Spinor,
    apply_hamiltonian,
    band_eigenvalues,
    chemical_potential,
    eigen_residual,
    energy,
    energy_variant,
    existence_conditions,
    gauge_transform,
    nondimensionalize,
    observables,
    potential_field,
    raman_overlap,
    reduce_dimension,
    uniqueness_indicator,
)
from .states import (
    base_profile,
    build_initial_state,
    gaussian_profile,
    pair_state,
    plane_wave_pair,
    sine_profile,
    single_component,
    trap_profile,
)

__version__ = "0.1.0"

from .runner import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, run  # noqa: E402
