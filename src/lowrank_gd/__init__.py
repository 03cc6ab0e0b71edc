"""Gradient descent for low-rank matrix approximation and retraction-free
eigenspace computation, with diagnostics that machine-check the
convergence theory behind both."""

__version__ = "0.1.0"

from .asym_gd import (
    AsymState,
    LiftedState,
    asym_error,
    asym_step,
    balance_gap,
    lift,
    run_asym,
)
from .engine import DivergenceError, SolverConfig, Trace
from .eigenspace import (
    EigState,
    lift_to_sym,
    proj_error,
    retract,
    rf_step,
    rgd_step,
    run_eig,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    emit_plot,
    load_config,
    parse_config,
    run_experiment,
)
from .initialization import (
    ConditionReport,
    check_condition_1,
    gaussian_factor,
    gaussian_pair,
    kappa,
    small_alpha_bound,
    warmup_budget,
)
from .linalg import (
    NumericalError,
    frobenius_norm,
    singular_values,
    spd_inv_sqrt,
    svd,
)
from .spectrum import (
    RankROracle,
    Sigma,
    Target,
    best_rank_r,
    experiment_spectrum,
    make_diagonal_target,
    make_target,
)
from .sym_gd import (
    FactorState,
    TraceRecord,
    approximation_error,
    gd_step,
    in_region_r,
    in_region_r2,
    local_iteration_budget,
    max_step_size,
    noise_signal_ratio,
    run,
    signal_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
