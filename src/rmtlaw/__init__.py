"""Limiting spectral distributions of high-dimensional sample matrices.

Solvers for the self-consistent equations of the covariance/correlation
limit law and the scaled-Gram law of generalized elliptical data, exact
largest-eigenvalue edges, seed-deterministic samplers, concentration
verification harnesses, and row-geometry diagnostics.
"""

from types import ModuleType as _ModuleType

from .concentration import (
    ConcentrationReport,
    angle_diagnostic,
    azuma_bound,
    copula_norm_bound,
    empirical_stieltjes,
    norm_diagnostic,
    population_covariance,
    quadratic_form_deviation,
    stieltjes_concentration_mc,
    tightness_check,
    verify_copula,
    verify_lemma6,
    verify_quadform,
    verify_tightness,
)
from .elliptical_solver import (
    EllipticalParams,
    elliptical_density_grid_detailed,
    elliptical_solve,
    mixing_integral,
    scaled_gram,
)
from .errors import ConvergenceError, NumericalError
from .experiments import (
    ComparisonResult,
    ExperimentSpec,
    ks_distance,
    run_experiment,
)
from .linalg import (
    as_sym_matrix,
    copula_cov,
    corr_from_cov,
    matrix_sqrt_psd,
    operator_norm,
    sample_correlation,
    sample_covariance,
    sym_eigenvalues,
    toeplitz_corr,
)
from .measures import DiscreteMeasure, delta, measure_from_eigenvalues
from .mp_solver import (
    EdgeResult,
    SolverConfig,
    TransformResult,
    default_v_eps,
    density_grid_detailed,
    estimate_support,
    mp_companion_solve,
    solve_edge,
    support_hull,
)
from .samplers import PopulationModel, sample_gaussian_copula, sample_model, sample_sphere

__version__ = "0.1.0"

# Every public name imported above; submodules are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
