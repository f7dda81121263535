"""End-to-end experiments: simulate a model, solve its limit law, compare.

A correlation experiment draws Y with a given population covariance,
computes sample-correlation eigenvalues, and compares their ECDF with the
solver CDF driven by the spectrum of the population correlation matrix.
An elliptical experiment does the same for the scaled Gram matrix of
sphere-mixture or copula rows against the coupled-system solver. The
comparison metric is the Kolmogorov-Smirnov distance with the theoretical
CDF linearly interpolated on its grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .elliptical_solver import EllipticalParams, elliptical_density_grid_detailed, scaled_gram
from .errors import NumericalError
from .linalg import corr_from_cov, sample_covariance, sym_eigenvalues
from .measures import DiscreteMeasure, measure_from_eigenvalues
from .mp_solver import (
    DEFAULT_GRID_COUNT,
    GRID_PAD,
    SUPPORT_THRESHOLD_V_EPS,
    SolverConfig,
    density_grid_detailed,
    solve_edge,
)
from .samplers import _FAMILIES, PopulationModel, sample_model

__all__ = [
    "ExperimentSpec",
    "ComparisonResult",
    "ks_distance",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulate-solve-compare run.

    The model's family picks the law: gaussian is compared with the
    covariance law of its population correlation, sphere_elliptical and
    gaussian_copula with the elliptical scaled-Gram law. h_override
    replaces the population-matrix spectrum as the solver's H when a
    specific limit law is wanted; by default H is the empirical spectrum
    of the finite population matrix.
    """

    model: PopulationModel
    grid_count: int = DEFAULT_GRID_COUNT
    replicates: int = 1
    seed: int = 0
    check_edge: bool = False
    h_override: Optional[DiscreteMeasure] = None
    cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.model.family not in _EXPERIMENTS:
            raise ValueError(f"no limit law for family {self.model.family!r}")
        if self.grid_count < 2:
            raise ValueError("grid_count must be >= 2")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass(frozen=True)
class ComparisonResult:
    """Distance between a simulated spectrum and its solved limit law."""

    ks_distance: float
    sample_count: int
    support_empirical: tuple[float, float]
    support_theoretical: Optional[tuple[float, float]]
    largest_eigenvalue: Optional[float] = None
    mu_prediction: Optional[float] = None
    lemma5_stat: Optional[float] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.ks_distance <= 1.0):
            raise ValueError("ks_distance must lie in [0, 1]")


def ks_distance(eigs, xs, cdf) -> float:
    """sup |ECDF(x) - F(x)| over eigenvalues and grid points.

    F is linearly interpolated between grid points and clipped into
    [0, 1]; both one-sided ECDF limits are evaluated at each eigenvalue.
    """
    eigs = np.sort(np.asarray(eigs, dtype=np.float64))
    if eigs.size == 0:
        raise ValueError("eigs must be nonempty")
    xs = np.asarray(xs, dtype=np.float64)
    F = np.asarray(cdf, dtype=np.float64)
    for name, a in (("eigs", eigs), ("xs", xs), ("cdf", F)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
    F = np.clip(F, 0.0, 1.0)
    if xs.ndim != 1 or xs.size != F.size or xs.size < 2:
        raise ValueError("xs and cdf must be matching 1-d arrays of length >= 2")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly ascending")
    if np.any(np.diff(F) < 0):
        raise ValueError("cdf must be nondecreasing")
    if eigs[0] < xs[0] or eigs[-1] > xs[-1]:
        raise ValueError(
            f"grid [{xs[0]!r}, {xs[-1]!r}] does not cover the spectrum "
            f"[{eigs[0]!r}, {eigs[-1]!r}]"
        )
    count = eigs.size
    F_at = np.interp(eigs, xs, F)
    steps = np.arange(1, count + 1) / count
    # Signed one-sided maxima stay exact at tied eigenvalues, where the
    # absolute per-index differences would overestimate.
    d_upper = np.max(steps - F_at)
    d_lower = np.max(F_at - (steps - 1.0 / count))
    ecdf_at_grid = np.searchsorted(eigs, xs, side="right") / count
    d_grid = np.max(np.abs(ecdf_at_grid - F))
    return float(max(d_upper, d_lower, d_grid, 0.0))


def _ks_against_law(
    eigs: NDArray[np.float64],
    xs: NDArray[np.float64],
    cdf: NDArray[np.float64],
    stats: dict,
) -> float:
    """KS distance, conditioning away the atom at 0 when the law's stats have one.

    Inversion bias concentrates at the atom, so with a point mass at 0
    both distributions are restricted to x above 10*v_eps and rescaled.
    The conditioned grid starts at that cutoff, where its CDF is 0, so it
    covers every eigenvalue kept.
    """
    if stats["atom0_mass"] <= 0:
        return ks_distance(eigs, xs, cdf)
    threshold = SUPPORT_THRESHOLD_V_EPS * stats["v_eps"]
    F_thr = float(np.interp(threshold, xs, cdf))
    if 1.0 - F_thr <= 1e-9:
        raise NumericalError("no mass above the atom cutoff; cannot compare")
    keep = xs > threshold
    xs_c = np.concatenate(([threshold], xs[keep]))
    F_c = np.concatenate(([0.0], np.clip((cdf[keep] - F_thr) / (1.0 - F_thr), 0.0, 1.0)))
    eigs_c = eigs[eigs > threshold]
    if eigs_c.size == 0:
        return 1.0
    return ks_distance(eigs_c, xs_c, F_c)


def _compare(
    spec: ExperimentSpec,
    eig_sets: list[NDArray[np.float64]],
    solve: Callable[[NDArray[np.float64]], tuple],
    top: float,
    details: dict,
    **fields,
) -> ComparisonResult:
    """KS of each replicate against the law solved on [min(0, eigs), top + pad].

    solve is a law's *_density_grid_detailed; v_eps, the atom at 0 and the
    support come from its stats.
    """
    lo = min(0.0, min(float(e[0]) for e in eig_sets))
    xs, _, cdf, stats = solve(np.linspace(lo, top + GRID_PAD, spec.grid_count))
    ks_values = [_ks_against_law(e, xs, cdf, stats) for e in eig_sets]
    eigs0 = eig_sets[0]
    return ComparisonResult(
        ks_distance=float(np.mean(ks_values)),
        sample_count=eigs0.size,
        support_empirical=(float(eigs0[0]), float(eigs0[-1])),
        support_theoretical=stats["support_estimate"],
        largest_eigenvalue=float(eigs0[-1]),
        details={"ks_values": ks_values, **details, "v_eps": stats["v_eps"]},
        **fields,
    )


def _correlation_experiment(spec: ExperimentSpec) -> ComparisonResult:
    """Sample-correlation spectrum vs the solver law driven by corr(Sigma).

    Sampling uses the population correlation Gamma_p in place of Sigma:
    the sample correlation matrix is invariant under positive diagonal
    rescaling of the columns, so this loses no generality and makes runs
    with diagonally rescaled Sigma identical at matched seeds.
    """
    model = spec.model
    gamma = corr_from_cov(model.shape)
    norm_model = replace(model, shape=gamma)
    if spec.h_override is not None:
        H = spec.h_override
    else:
        H = measure_from_eigenvalues(np.maximum(sym_eigenvalues(gamma), 0.0))
    rho = model.p / model.n

    eig_sets: list[NDArray[np.float64]] = []
    lemma5_stats: list[float] = []
    for replicate in range(spec.replicates):
        Y = sample_model(norm_model, spec.seed, replicate)
        S = sample_covariance(Y)
        eig_sets.append(sym_eigenvalues(corr_from_cov(S)))
        lemma5_stats.append(float(np.max(np.abs(np.sqrt(np.diag(S)) - 1.0))))

    edge = None
    if spec.check_edge and H.support_min > 0:
        edge = solve_edge(H, model.n / model.p)
    top = max(float(e[-1]) for e in eig_sets)
    if edge is not None:
        top = max(top, edge.mu)
    return _compare(
        spec,
        eig_sets,
        lambda xs: density_grid_detailed(H, rho, xs, spec.cfg),
        top,
        {
            "lemma5_stats": lemma5_stats,
            "largest_eigenvalues": [float(e[-1]) for e in eig_sets],
            "rho": rho,
        },
        mu_prediction=edge.mu if edge is not None else None,
        lemma5_stat=lemma5_stats[0],
    )


def _elliptical_experiment(spec: ExperimentSpec) -> ComparisonResult:
    """Scaled-Gram spectrum of elliptical-type rows vs the coupled-system law
    of the model's row scatter (T, nu): H is T's spectrum unless overridden."""
    model = spec.model
    T, nu = _FAMILIES[model.family].scatter(model)
    H = spec.h_override or measure_from_eigenvalues(np.maximum(sym_eigenvalues(T), 0.0))
    params = EllipticalParams(H=H, nu=nu, theta=model.d / model.p, rho=model.p / model.n)

    eig_sets: list[NDArray[np.float64]] = []
    for replicate in range(spec.replicates):
        X = sample_model(model, spec.seed, replicate)
        B = scaled_gram(X, model.p)
        eig_sets.append(sym_eigenvalues(B))

    return _compare(
        spec,
        eig_sets,
        lambda xs: elliptical_density_grid_detailed(params, xs, spec.cfg),
        max(float(e[-1]) for e in eig_sets),
        {"theta": params.theta, "rho": params.rho, "xi": params.xi},
    )


# The law each model family is compared with.
_EXPERIMENTS: dict[str, Callable[[ExperimentSpec], ComparisonResult]] = {
    "gaussian": _correlation_experiment,
    "sphere_elliptical": _elliptical_experiment,
    "gaussian_copula": _elliptical_experiment,
}


def run_experiment(spec: ExperimentSpec) -> ComparisonResult:
    """Simulate the spec's model, solve the law its family picks, and compare."""
    return _EXPERIMENTS[spec.model.family](spec)
