"""Concentration checks and geometric diagnostics for high-dimensional rows.

Monte Carlo harnesses verify an explicit exponential tail bound for the
empirical Stieltjes transform and the qualitative decay of quadratic-form
deviations; row-geometry diagnostics (norms close to a common sphere,
pairwise angles close to orthogonal) summarize whether a data set looks
like it came from a concentrated high-dimensional distribution. The
operator-norm bound of the Gaussian-copula covariance lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from .linalg import (
    as_sym_matrix,
    copula_cov,
    operator_norm,
    sample_correlation,
    sample_covariance,
    sym_eigenvalues,
    toeplitz_corr,
)
from .samplers import _FAMILIES, PopulationModel, sample_gaussian_copula, sample_model

__all__ = [
    "ConcentrationReport",
    "parallel_map",
    "empirical_stieltjes",
    "azuma_bound",
    "stieltjes_concentration_mc",
    "population_covariance",
    "quadratic_form_deviation",
    "norm_diagnostic",
    "angle_diagnostic",
    "copula_norm_bound",
    "tightness_check",
    "verify_lemma6",
    "verify_quadform",
    "verify_copula",
    "verify_tightness",
]

# Tail thresholds are placed at these multiples of sqrt(n)/(p*v), the
# scale on which the martingale bound is informative.
_THRESHOLD_MULTIPLES = (0.5, 1.0, 2.0, 4.0)

# Fixed histogram layout for pairwise-angle diagnostics.
ANGLE_BINS = 50

# Calibrated diagnostic thresholds; regression values, not theory
# (scripts/calibrate_diagnostics.py measures the pass rates behind them).
NORM_THRESHOLD = 0.35
ANGLE_THRESHOLD = 0.2

_EXACT_ZERO = 1e-13

_T = TypeVar("_T")
_U = TypeVar("_U")


def parallel_map(fn: Callable[[_T], _U], items: Sequence[_T]) -> list[_U]:
    """[fn(item) for item in items]: the suites' replicate maps, in order.

    It runs in the calling thread; the name is kept because the benchmark's
    per-layer tracing binds it, until ROADMAP item D unbinds it.
    """
    return [fn(item) for item in items]


@dataclass(frozen=True)
class ConcentrationReport:
    """Monte Carlo summary of one concentration statistic over dims; details
    carries what the statistic measured."""

    statistic: str
    dims: list[int]
    reps: int
    seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


def empirical_stieltjes(eigs, z: complex) -> complex:
    """(1/p) sum 1/(lam_i - z) over the spectrum; maps C+ into C+."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("eigs must be a nonempty 1-d array")
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must have nonzero imaginary part")
    return complex(np.mean(1.0 / (eigs - z)))


def azuma_bound(r: float, p: int, n: int, v: float) -> float:
    """Tail bound 4*exp(-r^2 p^2 v^2 / (16 n))."""
    if not (r > 0 and v > 0):
        raise ValueError("r and v must be positive")
    if p < 1 or n < 1:
        raise ValueError("p and n must be >= 1")
    return 4.0 * float(np.exp(-(r**2) * p**2 * v**2 / (16.0 * n)))


def _binomial_se(clamped_bound: float, reps: int) -> float:
    q = min(clamped_bound, 0.5)
    return float(np.sqrt(q * (1.0 - q) / reps))


def stieltjes_concentration_mc(
    model: PopulationModel, z: complex, reps: int, seed: int
) -> ConcentrationReport:
    """Tail frequencies of |m_p(z) - mean| for M = Y'Y across replicates.

    m_p(z) = (1/p) trace((M - z I)^{-1}) with M the un-normalized Gram
    matrix of the rows. Thresholds sit at {0.5, 1, 2, 4} * sqrt(n)/(p*v);
    each frequency is paired with the clamped exponential bound. details
    holds the thresholds, frequencies and clamped bounds beside the rest.
    """
    if reps < 50:
        raise ValueError("reps must be >= 50")
    z = complex(z)
    if not (z.imag > 0):
        raise ValueError("z must have positive imaginary part")

    def stieltjes(replicate: int) -> complex:
        Y = sample_model(model, seed, replicate)
        return empirical_stieltjes(sym_eigenvalues(Y.T @ Y), z)

    values = np.array(parallel_map(stieltjes, range(reps)), dtype=np.complex128)
    center = values.mean()
    deviations = np.abs(values - center)
    v = z.imag
    scale = np.sqrt(model.n) / (model.p * v)
    thresholds = [mult * scale for mult in _THRESHOLD_MULTIPLES]
    frequencies = [float(np.mean(deviations > r)) for r in thresholds]
    raw_bounds = [azuma_bound(r, model.p, model.n, v) for r in thresholds]
    clamped = [min(b, 1.0) for b in raw_bounds]
    ses = [_binomial_se(b, reps) for b in clamped]
    within = [f <= b + 3.0 * se for f, b, se in zip(frequencies, clamped, ses)]
    details = {
        "std": float(np.sqrt(np.mean(deviations**2))),
        "mean_deviation": float(deviations.mean()),
        "max_deviation": float(deviations.max()),
        "thresholds": thresholds,
        "frequencies": frequencies,
        "bounds": clamped,
        "raw_bounds": raw_bounds,
        "binomial_ses": ses,
        "within_bound": within,
    }
    return ConcentrationReport(
        statistic="stieltjes_tail", dims=[model.p], reps=reps, seed=seed, details=details
    )


def population_covariance(model: PopulationModel) -> NDArray[np.float64]:
    """Covariance of one data row: int lambda^2 dnu * T for its family's row scatter (T, nu)."""
    T, nu = _FAMILIES[model.family].scatter(model)
    return float(nu.integrate(np.square)) * T


def quadratic_form_deviation(model: PopulationModel, reps: int, seed: int) -> ConcentrationReport:
    """Max over rows of |r'r/p - trace(Sigma)/p|, the quadratic form at M = I.

    Each replicate is the norm diagnostic of one draw, its rows centered by
    the model's known mean; Sigma is the known population covariance, so the
    target trace(Sigma)/p is exact.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    target = float(np.trace(population_covariance(model))) / model.d

    def deviation(replicate: int) -> float:
        Y = sample_model(model, seed, replicate)
        Y -= model.location
        return norm_diagnostic(Y, target)[1]

    stats = np.array(parallel_map(deviation, range(reps)))
    details = {
        "mean_max_deviation": float(stats.mean()),
        "max_max_deviation": float(stats.max()),
        "per_replicate": stats.tolist(),
        "target": target,
    }
    return ConcentrationReport(
        statistic="quadratic_form_max_row_deviation",
        dims=[model.d],
        reps=reps,
        seed=seed,
        details=details,
    )


def norm_diagnostic(
    Y, trace_sigma_over_p: float, center: bool = False
) -> tuple[NDArray[np.float64], float]:
    """Per-row ||r||^2/p and the max deviation from trace(Sigma)/p."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.size == 0:
        raise ValueError("Y must be a nonempty 2-d array")
    if not (np.isfinite(trace_sigma_over_p) and trace_sigma_over_p >= 0):
        raise ValueError("trace_sigma_over_p must be finite and >= 0")
    if center:
        Y = Y - Y.mean(axis=0)
    p = Y.shape[1]
    values = np.einsum("ij,ij->i", Y, Y) / p
    max_dev = float(np.max(np.abs(values - trace_sigma_over_p)))
    return values, max_dev


def angle_diagnostic(Y) -> tuple[float, NDArray[np.int64]]:
    """Max off-diagonal |r_i'r_j|/p and its histogram on 50 bins over [0, 1].

    Values above 1 are counted in the top bin so no mass is dropped.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("Y must have at least two rows")
    p = Y.shape[1]
    gram = Y @ Y.T
    gram /= p
    # A boolean mask takes n^2 bytes where np.triu_indices takes n^2 int64s.
    off = gram[np.triu(np.ones(gram.shape, dtype=bool), k=1)]
    del gram
    np.abs(off, out=off)
    angle_max = float(off.max())
    np.minimum(off, 1.0, out=off)
    counts, _ = np.histogram(off, bins=ANGLE_BINS, range=(0.0, 1.0))
    return angle_max, counts.astype(np.int64)


def copula_norm_bound(R) -> float:
    """Operator-norm bound (1/2pi)(s/2 + 4 s^2 (pi/6 - 1/2)), s = ||R||_2."""
    s = operator_norm(as_sym_matrix(R, "R"))
    return (1.0 / (2.0 * np.pi)) * (s / 2.0 + 4.0 * s**2 * (np.pi / 6.0 - 0.5))


def tightness_check(eigs, trace_sigma_over_p: float, margin: float) -> bool:
    """True iff the mass above M = 10(trace+1) is at most (trace+1+margin)/M."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("eigs must be a nonempty 1-d array")
    if np.any(eigs < -1e-10):
        raise ValueError("eigenvalues must be >= -1e-10")
    if trace_sigma_over_p < 0 or margin < 0:
        raise ValueError("trace_sigma_over_p and margin must be >= 0")
    M = 10.0 * (trace_sigma_over_p + 1.0)
    fraction = float(np.mean(eigs >= M))
    return bool(fraction <= (trace_sigma_over_p + 1.0 + margin) / M)


def verify_lemma6(
    reps: int = 200, seed: int = 0, dims: Sequence[int] = (50, 100, 200), z: complex = 1j
) -> tuple[ConcentrationReport, bool]:
    """Tail frequencies vs the exponential bound along a dimension ladder.

    Passes when every frequency is at most its clamped bound plus three
    binomial standard errors and the replicate standard deviation of
    m_p(z) strictly decreases as p = n grows.
    """
    if not dims:
        raise ValueError("dims must be nonempty")
    stds, all_within = [], True
    details_by_dim = []
    for j, p in enumerate(dims):
        model = PopulationModel(family="gaussian", n=p, p=p)
        # Per-dimension seed offset keeps the ladders on disjoint streams.
        report = stieltjes_concentration_mc(model, z, reps, seed + j)
        stds.append(report.details["std"])
        all_within = all_within and all(report.details["within_bound"])
        details_by_dim.append(report.details)
    sd_decreasing = all(b < a for a, b in zip(stds, stds[1:]))
    ok = all_within and sd_decreasing
    combined = ConcentrationReport(
        statistic="stieltjes_tail",
        dims=list(dims),
        reps=reps,
        seed=seed,
        details={
            "stds": stds,
            "sd_strictly_decreasing": sd_decreasing,
            "per_dim": details_by_dim,
            "z": complex(z),
        },
    )
    return combined, ok


def _quadform_models(p: int) -> dict[str, PopulationModel]:
    return {
        "gaussian": PopulationModel(family="gaussian", n=p, p=p),
        "sphere": PopulationModel(family="sphere_elliptical", n=p, p=p),
        "copula": PopulationModel(family="gaussian_copula", n=p, p=p),
    }


def verify_quadform(
    reps: int = 20, seed: int = 0, dims: Sequence[int] = (100, 200, 400)
) -> tuple[ConcentrationReport, bool]:
    """Mean max-row quadratic-form deviation decays along the dimension ladder.

    The form is r'r/p (M = I) for every family; passes when the mean
    statistic is nonincreasing in p for gaussian, sphere, and copula rows
    and the sphere statistic is exactly zero (norm rigidity).
    """
    if not dims:
        raise ValueError("dims must be nonempty")
    means: dict[str, list[float]] = {}
    for p in dims:
        for name, model in _quadform_models(p).items():
            report = quadratic_form_deviation(model, reps, seed)
            means.setdefault(name, []).append(report.details["mean_max_deviation"])
    # Values at rounding-noise level count as zero for the decay check.
    nonincreasing = {
        name: all(
            b <= a or b <= _EXACT_ZERO for a, b in zip(vals, vals[1:])
        )
        for name, vals in means.items()
    }
    sphere_zero = max(means["sphere"]) <= _EXACT_ZERO
    ok = all(nonincreasing.values()) and sphere_zero
    combined = ConcentrationReport(
        statistic="quadratic_form_max_row_deviation",
        dims=list(dims),
        reps=reps,
        seed=seed,
        details={
            "mean_max_deviation": means,
            "nonincreasing": nonincreasing,
            "sphere_exactly_zero": sphere_zero,
        },
    )
    return combined, ok


def verify_copula(
    seed: int = 0,
    trials: int = 100,
    p: int = 50,
    mc_samples: int = 100000,
    mc_p: int = 4,
) -> tuple[ConcentrationReport, bool]:
    """Covariance identity and norm bound for Gaussian-copula data.

    Checks: diagonal of copula_cov(Id) equals 1/12 exactly; the norm
    bound dominates operator_norm(copula_cov(R)) for `trials` random
    correlation matrices; a Monte Carlo covariance at mc_samples draws
    matches copula_cov entrywise within 5 MC standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diag_exact = bool(
        np.all(np.diag(copula_cov(np.eye(3))) == 1.0 / 12.0)
    )

    null = PopulationModel(family="gaussian", n=p + 10, p=p)

    def bound_gap(t: int) -> float:
        R = sample_correlation(sample_model(null, seed, t))
        return float(copula_norm_bound(R) - operator_norm(copula_cov(R)))

    gaps = parallel_map(bound_gap, range(trials))
    bound_ok = all(gap >= 0 for gap in gaps)

    R_mc = toeplitz_corr(mc_p, 0.3)
    X = sample_gaussian_copula(mc_samples, R_mc, seed, replicate=trials)
    emp = (X.T @ X) / mc_samples
    target = copula_cov(R_mc)
    # Entrywise MC standard error of a mean of products x_i x_j.
    second = (X**2).T @ (X**2) / mc_samples
    ses = np.sqrt(np.maximum(second - emp**2, 0.0) / mc_samples)
    mc_ok = bool(np.all(np.abs(emp - target) <= 5.0 * ses))

    ok = diag_exact and bound_ok and mc_ok
    report = ConcentrationReport(
        statistic="copula_covariance",
        dims=[p, mc_p],
        reps=trials,
        seed=seed,
        details={
            "diagonal_exact": diag_exact,
            "bound_dominates": bound_ok,
            "min_bound_gap": min(gaps),
            "mc_within_5_se": mc_ok,
            "mc_max_abs_error": float(np.max(np.abs(emp - target))),
            "mc_samples": mc_samples,
        },
    )
    return report, ok


def verify_tightness(seed: int = 0, p: int = 200) -> tuple[ConcentrationReport, bool]:
    """Spectral mass bound on simulated null data plus an adversarial case.

    A null sample covariance spectrum must pass the check; a spectrum with
    30% of its mass far above the cutoff must fail it.
    """
    model = PopulationModel(family="gaussian", n=p, p=p)
    Y = sample_model(model, seed, 0)
    eigs = sym_eigenvalues(sample_covariance(Y))
    null_ok = tightness_check(eigs, 1.0, 0.0)
    n_heavy = int(round(0.3 * p))
    adversarial = np.concatenate([np.zeros(p - n_heavy), np.full(n_heavy, 1e4)])
    adversarial_flagged = not tightness_check(adversarial, 1.0, 0.0)
    ok = bool(null_ok and adversarial_flagged)
    report = ConcentrationReport(
        statistic="spectral_tightness",
        dims=[p],
        reps=1,
        seed=seed,
        details={
            "null_passes": bool(null_ok),
            "adversarial_flagged": bool(adversarial_flagged),
            "largest_eigenvalue": float(eigs[-1]),
        },
    )
    return report, ok
