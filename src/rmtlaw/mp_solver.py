"""Limiting spectra of sample covariance and correlation matrices.

Solves the self-consistent equation for the companion Stieltjes transform
w(z) of the limiting spectral law with population spectrum H and aspect
ratio rho = p/n, recovers densities and CDFs on real grids by Stieltjes
inversion, and computes the almost-sure limit of the largest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, NumericalError
from .measures import DiscreteMeasure

__all__ = [
    "SolverConfig",
    "TransformResult",
    "EdgeResult",
    "default_v_eps",
    "mp_companion_solve",
    "mp_m_from_w",
    "density_grid",
    "density_grid_detailed",
    "estimate_support",
    "edge_c0_solve",
    "edge_mu",
    "solve_edge",
]

# Damping is halved after this many consecutive iterations without a
# residual decrease; near the real axis the undamped map can cycle.
_STALL_LIMIT = 20

# Relative width target for the edge bisection.
_BISECT_RTOL = 1e-12

# Density threshold, in units of v_eps, for support detection; the
# comparisons also cut the atom at 0 off there.
SUPPORT_THRESHOLD_V_EPS = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs.

    v_eps is the imaginary offset used for density recovery; None means
    the spectral-scale default 1e-3 * (1 + max(H)) * max(1, rho).
    """

    tol: float = 1e-12
    max_iters: int = 10000
    damping: float = 1.0
    v_eps: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must be in (0, 1]")
        if self.v_eps is not None and not (self.v_eps > 0):
            raise ValueError("v_eps must be positive")


@dataclass(frozen=True)
class TransformResult:
    """Converged transforms at one spectral parameter z.

    w is the companion transform, m the Stieltjes transform of the
    spectral law itself; residual is re-evaluated after convergence.
    """

    z: complex
    w: complex
    m: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class EdgeResult:
    """Largest-eigenvalue limit mu and the scale parameter c0 behind it."""

    c0: float
    mu: float
    rho: float


def default_v_eps(H: DiscreteMeasure, rho: float) -> float:
    """Imaginary offset matched to the spectral scale of (H, rho)."""
    return 1e-3 * (1.0 + H.support_max) * max(1.0, float(rho))


def _damped_fixed_point(
    step: Callable[[complex], complex], w0: complex, cfg: SolverConfig
) -> tuple[complex, int, float]:
    """Drive |step(w) - w| below tol by damped iteration plus Aitken steps.

    The backbone is w <- (1-d)w + d*step(w) with the damping d halved
    after 20 consecutive non-decreasing residuals. Because the map's
    contraction rate degrades to 1 - O(Im z) inside the spectral bulk,
    each cycle also tries an Aitken delta-squared extrapolation; the
    extrapolated point is accepted only if it stays in the closed upper
    half-plane and strictly reduces the residual, so the safeguarded
    iteration inherits the damped map's global behavior. Returns
    (w, evaluations, residual) with the residual evaluated at the
    returned w, independently of the update path.
    """

    def apply(w: complex) -> complex:
        fw = step(w)
        if not (np.isfinite(fw.real) and np.isfinite(fw.imag)):
            raise NumericalError("fixed-point iterate diverged")
        return fw

    w = complex(w0)
    delta = cfg.damping
    prev_residual = np.inf
    stall = 0
    residual = np.inf
    evals = 0
    while evals < cfg.max_iters:
        fw = apply(w)
        evals += 1
        residual = abs(fw - w)
        if residual <= cfg.tol:
            return w, evals, residual
        if residual >= prev_residual:
            stall += 1
            if stall >= _STALL_LIMIT:
                delta *= 0.5
                stall = 0
        else:
            stall = 0
        prev_residual = residual

        if evals >= cfg.max_iters:
            break
        f2 = apply(fw)
        evals += 1
        residual = abs(f2 - fw)
        if residual <= cfg.tol:
            return fw, evals, residual
        accelerated = None
        denom = f2 - 2.0 * fw + w
        if denom != 0:
            candidate = w - (fw - w) ** 2 / denom
            if (
                np.isfinite(candidate.real)
                and np.isfinite(candidate.imag)
                and candidate.imag >= 0
                and evals < cfg.max_iters
            ):
                f3 = apply(candidate)
                evals += 1
                res3 = abs(f3 - candidate)
                if res3 <= cfg.tol:
                    return candidate, evals, res3
                if res3 < residual:
                    accelerated = (candidate, res3)
        if accelerated is not None:
            w, prev_residual = accelerated
        else:
            w = (1.0 - delta) * fw + delta * f2
            prev_residual = residual
    raise ConvergenceError(
        "fixed-point iteration did not converge",
        residual=float(residual),
        iterations=evals,
    )


def _check_upper_half_plane(z: complex, w: complex, m: complex) -> None:
    if w.imag < 0 or m.imag < 0:
        raise NumericalError(
            f"solution left the upper half-plane at z={z!r}: "
            f"Im(w)={w.imag:.3e}, Im(m)={m.imag:.3e}"
        )


def mp_m_from_w(z: complex, w: complex, rho: float) -> complex:
    """Stieltjes transform of the spectral law from its companion transform."""
    return (w + (1.0 - rho) / z) / rho


def mp_companion_solve(
    z: complex,
    H: DiscreteMeasure,
    rho: float,
    cfg: SolverConfig | None = None,
    w0: complex | None = None,
) -> TransformResult:
    """Solve -1/w = z - rho * int lam dH(lam)/(1 + lam*w) for w in C+.

    H is the population spectral law (support in [0, inf)), rho = p/n.
    The returned m satisfies w = -(1 - rho)/z + rho*m.
    """
    z = complex(z)
    if not (z.imag > 0):
        raise ValueError("z must have positive imaginary part")
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if H.support_min < 0:
        raise ValueError("H must be supported on [0, inf)")
    cfg = cfg or SolverConfig()

    def step(w: complex) -> complex:
        return -1.0 / (z - rho * H.integrate(lambda lam: lam / (1.0 + lam * w)))

    start = w0 if w0 is not None else -1.0 / z
    w, iterations, residual = _damped_fixed_point(step, start, cfg)
    m = mp_m_from_w(z, w, rho)
    _check_upper_half_plane(z, w, m)
    return TransformResult(z=z, w=w, m=m, residual=residual, iterations=iterations)


def _ladder_rungs(v: float) -> list[float]:
    """Imaginary offsets stepping geometrically from 1 down to v."""
    rungs = []
    u = 1.0
    while u > v:
        rungs.append(u)
        u *= 0.5
    rungs.append(v)
    return rungs


def _solve_grid(
    solve_at: Callable[[complex, Optional[complex]], TransformResult],
    xs: NDArray[np.float64],
    v: float,
) -> list[TransformResult]:
    """Continuation along a real grid at height v.

    The first point descends an imaginary-part ladder from 1 to v; every
    later point warm-starts from its left neighbor's w.
    """
    results: list[TransformResult] = []
    w_prev: Optional[complex] = None
    for j, x in enumerate(xs):
        try:
            if j == 0:
                for rung in _ladder_rungs(v):
                    res = solve_at(complex(x, rung), w_prev)
                    w_prev = res.w
            else:
                res = solve_at(complex(x, v), w_prev)
                w_prev = res.w
        except (ConvergenceError, NumericalError) as exc:
            raise NumericalError(f"density grid failed at x={x!r}: {exc}") from exc
        results.append(res)
    return results


def _invert_to_density(
    xs: NDArray[np.float64], ms: NDArray[np.complex128], v: float, atom0: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Continuous density and CDF from m(x + iv) values.

    A point mass at 0 shows up in Im(m)/pi as a Lorentzian bump of width
    v; it is removed from the density and added to the CDF exactly, since
    inversion at finite v cannot resolve an atom.
    """
    density = np.imag(ms) / np.pi
    if atom0 > 0:
        density = density - atom0 * (v / np.pi) / (xs**2 + v**2)
    density = np.maximum(density, 0.0)
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs)))
    )
    if atom0 > 0:
        cdf = cdf + atom0 * (xs >= 0)
    return density, cdf


def _density_on_grid(
    solve_at: Callable[[complex, Optional[complex]], TransformResult],
    xs,
    v: float,
    atom0: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], list, dict]:
    """Grid solve, inversion and summary shared by both laws.

    Returns (xs, density, cdf, results, stats) with stats {atom0_mass,
    max_residual, v_eps, support_estimate}; the support is the span of
    density above SUPPORT_THRESHOLD_V_EPS * v.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("xs must be a 1-d grid with at least two points")
    if not np.all(np.isfinite(xs)):
        raise ValueError("xs must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly ascending")
    results = _solve_grid(solve_at, xs, v)
    ms = np.array([r.m for r in results], dtype=np.complex128)
    density, cdf = _invert_to_density(xs, ms, v, atom0)
    stats = {
        "atom0_mass": atom0,
        "max_residual": max(r.residual for r in results),
        "v_eps": v,
        "support_estimate": estimate_support(xs, density, SUPPORT_THRESHOLD_V_EPS * v),
    }
    return xs, density, cdf, results, stats


def density_grid_detailed(
    H: DiscreteMeasure,
    rho: float,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], dict]:
    """density_grid plus its stats, which solve-mp prints as its summary.

    stats: {rho, atom0_mass, max_residual, v_eps, support_estimate}.
    """
    if not (rho > 0):
        raise ValueError("rho must be positive")
    cfg = cfg or SolverConfig()
    v = cfg.v_eps if cfg.v_eps is not None else default_v_eps(H, rho)

    def solve_at(z: complex, w0: Optional[complex]) -> TransformResult:
        return mp_companion_solve(z, H, rho, cfg, w0=w0)

    atom0 = max(0.0, 1.0 - 1.0 / rho)
    xs, density, cdf, _, stats = _density_on_grid(solve_at, xs, v, atom0)
    stats["rho"] = rho
    return xs, density, cdf, stats


def density_grid(
    H: DiscreteMeasure,
    rho: float,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Density and CDF of the limiting spectral law on a real grid.

    Returns (xs, density, cdf). The CDF includes the point mass
    max(0, 1 - 1/rho) at 0 that appears when p > n.
    """
    return density_grid_detailed(H, rho, xs, cfg)[:3]


def estimate_support(
    xs: NDArray[np.float64], density: NDArray[np.float64], threshold: float
) -> Optional[tuple[float, float]]:
    """Interval spanned by grid points with density above threshold."""
    idx = np.nonzero(np.asarray(density) > threshold)[0]
    if idx.size == 0:
        return None
    xs = np.asarray(xs)
    return float(xs[idx[0]]), float(xs[idx[-1]])


def edge_c0_solve(H: DiscreteMeasure, n_over_p: float) -> float:
    """Unique c0 in (0, 1/max(H)) with int (lam*c/(1-lam*c))^2 dH = n/p.

    The integrand is strictly increasing in c on the interval, so bisection
    converges unconditionally; resolved to 1e-12 relative width.
    """
    if not (n_over_p > 0):
        raise ValueError("n_over_p must be positive")
    if H.support_min <= 0:
        raise ValueError("H must be supported on (0, inf)")
    lam_max = H.support_max

    def g(c: float) -> float:
        return float(H.integrate(lambda lam: (lam * c / (1.0 - lam * c)) ** 2))

    lo = 0.0
    hi = (1.0 - 1e-12) / lam_max
    if g(hi) <= n_over_p:
        raise NumericalError(
            f"no interior solution: the edge equation cannot reach n/p={n_over_p!r} "
            f"inside (0, 1/{lam_max!r})"
        )
    while hi - lo > _BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) < n_over_p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def edge_mu(H: DiscreteMeasure, p_over_n: float, c0: float) -> float:
    """Largest-eigenvalue limit (1/c0)(1 + p/n * int lam*c0/(1-lam*c0) dH)."""
    if H.support_min <= 0:
        raise ValueError("H must be supported on (0, inf)")
    if not (0 < c0 < 1.0 / H.support_max):
        raise ValueError("c0 must lie in (0, 1/max(H))")
    if not (p_over_n > 0):
        raise ValueError("p_over_n must be positive")
    integral = float(H.integrate(lambda lam: lam * c0 / (1.0 - lam * c0)))
    return (1.0 / c0) * (1.0 + p_over_n * integral)


def solve_edge(H: DiscreteMeasure, n_over_p: float) -> EdgeResult:
    """Edge scale c0 and largest-eigenvalue limit mu for aspect n/p."""
    c0 = edge_c0_solve(H, n_over_p)
    mu = edge_mu(H, 1.0 / n_over_p, c0)
    return EdgeResult(c0=c0, mu=mu, rho=1.0 / n_over_p)
