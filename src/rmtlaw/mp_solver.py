"""Limiting spectra of sample covariance and correlation matrices.

Solves the self-consistent equation for the companion Stieltjes transform
w(z) of the limiting spectral law with population spectrum H and aspect
ratio rho = p/n, recovers densities and CDFs on real grids by Stieltjes
inversion, and computes the almost-sure limit of the largest eigenvalue.

Both this law and the elliptical one are fixed points w = T(w) of maps
with a closed-form derivative. One array-valued safeguarded-Newton
kernel solves every point of a grid at once, directly at the grid's
height, and one pipeline turns the grid solve into a density, a CDF and
a summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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

# A point's fallback damping is halved after this many consecutive rounds
# without a decrease of its hyperbolic residual; near the real axis the
# undamped map can cycle.
_STALL_LIMIT = 20

# Multiple of eps*|w| that floors tol in the stopping test; evaluating T
# at w rounds by up to about 6*eps*|w|.
_ROUNDING_ULPS = 16.0

# Largest (points x atoms) block one evaluation builds; more points are
# taken in chunks, so memory stays flat in the grid and spectrum sizes.
_BLOCK_ENTRIES = 1 << 15

# Relative width target for the edge bisection.
_BISECT_RTOL = 1e-12

# Density threshold, in units of v_eps, for support detection; the
# comparisons also cut the atom at 0 off there.
SUPPORT_THRESHOLD_V_EPS = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    tol is the target for the absolute residual |T(w) - w| of the fixed
    point map at each point, floored at 16*eps*|w| (eps the float64
    machine epsilon), a margin over the rounding in evaluating T at w;
    the floor matters only where |w| > tol/(16*eps), about 280 at the
    default tol, which happens near x = 0 at a small v_eps. max_iters
    caps the evaluations of the map per point; damping is the initial
    weight d of the fallback step (1-d)w + d*T(w) taken where a Newton
    step is rejected. v_eps is the imaginary offset used for density
    recovery; None means the spectral-scale default
    1e-3 * (1 + max(H)) * max(1, rho).
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
    """Converged transforms at a spectral parameter z or an array of them.

    w is the companion transform, m the Stieltjes transform of the
    spectral law itself; residual is |T(w) - w| at the returned w. For an
    array z, z, w and m are arrays, residual is the largest residual and
    iterations the summed evaluation count.
    """

    z: Union[complex, NDArray[np.complex128]]
    w: Union[complex, NDArray[np.complex128]]
    m: Union[complex, NDArray[np.complex128]]
    residual: float
    iterations: int


@dataclass(frozen=True)
class EdgeResult:
    """Largest-eigenvalue limit mu and the scale parameter c0 behind it."""

    c0: float
    mu: float
    rho: float


# step(w, idx) -> (T(w), T'(w)) at the active points idx of a kernel solve.
_Step = Callable[
    [NDArray[np.complex128], NDArray[np.intp]],
    tuple[NDArray[np.complex128], NDArray[np.complex128]],
]


def default_v_eps(H: DiscreteMeasure, rho: float) -> float:
    """Imaginary offset matched to the spectral scale of (H, rho)."""
    return 1e-3 * (1.0 + H.support_max) * max(1.0, float(rho))


def _pole_sums(
    a, c: NDArray[np.complex128], x: NDArray[np.float64], p1, p2=None
) -> tuple[NDArray[np.complex128], Optional[NDArray[np.complex128]]]:
    """Per point k: sum_j p1_j/(a_k + c_k x_j) and sum_j p2_j/(a_k + c_k x_j)^2.

    a is a scalar or matches c; the sums are matrix-vector products over
    a (points x atoms) block of at most _BLOCK_ENTRIES entries, taken
    chunk by chunk over the points. A pole gives a non-finite sum. The
    products run in numpy's own single-threaded loop (einsum), not BLAS:
    each point's sum is then the same bytes whatever the BLAS library,
    its thread count or the chunking, and no BLAS threads wait on a busy
    core for blocks this small.
    """
    a = np.broadcast_to(a, c.shape)
    s1 = np.empty(c.shape, dtype=np.complex128)
    s2 = None if p2 is None else np.empty(c.shape, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // x.size)
    for lo in range(0, c.size, rows):
        sl = slice(lo, lo + rows)
        block = np.multiply.outer(c[sl], x)
        block += a[sl, None]
        np.reciprocal(block, out=block)
        s1[sl] = np.einsum("ij,j->i", block, p1)
        if s2 is not None:
            block *= block
            s2[sl] = np.einsum("ij,j->i", block, p2)
    return s1, s2


def _hyperbolic_residual(
    w: NDArray[np.complex128], t: NDArray[np.complex128]
) -> NDArray[np.float64]:
    """|t - w| / sqrt(Im w * Im t), the hyperbolic distance of w and t in C+
    to first order; inf or nan off C+."""
    with np.errstate(all="ignore"):
        return np.abs(t - w) / np.sqrt(np.maximum(w.imag, 0.0) * np.maximum(t.imag, 0.0))


def _stop_bound(w: NDArray[np.complex128], tol: float) -> NDArray[np.float64]:
    """Residual bound at w: tol, or _ROUNDING_ULPS * eps * |w| where larger."""
    return np.maximum(tol, _ROUNDING_ULPS * np.finfo(np.float64).eps * np.abs(w))


def _newton_fixed_point(
    step: _Step, w0: NDArray[np.complex128], cfg: SolverConfig
) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.int64]]:
    """Safeguarded Newton: drive |T(w) - w| below _stop_bound everywhere.

    step(w, idx) returns T(w) and T'(w) for the points idx still active;
    T maps C+ into C+. Each round tries a Newton step on T(w) - w and
    keeps it where it meets that bound or lowers the step w -> T(w)
    measured in the hyperbolic metric of C+ (so the step stays in C+);
    elsewhere it takes the damped fixed-point step (1-d)w + d*T(w), which
    maps C+ into C+. By the Schwarz-Pick lemma that measure never grows
    under the undamped step, whereas |T(w) - w| grows on the way to a
    large w (z near 0 with rho just below 1). A point's d starts at
    cfg.damping and is halved after _STALL_LIMIT rounds without a
    decrease. Every round costs each
    active point one evaluation; converged points leave the active set,
    and no point is evaluated more than cfg.max_iters times. Returns (w,
    residual |T(w) - w|, evaluations) per point.
    """
    n = w0.size
    w_out = np.empty(n, dtype=np.complex128)
    res_out = np.empty(n)
    evals_out = np.empty(n, dtype=np.int64)
    idx = np.arange(n)
    w = w0
    with np.errstate(all="ignore"):
        t, dt = step(w, idx)
    r = np.abs(t - w)
    if not np.all(np.isfinite(r)):
        raise NumericalError(
            "fixed-point iterate diverged", index=int(np.argmin(np.isfinite(r)))
        )
    h = _hyperbolic_residual(w, t)
    d = np.full(n, float(cfg.damping))
    stall = np.zeros(n, dtype=np.int64)
    newton = np.ones(n, dtype=bool)
    rounds = 1
    while True:
        done = r <= _stop_bound(w, cfg.tol)
        if done.any():
            w_out[idx[done]] = w[done]
            res_out[idx[done]] = r[done]
            evals_out[idx[done]] = rounds
            keep = ~done
            idx, w, t, dt, r, h, d, stall, newton = (
                a[keep] for a in (idx, w, t, dt, r, h, d, stall, newton)
            )
        if idx.size == 0:
            return w_out, res_out, evals_out
        if rounds >= cfg.max_iters:
            worst = int(np.argmax(r))
            raise ConvergenceError(
                "fixed-point iteration did not converge",
                residual=float(r[worst]),
                iterations=rounds,
                index=int(idx[worst]),
            )
        with np.errstate(all="ignore"):
            cand = w - (t - w) / (dt - 1.0)
            use = newton & np.isfinite(cand) & (cand.imag > 0)
            cand = np.where(use, cand, (1.0 - d) * w + d * t)
            tc, dtc = step(cand, idx)
            rc = np.abs(tc - cand)
        rounds += 1
        diverged = ~use & ~np.isfinite(rc)
        if diverged.any():
            raise NumericalError(
                "fixed-point iterate diverged", index=int(idx[np.argmax(diverged)])
            )
        hc = _hyperbolic_residual(cand, tc)
        decreased = hc < h
        accept = ~use | decreased | (rc <= _stop_bound(cand, cfg.tol))
        w = np.where(accept, cand, w)
        t = np.where(accept, tc, t)
        dt = np.where(accept, dtc, dt)
        r = np.where(accept, rc, r)
        h = np.where(accept, hc, h)
        newton = accept
        stall = np.where(decreased, 0, stall + 1)
        halve = stall >= _STALL_LIMIT
        d = np.where(halve, 0.5 * d, d)
        stall[halve] = 0


def _as_points(z) -> tuple[NDArray[np.complex128], bool]:
    """z as a 1-d complex array, and whether it was given as a scalar."""
    z_arr = np.asarray(z, dtype=np.complex128)
    if z_arr.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array")
    points = np.atleast_1d(z_arr)
    if points.size == 0:
        raise ValueError("z must hold at least one point")
    if not np.all(points.imag > 0):
        raise ValueError("z must have positive imaginary part")
    return points, z_arr.ndim == 0


def _start(w0, default: NDArray[np.complex128]) -> NDArray[np.complex128]:
    if w0 is None:
        return default
    return np.broadcast_to(np.asarray(w0, dtype=np.complex128), default.shape).copy()


def _transform_result(z, w, m, residual, evals, scalar: bool) -> TransformResult:
    if scalar:
        return TransformResult(
            z=complex(z[0]),
            w=complex(w[0]),
            m=complex(m[0]),
            residual=float(residual[0]),
            iterations=int(evals[0]),
        )
    return TransformResult(
        z=z, w=w, m=m, residual=float(residual.max()), iterations=int(evals.sum())
    )


def _check_upper_half_plane(z, w, m) -> None:
    """Raise at the first point where w or m has a negative imaginary part."""
    bad = np.flatnonzero((np.imag(w) < 0) | (np.imag(m) < 0))
    if bad.size:
        i = int(bad[0])
        zi, wi, mi = (complex(np.ravel(a)[i]) for a in (z, w, m))
        raise NumericalError(
            f"solution left the upper half-plane at z={zi!r}: "
            f"Im(w)={wi.imag:.3e}, Im(m)={mi.imag:.3e}",
            index=i,
        )


def mp_m_from_w(z, w, rho: float):
    """Stieltjes transform of the spectral law from its companion transform."""
    return (w + (1.0 - rho) / z) / rho


def mp_companion_solve(
    z,
    H: DiscreteMeasure,
    rho: float,
    cfg: SolverConfig | None = None,
    w0=None,
) -> TransformResult:
    """Solve -1/w = z - rho * int lam dH(lam)/(1 + lam*w) for w in C+.

    H is the population spectral law (support in [0, inf)), rho = p/n.
    The returned m satisfies w = -(1 - rho)/z + rho*m. z (and w0) may be
    a scalar or a 1-d array; an array is solved at once and gives array
    z, w and m, the largest residual and the summed evaluation count.
    """
    z, scalar = _as_points(z)
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if H.support_min < 0:
        raise ValueError("H must be supported on [0, inf)")
    cfg = cfg or SolverConfig()
    lam = H.values
    p1 = H.weights * lam
    p2 = p1 * lam

    def step(w, idx):
        s1, s2 = _pole_sums(1.0, w, lam, p1, p2)
        t = -1.0 / (z[idx] - rho * s1)
        return t, rho * s2 * t * t

    w, residual, evals = _newton_fixed_point(step, _start(w0, -1.0 / z), cfg)
    m = mp_m_from_w(z, w, rho)
    _check_upper_half_plane(z, w, m)
    return _transform_result(z, w, m, residual, evals, scalar)


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
    solve_at: Callable[[NDArray[np.complex128]], TransformResult],
    xs,
    v: float,
    atom0: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], TransformResult, dict]:
    """Grid solve, inversion and summary shared by both laws.

    One array solve at xs + iv from the law's own start: the fixed point
    of a self-map of C+ is unique and attracting, so no continuation
    from greater heights is needed. A failure names the grid point it
    happened at. Returns (xs, density, cdf, result, stats), result being
    that solve, with stats {atom0_mass, max_residual, v_eps,
    support_estimate}; the support is the span of density above
    SUPPORT_THRESHOLD_V_EPS * v.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("xs must be a 1-d grid with at least two points")
    if not np.all(np.isfinite(xs)):
        raise ValueError("xs must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly ascending")
    try:
        result = solve_at(xs + 1j * v)
    except NumericalError as exc:
        x = float(xs[exc.index or 0])
        raise NumericalError(
            f"density grid failed at x={x!r}: {exc}", index=exc.index
        ) from exc
    density, cdf = _invert_to_density(xs, result.m, v, atom0)
    stats = {
        "atom0_mass": atom0,
        "max_residual": result.residual,
        "v_eps": v,
        "support_estimate": estimate_support(xs, density, SUPPORT_THRESHOLD_V_EPS * v),
    }
    return xs, density, cdf, result, stats


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

    def solve_at(z) -> TransformResult:
        return mp_companion_solve(z, H, rho, cfg)

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
