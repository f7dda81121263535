"""Limiting spectra of sample covariance and correlation matrices.

Solves the self-consistent equation for the companion Stieltjes transform
w(z) of the limiting spectral law with population spectrum H and aspect
ratio rho = p/n, recovers densities on real grids by Stieltjes inversion
and CDFs from the law's log-potential, and computes the almost-sure
limit of the largest eigenvalue, with its scale c0, from H and n/p alone.

Both this law and the elliptical one are fixed points w = T(w) of maps
with a closed-form derivative. One array-valued safeguarded-Newton
kernel solves a grid directly at its height in two passes, coarse to
fine: every _COARSE_STRIDE-th point from the law's own start, the rest
from the interpolation of their solved neighbours. One pipeline turns
the grid solve into a density, a CDF and a summary.
"""

from __future__ import annotations

import math
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
    "density_grid_detailed",
    "estimate_support",
    "support_hull",
    "solve_edge",
]

# Multiple of eps*|w| that floors tol in the stopping test; evaluating T
# at w rounds by up to about 6*eps*|w|.
_ROUNDING_ULPS = 16.0

# Largest (points x atoms) block one evaluation builds; more points are
# taken in chunks, so memory stays flat in the grid and spectrum sizes.
_BLOCK_ENTRIES = 1 << 15

# Relative width target for the edge bisection, and the relative gap its
# brackets keep from a pole c = 1/lam of the edge equation.
_BISECT_RTOL = 1e-12
_POLE_GAP = 1e-12

# The coarse pass of a grid solve takes every _COARSE_STRIDE-th point and
# the last.
_COARSE_STRIDE = 8

# Density threshold, in units of v_eps, for support detection; the
# comparisons also cut the atom at 0 off there.
SUPPORT_THRESHOLD_V_EPS = 10.0

# Default law grids: DEFAULT_GRID_COUNT points, reaching GRID_PAD past the
# detected support (solve commands) or the top eigenvalue (comparisons).
DEFAULT_GRID_COUNT = 400
GRID_PAD = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    tol is the target for the absolute residual |T(w) - w| of the fixed
    point map at each point, floored at 16*eps*|w| (eps the float64
    machine epsilon), a margin over the rounding in evaluating T at w;
    the floor matters only where |w| > tol/(16*eps), about 280 at the
    default tol, which happens near x = 0 at a small v_eps. max_iters
    caps the evaluations of the map per point. Where a Newton step is
    rejected the solver takes the plain step w -> T(w), which needs no
    damping: T is a holomorphic self-map of C+, so by the Schwarz-Pick
    lemma that step lowers the hyperbolic residual the solver accepts
    steps by. v_eps is the imaginary offset used for density recovery;
    None means the spectral-scale default 1e-3 * (1 + max(H)) * max(1, rho).
    """

    tol: float = 1e-12
    max_iters: int = 10000
    v_eps: Optional[float] = None

    def __post_init__(self) -> None:
        _check_ratio(self.tol, "tol")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.v_eps is not None:
            _check_ratio(self.v_eps, "v_eps")


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

# solve(z, w0) -> the law's transforms at z, from w0 or, if None, its own start.
_Solve = Callable[[NDArray[np.complex128], Optional[NDArray[np.complex128]]], TransformResult]


def _check_ratio(x: float, name: str) -> None:
    """Raise ValueError unless x is positive and finite: an aspect ratio, a
    scale or a solver tolerance, where inf would only fail later as a
    numerical error or pass every convergence test."""
    if not (0.0 < x < math.inf):
        raise ValueError(f"{name} must be positive and finite")


def default_v_eps(H: DiscreteMeasure, rho: float) -> float:
    """Imaginary offset matched to the spectral scale of (H, rho)."""
    return 1e-3 * (1.0 + H.support_max) * max(1.0, float(rho))


def _pole_sums(
    a, c: NDArray[np.complex128], x: NDArray[np.float64], p1, p2=None
) -> tuple[NDArray[np.complex128], Optional[NDArray[np.complex128]]]:
    """Per point k: sum_j p1_j/(a_k + c_k x_j) and sum_j p2_j/(a_k + c_k x_j)^2.

    a is a scalar or matches c; the sums are matrix-vector products over
    a (points x atoms) block of at most _BLOCK_ENTRIES entries, taken
    chunk by chunk over the points into one buffer. A pole gives a
    non-finite sum. The products run in numpy's own single-threaded loop
    (einsum), not BLAS: each point's sum is then the same bytes whatever
    the BLAS library, its thread count or the chunking, and no BLAS
    threads wait on a busy core for blocks this small.
    """
    a = np.broadcast_to(a, c.shape)
    s1 = np.empty(c.shape, dtype=np.complex128)
    s2 = None if p2 is None else np.empty(c.shape, dtype=np.complex128)
    rows = max(1, min(c.size, _BLOCK_ENTRIES // x.size))
    buf = np.empty((rows, x.size), dtype=np.complex128)
    for lo in range(0, c.size, rows):
        sl = slice(lo, lo + rows)
        block = np.multiply.outer(c[sl], x, out=buf[: c[sl].size])
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
    elsewhere it takes the plain step w -> T(w). T is a holomorphic
    self-map of C+, so by the Schwarz-Pick lemma that step lowers the
    hyperbolic measure, whereas |T(w) - w| grows on the way to a large w
    (z near 0 with rho just below 1). Every round costs each active point
    one evaluation; converged points leave the active set, and no point
    is evaluated more than cfg.max_iters times. Returns (w, residual
    |T(w) - w|, evaluations) per point.
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
    newton = np.ones(n, dtype=bool)
    rounds = 1
    while True:
        done = r <= _stop_bound(w, cfg.tol)
        if done.any():
            w_out[idx[done]] = w[done]
            res_out[idx[done]] = r[done]
            evals_out[idx[done]] = rounds
            keep = ~done
            idx, w, t, dt, r, h, newton = (a[keep] for a in (idx, w, t, dt, r, h, newton))
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
            cand = np.where(use, cand, t)
            tc, dtc = step(cand, idx)
            rc = np.abs(tc - cand)
        rounds += 1
        diverged = ~use & ~np.isfinite(rc)
        if diverged.any():
            raise NumericalError(
                "fixed-point iterate diverged", index=int(idx[np.argmax(diverged)])
            )
        hc = _hyperbolic_residual(cand, tc)
        accept = ~use | (hc < h) | (rc <= _stop_bound(cand, cfg.tol))
        w = np.where(accept, cand, w)
        t = np.where(accept, tc, t)
        dt = np.where(accept, dtc, dt)
        r = np.where(accept, rc, r)
        h = np.where(accept, hc, h)
        newton = accept


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


def _start(w0, z: NDArray[np.complex128], a, b, c) -> NDArray[np.complex128]:
    """w0 broadcast to z or, when w0 is None, the one-atom start.

    A given w0 must be finite, in C+ and broadcast to z: a start off C+
    can converge to a fixed point off C+. The one-atom start is the C+
    root of a*w^2 + b*w + c = 0, the law's fixed-point equation for a
    one-atom population, and so exact there; elsewhere it is close in
    scale. The root comes from the cancellation-free quadratic
    formula: q = -(b + d)/2 with d = +-sqrt(b^2 - 4ac) signed so that
    Re(conj(b) d) >= 0, and the roots q/a and c/q (at a = 0, c/q = -c/b is
    the only root). Where no root is finite and strictly in C+, the start
    is the large-z value -c/z.
    """
    if w0 is not None:
        w0 = np.asarray(w0, dtype=np.complex128)
        try:
            w0 = np.broadcast_to(w0, z.shape)
        except ValueError:
            raise ValueError(
                f"w0 of shape {w0.shape} does not broadcast to z of shape {z.shape}"
            ) from None
        if not np.all(np.isfinite(w0) & (w0.imag > 0)):
            raise ValueError("w0 must be finite with positive imaginary part")
        return w0.copy()
    with np.errstate(all="ignore"):
        d = np.sqrt(b * b - 4.0 * a * c)
        d = np.where((np.conj(b) * d).real < 0, -d, d)
        q = -0.5 * (b + d)
        r1, r2 = q / a, c / q
        root = np.where(r1.imag >= r2.imag, r1, r2)
        return np.where(np.isfinite(root) & (root.imag > 0), root, -c / z)


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


def mp_companion_solve(
    z,
    H: DiscreteMeasure,
    rho: float,
    cfg: SolverConfig | None = None,
    w0=None,
) -> TransformResult:
    """Solve -1/w = z - rho * int lam dH(lam)/(1 + lam*w) for w in C+.

    H is the population spectral law (support in [0, inf)), rho = p/n.
    The returned m satisfies w = -(1 - rho)/z + rho*m. z (and w0, which
    must be finite and in C+) may be a scalar or a 1-d array; an array is solved at once and gives array
    z, w and m, the largest residual and the summed evaluation count. The
    default w0 is the exact w for H = delta_s, s = mean(H).
    """
    _check_ratio(rho, "rho")
    if H.support_min < 0:
        raise ValueError("H must be supported on [0, inf)")
    z, scalar = _as_points(z)
    cfg = cfg or SolverConfig()
    lam = H.values
    p1 = H.weights * lam
    p2 = p1 * lam

    def step(w, idx):
        s1, s2 = _pole_sums(1.0, w, lam, p1, p2)
        t = -1.0 / (z[idx] - rho * s1)
        return t, rho * s2 * t * t

    # H = delta_s gives s*z*w^2 + (z + s*(1 - rho))*w + 1 = 0, s = mean(H);
    # at s = 0 its one root is -1/z, exact for H = delta_0.
    s = H.mean
    w0 = _start(w0, z, s * z, z + s * (1.0 - rho), 1.0)
    w, residual, evals = _newton_fixed_point(step, w0, cfg)
    m = (w + (1.0 - rho) / z) / rho
    _check_upper_half_plane(z, w, m)
    return _transform_result(z, w, m, residual, evals, scalar)


def _arg_sums(a, c: NDArray[np.complex128], x: NDArray[np.float64], p) -> NDArray[np.float64]:
    """Per point k: sum_j p_j arg(a_k + c_k x_j), each arg in (-pi, pi].

    a is a scalar or matches c. Each arg is the real arctan2 of the
    term's imaginary and real parts, summed over blocks as in _pole_sums.
    Every caller's terms lie in one closed half-plane, so no arg crosses
    its branch cut.
    """
    a = np.broadcast_to(np.asarray(a, dtype=np.complex128), c.shape)
    out = np.empty(c.shape)
    rows = max(1, _BLOCK_ENTRIES // x.size)
    for lo in range(0, c.size, rows):
        sl = slice(lo, lo + rows)
        im = np.multiply.outer(c[sl].imag, x)
        im += a[sl, None].imag
        re = np.multiply.outer(c[sl].real, x)
        re += a[sl, None].real
        np.arctan2(im, re, out=im)
        out[sl] = np.einsum("ij,j->i", im, p)
    return out


def _cauchy_cdf(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    """C_v(x) = 1/2 + arctan(x/v)/pi at z = x + iv: a point mass at 0
    convolved with the Cauchy kernel of width v."""
    return np.arctan2(z.imag, -z.real) / np.pi


def _mp_smoothed_cdf(
    z: NDArray[np.complex128], w: NDArray[np.complex128], H: DiscreteMeasure, rho: float
) -> NDArray[np.float64]:
    """F_v(x): the covariance law convolved with the Cauchy kernel of width v.

    The companion law (1 - rho) delta_0 + rho F has the log-potential
    L(z) = -z*w - log w + rho * int log(1 + lam*w) dH(lam), with L' = -w
    since L is stationary in w at the fixed point (Silverstein and Choi,
    J. Multivariate Anal. 54, 1995); -Im(L)/pi is that law convolved with
    the kernel. Im(1 + lam*w) >= 0, so every arg is continuous in z.
    """
    arg_h = _arg_sums(1.0, w, H.values, H.weights)
    companion = (np.imag(z * w) + np.angle(w) - rho * arg_h) / np.pi
    return (companion - (1.0 - rho) * _cauchy_cdf(z)) / rho


def _solve_grid(solve: _Solve, z: NDArray[np.complex128]) -> TransformResult:
    """Transforms at every point of a grid z = xs + iv, coarse to fine.

    solve is the law's transform solve. The coarse pass solves every
    _COARSE_STRIDE-th point and the last from the law's own start. w is
    analytic in z (Silverstein and Choi, J. Multivariate Anal. 54, 1995),
    so the fine pass starts each other point from the linear
    interpolation in x of the coarse w, a convex combination of points of
    C+ and so in C+. Where every coarse point converged on its first
    evaluation the law's own start is exact (one-atom laws), and the fine
    pass keeps it. A NumericalError from either pass names its grid index
    and x.
    """
    xs = z.real
    coarse = np.zeros(z.size, dtype=bool)
    coarse[::_COARSE_STRIDE] = True
    coarse[-1] = True
    w = np.empty(z.shape, dtype=np.complex128)
    m = np.empty(z.shape, dtype=np.complex128)

    def solve_pass(mask, w0) -> TransformResult:
        try:
            result = solve(z[mask], w0)
        except NumericalError as exc:
            # The same exception, class and fields kept, naming its grid point.
            exc.index = int(np.flatnonzero(mask)[exc.index or 0])
            exc.x = float(xs[exc.index])
            exc.args = (f"density grid failed at x={exc.x!r}: {exc}",)
            raise
        w[mask], m[mask] = result.w, result.m
        return result

    first = solve_pass(coarse, None)
    fine = ~coarse
    if not fine.any():
        return first
    w0 = None
    if first.iterations > first.w.size:
        at, known = xs[fine], xs[coarse]
        w0 = np.interp(at, known, first.w.real) + 1j * np.interp(at, known, first.w.imag)
    second = solve_pass(fine, w0)
    return TransformResult(
        z=z,
        w=w,
        m=m,
        residual=max(first.residual, second.residual),
        iterations=first.iterations + second.iterations,
    )


def _density_on_grid(
    solve: _Solve,
    smooth: Callable[
        [NDArray[np.complex128], TransformResult], tuple[NDArray[np.float64], dict]
    ],
    xs,
    v: float,
    atom0: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], dict]:
    """Grid solve, density, CDF and summary shared by both laws.

    _solve_grid solves the grid at xs + iv with the law's transform
    solve(z, w0), coarse to fine: the fixed point of a self-map of C+ is
    unique and attracting, so no continuation from greater heights is
    needed. smooth(z, result) then returns (F, law_stats) on the whole
    grid: the law convolved with the Cauchy kernel of width v (F' =
    Im(m)/pi) and the law's own summary entries. The atom at 0, smoothed
    by that kernel in both m and F, is taken out of the density and
    enters the CDF as an exact step. Rounding can leave the CDF a few ulps
    outside [0, 1] or below its left neighbour, so it is clamped to a
    nondecreasing function in [0, 1]. Returns (xs, density, cdf, stats),
    stats being law_stats with {atom0_mass, max_residual, v_eps,
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
    z = xs + 1j * v
    result = _solve_grid(solve, z)
    cdf, stats = smooth(z, result)
    density = np.imag(result.m) / np.pi
    if atom0 > 0:
        density = density - atom0 * (v / np.pi) / (xs**2 + v**2)
        cdf = cdf - atom0 * _cauchy_cdf(z) + atom0 * (xs >= 0)
    density = np.maximum(density, 0.0)
    cdf = np.clip(np.maximum.accumulate(cdf), 0.0, 1.0)
    stats.update(
        atom0_mass=atom0,
        max_residual=result.residual,
        v_eps=v,
        support_estimate=estimate_support(xs, density, SUPPORT_THRESHOLD_V_EPS * v),
    )
    return xs, density, cdf, stats


def density_grid_detailed(
    H: DiscreteMeasure,
    rho: float,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], dict]:
    """Density, CDF and stats of the limiting spectral law on a real grid.

    The CDF includes the point mass max(1 - 1/rho, H({0})) at 0 that appears
    when p > n or H has an atom at 0. stats, which solve-mp prints as its
    summary: {rho, atom0_mass, max_residual, v_eps, support_estimate}.
    """
    _check_ratio(rho, "rho")
    cfg = cfg or SolverConfig()
    v = cfg.v_eps if cfg.v_eps is not None else default_v_eps(H, rho)

    def solve(z, w0):
        return mp_companion_solve(z, H, rho, cfg, w0)

    def smooth(z, result):
        return _mp_smoothed_cdf(z, result.w, H, rho), {"rho": rho}

    # rank S = min(n, p * H((0, inf))): the rest of the p eigenvalues are 0.
    atom0 = max(1.0 - 1.0 / rho, H.cdf(0.0))
    return _density_on_grid(solve, smooth, xs, v, atom0)


def estimate_support(
    xs: NDArray[np.float64], density: NDArray[np.float64], threshold: float
) -> Optional[tuple[float, float]]:
    """Interval spanned by grid points with density above threshold."""
    idx = np.nonzero(np.asarray(density) > threshold)[0]
    if idx.size == 0:
        return None
    xs = np.asarray(xs)
    return float(xs[idx[0]]), float(xs[idx[-1]])


def _edge_equation(H: DiscreteMeasure) -> Callable[[float], float]:
    """g(c) = int (lam*c/(1-lam*c))^2 dH, whose roots c give the law's edges."""
    return lambda c: float(H.integrate(lambda lam: (lam * c / (1.0 - lam * c)) ** 2))


def _bisect(g: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """Root of g(c) = target for g monotone between lo and hi, given
    g(lo) < target <= g(hi); lo may exceed hi. Resolved to _BISECT_RTOL
    relative width."""
    while abs(hi - lo) > _BISECT_RTOL * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _edge_x(H: DiscreteMeasure, p_over_n: float, c: float) -> float:
    """(1/c)(1 + p/n * int lam*c/(1-lam*c) dH), an edge of the law at a root c."""
    integral = float(H.integrate(lambda lam: lam * c / (1.0 - lam * c)))
    return (1.0 / c) * (1.0 + p_over_n * integral)


def solve_edge(H: DiscreteMeasure, n_over_p: float) -> EdgeResult:
    """Largest-eigenvalue limit mu for aspect n/p, and the c0 behind it.

    c0 is the unique c in (0, 1/max(H)) with int (lam*c/(1-lam*c))^2 dH =
    n/p, and mu = (1/c0)(1 + p/n * int lam*c0/(1-lam*c0) dH). The
    integrand is strictly increasing in c on the interval, so bisection
    converges unconditionally; resolved to 1e-12 relative width. Atoms at
    0 add nothing to either integral, but H needs mass on (0, inf).
    """
    _check_ratio(n_over_p, "n_over_p")
    if H.support_min < 0 or H.support_max <= 0:
        raise ValueError("H must be supported on [0, inf) with mass on (0, inf)")
    lam_max = H.support_max
    g = _edge_equation(H)
    hi = (1.0 - _POLE_GAP) / lam_max
    if g(hi) <= n_over_p:
        raise NumericalError(
            f"no interior solution: the edge equation cannot reach n/p={n_over_p!r} "
            f"inside (0, 1/{lam_max!r})"
        )
    c0 = _bisect(g, n_over_p, 0.0, hi)
    rho = 1.0 / n_over_p
    return EdgeResult(c0=c0, mu=_edge_x(H, rho, c0), rho=rho)


def support_hull(H: DiscreteMeasure, rho: float) -> tuple[float, float]:
    """Smallest interval [a, b] that holds the covariance law but its atom at 0.

    Off the support the companion transform w is real and inverts to
    x(w) = -1/w + rho * int lam dH/(1 + lam*w); the support edges are the
    values of x at its real critical points (Silverstein and Choi, J.
    Multivariate Anal. 54, 1995). With c = -w, x'(w) = 0 is the edge
    equation int (lam*c/(1-lam*c))^2 dH = 1/rho and x(w) is the edge
    formula, so b = solve_edge(H, 1/rho).mu. a is the root beyond the
    pole of the smallest positive atom when rho * H((0, inf)) < 1, the
    negative root when it exceeds 1, and 0 when it is 1. H = delta_0
    gives [0, 0].
    """
    _check_ratio(rho, "rho")
    if H.support_min < 0:
        raise ValueError("H must be supported on [0, inf)")
    if H.support_max == 0:
        return 0.0, 0.0
    n_over_p = 1.0 / rho
    b = solve_edge(H, n_over_p).mu
    lam_min = float(H.values[H.values > 0][0])
    g = _edge_equation(H)
    # g tends to m = H((0, inf)) as |c| grows, and r^2 m = 1/rho.
    r = math.sqrt(n_over_p / (1.0 - H.cdf(0.0)))
    if r > 1.0:
        # g falls from +inf at c = 1/lam_min; at c = (1 + 2/(r - 1))/lam_min
        # it is at most m (1 + (r - 1)/2)^2 < 1/rho.
        far = (1.0 + 2.0 / (r - 1.0)) / lam_min
        c = _bisect(g, n_over_p, far, (1.0 + _POLE_GAP) / lam_min)
    elif r < 1.0:
        # g rises from 0 as c falls from 0; at lam_min c = -2r/(1 - r) it is
        # at least m (2r/(1 + r))^2 > 1/rho.
        c = _bisect(g, n_over_p, 0.0, -2.0 * r / ((1.0 - r) * lam_min))
    else:
        return 0.0, b
    return _edge_x(H, rho, c), b
