"""Limiting spectrum of scaled Gram matrices of generalized elliptical data.

For rows y_i = mu + lambda_i * Gamma u_i (u_i uniform on the sphere of
radius sqrt(p)), the spectral law of B_n = (d/p) X'X/n has a Stieltjes
transform m characterized together with a companion transform w by a
coupled pair of equations driven by the spectral law H of Gamma Sigma
Gamma', the mixing law nu of the lambda's, and the aspect ratios
theta = d/p, rho = p/n. This module solves that system and recovers
densities and CDFs, with the built-in identity 1 + z*m = w*b as a
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._serialize import _json_typed, check_keys, load_json
from .errors import NumericalError
from .linalg import as_sym_matrix
from .measures import DiscreteMeasure, measure_from_json_dict
from .mp_solver import (
    SolverConfig,
    TransformResult,
    _arg_sums,
    _as_points,
    _check_ratio,
    _check_upper_half_plane,
    _density_on_grid,
    _newton_fixed_point,
    _pole_sums,
    _start,
    _stop_bound,
    _transform_result,
    default_v_eps,
)

__all__ = [
    "EllipticalParams",
    "mixing_integral",
    "elliptical_solve",
    "elliptical_density_grid_detailed",
    "scaled_gram",
    "params_from_json_dict",
    "load_params_json",
]

# Relative tolerance for a user-supplied xi against theta^2 * rho.
_XI_RTOL = 1e-12

# First-moment guard: the solver's start needs int tau dH finite and of
# sane magnitude.
_MOMENT_BOUND = 1e6


@dataclass(frozen=True)
class EllipticalParams:
    """Limit parameters (H, nu, theta, rho), from which xi = theta^2 * rho follows.

    H is the spectral law of Gamma Sigma Gamma', nu the law of the mixing
    scalars.
    """

    H: DiscreteMeasure
    nu: DiscreteMeasure
    theta: float
    rho: float

    def __post_init__(self) -> None:
        _check_ratio(self.theta, "theta")
        _check_ratio(self.rho, "rho")
        if self.H.support_min < 0:
            raise ValueError("H must be supported on [0, inf)")
        if self.H.support_max <= 0:
            raise ValueError("H must put mass off zero")
        if float(np.max(np.abs(self.nu.values))) <= 0:
            raise ValueError("nu must put mass off zero")
        if self.H.mean > _MOMENT_BOUND:
            raise ValueError(
                f"first moment of H is {self.H.mean!r}, above {_MOMENT_BOUND:g}; "
                "the solver requires a bounded first moment"
            )

    @property
    def xi(self) -> float:
        """theta^2 * rho, the scale of the mixing integral's poles."""
        return self.theta**2 * self.rho


def mixing_integral(w, nu: DiscreteMeasure, theta: float, xi: float):
    """b = int theta*lam^2 / (1 + xi*lam^2*w) dnu(lam), at a scalar or array w.

    Im(b) <= 0 whenever Im(w) >= 0. A mixing atom with 1 + xi*lam^2*w = 0
    makes the integrand singular and raises.
    """
    w_arr = np.asarray(w, dtype=np.complex128)
    lam2 = nu.values**2
    with np.errstate(all="ignore"):
        s, _ = _pole_sums(1.0, xi * w_arr.ravel(), lam2, nu.weights * lam2)
    if not np.all(np.isfinite(s)):
        raise ValueError("singular integrand: 1 + xi*lam^2*w vanishes at a mixing atom")
    b = theta * s
    return complex(b[0]) if w_arr.ndim == 0 else b.reshape(w_arr.shape)


def elliptical_solve(
    z,
    params: EllipticalParams,
    cfg: SolverConfig | None = None,
    w0=None,
) -> TransformResult:
    """Solve w = int tau dH / (tau*b(w) - z) for w in C+, then m.

    m = int dH / (tau*b(w) - z); the identity 1 + z*m = w*b(w) is checked
    after convergence, to 100*max(1, |b|) times the residual bound
    max(tol, 16*eps*|w|). z (and w0, finite and in C+) may be a scalar or
    a 1-d array, as in mp_companion_solve. The default w0 is the exact w
    for one-atom H and nu with the mean of H and the second moment of nu.
    """
    z, scalar = _as_points(z)
    cfg = cfg or SolverConfig()
    H, nu, theta, xi = params.H, params.nu, params.theta, params.xi
    tau, lam2 = H.values, nu.values**2
    q1 = nu.weights * lam2
    h1 = H.weights * tau

    def step(w, idx):
        sb, sdb = _pole_sums(1.0, xi * w, lam2, q1, q1 * lam2)
        s1, s2 = _pole_sums(-z[idx], theta * sb, tau, h1, h1 * tau)
        return s1, theta * xi * sdb * s2

    # H = delta_s and nu = delta_lam with lam^2 = l2 = int lam^2 dnu give
    # z*xi*l2*w^2 + (z + s*xi*l2 - s*theta*l2)*w + s = 0, s = mean(H).
    s, l2 = H.mean, float(q1.sum())
    w0 = _start(w0, z, z * xi * l2, z + s * xi * l2 - s * theta * l2, s)
    w, residual, evals = _newton_fixed_point(step, w0, cfg)
    b = mixing_integral(w, nu, theta, xi)
    m, _ = _pole_sums(-z, b, tau, H.weights)
    _check_upper_half_plane(z, w, m)
    # 1 + z*m - w*b = b*(T(w) - w), so the bound scales with |b|.
    consistency = np.abs(1.0 + z * m - w * b)
    bound = 100.0 * _stop_bound(w, cfg.tol) * np.maximum(1.0, np.abs(b))
    worst = int(np.argmax(consistency / bound))
    if consistency[worst] > bound[worst]:
        raise NumericalError(
            f"consistency identity violated at z={complex(z[worst])!r}: "
            f"|1 + z*m - w*b| = {consistency[worst]:.3e}",
            index=worst,
        )
    return _transform_result(z, w, m, residual, evals, scalar)


def _elliptical_smoothed_cdf(
    z: NDArray[np.complex128],
    w: NDArray[np.complex128],
    b: NDArray[np.complex128],
    params: EllipticalParams,
) -> NDArray[np.float64]:
    """F_v(x): the law convolved with the Cauchy kernel of width v, b = b(w).

    Its log-potential is Phi = int log(tau*b - z) dH(tau)
    + (1/(theta*rho)) int log(1 + xi*lam^2*w) dnu(lam) - w*b; Phi is
    stationary in w at the fixed point, so Phi' = -m (compare Hachem,
    Loubaton and Najim, Ann. Appl. Probab. 17, 2007), and -Im(Phi)/pi is
    the law convolved with the kernel. Im(tau*b - z) < 0 and
    Im(1 + xi*lam^2*w) >= 0, so every arg is continuous in z.
    """
    H, nu = params.H, params.nu
    lam2 = nu.values**2
    arg_h = _arg_sums(-z, b, H.values, H.weights)
    arg_nu = _arg_sums(1.0, params.xi * w, lam2, nu.weights)
    return (np.imag(w * b) - arg_h - arg_nu / (params.theta * params.rho)) / np.pi


def elliptical_density_grid_detailed(
    params: EllipticalParams,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], dict]:
    """Density, CDF and stats of the limiting law of B_n on a real grid.

    B_n is d x d with rank at most min(n * nu(lam != 0), d * H((0, inf))),
    so the CDF has a point mass max(1 - (1 - nu({0}))/(theta*rho), H({0}))
    at 0. stats, which solve-elliptical prints: {theta, rho, xi, atom0_mass,
    max_residual, max_consistency_residual, v_eps, support_estimate}, the
    consistency residual being |1 + z*m - w*b| at each grid point.
    """
    cfg = cfg or SolverConfig()
    v = cfg.v_eps if cfg.v_eps is not None else default_v_eps(params.H, params.rho)

    def solve(z, w0):
        return elliptical_solve(z, params, cfg, w0)

    def smooth(z, result):
        b = mixing_integral(result.w, params.nu, params.theta, params.xi)
        consistency = np.abs(1.0 + z * result.m - result.w * b)
        stats = {"max_consistency_residual": float(consistency.max())}
        stats.update(theta=params.theta, rho=params.rho, xi=params.xi)
        return _elliptical_smoothed_cdf(z, result.w, b, params), stats

    # rank B = min(n * nu(lam != 0), d * H((0, inf))) with d/n = theta*rho:
    # the rest of the d eigenvalues are 0.
    nu0 = float(params.nu.weights[params.nu.values == 0].sum())
    atom0 = max(1.0 - (1.0 - nu0) / (params.theta * params.rho), params.H.cdf(0.0))
    return _density_on_grid(solve, smooth, xs, v, atom0)


def scaled_gram(X, p: int) -> NDArray[np.float64]:
    """(d/p) * X'X / n for an n x d data matrix X; d x d and PSD."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d n x d matrix, got shape {X.shape}")
    n, d = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if p < 1:
        raise ValueError("p must be >= 1")
    B = (d / p) * (X.T @ X) / n
    return as_sym_matrix(B, "B")


def params_from_json_dict(obj) -> EllipticalParams:
    """Parse a params JSON object {"H":..., "nu":..., "theta":..., "rho":...}.

    theta, rho and an optional "xi" are JSON numbers, and "xi" must agree
    with theta^2*rho to a relative _XI_RTOL. H, nu and an optional "G" are
    measure objects; G is validated but plays no role in the solve. Any
    other key is rejected.
    """
    check_keys(obj, "params", ("H", "nu", "theta", "rho"), ("xi", "G"))
    H, nu, G = (_json_typed(obj, "params", key, "an object") for key in ("H", "nu", "G"))
    if G is not None:
        measure_from_json_dict(G)
    params = EllipticalParams(
        H=measure_from_json_dict(H),
        nu=measure_from_json_dict(nu),
        theta=float(_json_typed(obj, "params", "theta", "a number")),
        rho=float(_json_typed(obj, "params", "rho", "a number")),
    )
    xi = _json_typed(obj, "params", "xi", "a number")
    if xi is not None:
        if not abs(xi - params.xi) <= _XI_RTOL * params.xi:
            raise ValueError(f"xi={xi!r} is inconsistent with theta^2*rho={params.xi!r}")
    return params


def load_params_json(path) -> EllipticalParams:
    return params_from_json_dict(load_json(path, "params"))
