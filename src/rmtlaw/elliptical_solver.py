"""Limiting spectrum of scaled Gram matrices of generalized elliptical data.

For rows y_i = mu + lambda_i * Gamma u_i (u_i uniform on the sphere of
radius sqrt(p)), the spectral law of B_n = (d/p) X'X/n has a Stieltjes
transform m characterized together with a companion transform w by a
coupled pair of equations driven by the spectral law H of Gamma Sigma
Gamma', the mixing law nu of the lambda's, and the aspect ratios
theta = d/p, rho = p/n. This module solves that system and recovers
densities, with the built-in identity 1 + z*m = w*b as a consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from ._serialize import load_json
from .errors import NumericalError
from .linalg import as_sym_matrix
from .measures import DiscreteMeasure, measure_from_json_dict, measure_to_json_dict
from .mp_solver import (
    SolverConfig,
    TransformResult,
    _as_points,
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
    "elliptical_density_grid",
    "elliptical_density_grid_detailed",
    "scaled_gram",
    "params_from_json_dict",
    "params_to_json_dict",
    "load_params_json",
]

# Relative tolerance for a user-supplied xi against theta^2 * rho.
_XI_RTOL = 1e-12

# First-moment guard: the large-z initialization needs int tau dH finite
# and of sane magnitude.
_MOMENT_BOUND = 1e6


@dataclass(frozen=True)
class EllipticalParams:
    """Limit parameters (H, nu, theta, rho) with xi = theta^2 * rho.

    H is the spectral law of Gamma Sigma Gamma', nu the law of the mixing
    scalars; a user-supplied xi is validated against theta^2 * rho, never
    trusted.
    """

    H: DiscreteMeasure
    nu: DiscreteMeasure
    theta: float
    rho: float
    xi: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.theta > 0):
            raise ValueError("theta must be positive")
        if not (self.rho > 0):
            raise ValueError("rho must be positive")
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
        xi_exact = self.theta**2 * self.rho
        if self.xi is not None and abs(self.xi - xi_exact) > _XI_RTOL * xi_exact:
            raise ValueError(
                f"xi={self.xi!r} is inconsistent with theta^2*rho={xi_exact!r}"
            )
        object.__setattr__(self, "xi", xi_exact)


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
    max(tol, 16*eps*|w|). z (and w0) may be a scalar or a 1-d array, as
    in mp_companion_solve.
    """
    z, scalar = _as_points(z)
    cfg = cfg or SolverConfig()
    H, nu, theta, xi = params.H, params.nu, params.theta, params.xi
    assert xi is not None
    tau, lam2 = H.values, nu.values**2
    q1 = nu.weights * lam2
    h1 = H.weights * tau

    def step(w, idx):
        sb, sdb = _pole_sums(1.0, xi * w, lam2, q1, q1 * lam2)
        s1, s2 = _pole_sums(-z[idx], theta * sb, tau, h1, h1 * tau)
        return s1, theta * xi * sdb * s2

    w, residual, evals = _newton_fixed_point(step, _start(w0, -H.mean / z), cfg)
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


def elliptical_density_grid_detailed(
    params: EllipticalParams,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], dict]:
    """elliptical_density_grid plus its stats, which solve-elliptical prints.

    stats: {theta, rho, xi, atom0_mass, max_residual,
    max_consistency_residual, v_eps, support_estimate}; the consistency
    residual is |1 + z*m - w*b| at each grid point.
    """
    cfg = cfg or SolverConfig()
    v = cfg.v_eps if cfg.v_eps is not None else default_v_eps(params.H, params.rho)

    def solve_at(z) -> TransformResult:
        return elliptical_solve(z, params, cfg)

    atom0 = max(0.0, 1.0 - 1.0 / (params.theta * params.rho))
    xs, density, cdf, result, stats = _density_on_grid(solve_at, xs, v, atom0)
    assert params.xi is not None
    b = mixing_integral(result.w, params.nu, params.theta, params.xi)
    stats["max_consistency_residual"] = float(
        np.max(np.abs(1.0 + result.z * result.m - result.w * b))
    )
    stats.update(theta=params.theta, rho=params.rho, xi=params.xi)
    return xs, density, cdf, stats


def elliptical_density_grid(
    params: EllipticalParams,
    xs,
    cfg: SolverConfig | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Density and CDF of the limiting law of B_n on a real grid.

    Returns (xs, density, cdf). B_n is d x d with rank at most n, so the
    CDF includes a point mass max(0, 1 - 1/(theta*rho)) at 0.
    """
    return elliptical_density_grid_detailed(params, xs, cfg)[:3]


def scaled_gram(X, d: int, p: int, n: int) -> NDArray[np.float64]:
    """(d/p) * X'X / n for an n x d data matrix; d x d and PSD."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (n, d):
        raise ValueError(f"X must be {n}x{d}, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if p < 1:
        raise ValueError("p must be >= 1")
    B = (d / p) * (X.T @ X) / n
    return as_sym_matrix(B, "B")


def params_from_json_dict(obj) -> EllipticalParams:
    """Parse a params JSON object {"H":..., "nu":..., "theta":..., "rho":...}.

    An optional "xi" is validated against theta^2*rho. An optional "G"
    measure is accepted and validated but plays no role in the solve.
    """
    if not isinstance(obj, dict):
        raise ValueError("params JSON must be an object")
    for key in ("H", "nu", "theta", "rho"):
        if key not in obj:
            raise ValueError(f'params JSON needs "{key}"')
    if obj.get("G") is not None:
        measure_from_json_dict(obj["G"])
    return EllipticalParams(
        H=measure_from_json_dict(obj["H"]),
        nu=measure_from_json_dict(obj["nu"]),
        theta=float(obj["theta"]),
        rho=float(obj["rho"]),
        xi=float(obj["xi"]) if obj.get("xi") is not None else None,
    )


def params_to_json_dict(params: EllipticalParams) -> dict:
    return {
        "H": measure_to_json_dict(params.H),
        "nu": measure_to_json_dict(params.nu),
        "theta": params.theta,
        "rho": params.rho,
        "xi": params.xi,
    }


def load_params_json(path) -> EllipticalParams:
    return params_from_json_dict(load_json(path, "params"))
