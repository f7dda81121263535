"""The written CDF: against an independent quadrature, and its invariants.

Each law's CDF comes pointwise from the solved transform, through the
law's log-potential: it is the law convolved with the Cauchy kernel of
width v = v_eps, C_v(x) = 1/2 + arctan(x/v)/pi, with the atom at 0 added
as an exact step. The oracle integrates C_v against the closed-form
density of the covariance law of H = delta_1 with scipy.integrate.quad.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rmtlaw.elliptical_solver import (
    EllipticalParams,
    _elliptical_smoothed_cdf,
    elliptical_density_grid_detailed,
    elliptical_solve,
    mixing_integral,
)
from rmtlaw.measures import delta
from rmtlaw.mp_solver import (
    SolverConfig,
    _cauchy_cdf,
    _mp_smoothed_cdf,
    density_grid_detailed,
    mp_companion_solve,
)

from strategies import grids, populations

# The CDF is stationary in w at the fixed point (it is the imaginary part
# of the log-potential, whose w-derivative vanishes there), so a w whose
# residual |T(w) - w| meets the solver's tol moves it only at second
# order in the w error; what remains is rounding, a few ulps of the O(1)
# terms of the formula (divided by rho for the covariance law), and
# quad's own error, which it bounds near 1e-13 here. The solver's tol
# bounds all three.
TOLERANCE = SolverConfig.tol
# The written CDF is clamped to a nondecreasing function in [0, 1]; the
# clamp may remove rounding only, which for rho >= 0.05 is below 1e-13.
ROUNDING = 1e-12


def smoothed_mp_cdf(x: float, rho: float, v: float, scale: float = 1.0) -> float:
    """int C_v(x - scale*t) f(t) dt, f the density of the covariance law
    of H = delta_1 at ratio rho off its atom at 0 (mass min(1, 1/rho)).

    t = a + (b - a) sin^2(phi/2) on [0, pi] takes out the square-root
    edges (and the 1/sqrt(t) edge at a = 0 when rho = 1), leaving a smooth
    integrand; quad is told where the kernel's peak t = x/scale lies.
    """
    a, b = (1 - math.sqrt(rho)) ** 2, (1 + math.sqrt(rho)) ** 2

    def integrand(phi):
        t = a + (b - a) * math.sin(phi / 2) ** 2
        if a == 0.0:
            weight = b * math.cos(phi / 2) ** 2 / (2 * math.pi * rho)
        else:
            weight = (b - a) ** 2 * math.sin(phi) ** 2 / (8 * math.pi * rho * t)
        return weight * (0.5 + math.atan((x - scale * t) / v) / math.pi)

    peak = x / scale
    points = [2 * math.asin(math.sqrt((peak - a) / (b - a)))] if a < peak < b else None
    value, _ = integrate.quad(
        integrand, 0.0, math.pi, points=points, limit=500, epsabs=1e-14, epsrel=1e-13
    )
    return value


def oracle(xs, rho: float, v: float, atom0: float, scale: float = 1.0):
    smoothed = np.array([smoothed_mp_cdf(x, rho, v, scale) for x in xs])
    return smoothed + atom0 * (xs >= 0)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_covariance_cdf_matches_quadrature(rho):
    xs = np.linspace(-0.5, (1 + math.sqrt(rho)) ** 2 + 0.5, 61)
    _, _, cdf, stats = density_grid_detailed(delta(1.0), rho, xs)
    expected = oracle(xs, rho, stats["v_eps"], stats["atom0_mass"])
    assert np.max(np.abs(cdf - expected)) <= TOLERANCE


@pytest.mark.parametrize(
    "theta, rho, lam", [(0.5, 0.5, 1.3), (2.0, 0.5, 0.7), (0.5, 2.0, 1.0), (1.0, 2.0, 1.0)]
)
def test_elliptical_cdf_matches_quadrature(theta, rho, lam):
    # With H = delta_1 and nu = delta_lam the law is theta*lam^2 times the
    # covariance law of delta_1 at ratio theta*rho.
    params = EllipticalParams(H=delta(1.0), nu=delta(lam), theta=theta, rho=rho)
    scale, ratio = theta * lam**2, theta * rho
    xs = np.linspace(-0.5, scale * (1 + math.sqrt(ratio)) ** 2 + 0.5, 61)
    _, _, cdf, stats = elliptical_density_grid_detailed(params, xs)
    expected = oracle(xs, ratio, stats["v_eps"], stats["atom0_mass"], scale)
    assert np.max(np.abs(cdf - expected)) <= TOLERANCE


V_EPS = st.sampled_from([None, 1e-4, 1e-2])


def assert_is_cdf(xs, cdf, stats, smoothed):
    """cdf is in [0, 1] and nondecreasing, and differs by rounding only from
    the unclamped one: smoothed with the atom's smoothed step made exact."""
    assert 0.0 <= cdf.min() and cdf.max() <= 1.0
    assert np.all(np.diff(cdf) >= 0)
    z, atom0 = xs + 1j * stats["v_eps"], stats["atom0_mass"]
    unclamped = smoothed - atom0 * _cauchy_cdf(z) + atom0 * (xs >= 0)
    assert np.max(np.abs(cdf - unclamped)) <= ROUNDING


@settings(max_examples=50, deadline=None)
@given(H=populations(), rho=st.floats(0.05, 4.0), v_eps=V_EPS, data=st.data())
def test_covariance_cdf_is_a_cdf(H, rho, v_eps, data):
    xs = data.draw(grids((1 + math.sqrt(rho)) ** 2 * H.support_max + 1.0))
    cfg = SolverConfig(v_eps=v_eps)
    _, _, cdf, stats = density_grid_detailed(H, rho, xs, cfg)
    z = xs + 1j * stats["v_eps"]
    w = mp_companion_solve(z, H, rho, cfg).w
    assert_is_cdf(xs, cdf, stats, _mp_smoothed_cdf(z, w, H, rho))


@settings(max_examples=50, deadline=None)
@given(
    H=populations(),
    nu=populations(max_atoms=3),
    theta=st.floats(0.2, 3.0),
    rho=st.floats(0.05, 4.0),
    v_eps=V_EPS,
    data=st.data(),
)
def test_elliptical_cdf_is_a_cdf(H, nu, theta, rho, v_eps, data):
    params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
    ratio = theta * rho
    top = theta * nu.support_max**2 * (1 + math.sqrt(ratio)) ** 2 * H.support_max
    xs = data.draw(grids(top + 1.0))
    cfg = SolverConfig(v_eps=v_eps)
    _, _, cdf, stats = elliptical_density_grid_detailed(params, xs, cfg)
    z = xs + 1j * stats["v_eps"]
    w = elliptical_solve(z, params, cfg).w
    b = mixing_integral(w, nu, theta, params.xi)
    assert_is_cdf(xs, cdf, stats, _elliptical_smoothed_cdf(z, w, b, params))
