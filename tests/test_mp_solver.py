"""Companion-transform solver against closed forms and Stieltjes invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtlaw.errors import ConvergenceError, NumericalError
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import (
    SolverConfig,
    _hyperbolic_residual,
    default_v_eps,
    density_grid_detailed,
    estimate_support,
    mp_companion_solve,
    solve_edge,
    support_hull,
)
from strategies import populations


def one_atom_companion(z: complex, s: float, rho: float) -> complex:
    """Upper-half-plane root of s z w^2 + (z + s (1 - rho)) w + 1 = 0, the
    companion transform for H = delta_s."""
    b = z + s * (1.0 - rho)
    disc = np.sqrt(complex(b * b - 4.0 * s * z))
    roots = [(-b + disc) / (2 * s * z), (-b - disc) / (2 * s * z)]
    return max(roots, key=lambda w: w.imag)


def null_companion_closed_form(z: complex, rho: float) -> complex:
    """Upper-half-plane root of z w^2 + (z + 1 - rho) w + 1 = 0."""
    return one_atom_companion(z, 1.0, rho)


def mp_density_closed_form(x, rho: float):
    """Bulk density of the classical law with unit population spectrum."""
    a, b = (1 - np.sqrt(rho)) ** 2, (1 + np.sqrt(rho)) ** 2
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (x > a) & (x < b)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (2 * np.pi * rho * xi)
    return out


UNIT = delta(1.0)
# Two atoms: the default start is not exact, so a solve needs several
# evaluations and a low max_iters makes it fail.
TWO = DiscreteMeasure(np.array([1.0, 10.0]), np.array([0.5, 0.5]))


def companion_map(z, w, H: DiscreteMeasure, rho: float) -> complex:
    """T(w) = -1/(z - rho * int lam dH/(1 + lam w)), the covariance law's map."""
    return -1.0 / (z - rho * H.integrate(lambda lam: lam / (1.0 + lam * w)))


def start_residuals(zs, H: DiscreteMeasure, rho: float):
    """|T(w0) - w0| at the default start, one point at a time: w0 is the
    companion transform for delta_s, s = mean(H)."""
    out = []
    for z in zs:
        w0 = one_atom_companion(z, H.mean, rho)
        out.append(abs(companion_map(z, w0, H, rho) - w0))
    return np.array(out)


class TestCompanionClosedForm:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, 2.0])
    def test_null_quadratic_branch(self, rho):
        for x in np.linspace(-2.0, 5.0, 12):
            for v in (1e-2, 1e-4):
                z = complex(x, v)
                res = mp_companion_solve(z, UNIT, rho)
                assert abs(res.w - null_companion_closed_form(z, rho)) < 1e-9

    def test_golden_ratio_point(self):
        # rho=1 at z=-1: w solves w^2 + w - 1 = 0, the inverse golden ratio.
        res = mp_companion_solve(complex(-1.0, 1e-8), UNIT, 1.0)
        assert res.w.real == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-7)

    def test_zero_measure_exact(self):
        z = 2.0j
        res = mp_companion_solve(z, delta(0.0), 1.5)
        assert res.w == pytest.approx(-1.0 / z, abs=1e-14)
        assert res.m == pytest.approx(-1.0 / z, abs=1e-14)
        assert res.iterations == 1  # the default start is delta_0's -1/z

    def test_large_z_decay(self):
        z = complex(1e8, 1.0)
        res = mp_companion_solve(z, UNIT, 0.5)
        assert abs(res.w + 1.0 / z) < 1e-10

    def test_two_atom_population(self):
        # Fixed point must satisfy the defining equation exactly.
        H = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        z = complex(2.0, 1e-3)
        rho = 0.7
        res = mp_companion_solve(z, H, rho)
        rhs = -1.0 / (z - rho * H.integrate(lambda t: t / (1 + t * res.w)))
        assert abs(res.w - rhs) < 1e-11

    def test_m_relation(self):
        z = complex(1.5, 1e-2)
        rho = 0.4
        res = mp_companion_solve(z, UNIT, rho)
        assert res.m == pytest.approx((res.w + (1 - rho) / z) / rho, abs=1e-14)


class TestSolverInvariants:
    @pytest.mark.parametrize("rho", [0.25, 1.0, 2.0])
    def test_upper_half_plane(self, rho):
        H = DiscreteMeasure(np.array([0.5, 1.0, 2.0]), np.array([0.2, 0.5, 0.3]))
        for x in np.linspace(-1.0, 6.0, 9):
            res = mp_companion_solve(complex(x, 1e-3), H, rho)
            assert res.w.imag >= 0
            assert res.m.imag >= 0

    def test_uniqueness_across_starts(self):
        H = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.6, 0.4]))
        z = complex(1.2, 1e-3)
        a = mp_companion_solve(z, H, 0.8, w0=-1.0 / z)
        b = mp_companion_solve(z, H, 0.8, w0=1.0j)
        assert abs(a.w - b.w) < 1e-8

    def test_residual_reported(self):
        res = mp_companion_solve(complex(1.0, 1e-2), UNIT, 1.0)
        assert res.residual <= 1e-12
        assert res.iterations >= 1

    def test_requires_upper_half_z(self):
        with pytest.raises(ValueError, match="imaginary"):
            mp_companion_solve(complex(1.0, 0.0), UNIT, 1.0)

    def test_requires_positive_rho(self):
        with pytest.raises(ValueError, match="rho"):
            mp_companion_solve(1.0j, UNIT, -1.0)

    def test_requires_nonnegative_support(self):
        H = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"\[0, inf\)"):
            mp_companion_solve(1.0j, H, 1.0)

    def test_array_convergence_error_names_worst_point(self):
        zs = np.array([-1e8, 0.5, 1.0, 3.0, 1e8]) + 1.0j
        with pytest.raises(ConvergenceError) as excinfo:
            mp_companion_solve(zs, TWO, 0.5, cfg=SolverConfig(max_iters=1))
        residuals = start_residuals(zs, TWO, 0.5)
        assert excinfo.value.index == int(np.argmax(residuals)) == 2
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual == pytest.approx(residuals.max(), rel=1e-12)

    @pytest.mark.parametrize("max_iters", [1, 3, 7])
    def test_evaluations_never_exceed_max_iters(self, max_iters):
        with pytest.raises(ConvergenceError) as excinfo:
            mp_companion_solve(complex(2.0, 1e-6), TWO, 0.5, cfg=SolverConfig(max_iters=max_iters))
        assert excinfo.value.iterations == max_iters

    def test_convergence_error_fields(self):
        cfg = SolverConfig(max_iters=2)
        with pytest.raises(ConvergenceError) as excinfo:
            mp_companion_solve(complex(2.0, 1e-6), TWO, 0.5, cfg=cfg)
        assert excinfo.value.iterations == 2
        assert excinfo.value.residual > 0
        assert "residual=" in str(excinfo.value)


class TestArrayInput:
    def test_scalar_input_gives_scalars(self):
        res = mp_companion_solve(complex(1.0, 1e-2), UNIT, 0.5)
        assert all(type(v) is complex for v in (res.z, res.w, res.m))
        assert type(res.residual) is float and type(res.iterations) is int

    def test_array_fields(self):
        zs = np.linspace(0.1, 3.0, 7) + 1e-2j
        res = mp_companion_solve(zs, UNIT, 0.5)
        singles = [mp_companion_solve(z, UNIT, 0.5) for z in zs]
        assert res.z.shape == res.w.shape == res.m.shape == (7,)
        assert np.array_equal(res.z, zs)
        assert res.residual == max(r.residual for r in singles)
        assert res.iterations == sum(r.iterations for r in singles)

    def test_array_w0(self):
        zs = np.array([0.5, 1.0, 2.0]) + 1e-3j
        cold = mp_companion_solve(zs, UNIT, 0.5)
        warm = mp_companion_solve(zs, UNIT, 0.5, w0=cold.w)
        assert np.max(np.abs(warm.w - cold.w)) < 1e-12
        assert warm.iterations == 3

    # -0.5 - 0.1j converges to a fixed point below the real axis, and a
    # NaN start diverges: both are refused as inputs before the solve.
    @pytest.mark.parametrize(
        "w0",
        [-0.5 - 0.1j, 2.0, complex(np.nan, 1.0), complex(1.0, np.inf), [1j, -1j]],
        ids=["lower", "real", "nan", "inf", "one_lower"],
    )
    def test_w0_outside_upper_half_plane_rejected(self, w0):
        zs = np.array([1.5, 2.0]) + 0.01j
        with pytest.raises(ValueError, match="^w0 must be finite with positive imaginary part$"):
            mp_companion_solve(zs, TWO, 0.5, w0=w0)

    def test_w0_not_broadcasting_to_z_rejected(self):
        zs = np.array([0.5, 1.0, 2.0]) + 1e-3j
        with pytest.raises(
            ValueError, match=r"^w0 of shape \(2,\) does not broadcast to z of shape \(3,\)$"
        ):
            mp_companion_solve(zs, TWO, 0.5, w0=[1j, 2j])

    @settings(max_examples=25, deadline=None)
    @given(
        H=populations(),
        rho=st.floats(0.05, 4.0),
        xs=st.lists(st.floats(-1.0, 40.0), min_size=1, max_size=12),
        v=st.sampled_from([1e-4, 1e-3, 1e-2, 1.0]),
    )
    def test_array_matches_scalar_calls(self, H, rho, xs, v):
        zs = np.array(xs) + 1j * v
        res = mp_companion_solve(zs, H, rho)
        for z, w, m in zip(zs, res.w, res.m):
            single = mp_companion_solve(z, H, rho)
            assert abs(w - single.w) <= 1e-10
            assert abs(m - single.m) <= 1e-10

    def test_rejects_two_dimensional_z(self):
        with pytest.raises(ValueError, match="1-d"):
            mp_companion_solve(np.ones((2, 2)) * 1j, UNIT, 1.0)

    def test_rejects_empty_z(self):
        with pytest.raises(ValueError, match="at least one"):
            mp_companion_solve(np.array([], dtype=complex), UNIT, 1.0)

    def test_rejects_any_real_point(self):
        with pytest.raises(ValueError, match="imaginary"):
            mp_companion_solve(np.array([1.0 + 1j, 2.0]), UNIT, 1.0)


class TestGridClosedForm:
    BOUND = 1e-10

    @staticmethod
    def m_errors(rho, v):
        """Grid xs and |m - closed form| of one array solve for H = delta_1.

        The solve starts from the large-z value -1/z: the default start is
        delta_1's exact root, which would leave the kernel nothing to do.
        """
        xs = np.linspace(0.0, (1 + np.sqrt(rho)) ** 2 + 1.0, 150)
        zs = xs + 1j * v
        res = mp_companion_solve(zs, UNIT, rho, w0=-1.0 / zs)
        w = np.array([null_companion_closed_form(z, rho) for z in zs])
        m = (w + (1.0 - rho) / zs) / rho
        return xs, np.abs(res.m - m)

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(0.05, 4.0), v=st.sampled_from([1e-2, 1e-3, 1e-4]))
    def test_unit_population_grid_matches_closed_form(self, rho, v):
        _, err = self.m_errors(rho, v)
        assert np.max(err) <= self.BOUND

    @pytest.mark.xfail(
        strict=True,
        reason="stopping floor 16*eps*|w| is loose at |w| ~ 8e3: m error 2.99e-10 at x = 0",
    )
    def test_large_w_at_zero(self):
        _, err = self.m_errors(0.109375, 1e-4)
        assert err[0] <= self.BOUND

    @pytest.mark.xfail(
        strict=True,
        reason="|T(w) - w| is ill-conditioned where T'(w) ~ 1: m error 1.59e-10 at x ~ 1.568",
    )
    def test_upper_edge(self):
        xs, err = self.m_errors(0.06358011137667387, 1e-4)
        assert err[np.argmin(np.abs(xs - 1.568))] <= self.BOUND


def elliptical_map(z, w, H: DiscreteMeasure, nu: DiscreteMeasure, theta, rho) -> complex:
    """T(w) = int tau dH/(tau b(w) - z), b(w) = theta int lam^2 dnu/(1 + xi lam^2 w)."""
    xi = theta**2 * rho
    b = theta * nu.integrate(lambda lam: lam**2 / (1.0 + xi * lam**2 * w))
    return H.integrate(lambda tau: tau / (tau * b - z))


heights = st.floats(-6.0, 0.0).map(lambda e: 10.0**e)
upper_half_plane = st.builds(
    complex, st.floats(-20.0, 20.0), st.floats(-6.0, 2.0).map(lambda e: 10.0**e)
)


class TestFallbackContracts:
    """The plain step w -> T(w) never lengthens the hyperbolic step.

    Both maps are holomorphic self-maps of C+, so by the Schwarz-Pick
    lemma h(T w, T T w) <= h(w, T w); the kernel's fallback rests on it.
    """

    @staticmethod
    def assert_contracts(T, w):
        t = T(w)
        assert _hyperbolic_residual(t, T(t)) <= _hyperbolic_residual(w, t) * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        H=populations(),
        rho=st.floats(0.05, 4.0),
        x=st.floats(-1.0, 40.0),
        height=heights,
        w=upper_half_plane,
    )
    def test_covariance_map(self, H, rho, x, height, w):
        z = complex(x, height)
        self.assert_contracts(lambda u: companion_map(z, u, H, rho), w)

    @settings(max_examples=200, deadline=None)
    @given(
        H=populations(),
        nu=populations(max_atoms=3),
        theta=st.floats(0.5, 2.0),
        rho=st.floats(0.05, 4.0),
        x=st.floats(-1.0, 40.0),
        height=heights,
        w=upper_half_plane,
    )
    def test_elliptical_map(self, H, nu, theta, rho, x, height, w):
        z = complex(x, height)
        self.assert_contracts(lambda u: elliptical_map(z, u, H, nu, theta, rho), w)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-12
        assert cfg.max_iters == 10000
        assert cfg.v_eps is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_iters": 0},
            {"tol": float("nan")},
            {"v_eps": 0.0},
            {"v_eps": -1e-3},
            {"tol": float("inf")},
            {"v_eps": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_has_no_damping(self):
        with pytest.raises(TypeError):
            SolverConfig(damping=1.0)


class TestDefaultVEps:
    def test_formula(self):
        H = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        assert default_v_eps(H, 0.5) == pytest.approx(1e-3 * 4.0)
        assert default_v_eps(H, 2.0) == pytest.approx(1e-3 * 4.0 * 2.0)


class TestDensityGrid:
    def test_matches_closed_form_interior(self):
        rho = 0.5
        a, b = (1 - np.sqrt(rho)) ** 2, (1 + np.sqrt(rho)) ** 2
        xs = np.linspace(0.0, b + 0.5, 400)
        _, f, F, stats = density_grid_detailed(UNIT, rho, xs)
        margin = 0.05 * (b - a)
        interior = (xs > a + margin) & (xs < b - margin)
        err = np.max(np.abs(f[interior] - mp_density_closed_form(xs[interior], rho)))
        assert err < 5 * stats["v_eps"]

    @pytest.mark.parametrize("rho", [0.25, 0.5, 2.0])
    def test_total_mass(self, rho):
        b = (1 + np.sqrt(rho)) ** 2
        xs = np.linspace(0.0, b + 0.5, 400)
        _, _, F, _ = density_grid_detailed(UNIT, rho, xs)
        assert abs(F[-1] - 1.0) < 0.02

    def test_atom_at_zero(self):
        rho = 2.0
        xs = np.linspace(0.0, (1 + np.sqrt(rho)) ** 2 + 0.5, 300)
        _, f, F, stats = density_grid_detailed(UNIT, rho, xs)
        assert stats["atom0_mass"] == pytest.approx(0.5)
        # the point mass enters the CDF at x >= 0 immediately
        assert F[0] >= 0.5

    def test_no_atom_when_rho_below_one(self):
        xs = np.linspace(0.0, 4.0, 100)
        _, _, _, stats = density_grid_detailed(UNIT, 0.5, xs)
        assert stats["atom0_mass"] == 0.0

    def test_outside_support_small(self):
        rho = 0.5
        b = (1 + np.sqrt(rho)) ** 2
        xs = np.linspace(b + 0.5, b + 2.0, 50)
        _, f, _, stats = density_grid_detailed(UNIT, rho, xs)
        assert np.max(f) < 10 * stats["v_eps"]

    def test_cdf_monotone(self):
        xs = np.linspace(0.0, 4.0, 200)
        _, _, F, _ = density_grid_detailed(UNIT, 1.0, xs)
        assert np.all(np.diff(F) >= -1e-15)
        assert np.all(F <= 1.0 + 1e-12)

    def test_density_nonnegative(self):
        xs = np.linspace(0.0, 5.0, 200)
        _, f, _, _ = density_grid_detailed(UNIT, 2.0, xs)
        assert np.all(f >= 0.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            density_grid_detailed(UNIT, 1.0, np.array([1.0, 0.5]))

    def test_grid_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            density_grid_detailed(UNIT, 1.0, np.array([0.0, np.inf]))

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            density_grid_detailed(UNIT, 1.0, np.array([1.0]))

    def test_failure_names_grid_point(self):
        cfg = SolverConfig(max_iters=1)
        with pytest.raises(NumericalError, match="density grid failed at x="):
            density_grid_detailed(TWO, 1.0, np.linspace(0.5, 2.0, 10), cfg=cfg)

    def test_failure_names_worst_grid_point(self):
        # The grid solve at height v_eps fails after one evaluation at
        # every point but the two far ones; the message names the point
        # whose start residual is largest (x = 0.6), not the first that
        # failed.
        xs = np.array([-1e8, -2.0, -1.0, -0.5, 0.6, 2.0, 1e8])
        v = default_v_eps(TWO, 0.5)
        residuals = start_residuals(xs + 1j * v, TWO, 0.5)
        worst = int(np.argmax(residuals))
        assert worst == 4
        with pytest.raises(ConvergenceError) as excinfo:
            density_grid_detailed(TWO, 0.5, xs, cfg=SolverConfig(max_iters=1))
        assert str(excinfo.value) == (
            "density grid failed at x=0.6: fixed-point iteration did not converge "
            "(residual=7.284e-01 after 1 iterations)"
        )
        assert excinfo.value.index == worst
        assert excinfo.value.x == 0.6
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual == pytest.approx(residuals[worst], rel=1e-12)

    def test_max_residual_reported(self):
        xs = np.linspace(0.0, 4.0, 100)
        _, _, _, stats = density_grid_detailed(UNIT, 1.0, xs)
        assert stats["max_residual"] <= 1e-12


class TestEstimateSupport:
    def test_recovers_bulk(self):
        rho = 0.5
        a, b = (1 - np.sqrt(rho)) ** 2, (1 + np.sqrt(rho)) ** 2
        xs = np.linspace(0.0, b + 1.0, 500)
        _, f, _, stats = density_grid_detailed(UNIT, rho, xs)
        lo, hi = estimate_support(xs, f, 10 * stats["v_eps"])
        assert abs(lo - a) < 0.1
        assert abs(hi - b) < 0.1

    def test_none_when_flat(self):
        xs = np.linspace(0.0, 1.0, 10)
        assert estimate_support(xs, np.zeros(10), 0.1) is None


class TestEdge:
    def test_unit_population_quarter(self):
        res = solve_edge(UNIT, 4.0)
        assert res.c0 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.mu == pytest.approx(2.25, abs=1e-12)

    def test_unit_population_square(self):
        res = solve_edge(UNIT, 1.0)
        assert res.c0 == pytest.approx(0.5, abs=1e-12)
        assert res.mu == pytest.approx(4.0, abs=1e-12)

    def test_defining_equation_residual(self):
        H = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        n_over_p = 3.0
        c0 = solve_edge(H, n_over_p).c0
        g = H.integrate(lambda t: (t * c0 / (1 - t * c0)) ** 2)
        assert abs(g - n_over_p) < 1e-10
        assert 0 < c0 < 1.0 / H.support_max

    def test_mu_dominates_bulk_edge(self):
        H = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        rho = 0.5
        res = solve_edge(H, 1.0 / rho)
        xs = np.linspace(0.0, res.mu + 2.0, 600)
        _, f, _, stats = density_grid_detailed(H, rho, xs)
        support = estimate_support(xs, f, 10 * stats["v_eps"])
        assert support is not None
        assert res.mu >= support[1] - 3 * stats["v_eps"]

    def test_no_interior_solution(self):
        with pytest.raises(NumericalError, match="no interior solution"):
            solve_edge(UNIT, 1e30)

    def test_rejects_atom_at_zero(self):
        with pytest.raises(ValueError, match=r"\(0, inf\)"):
            solve_edge(delta(0.0), 1.0)

    def test_atoms_at_zero_add_nothing(self):
        # H = 0.3 delta_0 + 0.7 delta_1 has the edge equation 0.7 g_1(c) = n/p
        # of delta_1 at n/p / 0.7, and mu = (1/c0)(1 + 0.7 (p/n) c0/(1 - c0)).
        H = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        res = solve_edge(H, 2.0)
        q = 2.0 / 0.7
        assert res.c0 == pytest.approx(np.sqrt(q) / (1 + np.sqrt(q)), rel=1e-12)
        assert res.mu == pytest.approx((1 + np.sqrt(0.5 * 0.7)) ** 2, rel=1e-12)

    def test_rejects_negative_atoms(self):
        H = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"\[0, inf\)"):
            solve_edge(H, 1.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match="n_over_p"):
            solve_edge(UNIT, 0.0)

    def test_mu_formula_hand_value(self):
        # mu = (1/c0)(1 + (p/n) * int t c0/(1 - t c0) dH), written out for
        # H = (delta_1 + delta_2)/2 at n/p = 3 and the c0 solve_edge returns.
        H = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        res = solve_edge(H, 3.0)
        c0 = res.c0
        integral = 0.5 * c0 / (1 - c0) + 0.5 * 2 * c0 / (1 - 2 * c0)
        assert res.mu == pytest.approx((1 + integral / 3.0) / c0, rel=1e-14)

    @pytest.mark.parametrize(
        "atoms, n_over_p, c0_hex, mu_hex",
        [
            ([(1.0, 1.0)], 4.0, "0x1.555555555508cp-1", "0x1.2000000000001p+1"),
            ([(1.0, 0.5), (2.0, 0.5)], 3.0, "0x1.68e3e192c5f34p-2", "0x1.0e59aac3c5561p+2"),
            ([(0.0, 0.3), (1.0, 0.7)], 2.0, "0x1.41afefe0f11e6p-1", "0x1.44406ba3b1a78p+1"),
        ],
        ids=["delta1", "one-two", "atom-at-zero"],
    )
    def test_pinned_bits(self, atoms, n_over_p, c0_hex, mu_hex):
        # The bits of c0 and mu, so that a change to the bisection or the
        # edge formula's evaluation order shows.
        values, weights = (np.array(col) for col in zip(*atoms))
        res = solve_edge(DiscreteMeasure(values, weights), n_over_p)
        assert (res.c0.hex(), res.mu.hex()) == (c0_hex, mu_hex)

    def test_edge_result_rho(self):
        res = solve_edge(UNIT, 4.0)
        assert res.rho == pytest.approx(0.25)


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda r: mp_companion_solve(1.0j, UNIT, r), "rho"),
        (lambda r: density_grid_detailed(UNIT, r, [0.0, 1.0]), "rho"),
        (lambda r: support_hull(UNIT, r), "rho"),
        (lambda r: solve_edge(UNIT, r), "n_over_p"),
    ],
    ids=["mp_companion_solve", "density_grid_detailed", "support_hull", "solve_edge"],
)
def test_ratio_positive_and_finite(call, name, ratio):
    # An infinite ratio is an input error, not a numerical failure later on.
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        call(ratio)


class TestSupportHull:
    @pytest.mark.parametrize("rho", [0.25, 2.0])
    def test_unit_population_closed_form(self, rho):
        a, b = support_hull(UNIT, rho)
        assert a == pytest.approx((1 - np.sqrt(rho)) ** 2, rel=1e-12, abs=0)
        assert b == pytest.approx((1 + np.sqrt(rho)) ** 2, rel=1e-12, abs=0)

    def test_square_case_has_hard_edge(self):
        assert support_hull(UNIT, 1.0) == (0.0, pytest.approx(4.0, rel=1e-12))

    def test_two_atom_population(self):
        # The bulks are [0.5609, 1.4273] and [6.0853, 15.0266]; the hull
        # spans both.
        H = DiscreteMeasure(np.array([1.0, 10.0]), np.array([0.5, 0.5]))
        a, b = support_hull(H, 0.1)
        assert a == pytest.approx(0.5608978, abs=1e-7)
        assert b == pytest.approx(15.0265858, abs=1e-7)

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_atom_at_zero_scales_rho(self, rho):
        # 0.3 delta_0 + 0.7 delta_1 at rho has the bulk of delta_1 at 0.7 rho.
        H = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        a, b = support_hull(H, rho)
        assert a == pytest.approx((1 - np.sqrt(0.7 * rho)) ** 2, rel=1e-12)
        assert b == pytest.approx((1 + np.sqrt(0.7 * rho)) ** 2, rel=1e-12)

    def test_point_mass_at_zero(self):
        assert support_hull(delta(0.0), 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("values", [[-1.0, 0.0], [-1.0, 2.0]], ids=["no-mass", "mass"])
    def test_rejects_negative_support(self, values):
        # Checked before the delta_0 shortcut, with mp_companion_solve's message.
        H = DiscreteMeasure(np.array(values), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"^H must be supported on \[0, inf\)$"):
            support_hull(H, 0.5)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError, match="rho"):
            support_hull(UNIT, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(H=populations(), rho=st.floats(0.05, 4.0))
    def test_right_edge_is_the_largest_eigenvalue_limit(self, H, rho):
        a, b = support_hull(H, rho)
        assert b == solve_edge(H, 1.0 / rho).mu
        assert 0.0 <= a <= b
