"""Companion-transform solver against closed forms and Stieltjes invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtlaw.errors import ConvergenceError, NumericalError
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import (
    SolverConfig,
    default_v_eps,
    density_grid,
    density_grid_detailed,
    edge_c0_solve,
    edge_mu,
    estimate_support,
    mp_companion_solve,
    solve_edge,
)
from strategies import populations


def null_companion_closed_form(z: complex, rho: float) -> complex:
    """Upper-half-plane root of z w^2 + (z + 1 - rho) w + 1 = 0."""
    b = z + 1.0 - rho
    disc = np.sqrt(complex(b * b - 4.0 * z))
    roots = [(-b + disc) / (2 * z), (-b - disc) / (2 * z)]
    return max(roots, key=lambda w: w.imag)


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


def start_residuals(zs, H: DiscreteMeasure, rho: float):
    """|T(w0) - w0| at the default start w0 = -1/z, one point at a time."""
    out = []
    for z in zs:
        w0 = -1.0 / z
        t = -1.0 / (z - rho * H.integrate(lambda lam: lam / (1.0 + lam * w0)))
        out.append(abs(t - w0))
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
            mp_companion_solve(zs, UNIT, 0.5, cfg=SolverConfig(max_iters=1))
        residuals = start_residuals(zs, UNIT, 0.5)
        assert excinfo.value.index == int(np.argmax(residuals))
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual == pytest.approx(residuals.max(), rel=1e-12)

    @pytest.mark.parametrize("max_iters", [1, 3, 7])
    def test_evaluations_never_exceed_max_iters(self, max_iters):
        with pytest.raises(ConvergenceError) as excinfo:
            mp_companion_solve(complex(1.0, 1e-6), UNIT, 1.0, cfg=SolverConfig(max_iters=max_iters))
        assert excinfo.value.iterations == max_iters

    def test_convergence_error_fields(self):
        cfg = SolverConfig(max_iters=2)
        with pytest.raises(ConvergenceError) as excinfo:
            mp_companion_solve(complex(1.0, 1e-6), UNIT, 1.0, cfg=cfg)
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
    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(0.05, 4.0), v=st.sampled_from([1e-2, 1e-3, 1e-4]))
    def test_unit_population_grid_matches_closed_form(self, rho, v):
        xs = np.linspace(0.0, (1 + np.sqrt(rho)) ** 2 + 1.0, 150)
        res = mp_companion_solve(xs + 1j * v, UNIT, rho)
        w = np.array([null_companion_closed_form(z, rho) for z in xs + 1j * v])
        m = (w + (1.0 - rho) / (xs + 1j * v)) / rho
        assert np.max(np.abs(res.m - m)) <= 1e-10


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-12
        assert cfg.max_iters == 10000
        assert cfg.damping == 1.0
        assert cfg.v_eps is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_iters": 0},
            {"damping": 0.0},
            {"damping": 1.5},
            {"v_eps": -1e-3},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


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
        _, _, F = density_grid(UNIT, rho, xs)
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
        _, _, F = density_grid(UNIT, 1.0, xs)
        assert np.all(np.diff(F) >= -1e-15)
        assert np.all(F <= 1.0 + 1e-12)

    def test_density_nonnegative(self):
        xs = np.linspace(0.0, 5.0, 200)
        _, f, _ = density_grid(UNIT, 2.0, xs)
        assert np.all(f >= 0.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            density_grid(UNIT, 1.0, np.array([1.0, 0.5]))

    def test_grid_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            density_grid(UNIT, 1.0, np.array([0.0, np.inf]))

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            density_grid(UNIT, 1.0, np.array([1.0]))

    def test_failure_names_grid_point(self):
        cfg = SolverConfig(max_iters=1)
        with pytest.raises(NumericalError, match="density grid failed at x="):
            density_grid(UNIT, 1.0, np.linspace(0.5, 2.0, 10), cfg=cfg)

    def test_failure_names_worst_grid_point(self):
        # The grid solve at height v_eps fails after one evaluation at
        # every point but the two far ones; the message names the point
        # whose start residual is largest (x = 0.6), not the first that
        # failed.
        xs = np.array([-1e8, -2.0, -1.0, -0.5, 0.6, 2.0, 1e8])
        v = default_v_eps(UNIT, 0.5)
        worst = int(np.argmax(start_residuals(xs + 1j * v, UNIT, 0.5)))
        assert worst == 4
        with pytest.raises(NumericalError) as excinfo:
            density_grid(UNIT, 0.5, xs, cfg=SolverConfig(max_iters=1))
        assert str(excinfo.value).startswith("density grid failed at x=0.6: ")
        assert excinfo.value.index == worst
        assert isinstance(excinfo.value.__cause__, ConvergenceError)

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
        c0 = edge_c0_solve(H, n_over_p)
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
            edge_c0_solve(UNIT, 1e30)

    def test_rejects_atom_at_zero(self):
        with pytest.raises(ValueError, match=r"\(0, inf\)"):
            edge_c0_solve(delta(0.0), 1.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match="n_over_p"):
            edge_c0_solve(UNIT, 0.0)

    def test_mu_formula_hand_value(self):
        # mu = (1/c0)(1 + (p/n) * int t c0/(1 - t c0) dH) at c0 = 2/3, H = d_1
        val = edge_mu(UNIT, 0.25, 2.0 / 3.0)
        assert val == pytest.approx(1.5 * (1 + 0.25 * 2.0), abs=1e-12)

    def test_mu_rejects_c0_out_of_range(self):
        with pytest.raises(ValueError, match="c0"):
            edge_mu(UNIT, 0.5, 1.5)

    def test_edge_result_rho(self):
        res = solve_edge(UNIT, 4.0)
        assert res.rho == pytest.approx(0.25)
