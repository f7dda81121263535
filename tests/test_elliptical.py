"""Coupled-transform solver: reduction to the classical law and invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtlaw import cli
from rmtlaw.errors import NumericalError
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import (
    DEFAULT_GRID_COUNT,
    GRID_PAD,
    SolverConfig,
    density_grid_detailed,
    mp_companion_solve,
    support_hull,
)
from rmtlaw.elliptical_solver import (
    EllipticalParams,
    elliptical_density_grid_detailed,
    elliptical_solve,
    load_params_json,
    mixing_integral,
    params_from_json_dict,
    scaled_gram,
)
from strategies import populations

UNIT = delta(1.0)
TWO_ATOM = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))


def unit_params(rho: float, H=UNIT) -> EllipticalParams:
    return EllipticalParams(H=H, nu=delta(1.0), theta=1.0, rho=rho)


class TestMixingIntegral:
    def test_frozen_two_atom_value(self):
        # nu = (d_1 + d_2)/2, theta = xi = 1, w = i:
        # b = (1/(1+i) + 4/(1+4i))/2
        nu = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        b = mixing_integral(1.0j, nu, 1.0, 1.0)
        assert b.real == pytest.approx(0.36764705882352944, abs=1e-15)
        assert b.imag == pytest.approx(-0.7205882352941176, abs=1e-15)

    def test_unit_mixing(self):
        w = 0.3 + 0.4j
        b = mixing_integral(w, delta(1.0), 2.0, 1.5)
        assert b == pytest.approx(2.0 / (1.0 + 1.5 * w), abs=1e-15)

    def test_zero_mixing_mass(self):
        assert mixing_integral(1.0j, delta(0.0), 1.0, 1.0) == 0.0

    def test_array_matches_scalar_calls(self):
        nu = DiscreteMeasure(np.array([0.5, 1.0, 3.0]), np.array([0.2, 0.5, 0.3]))
        ws = np.array([1.0j, 0.5 + 1e-3j, -2.0 + 0.1j])
        b = mixing_integral(ws, nu, 1.3, 2.0)
        assert b.shape == (3,)
        for w, bw in zip(ws, b):
            assert abs(bw - mixing_integral(w, nu, 1.3, 2.0)) <= 1e-15

    def test_singular_atom_raises(self):
        with pytest.raises(ValueError, match="singular"):
            mixing_integral(-1.0 + 0.0j, delta(1.0), 1.0, 1.0)

    @pytest.mark.parametrize("w", [1.0j, 0.5 + 1e-3j, -2.0 + 0.1j])
    def test_lower_half_plane_image(self, w):
        nu = DiscreteMeasure(np.array([0.5, 1.0, 3.0]), np.array([0.2, 0.5, 0.3]))
        assert mixing_integral(w, nu, 1.3, 2.0).imag <= 0


class TestParamsValidation:
    def test_xi_always_exact(self):
        params = EllipticalParams(H=UNIT, nu=UNIT, theta=2.0, rho=0.5)
        assert params.xi == 2.0

    # xi is derived; only a params JSON can supply one, and it is checked.
    JSON = {
        "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
        "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
        "theta": 2.0,
        "rho": 0.5,
    }

    def test_xi_close_accepted(self):
        params = params_from_json_dict({**self.JSON, "xi": 2.0 * (1 + 1e-14)})
        assert params.xi == 2.0

    def test_xi_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            params_from_json_dict({**self.JSON, "xi": 2.1})

    def test_h_moment_guard(self):
        H = delta(1e7)
        with pytest.raises(ValueError, match="first moment"):
            EllipticalParams(H=H, nu=UNIT, theta=1.0, rho=1.0)

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError, match="mass off zero"):
            EllipticalParams(H=delta(0.0), nu=UNIT, theta=1.0, rho=1.0)

    def test_nu_zero_rejected(self):
        with pytest.raises(ValueError, match="mass off zero"):
            EllipticalParams(H=UNIT, nu=delta(0.0), theta=1.0, rho=1.0)

    def test_negative_support_rejected(self):
        H = DiscreteMeasure(np.array([-0.5, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"\[0, inf\)"):
            EllipticalParams(H=H, nu=UNIT, theta=1.0, rho=1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    @pytest.mark.parametrize("key", ["theta", "rho"])
    def test_ratios_positive_and_finite(self, key, value):
        kwargs = {"H": UNIT, "nu": UNIT, "theta": 1.0, "rho": 1.0, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite$"):
            EllipticalParams(**kwargs)

    @pytest.mark.parametrize("key, value", [("theta", "2"), ("rho", True), ("xi", False)])
    def test_json_numbers_only(self, key, value):
        # A string or a boolean is no number, though float() would take it.
        with pytest.raises(ValueError, match=f'params JSON "{key}" must be a number'):
            params_from_json_dict({**self.JSON, key: value})

    def test_theta_positive(self):
        with pytest.raises(ValueError, match="theta"):
            EllipticalParams(H=UNIT, nu=UNIT, theta=0.0, rho=1.0)


class TestReduction:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, 2.0])
    def test_m_matches_classical(self, rho):
        # Unit mixing and theta = 1 collapse the system to the classical law.
        params = unit_params(rho, H=TWO_ATOM)
        for x in np.linspace(0.1, 5.0, 7):
            z = complex(x, 1e-3)
            me = elliptical_solve(z, params).m
            mc = mp_companion_solve(z, TWO_ATOM, rho).m
            assert abs(me - mc) < 1e-9

    def test_w_matches_companion_at_square(self):
        params = unit_params(1.0)
        z = complex(1.5, 1e-2)
        we = elliptical_solve(z, params).w
        wc = mp_companion_solve(z, UNIT, 1.0).w
        assert abs(we - wc) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(H=populations(), rho=st.floats(0.05, 4.0))
    def test_grid_matches_covariance_law(self, H, rho):
        # nu = delta_1 and theta = 1 make both laws the same measure.
        xs = np.linspace(0.0, (1 + np.sqrt(rho)) ** 2 * H.support_max + 1.0, 150)
        _, fe, Fe, _ = elliptical_density_grid_detailed(unit_params(rho, H=H), xs)
        _, fc, Fc, _ = density_grid_detailed(H, rho, xs)
        assert np.max(np.abs(fe - fc)) <= 1e-10
        assert np.max(np.abs(Fe - Fc)) <= 1e-10

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_grid_matches_covariance_law_with_zero_atom(self, rho):
        # H's atom at 0 is part of both laws' atom there: max(1 - 1/rho, 0.3).
        H = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        xs = np.linspace(0.0, (1 + np.sqrt(0.7 * rho)) ** 2 + 1.0, 150)
        _, fe, Fe, se = elliptical_density_grid_detailed(unit_params(rho, H=H), xs)
        _, fc, Fc, sc = density_grid_detailed(H, rho, xs)
        assert se["atom0_mass"] == sc["atom0_mass"] == max(1.0 - 1.0 / rho, 0.3)
        assert np.max(np.abs(fe - fc)) <= 1e-10
        assert np.max(np.abs(Fe - Fc)) <= 1e-10

    def test_density_reduction_pointwise(self):
        rho = 0.5
        params = unit_params(rho)
        xs = np.linspace(0.0, (1 + np.sqrt(rho)) ** 2 + 0.5, 200)
        _, fe, Fe, _ = elliptical_density_grid_detailed(params, xs)
        _, fc, Fc, _ = density_grid_detailed(UNIT, rho, xs)
        assert np.max(np.abs(fe - fc)) < 1e-6
        assert np.max(np.abs(Fe - Fc)) < 1e-6


def elliptical_span(params: EllipticalParams) -> tuple[float, float]:
    """theta * [min nu^2, max nu^2] times the covariance law's hull at
    theta * rho, the span default-grid solve-elliptical places its grid on."""
    a, b = support_hull(params.H, params.theta * params.rho)
    lam2 = params.nu.values**2
    return params.theta * lam2.min() * a, params.theta * lam2.max() * b


class TestSupportSpan:
    # B lies between theta*min(lam^2)*S and theta*max(lam^2)*S in the Loewner
    # order, S the sample covariance of H at ratio theta*rho.

    @pytest.mark.parametrize("theta, rho", [(0.5, 0.4), (1.0, 0.5), (2.0, 1.5)])
    def test_one_mixing_atom_is_scaled_covariance_law(self, theta, rho):
        # nu = delta_1: B is theta * S, so m(z) = m_S(z/theta)/theta.
        lam = np.linspace(0.2, 5.0, 50)
        H = DiscreteMeasure(lam, np.full(50, 1.0 / 50))
        params = EllipticalParams(H=H, nu=UNIT, theta=theta, rho=rho)
        z = np.linspace(0.0, 40.0, 60) + 1e-3j
        me = elliptical_solve(z, params).m
        ms = mp_companion_solve(z / theta, H, theta * rho).m / theta
        assert np.max(np.abs(me - ms)) <= 1e-10

    def test_default_grid_spans_it(self, tmp_path):
        # solve-elliptical's default grid is this span, GRID_PAD wider.
        nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.25, 0.75]))
        params = EllipticalParams(H=TWO_ATOM, nu=nu, theta=2.0, rho=0.25)
        obj = {
            "H": {"atoms": [{"value": 1.0, "weight": 0.5}, {"value": 2.0, "weight": 0.5}]},
            "nu": {"atoms": [{"value": 0.5, "weight": 0.25}, {"value": 1.5, "weight": 0.75}]},
            "theta": 2.0,
            "rho": 0.25,
            "xi": params.xi,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(obj))
        argv = ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "law")]
        assert cli.main([*argv, "--quiet"]) == 0
        xs = np.loadtxt(tmp_path / "law.density.csv", delimiter=",", skiprows=1)[:, 0]
        a, b = elliptical_span(params)
        assert xs.size == DEFAULT_GRID_COUNT
        assert (xs[0], xs[-1]) == (max(0.0, a - GRID_PAD), b + GRID_PAD)

    @settings(max_examples=40, deadline=None)
    @given(
        H=populations(max_atoms=5),
        nu=populations(max_atoms=3),
        theta=st.floats(0.25, 2.0),
        rho=st.floats(0.05, 4.0),
    )
    def test_density_beyond_span_within_cauchy_tail(self, H, nu, theta, rho):
        # Off the support, Im m(x + iv)/pi is at most (v/pi)/d^2, d the
        # distance from x to the support, so also to any interval holding it.
        params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
        a, b = elliptical_span(params)
        below = a * np.array([0.25, 0.5, 0.9, 0.99]) if a > 0 else np.empty(0)
        above = b + (b - a) * np.array([1e-3, 1e-2, 0.1, 1.0])
        xs = np.concatenate([below, above])
        v = 1e-6
        _, density, _, _ = elliptical_density_grid_detailed(params, xs, SolverConfig(v_eps=v))
        d = np.maximum(a - xs, xs - b)
        assert np.all(density <= (v / np.pi) / d**2)


class TestSolverInvariants:
    def test_consistency_identity(self):
        nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.4, 0.6]))
        params = EllipticalParams(H=TWO_ATOM, nu=nu, theta=1.2, rho=0.8)
        z = complex(1.0, 1e-3)
        res = elliptical_solve(z, params)
        b = mixing_integral(res.w, nu, params.theta, params.xi)
        assert abs(1.0 + z * res.m - res.w * b) < 1e-10

    def test_upper_half_plane(self):
        nu = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.7, 0.3]))
        params = EllipticalParams(H=UNIT, nu=nu, theta=0.9, rho=1.1)
        for x in np.linspace(-0.5, 8.0, 9):
            res = elliptical_solve(complex(x, 1e-3), params)
            assert res.w.imag >= 0
            assert res.m.imag >= 0

    def test_large_z_decay(self):
        params = unit_params(0.7, H=TWO_ATOM)
        z = complex(1e9, 1.0)
        res = elliptical_solve(z, params)
        # w ~ -E[tau]/z far from the support
        assert abs(res.w + TWO_ATOM.mean / z) < 1e-9 * TWO_ATOM.mean

    def test_uniqueness_across_starts(self):
        nu = DiscreteMeasure(np.array([0.8, 1.3]), np.array([0.5, 0.5]))
        params = EllipticalParams(H=TWO_ATOM, nu=nu, theta=1.0, rho=0.6)
        z = complex(2.0, 1e-3)
        a = elliptical_solve(z, params, w0=-TWO_ATOM.mean / z)
        b = elliptical_solve(z, params, w0=1.0j)
        assert abs(a.w - b.w) < 1e-8

    def test_converges_where_rounding_exceeds_tol(self):
        # theta*rho > 1 puts an atom at 0, so at z = 1e-5 i the solution
        # has |w| ~ 2.6e4 and rounding alone leaves |T(w) - w| ~ 3.6e-12,
        # above tol = 1e-12; the stopping test floors tol at 16*eps*|w|.
        H = DiscreteMeasure(
            np.array([0.72696897, 2.78546359, 2.97848288, 4.6355129, 5.40877517]),
            np.array([0.34858365, 0.0619879, 0.4356739, 0.08418914, 0.06956541]),
        )
        params = EllipticalParams(
            H=H, nu=delta(1.79002532), theta=0.5, rho=2.3885476566791892
        )
        res = elliptical_solve(1e-5j, params, SolverConfig(v_eps=1e-5))
        assert abs(res.w) > 2e4
        assert res.residual <= 16 * np.finfo(float).eps * abs(res.w)
        assert res.iterations <= 20

    def test_requires_upper_half_z(self):
        with pytest.raises(ValueError, match="imaginary"):
            elliptical_solve(1.0, unit_params(1.0))

    @pytest.mark.parametrize(
        "w0, message",
        [
            (-0.5 - 0.1j, "w0 must be finite with positive imaginary part"),
            (complex(np.nan, 1.0), "w0 must be finite with positive imaginary part"),
            ([1j, 2j, 3j], r"w0 of shape \(3,\) does not broadcast to z of shape \(2,\)"),
        ],
        ids=["lower", "nan", "wrong_length"],
    )
    def test_invalid_w0_rejected(self, w0, message):
        params = EllipticalParams(H=TWO_ATOM, nu=delta(1.0), theta=1.0, rho=0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            elliptical_solve(np.array([1.5, 2.0]) + 0.01j, params, w0=w0)


class TestArrayInput:
    @settings(max_examples=25, deadline=None)
    @given(
        H=populations(),
        nu=populations(max_atoms=3),
        theta=st.floats(0.5, 2.0),
        rho=st.floats(0.05, 4.0),
        xs=st.lists(st.floats(-1.0, 40.0), min_size=1, max_size=12),
        v=st.sampled_from([1e-3, 1e-2, 1.0]),
    )
    def test_array_matches_scalar_calls(self, H, nu, theta, rho, xs, v):
        params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
        zs = np.array(xs) + 1j * v
        res = elliptical_solve(zs, params)
        assert res.w.shape == res.m.shape == zs.shape
        for z, w, m in zip(zs, res.w, res.m):
            single = elliptical_solve(z, params)
            assert abs(w - single.w) <= 1e-10
            assert abs(m - single.m) <= 1e-10

    def test_array_fields(self):
        params = unit_params(0.5, H=TWO_ATOM)
        zs = np.linspace(0.2, 4.0, 6) + 1e-2j
        res = elliptical_solve(zs, params)
        singles = [elliptical_solve(z, params) for z in zs]
        assert res.residual == max(r.residual for r in singles)
        assert res.iterations == sum(r.iterations for r in singles)


class TestEllipticalDensity:
    def test_total_mass(self):
        nu = DiscreteMeasure(np.array([0.7, 1.4]), np.array([0.5, 0.5]))
        params = EllipticalParams(H=UNIT, nu=nu, theta=1.0, rho=0.5)
        xs = np.linspace(0.0, 10.0, 500)
        _, f, F, stats = elliptical_density_grid_detailed(params, xs)
        assert abs(F[-1] - 1.0) < 0.02
        assert stats["max_consistency_residual"] < 1e-9

    def test_atom_mass_theta_rho(self):
        # rank(B) <= n forces mass 1 - 1/(theta*rho) at zero when theta*rho > 1.
        params = EllipticalParams(H=UNIT, nu=UNIT, theta=2.0, rho=1.0)
        xs = np.linspace(0.0, 8.0, 300)
        _, _, F, stats = elliptical_density_grid_detailed(params, xs)
        assert stats["atom0_mass"] == pytest.approx(0.5)
        assert F[0] >= 0.5

    @pytest.mark.parametrize(
        "H, nu, theta, rho, atom0",
        [
            ([(0.0, 0.3), (1.0, 0.7)], [(1.0, 1.0)], 1.0, 0.5, 0.3),
            ([(1.0, 1.0)], [(0.0, 0.5), (1.0, 0.5)], 1.0, 2.0, 0.75),
            ([(0.0, 0.3), (1.0, 0.7)], [(0.0, 0.5), (2.0, 0.5)], 2.0, 1.0, 0.75),
            ([(0.0, 0.6), (1.0, 0.4)], [(0.0, 0.3), (1.5, 0.7)], 1.0, 1.0, 0.6),
        ],
    )
    def test_atom_counts_zero_atoms(self, H, nu, theta, rho, atom0):
        # rank B <= min(n * nu(lam != 0), d * H((0, inf))), d/n = theta*rho;
        # the atom is v * Im m(iv) as v -> 0.
        def measure(atoms):
            return DiscreteMeasure(*np.array(atoms).T)

        params = EllipticalParams(H=measure(H), nu=measure(nu), theta=theta, rho=rho)
        _, _, F, stats = elliptical_density_grid_detailed(params, np.linspace(0.0, 8.0, 300))
        assert stats["atom0_mass"] == pytest.approx(atom0, abs=1e-15)
        # At x = 0 the CDF holds the atom, as a step, and the smoothed
        # continuous part's mass below 0.
        assert F[0] >= stats["atom0_mass"]
        v = 1e-6
        assert v * elliptical_solve(1j * v, params).m.imag == pytest.approx(atom0, abs=1e-9)

    def test_no_atom_when_thin(self):
        params = EllipticalParams(H=UNIT, nu=UNIT, theta=0.5, rho=1.0)
        xs = np.linspace(0.0, 6.0, 200)
        _, _, _, stats = elliptical_density_grid_detailed(params, xs)
        assert stats["atom0_mass"] == 0.0

    def test_density_nonnegative_cdf_monotone(self):
        nu = DiscreteMeasure(np.array([0.5, 2.0]), np.array([0.5, 0.5]))
        params = EllipticalParams(H=TWO_ATOM, nu=nu, theta=1.0, rho=1.5)
        xs = np.linspace(0.0, 25.0, 400)
        _, f, F, _ = elliptical_density_grid_detailed(params, xs)
        assert np.all(f >= 0)
        assert np.all(np.diff(F) >= -1e-15)


class TestScaledGram:
    def test_zero_matrix(self):
        B = scaled_gram(np.zeros((4, 3)), p=2)
        assert np.array_equal(B, np.zeros((3, 3)))

    def test_identity_columns(self):
        X = np.vstack([np.eye(3), np.eye(3)])  # 6 x 3
        B = scaled_gram(X, p=3)
        assert np.allclose(B, np.eye(3) / 3.0)

    def test_hand_value(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        B = scaled_gram(X, p=5)
        assert np.allclose(B, (2.0 / 5.0) * (X.T @ X) / 3.0)

    def test_shape_checked(self):
        # n and d come from X, so X must be an n x d matrix.
        with pytest.raises(ValueError, match="2-d"):
            scaled_gram(np.zeros(4), p=2)

    def test_finite_checked(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scaled_gram(X, p=2)


class TestParamsJson:
    def test_round_trip(self):
        # A hand-written params object reads back as the params it writes.
        nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.3, 0.7]))
        params = EllipticalParams(H=TWO_ATOM, nu=nu, theta=1.5, rho=0.4)
        obj = {
            "H": {"atoms": [{"value": 1.0, "weight": 0.5}, {"value": 2.0, "weight": 0.5}]},
            "nu": {"atoms": [{"value": 0.5, "weight": 0.3}, {"value": 1.5, "weight": 0.7}]},
            "theta": 1.5,
            "rho": 0.4,
            "xi": params.xi,
        }
        back = params_from_json_dict(obj)
        assert np.allclose(back.H.values, params.H.values)
        assert np.allclose(back.nu.weights, params.nu.weights)
        assert back.theta == params.theta
        assert back.rho == params.rho
        assert back.xi == params.xi

    def test_missing_key(self):
        with pytest.raises(ValueError, match='"nu"'):
            params_from_json_dict(
                {"H": {"atoms": [{"value": 1.0, "weight": 1.0}]}, "theta": 1, "rho": 1}
            )

    def test_unknown_key_rejected(self):
        unit = {"atoms": [{"value": 1.0, "weight": 1.0}]}
        obj = {"H": unit, "nu": unit, "theta": 1.0, "rho": 1.0, "mixing": unit}
        with pytest.raises(ValueError, match='unknown key "mixing"'):
            params_from_json_dict(obj)

    def test_g_key_accepted_and_ignored(self):
        obj = {
            "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
            "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
            "theta": 1.0,
            "rho": 1.0,
            "G": {"atoms": [{"value": 2.0, "weight": 1.0}]},
        }
        params = params_from_json_dict(obj)
        assert params.theta == 1.0

    def test_bad_g_rejected(self):
        obj = {
            "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
            "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
            "theta": 1.0,
            "rho": 1.0,
            "G": {"atoms": []},
        }
        with pytest.raises(ValueError):
            params_from_json_dict(obj)

    def test_load_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(
            json.dumps(
                {
                    "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                    "nu": {"atoms": [{"value": 2.0, "weight": 1.0}]},
                    "theta": 0.5,
                    "rho": 2.0,
                }
            )
        )
        params = load_params_json(path)
        assert params.xi == pytest.approx(0.5)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[")
        with pytest.raises(ValueError, match="invalid params JSON"):
            load_params_json(path)
