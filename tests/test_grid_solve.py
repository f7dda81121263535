"""The grid solve of both laws: one kernel call per grid at height v_eps,
its evaluation budget, its one-atom start, and convergence over random
laws at small heights."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rmtlaw.elliptical_solver as elliptical_solver
import rmtlaw.mp_solver as mp_solver
from rmtlaw import cli
from rmtlaw.elliptical_solver import (
    EllipticalParams,
    elliptical_density_grid_detailed,
    elliptical_solve,
)
from rmtlaw.linalg import toeplitz_corr
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import SolverConfig, density_grid_detailed, mp_companion_solve
from strategies import populations

EPS = np.finfo(np.float64).eps
TWO_MIXING = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
# The atoms of H in the elliptical regression case of test_elliptical.py.
FIVE_ATOM = DiscreteMeasure(
    np.array([0.72696897, 2.78546359, 2.97848288, 4.6355129, 5.40877517]),
    np.array([0.34858365, 0.0619879, 0.4356739, 0.08418914, 0.06956541]),
)


def spy_calls(monkeypatch, module, name):
    """Record (points, evaluations) of every call of module.name."""
    calls = []
    solve = getattr(module, name)

    def wrapper(z, *args, **kwargs):
        result = solve(z, *args, **kwargs)
        calls.append((np.size(z), result.iterations))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


@contextmanager
def spy_kernel():
    """Record (w, residual) per point of every kernel solve of both laws."""
    solves = []
    kernel = mp_solver._newton_fixed_point

    def wrapper(step, w0, cfg):
        w, residual, evals = kernel(step, w0, cfg)
        solves.append((w, residual))
        return w, residual, evals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mp_solver, "_newton_fixed_point", wrapper)
        mp.setattr(elliptical_solver, "_newton_fixed_point", wrapper)
        yield solves


def wide_span(scale: float, ratio: float, count: int):
    """[0, scale * (1 + sqrt(ratio))^2 * 1.5 + 1] at count points: past the
    covariance law's bulk [0, max(H) * (1 + sqrt(rho))^2], with margin."""
    return np.linspace(0.0, scale * (1.0 + np.sqrt(ratio)) ** 2 * 1.5 + 1.0, count)


class TestEvaluationBudget:
    def test_toeplitz_covariance_law(self, monkeypatch):
        lam = np.linalg.eigvalsh(toeplitz_corr(200, 0.5))
        H = DiscreteMeasure(lam, np.full(lam.size, 1.0 / lam.size))
        xs = wide_span(H.support_max, 0.5, cli.DEFAULT_GRID_COUNT)
        calls = spy_calls(monkeypatch, mp_solver, "mp_companion_solve")
        density_grid_detailed(H, 0.5, xs)
        assert len(calls) == 1
        points, evals = calls[0]
        assert points == 400
        assert evals / points <= 5.0

    def test_unit_population_elliptical_law(self, monkeypatch):
        params = EllipticalParams(H=delta(1.0), nu=TWO_MIXING, theta=1.0, rho=0.5)
        calls = spy_calls(monkeypatch, elliptical_solver, "elliptical_solve")
        elliptical_density_grid_detailed(params, np.linspace(0.0, 8.0, 400))
        assert len(calls) == 1
        points, evals = calls[0]
        assert points == 400
        assert evals / points <= 7.0

    def test_default_grid_command_solves_each_grid_once(self, monkeypatch, tmp_path):
        # The grid comes from the law's exact support hull: one grid, one
        # kernel call.
        source = tmp_path / "h.json"
        source.write_text('{"atoms": [{"value": 1.0, "weight": 1.0}]}')
        calls = spy_calls(monkeypatch, mp_solver, "mp_companion_solve")
        argv = ["solve-mp", "--h-file", str(source), "--rho", "0.5"]
        assert cli.main([*argv, "--out", str(tmp_path / "law"), "--quiet"]) == 0
        assert [points for points, _ in calls] == [cli.DEFAULT_GRID_COUNT]

    def test_default_grid_elliptical_command_solves_once(self, monkeypatch, tmp_path):
        # The grid comes from the covariance law's hull, scaled by theta and
        # the mixing atoms: one grid, one kernel call.
        source = tmp_path / "params.json"
        unit = '{"atoms": [{"value": 1.0, "weight": 1.0}]}'
        source.write_text(f'{{"H": {unit}, "nu": {unit}, "theta": 1.0, "rho": 0.5}}')
        calls = spy_calls(monkeypatch, elliptical_solver, "elliptical_solve")
        argv = ["solve-elliptical", "--params", str(source)]
        assert cli.main([*argv, "--out", str(tmp_path / "law"), "--quiet"]) == 0
        assert [points for points, _ in calls] == [cli.DEFAULT_GRID_COUNT]


TWO_ATOM = DiscreteMeasure(np.array([1.0, 10.0]), np.array([0.5, 0.5]))
POINTS = st.lists(st.floats(-1.0, 40.0), min_size=1, max_size=12)
HEIGHTS = st.sampled_from([1e-4, 1e-3, 1e-2, 1.0])


def assert_same_w(a, b) -> None:
    """w within 1e-10, relative where |w| > 1 (it reaches 2e4 at x = 0).

    m is a function of w, and at x = 0 it magnifies the kernel's stopping
    floor 16*eps*|w| past 1e-10 from the large-z start (the strict xfail
    TestGridClosedForm.test_large_w_at_zero), so only w is compared.
    """
    assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))


class TestDefaultStart:
    """Both solves start from the law's fixed point for a one-atom H (and
    nu): exact there, and close in scale elsewhere."""

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(0.1, 10.0),
        lam=st.floats(0.1, 10.0),
        theta=st.floats(0.25, 2.0),
        rho=st.floats(0.05, 4.0),
        xs=POINTS,
        v=st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]),
    )
    def test_one_atom_laws_take_one_evaluation(self, s, lam, theta, rho, xs, v):
        zs = np.array(xs) + 1j * v
        assert mp_companion_solve(zs, delta(s), rho).iterations == zs.size
        params = EllipticalParams(H=delta(s), nu=delta(lam), theta=theta, rho=rho)
        assert elliptical_solve(zs, params).iterations == zs.size

    # x = 0 and x = 1e-6 with rho near 1 is where a start of height
    # max(v, 1) takes thousands of evaluations, or fails at max_iters.
    @pytest.mark.parametrize("rho", [0.5, 0.99, 1.0, 1.01, 2.0])
    @pytest.mark.parametrize("H", [delta(1.0), TWO_ATOM], ids=["unit", "two_atom"])
    def test_hard_points_within_100_evaluations(self, H, rho):
        xs = np.array([0.0, 1e-6, 0.5, 1.0, 4.0])
        for v in (1e-2, 1e-4, 1e-6, 1e-8):
            mp_companion_solve(xs + 1j * v, H, rho, SolverConfig(max_iters=100))

    @settings(max_examples=40, deadline=None)
    @given(H=populations(), rho=st.floats(0.05, 4.0), xs=POINTS, v=HEIGHTS)
    @example(H=delta(1.0), rho=0.109375, xs=[0.0], v=1e-4)
    def test_covariance_law_agrees_with_large_z_start(self, H, rho, xs, v):
        zs = np.array(xs) + 1j * v
        res = mp_companion_solve(zs, H, rho)
        assert_same_w(res.w, mp_companion_solve(zs, H, rho, w0=-1.0 / zs).w)

    @settings(max_examples=40, deadline=None)
    @given(
        H=populations(),
        nu=populations(max_atoms=3),
        theta=st.floats(0.25, 2.0),
        rho=st.floats(0.05, 4.0),
        xs=POINTS,
        v=HEIGHTS,
    )
    def test_elliptical_law_agrees_with_large_z_start(self, H, nu, theta, rho, xs, v):
        zs = np.array(xs) + 1j * v
        params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
        res = elliptical_solve(zs, params)
        assert_same_w(res.w, elliptical_solve(zs, params, w0=-1.0 / zs).w)


def assert_converged(solves, tol: float) -> None:
    (w, residual), = solves
    assert np.all(residual <= np.maximum(tol, 16.0 * EPS * np.abs(w)))


# rho just below 1 (a large w at x = 0) and rho above 1 (an atom at 0).
RHOS = st.one_of(st.floats(0.05, 4.0), st.floats(0.8, 0.999))
V_EPS = st.sampled_from([1e-4, 1e-5])


class TestConvergence:
    @settings(max_examples=40, deadline=None)
    @given(H=populations(), rho=RHOS, v_eps=V_EPS)
    @example(H=delta(1.0), rho=0.95, v_eps=1e-5)
    @example(H=FIVE_ATOM, rho=2.5, v_eps=1e-5)
    def test_covariance_law(self, H, rho, v_eps):
        cfg = SolverConfig(v_eps=v_eps)
        with spy_kernel() as solves:
            density_grid_detailed(H, rho, wide_span(H.support_max, rho, 64), cfg)
        assert_converged(solves, cfg.tol)

    @settings(max_examples=40, deadline=None)
    @given(
        H=populations(),
        nu=populations(max_atoms=3),
        theta=st.floats(0.25, 2.0),
        rho=RHOS,
        v_eps=V_EPS,
    )
    @example(
        H=FIVE_ATOM, nu=delta(1.79002532), theta=0.5, rho=2.3885476566791892, v_eps=1e-5
    )
    @example(H=delta(1.0), nu=TWO_MIXING, theta=1.0, rho=0.95, v_eps=1e-5)
    # |b| ~ 150 at the far end of the span, x ~ 558: the consistency
    # identity 1 + z*m - w*b = b*(T(w) - w) reaches 2e-10 on a converged w.
    @example(H=delta(1.0), nu=delta(7.0), theta=2.0, rho=1.0, v_eps=1e-4)
    # |w| ~ 1.1e3 near x = 0.034, where rounding in T leaves |T(w) - w| at
    # about 6*eps*|w|: a floor of 4*eps*|w| stalls there.
    @example(
        H=delta(8.386746642298249), nu=delta(0.109375), theta=0.25, rho=0.25, v_eps=1e-4
    )
    def test_elliptical_law(self, H, nu, theta, rho, v_eps):
        cfg = SolverConfig(v_eps=v_eps)
        params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
        scale = theta * float(np.max(nu.values**2)) * H.support_max
        with spy_kernel() as solves:
            elliptical_density_grid_detailed(
                params, wide_span(scale, theta * rho, 64), cfg
            )
        assert_converged(solves, cfg.tol)
