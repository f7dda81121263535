"""The grid solve of both laws: one kernel call per grid at height v_eps,
its evaluation budget, and convergence over random laws at small heights."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rmtlaw.elliptical_solver as elliptical_solver
import rmtlaw.mp_solver as mp_solver
from rmtlaw import cli
from rmtlaw.elliptical_solver import EllipticalParams, elliptical_density_grid_detailed
from rmtlaw.linalg import toeplitz_corr
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import SolverConfig, density_grid_detailed
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


def probe_span(scale: float, ratio: float, count: int):
    """The CLI's default probe span [0, probe_hi] at count points."""
    return np.linspace(0.0, cli._probe_hi(scale, ratio), count)


class TestEvaluationBudget:
    def test_toeplitz_covariance_law(self, monkeypatch):
        lam = np.linalg.eigvalsh(toeplitz_corr(200, 0.5))
        H = DiscreteMeasure(lam, np.full(lam.size, 1.0 / lam.size))
        xs = probe_span(H.support_max, 0.5, cli.DEFAULT_GRID_COUNT)
        calls = spy_calls(monkeypatch, mp_solver, "mp_companion_solve")
        density_grid_detailed(H, 0.5, xs)
        assert len(calls) == 1
        points, evals = calls[0]
        assert points == 400
        assert evals / points <= 8.0

    def test_unit_population_elliptical_law(self, monkeypatch):
        params = EllipticalParams(H=delta(1.0), nu=TWO_MIXING, theta=1.0, rho=0.5)
        calls = spy_calls(monkeypatch, elliptical_solver, "elliptical_solve")
        elliptical_density_grid_detailed(params, np.linspace(0.0, 8.0, 400))
        assert len(calls) == 1
        points, evals = calls[0]
        assert points == 400
        assert evals / points <= 12.0

    def test_default_grid_command_solves_each_grid_once(self, monkeypatch, tmp_path):
        # The probe grid and the written grid: two grids, two kernel calls.
        source = tmp_path / "h.json"
        source.write_text('{"atoms": [{"value": 1.0, "weight": 1.0}]}')
        calls = spy_calls(monkeypatch, mp_solver, "mp_companion_solve")
        argv = ["solve-mp", "--h-file", str(source), "--rho", "0.5"]
        assert cli.main([*argv, "--out", str(tmp_path / "law"), "--quiet"]) == 0
        assert [points for points, _ in calls] == [200, cli.DEFAULT_GRID_COUNT]


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
            density_grid_detailed(H, rho, probe_span(H.support_max, rho, 64), cfg)
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
                params, probe_span(scale, theta * rho, 64), cfg
            )
        assert_converged(solves, cfg.tol)
