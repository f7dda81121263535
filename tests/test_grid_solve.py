"""The grid solve of both laws: two kernel calls per grid at height v_eps,
coarse to fine, their evaluation budget, the one-atom start, agreement
with one array solve of the whole grid, and convergence over random laws
at small heights."""

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
from rmtlaw.errors import NumericalError
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


@contextmanager
def spy_results(module, name):
    """Record the result of every call of module.name."""
    results = []
    solve = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, wrapper)
        yield results


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


# A 400-point grid: 51 coarse points (every 8th and the last), 349 fine.
GRID_PASSES = [51, 349]


def coarse_and_fine(count: int) -> tuple[list[int], list[int]]:
    """Grid indices of the coarse pass (every 8th and the last) and the fine one."""
    coarse = sorted(set(range(0, count, 8)) | {count - 1})
    return coarse, sorted(set(range(count)) - set(coarse))


def solve_counts(results) -> list[tuple[int, int]]:
    """(points, evaluations) of each recorded solve."""
    return [(result.z.size, result.iterations) for result in results]


class TestEvaluationBudget:
    def test_toeplitz_covariance_law(self):
        lam = np.linalg.eigvalsh(toeplitz_corr(200, 0.5))
        H = DiscreteMeasure(lam, np.full(lam.size, 1.0 / lam.size))
        xs = wide_span(H.support_max, 0.5, cli.DEFAULT_GRID_COUNT)
        with spy_results(mp_solver, "mp_companion_solve") as results:
            density_grid_detailed(H, 0.5, xs)
        points, evals = zip(*solve_counts(results))
        assert list(points) == GRID_PASSES
        assert sum(evals) / 400 <= 4.0

    def test_unit_population_elliptical_law(self):
        params = EllipticalParams(H=delta(1.0), nu=TWO_MIXING, theta=1.0, rho=0.5)
        with spy_results(elliptical_solver, "elliptical_solve") as results:
            elliptical_density_grid_detailed(params, np.linspace(0.0, 8.0, 400))
        points, evals = zip(*solve_counts(results))
        assert list(points) == GRID_PASSES
        assert sum(evals) / 400 <= 4.5

    def test_default_grid_command_solves_each_grid_once(self, tmp_path):
        # The grid comes from the law's exact support hull: one grid, in
        # its two passes. The one-atom start is exact, so the fine pass
        # keeps it and every point takes one evaluation.
        source = tmp_path / "h.json"
        source.write_text('{"atoms": [{"value": 1.0, "weight": 1.0}]}')
        argv = ["solve-mp", "--h-file", str(source), "--rho", "0.5"]
        with spy_results(mp_solver, "mp_companion_solve") as results:
            assert cli.main([*argv, "--out", str(tmp_path / "law"), "--quiet"]) == 0
        assert solve_counts(results) == [(points, points) for points in GRID_PASSES]

    def test_default_grid_elliptical_command_solves_once(self, tmp_path):
        # The grid comes from the covariance law's hull, scaled by theta and
        # the mixing atoms: one grid, in its two passes, one evaluation a
        # point from the exact one-atom start.
        source = tmp_path / "params.json"
        unit = '{"atoms": [{"value": 1.0, "weight": 1.0}]}'
        source.write_text(f'{{"H": {unit}, "nu": {unit}, "theta": 1.0, "rho": 0.5}}')
        argv = ["solve-elliptical", "--params", str(source)]
        with spy_results(elliptical_solver, "elliptical_solve") as results:
            assert cli.main([*argv, "--out", str(tmp_path / "law"), "--quiet"]) == 0
        assert solve_counts(results) == [(points, points) for points in GRID_PASSES]


TWO_ATOM = DiscreteMeasure(np.array([1.0, 10.0]), np.array([0.5, 0.5]))
POINTS = st.lists(st.floats(-1.0, 40.0), min_size=1, max_size=12)
HEIGHTS = st.sampled_from([1e-4, 1e-3, 1e-2, 1.0])
# rho just below 1 (a large w at x = 0) and rho above 1 (an atom at 0).
RHOS = st.one_of(st.floats(0.05, 4.0), st.floats(0.8, 0.999))
V_EPS = st.sampled_from([1e-4, 1e-5])


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


def grid_w(results, xs):
    """w on the grid xs from the results of its passes, the coarse one first."""
    passes = [idx for idx in coarse_and_fine(xs.size) if idx]
    assert len(results) == len(passes)
    w = np.empty(xs.size, dtype=np.complex128)
    for result, idx in zip(results, passes):
        assert np.array_equal(result.z.real, xs[idx])
        w[idx] = result.w
    return w


GRID_COUNTS = st.integers(2, 120)
GRID_HEIGHTS = st.one_of(HEIGHTS, V_EPS)


class TestCoarseToFine:
    """The two passes give the w of one array solve of the whole grid from
    the law's own start, and a failure in either names its grid point."""

    @settings(max_examples=40, deadline=None)
    @given(H=populations(), rho=RHOS, v=GRID_HEIGHTS, count=GRID_COUNTS)
    def test_covariance_law_matches_one_array_solve(self, H, rho, v, count):
        xs = wide_span(H.support_max, rho, count)
        with spy_results(mp_solver, "mp_companion_solve") as results:
            density_grid_detailed(H, rho, xs, SolverConfig(v_eps=v))
        assert_same_w(grid_w(results, xs), mp_companion_solve(xs + 1j * v, H, rho).w)

    @settings(max_examples=40, deadline=None)
    @given(
        H=populations(),
        nu=populations(max_atoms=3),
        theta=st.floats(0.25, 2.0),
        rho=RHOS,
        v=GRID_HEIGHTS,
        count=GRID_COUNTS,
    )
    def test_elliptical_law_matches_one_array_solve(self, H, nu, theta, rho, v, count):
        params = EllipticalParams(H=H, nu=nu, theta=theta, rho=rho)
        scale = theta * float(np.max(nu.values**2)) * H.support_max
        xs = wide_span(scale, theta * rho, count)
        with spy_results(elliptical_solver, "elliptical_solve") as results:
            elliptical_density_grid_detailed(params, xs, SolverConfig(v_eps=v))
        assert_same_w(grid_w(results, xs), elliptical_solve(xs + 1j * v, params).w)

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(2, 60), data=st.data())
    @pytest.mark.parametrize("law", ["mp", "elliptical"])
    def test_failure_names_grid_index_and_x(self, law, count, data):
        passes = [idx for idx in coarse_and_fine(count) if idx]
        failing = data.draw(st.integers(0, len(passes) - 1), label="failing pass")
        point = passes[failing][data.draw(st.integers(0, len(passes[failing]) - 1))]
        xs = np.linspace(-1.0, 20.0, count)
        if law == "mp":
            module, name = mp_solver, "mp_companion_solve"
            run = lambda: density_grid_detailed(TWO_ATOM, 0.5, xs)
        else:
            module, name = elliptical_solver, "elliptical_solve"
            params = EllipticalParams(H=TWO_ATOM, nu=TWO_MIXING, theta=1.0, rho=0.5)
            run = lambda: elliptical_density_grid_detailed(params, xs)
        solve, calls = getattr(module, name), []

        def wrapper(z, *args, **kwargs):
            # Fail in the chosen pass at the chosen point's place in it.
            calls.append(z)
            if len(calls) - 1 == failing:
                raise NumericalError("stub failure", index=passes[failing].index(point))
            return solve(z, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp, pytest.raises(NumericalError) as excinfo:
            mp.setattr(module, name, wrapper)
            run()
        x = float(xs[point])
        assert excinfo.value.index == point
        assert excinfo.value.x == x
        assert str(excinfo.value) == f"density grid failed at x={x!r}: stub failure"


def assert_converged(solves, tol: float, count: int) -> None:
    """Every kernel call met the stopping bound, and the calls cover the grid."""
    assert sum(w.size for w, _ in solves) == count
    for w, residual in solves:
        assert np.all(residual <= np.maximum(tol, 16.0 * EPS * np.abs(w)))


class TestConvergence:
    @settings(max_examples=40, deadline=None)
    @given(H=populations(), rho=RHOS, v_eps=V_EPS)
    @example(H=delta(1.0), rho=0.95, v_eps=1e-5)
    @example(H=FIVE_ATOM, rho=2.5, v_eps=1e-5)
    def test_covariance_law(self, H, rho, v_eps):
        cfg = SolverConfig(v_eps=v_eps)
        with spy_kernel() as solves:
            density_grid_detailed(H, rho, wide_span(H.support_max, rho, 64), cfg)
        assert_converged(solves, cfg.tol, 64)

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
        assert_converged(solves, cfg.tol, 64)
