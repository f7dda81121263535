"""End-to-end CLI contracts: files, JSON, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rmtlaw import cli
from rmtlaw.samplers import FAMILIES, _FAMILIES


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_holds_the_mass(out):
    """The law CSV at prefix out has a CDF in [0, 1] that never decreases
    and, on a default grid, holds the mass.

    The default grid reaches at least GRID_PAD past the law's support,
    and the written CDF is the law convolved with the Cauchy kernel of
    width v = v_eps (its atom at 0 an exact step), which at a distance
    delta past the support is at least 1 - v/(pi*delta). So
    0 <= 1 - F_end <= v_eps/(pi*GRID_PAD).
    """
    cdf = np.loadtxt(f"{out}.density.csv", delimiter=",", skiprows=1)[:, 2]
    with open(f"{out}.summary.json") as fh:
        v_eps = json.load(fh)["v_eps"]
    assert 0.0 <= cdf.min() and cdf.max() <= 1.0
    assert np.all(np.diff(cdf) >= 0)
    assert 0.0 <= 1.0 - cdf[-1] <= v_eps / (np.pi * cli.GRID_PAD)


@pytest.fixture
def unit_h(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"atoms": [{"value": 1.0, "weight": 1.0}]}))
    return str(path)


@pytest.fixture
def two_atom_h(tmp_path):
    path = tmp_path / "h2.json"
    atoms = [{"value": 1.0, "weight": 0.5}, {"value": 10.0, "weight": 0.5}]
    path.write_text(json.dumps({"atoms": atoms}))
    return str(path)


@pytest.fixture
def unit_params(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(
        json.dumps(
            {
                "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                "theta": 1.0,
                "rho": 0.5,
            }
        )
    )
    return str(path)


@pytest.fixture
def gaussian_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "gaussian", "n": 80, "p": 20}))
    return str(path)


class TestSolveMp:
    def test_end_to_end(self, tmp_path, unit_h, capsys):
        out = str(tmp_path / "law")
        code, stdout, _ = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "0.5", "--out", out], capsys
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["rho"] == 0.5
        assert summary["atom0_mass"] == 0.0
        assert summary["max_residual"] <= 1e-12
        lo, hi = summary["support_estimate"]
        assert abs(lo - (1 - np.sqrt(0.5)) ** 2) < 0.1
        assert abs(hi - (1 + np.sqrt(0.5)) ** 2) < 0.1

        density = (tmp_path / "law.density.csv").read_text()
        lines = density.splitlines()
        assert lines[0] == "x,density,cdf"
        assert len(lines) == 1 + 400
        assert density.endswith("\n")
        file_summary = (tmp_path / "law.summary.json").read_text()
        assert file_summary == stdout

    @pytest.mark.parametrize(
        "atoms, atom0, grid_hi",
        [
            ([(0.0, 0.3), (1.0, 0.7)], 0.3, (1 + np.sqrt(0.35)) ** 2 + 0.5),
            ([(0.0, 1.0)], 1.0, 0.5),
        ],
    )
    def test_population_atom_at_zero(self, tmp_path, capsys, atoms, atom0, grid_hi):
        # H's own mass at 0 is part of the law's atom there, and the
        # default grid spans the support hull plus GRID_PAD.
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": v, "weight": w} for v, w in atoms]}))
        out = str(tmp_path / "law")
        code, stdout, _ = run_cli(
            ["solve-mp", "--h-file", str(h), "--rho", "0.5", "--out", out], capsys
        )
        assert code == 0
        assert json.loads(stdout)["atom0_mass"] == atom0
        table = np.loadtxt(tmp_path / "law.density.csv", delimiter=",", skiprows=1)
        assert table[0, 0] == 0.0
        assert table[-1, 0] == pytest.approx(grid_hi, rel=1e-12)
        assert_holds_the_mass(out)

    @pytest.mark.parametrize(
        "atoms, rho",
        [
            ([(1.0, 1.0)], 0.5),
            ([(1.0, 1.0)], 1.0),
            ([(1.0, 1.0)], 2.0),
            ([(1.0, 0.5), (10.0, 0.5)], 0.1),
        ],
    )
    def test_default_grid_holds_the_mass(self, tmp_path, capsys, atoms, rho):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": v, "weight": w} for v, w in atoms]}))
        out = str(tmp_path / "law")
        argv = ["solve-mp", "--h-file", str(h), "--rho", str(rho), "--out", out]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert_holds_the_mass(out)

    @pytest.mark.parametrize("rho", ["1e30", "1e100"])
    def test_default_grid_at_a_huge_hull_scale(self, tmp_path, unit_h, capsys, rho):
        # The hull's ends are so large that GRID_PAD is below their ulp;
        # the pad then spans DEFAULT_GRID_COUNT ulps, so the grid points
        # stay distinct.
        out = str(tmp_path / "law")
        code, _, _ = run_cli(["solve-mp", "--h-file", unit_h, "--rho", rho, "--out", out], capsys)
        assert code == 0
        assert_holds_the_mass(out)

    @pytest.mark.xfail(
        strict=True,
        reason="m = (w + (1 - rho)/z)/rho cancels at x = 0: exit 3 with 'density grid "
        "failed at x=0.0: solution left the upper half-plane at z=1e-08j: "
        "Im(w)=7.500e+07, Im(m)=-5.960e-08'",
    )
    def test_small_v_eps_at_zero_below_rho_one(self, tmp_path, capsys):
        # H = delta_1.5 at rho = 0.25: w ~ 7.5e7i at z = 1e-8i, and forming m
        # from it loses every digit; the true Im m is 1.05e-8 > 0.
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": 1.5, "weight": 1.0}]}))
        argv = ["solve-mp", "--h-file", str(h), "--rho", "0.25", "--v-eps", "1e-8",
                "--out", str(tmp_path / "law")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0

    def test_explicit_grid(self, tmp_path, unit_h, capsys):
        out = str(tmp_path / "law")
        code, _, _ = run_cli(
            [
                "solve-mp",
                "--h-file",
                unit_h,
                "--rho",
                "1.0",
                "--grid",
                "0,4.5,101",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "law.density.csv").read_text().splitlines()[1:]
        assert len(rows) == 101
        assert rows[0].split(",")[0] == "0"
        assert rows[-1].split(",")[0] == "4.5"

    def test_quiet_suppresses_stdout(self, tmp_path, unit_h, capsys):
        out = str(tmp_path / "law")
        code, stdout, _ = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "1.0", "--quiet", "--out", out],
            capsys,
        )
        assert code == 0
        assert stdout == ""
        assert (tmp_path / "law.summary.json").exists()

    def test_negative_rho_exit_2(self, tmp_path, unit_h, capsys):
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "-1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        err = json.loads(stderr)
        assert err["error"] == "ValueError"
        assert "--rho" in err["message"]

    @pytest.mark.parametrize("grid", [[], ["--grid", "0,3,10"]], ids=["default", "explicit"])
    def test_infinite_rho_exit_2(self, tmp_path, unit_h, grid, capsys):
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "inf", *grid, "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["message"] == "--rho must be positive and finite"

    def test_negative_population_names_h_exit_2(self, tmp_path, capsys):
        # max(H) = -5 makes default_v_eps negative; H is checked before the
        # grid's points, so the message blames H, not z.
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": -5.0, "weight": 1.0}]}))
        argv = ["solve-mp", "--h-file", str(h), "--rho", "0.5", "--grid", "0,1,10"]
        code, _, stderr = run_cli([*argv, "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert json.loads(stderr)["message"] == "H must be supported on [0, inf)"
        assert not (tmp_path / "x.density.csv").exists()

    @pytest.mark.parametrize("grid", [[], ["--grid", "0,1,10"]], ids=["default", "explicit"])
    def test_population_below_zero_exit_2(self, tmp_path, grid, capsys):
        # H = {-1, 2} has mass on (0, inf); the default grid's hull checks
        # H's support first, so both grids blame it in the same words.
        h = tmp_path / "h.json"
        atoms = [{"value": -1.0, "weight": 0.5}, {"value": 2.0, "weight": 0.5}]
        h.write_text(json.dumps({"atoms": atoms}))
        argv = ["solve-mp", "--h-file", str(h), "--rho", "0.5", *grid]
        code, _, stderr = run_cli([*argv, "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert json.loads(stderr)["message"] == "H must be supported on [0, inf)"

    def test_overflow_exit_3(self, tmp_path, unit_h, capsys):
        # rho = 1e308 is finite, but the solve overflows: a numerical failure.
        argv = ["solve-mp", "--h-file", unit_h, "--rho", "1e308", "--grid", "0,3,10"]
        code, _, stderr = run_cli([*argv, "--out", str(tmp_path / "x")], capsys)
        assert code == 3
        assert json.loads(stderr)["error"] == "OverflowError"
        assert not (tmp_path / "x.density.csv").exists()

    @pytest.mark.parametrize(
        "measure, named",
        [
            ({"atoms": [{"value": "1.0", "weight": 1.0}]}, "value"),
            ({"atoms": [{"value": 1.0, "weight": True}]}, "weight"),
            ({"atoms": [{"value": 1.0, "wieght": 1.0}]}, "wieght"),
            ({"atoms": [{"value": 1.0, "weight": 1.0}], "atom": []}, "atom"),
        ],
        ids=["value-string", "weight-bool", "misspelt-weight", "unknown-atom"],
    )
    def test_measure_value_not_read_as_written_exit_2(self, tmp_path, measure, named, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps(measure))
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", str(h), "--rho", "0.5", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert f'"{named}"' in error["message"]

    def test_bad_grid_exit_2(self, tmp_path, unit_h, capsys):
        code, _, stderr = run_cli(
            [
                "solve-mp",
                "--h-file",
                unit_h,
                "--rho",
                "1",
                "--grid",
                "1,0,50",
                "--out",
                str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "grid, named", [("nan,1,5", "min"), ("0,inf,5", "max")], ids=["nan-min", "inf-max"]
    )
    def test_non_finite_grid_bound_exit_2(self, tmp_path, unit_h, grid, named, capsys):
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "1", "--grid", grid,
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert error["message"].startswith(f"grid {named} must be finite")

    @pytest.mark.parametrize("flag", ["--tol", "--v-eps"])
    def test_infinite_solver_knob_exit_2(self, tmp_path, two_atom_h, flag, capsys):
        # At --tol inf every point "converged" after one evaluation and the
        # one-atom start was written as the law.
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", two_atom_h, "--rho", "0.5", flag, "inf",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert error["message"] == f"{flag[2:].replace('-', '_')} must be positive and finite"
        assert not (tmp_path / "x.density.csv").exists()

    def test_missing_h_file_exit_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            [
                "solve-mp",
                "--h-file",
                str(tmp_path / "nope.json"),
                "--rho",
                "1",
                "--out",
                str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["error"] in ("FileNotFoundError", "OSError")

    def test_convergence_failure_exit_3_with_fields(self, tmp_path, two_atom_h, capsys):
        # Two evaluations per point do not reach tol (one-atom laws start
        # exact, so H has two). The coarse pass (every 8th point and the
        # last) fails first; the error keeps its class and says where its
        # worst grid point is and how close it got.
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", two_atom_h, "--rho", "0.5", "--grid", "0,3,50",
             "--max-iters", "2", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 3
        err = json.loads(stderr)
        assert err["error"] == "ConvergenceError"
        assert err["message"] == (
            "density grid failed at x=0.4897959183673469: fixed-point iteration "
            "did not converge (residual=9.177e-01 after 2 iterations)"
        )
        assert err["index"] == 8
        assert err["x"] == np.linspace(0.0, 3.0, 50)[8]
        assert err["iterations"] == 2
        assert f"{err['residual']:.3e}" == "9.177e-01"
        assert not (tmp_path / "x.density.csv").exists()

    def test_rerun_byte_identical(self, tmp_path, unit_h, capsys):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["solve-mp", "--h-file", unit_h, "--rho", "0.5", "--out", out], capsys
            )
            assert code == 0
        assert (tmp_path / "a.density.csv").read_bytes() == (
            tmp_path / "b.density.csv"
        ).read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == (
            tmp_path / "b.summary.json"
        ).read_bytes()


# The 24 parameter files of the CI step "Default-grid solve-elliptical
# raises no numpy warning"; theta * rho = 1 puts a hard edge at 0.
CI_ATOMS = {
    "unit": [(1.0, 1.0)],
    "two_h": [(1.0, 0.5), (10.0, 0.5)],
    "two_nu": [(1.0, 0.5), (2.0, 0.5)],
}
CI_PARAMS = [
    (h, nu, theta, rho)
    for h in ("unit", "two_h")
    for nu in ("unit", "two_nu")
    for theta in (0.5, 1.0)
    for rho in (0.1, 0.5, 2.0)
]


class TestSolveElliptical:
    def test_end_to_end(self, tmp_path, unit_params, capsys):
        out = str(tmp_path / "ell")
        code, stdout, _ = run_cli(
            ["solve-elliptical", "--params", unit_params, "--out", out], capsys
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["theta"] == 1.0
        assert summary["rho"] == 0.5
        assert summary["xi"] == 0.5
        assert summary["max_consistency_residual"] < 1e-9
        assert (tmp_path / "ell.density.csv").exists()

    def test_reduction_matches_solve_mp(self, tmp_path, unit_h, unit_params, capsys):
        # theta = 1 with unit mixing must reproduce the classical law.
        grid = "0,3.5,200"
        code, _, _ = run_cli(
            [
                "solve-mp",
                "--h-file",
                unit_h,
                "--rho",
                "0.5",
                "--grid",
                grid,
                "--out",
                str(tmp_path / "mp"),
            ],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            [
                "solve-elliptical",
                "--params",
                unit_params,
                "--grid",
                grid,
                "--out",
                str(tmp_path / "ell"),
            ],
            capsys,
        )
        assert code == 0
        mp = np.loadtxt(tmp_path / "mp.density.csv", delimiter=",", skiprows=1)
        ell = np.loadtxt(tmp_path / "ell.density.csv", delimiter=",", skiprows=1)
        v_eps = 1e-3 * 2.0  # default for H = d_1, rho = 0.5
        assert np.max(np.abs(mp - ell)) < 1e-6 + 5 * v_eps

    @pytest.mark.parametrize("h, nu, theta, rho", CI_PARAMS)
    def test_default_grid_holds_the_mass(self, tmp_path, h, nu, theta, rho, capsys):
        # The grid spans the law's support, so no bulk is dropped.
        def measure(name):
            return {"atoms": [{"value": v, "weight": w} for v, w in CI_ATOMS[name]]}

        path = tmp_path / "params.json"
        obj = {"H": measure(h), "nu": measure(nu), "theta": theta, "rho": rho}
        path.write_text(json.dumps(obj))
        code, _, _ = run_cli(
            ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "ell")], capsys
        )
        assert code == 0
        assert_holds_the_mass(str(tmp_path / "ell"))

    @pytest.mark.parametrize("rho", [1e30, 1e100])
    def test_default_grid_at_a_huge_hull_scale(self, tmp_path, capsys, rho):
        unit = {"atoms": [{"value": 1.0, "weight": 1.0}]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"H": unit, "nu": unit, "theta": 1.0, "rho": rho}))
        out = str(tmp_path / "ell")
        code, _, _ = run_cli(["solve-elliptical", "--params", str(path), "--out", out], capsys)
        assert code == 0
        assert_holds_the_mass(out)

    def test_inconsistent_xi_exit_2(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(
            json.dumps(
                {
                    "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                    "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                    "theta": 1.0,
                    "rho": 0.5,
                    "xi": 0.9,
                }
            )
        )
        code, _, stderr = run_cli(
            ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "inconsistent" in json.loads(stderr)["message"]

    @pytest.mark.parametrize(
        "key, value",
        [("theta", "1"), ("rho", True), ("xi", "0.5"), ("H", []), ("nu", None), ("G", False)],
    )
    def test_params_value_not_read_as_written_exit_2(self, tmp_path, key, value, capsys):
        unit = {"atoms": [{"value": 1.0, "weight": 1.0}]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"H": unit, "nu": unit, "theta": 1.0, "rho": 0.5, key: value}))
        code, _, stderr = run_cli(
            ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert f'"{key}"' in json.loads(stderr)["message"]

    def test_infinite_theta_exit_2(self, tmp_path, capsys):
        unit = {"atoms": [{"value": 1.0, "weight": 1.0}]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"H": unit, "nu": unit, "theta": float("inf"), "rho": 0.5}))
        code, _, stderr = run_cli(
            ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["message"] == "theta must be positive and finite"

    def test_unknown_params_key_exit_2(self, tmp_path, capsys):
        unit = {"atoms": [{"value": 1.0, "weight": 1.0}]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"H": unit, "nu": unit, "theta": 1.0, "rho": 0.5, "Theta": 2}))
        code, _, stderr = run_cli(
            ["solve-elliptical", "--params", str(path), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert json.loads(stderr)["message"] == 'params JSON has unknown key "Theta"'


class TestEdge:
    def test_hand_values(self, unit_h, capsys):
        code, stdout, _ = run_cli(
            ["edge", "--h-file", unit_h, "--n-over-p", "4"], capsys
        )
        assert code == 0
        out = json.loads(stdout)
        assert set(out.keys()) == {"c0", "mu"}
        assert out["c0"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert out["mu"] == pytest.approx(2.25, abs=1e-12)

    def test_out_file_matches_stdout(self, tmp_path, unit_h, capsys):
        path = tmp_path / "edge.json"
        code, stdout, _ = run_cli(
            ["edge", "--h-file", unit_h, "--n-over-p", "1", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text() == stdout
        assert json.loads(stdout)["mu"] == pytest.approx(4.0, abs=1e-12)

    def test_population_atom_at_zero(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        atoms = [{"value": 0.0, "weight": 0.3}, {"value": 1.0, "weight": 0.7}]
        h.write_text(json.dumps({"atoms": atoms}))
        code, stdout, _ = run_cli(["edge", "--h-file", str(h), "--n-over-p", "2"], capsys)
        assert code == 0
        assert json.loads(stdout)["mu"] == pytest.approx((1 + np.sqrt(0.35)) ** 2, rel=1e-12)

    def test_point_mass_at_zero_exit_2(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": 0.0, "weight": 1.0}]}))
        code, _, stderr = run_cli(["edge", "--h-file", str(h), "--n-over-p", "2"], capsys)
        assert code == 2
        assert "(0, inf)" in json.loads(stderr)["message"]

    def test_infinite_ratio_exit_2(self, unit_h, capsys):
        code, _, stderr = run_cli(["edge", "--h-file", unit_h, "--n-over-p", "inf"], capsys)
        assert code == 2
        assert json.loads(stderr)["message"] == "n_over_p must be positive and finite"

    def test_no_interior_solution_exit_3(self, unit_h, capsys):
        code, _, stderr = run_cli(
            ["edge", "--h-file", unit_h, "--n-over-p", "1e30"], capsys
        )
        assert code == 3
        err = json.loads(stderr)
        assert err["error"] == "NumericalError"
        assert "no interior solution" in err["message"]


class TestSimulate:
    def test_correlation_default(self, tmp_path, gaussian_model, capsys):
        out = str(tmp_path / "sim")
        code, stdout, _ = run_cli(
            ["simulate", "--model", gaussian_model, "--out", out], capsys
        )
        assert code == 0
        eigs = np.loadtxt(tmp_path / "sim.eigs.csv")
        assert eigs.size == 20
        assert np.all(np.diff(eigs) >= 0)
        meta = json.loads(stdout)
        assert meta["matrix"] == "correlation"
        assert meta["dims"] == {"n": 80, "p": 20, "d": 20}
        assert meta["seed"] == 0
        file_meta = (tmp_path / "sim.meta.json").read_text()
        assert file_meta == stdout

    def test_covariance_matrix(self, tmp_path, gaussian_model, capsys):
        out = str(tmp_path / "sim")
        code, stdout, _ = run_cli(
            [
                "simulate",
                "--model",
                gaussian_model,
                "--matrix",
                "covariance",
                "--seed",
                "7",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["matrix"] == "covariance"
        assert json.loads(stdout)["seed"] == 7

    def test_gram_matrix(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"family": "sphere_elliptical", "n": 60, "p": 15})
        )
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(
            ["simulate", "--model", str(path), "--matrix", "gram", "--out", out],
            capsys,
        )
        assert code == 0
        eigs = np.loadtxt(tmp_path / "sim.eigs.csv")
        assert eigs.size == 15

    def test_seed_changes_output(self, tmp_path, gaussian_model, capsys):
        for seed in ("0", "1"):
            run_cli(
                [
                    "simulate",
                    "--model",
                    gaussian_model,
                    "--seed",
                    seed,
                    "--out",
                    str(tmp_path / f"s{seed}"),
                ],
                capsys,
            )
        a = (tmp_path / "s0.eigs.csv").read_bytes()
        b = (tmp_path / "s1.eigs.csv").read_bytes()
        assert a != b

    def test_invalid_model_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, stderr = run_cli(
            ["simulate", "--model", str(path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ValueError"

    def test_disagreeing_d_exit_2(self, tmp_path, capsys):
        # gaussian rows have p entries, so "d": 7 cannot describe them.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 80, "p": 20, "d": 7}))
        code, _, stderr = run_cli(
            ["simulate", "--model", str(path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "d=7 disagrees" in json.loads(stderr)["message"]
        assert not (tmp_path / "x.meta.json").exists()

    def test_unknown_model_key_exit_2(self, tmp_path, capsys):
        # A misspelt "mu" is named, not dropped for a zero mean shift.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 80, "p": 20, "location": 5.0}))
        code, _, stderr = run_cli(
            ["simulate", "--model", str(path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert json.loads(stderr)["message"] == 'model JSON has unknown key "location"'
        assert not (tmp_path / "x.meta.json").exists()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_key_the_family_does_not_read_exit_2(self, tmp_path, family, capsys):
        # Each key another family reads, with a value that family would take,
        # is named on this one: simulate would record it, and the draw ignore it.
        values = {
            "shape": {"kind": "toeplitz", "r": 0.5},
            "entry_family": "bounded",
            "mixing": {"atoms": [{"value": 2.0, "weight": 1.0}]},
            "mixing_schedule": True,
            "b": 1.5,
            "bound": 2.0,
        }
        required = {"lb_ball": {"b": 1.5}, "bounded_iid": {"bound": 2.0}}.get(family, {})
        unread = [key for key in values if key not in _FAMILIES[family].keys]
        assert unread
        path = tmp_path / "model.json"
        for key in unread:
            obj = {"family": family, "n": 20, "p": 5, **required, key: values[key]}
            path.write_text(json.dumps(obj))
            code, _, stderr = run_cli(
                ["simulate", "--model", str(path), "--out", str(tmp_path / "x")], capsys
            )
            assert code == 2
            assert json.loads(stderr)["message"] == f'model JSON has unknown key "{key}"'
            assert not (tmp_path / "x.meta.json").exists()

    @pytest.mark.parametrize(
        "shape",
        [{"kind": "toeplitz", "r": 0.45}, {"kind": "identity"}, {"kind": "file", "path": None}],
        ids=["toeplitz", "identity", "file"],
    )
    def test_meta_records_model_as_given(self, tmp_path, shape, capsys):
        # The model JSON is recorded key for key; a file shape by its path.
        if shape["kind"] == "file":
            sigma = tmp_path / "sigma.csv"
            sigma.write_text("1,0.2,0\n0.2,1,0.2\n0,0.2,1\n")
            shape = {**shape, "path": str(sigma)}
        obj = {"family": "gaussian", "n": 12, "p": 3, "d": 3, "shape": shape, "mu": [0.5, 0, -2]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        code, stdout, _ = run_cli(
            ["simulate", "--model", str(path), "--out", str(tmp_path / "sim")], capsys
        )
        assert code == 0
        assert json.loads(stdout)["model"] == obj
        assert json.loads((tmp_path / "sim.meta.json").read_text())["model"] == obj

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("n", 2.7, "n"),
            ("n", True, "n"),
            ("n", float("inf"), "n"),
            ("mixing_schedule", "false", "mixing_schedule"),
            ("shape", {"kind": "identity", "r": 0.5}, "r"),
            ("b", "1.5", "b"),
            ("bound", True, "bound"),
            ("shape", {"kind": "toeplitz", "r": "0.5"}, "r"),
            ("shape", {"kind": "dense", "entries": [["1", "0", "0", "0", "0"]]}, "entries"),
            ("mu", ["1", "2", "3", "4", "5"], "mu"),
            ("mixing", False, "mixing"),
            ("mixing", {}, "atoms"),
            ("mixing", {"atoms": [{"value": "1", "weight": 1.0}]}, "value"),
        ],
        ids=[
            "n-float", "n-bool", "n-infinity", "schedule-string", "identity-r",
            "b-string", "bound-bool", "toeplitz-r-string", "entries-strings",
            "mu-strings", "mixing-false", "mixing-empty", "mixing-value-string",
        ],
    )
    def test_value_not_read_as_written_exit_2(self, tmp_path, key, value, named, capsys):
        # The meta records the JSON as given, so a value the model would read
        # otherwise (n = 2, n = 1, a schedule switched on, a dropped key, a
        # string or boolean taken for a number, a false mixing taken for
        # delta_1) exits 2, on a family that reads the key.
        family = {"b": "lb_ball", "bound": "bounded_iid"}.get(key, "sphere_elliptical")
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": family, "n": 20, "p": 5, key: value}))
        code, _, stderr = run_cli(
            ["simulate", "--model", str(path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert f'"{named}"' in error["message"]
        assert not (tmp_path / "x.meta.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    @pytest.mark.parametrize("bound", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_bound_not_finite_exit_2(self, tmp_path, command, bound, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "bounded_iid", "n": 20, "p": 5, "bound": bound}))
        code, _, stderr = run_cli(
            [command, "--model", str(path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert json.loads(stderr)["message"] == "bound must be finite and >= 0"


class TestDiagnose:
    def test_model_mode_contract(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 100, "p": 50}))
        code, stdout, _ = run_cli(["diagnose", "--model", str(path)], capsys)
        assert code == 0
        out = json.loads(stdout)
        assert set(out.keys()) == {
            "norm",
            "angle",
            "lemma5_stat",
            "thresholds",
            "concentrated",
        }
        assert out["norm"]["target"] == 1.0
        assert len(out["angle"]["histogram"]) == 50
        assert sum(out["angle"]["histogram"]) == 100 * 99 // 2
        assert isinstance(out["concentrated"], bool)

    def test_bounded_iid_target_is_model_variance(self, tmp_path, capsys):
        # trace(Sigma)/p is bound^2/3; against 1 the norms read 0.927 off.
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"family": "bounded_iid", "n": 400, "p": 400, "bound": 0.5})
        )
        code, stdout, _ = run_cli(["diagnose", "--model", str(path)], capsys)
        assert code == 0
        out = json.loads(stdout)
        assert out["norm"]["target"] == 0.08333333333333331
        assert out["norm"]["max_deviation"] == pytest.approx(0.01123, abs=1e-5)
        assert out["concentrated"] is True

    def test_lb_ball_target_is_model_variance(self, tmp_path, capsys):
        # E x_1^2 = p^(2/b) G(3/b)/G(1/b) G(p/b + 1)/G(p/b + 1 + 2/b) at
        # p = 50, b = 1.5, in place of the unit target.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "lb_ball", "n": 100, "p": 50, "b": 1.5}))
        code, stdout, _ = run_cli(["diagnose", "--model", str(path)], capsys)
        assert code == 0
        assert json.loads(stdout)["norm"]["target"] == pytest.approx(1.2112314895053589, rel=1e-12)

    @pytest.mark.parametrize("norm_at, angle_at", [(1, 1), (0, 1), (1, 0), (0, 0)])
    def test_thresholds_set_by_flags(self, tmp_path, capsys, norm_at, angle_at):
        # Each threshold set at the draw's measured maximum (concentrated, as
        # the test is <=) or at the float below it (not), both echoed as given.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 100, "p": 50}))
        code, stdout, _ = run_cli(["diagnose", "--model", str(path)], capsys)
        assert code == 0
        out = json.loads(stdout)
        maxima = out["norm"]["max_deviation"], out["angle"]["max_offdiag"]
        norm, angle = (
            m if at else np.nextafter(m, 0.0) for m, at in zip(maxima, (norm_at, angle_at))
        )
        flags = ["--norm-threshold", repr(float(norm)), "--angle-threshold", repr(float(angle))]
        code, stdout, _ = run_cli(["diagnose", "--model", str(path), *flags], capsys)
        assert code == 0
        out = json.loads(stdout)
        assert (out["norm"]["max_deviation"], out["angle"]["max_offdiag"]) == maxima
        assert out["thresholds"] == {"norm": norm, "angle": angle}
        assert out["concentrated"] is bool(norm_at and angle_at)

    def test_sphere_rows_norm_exact(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"family": "sphere_elliptical", "n": 30, "p": 40})
        )
        code, stdout, _ = run_cli(["diagnose", "--model", str(path)], capsys)
        assert code == 0
        out = json.loads(stdout)
        assert out["norm"]["max_deviation"] <= 1e-12

    def test_data_mode_flags_identical_rows(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = np.vstack([np.ones(30), np.ones(30), -np.ones(30)])
        data.write_text("\n".join(",".join(str(v) for v in r) for r in rows) + "\n")
        code, stdout, _ = run_cli(
            ["diagnose", "--data", str(data), "--trace-sigma-over-p", "1.0"], capsys
        )
        assert code == 0
        out = json.loads(stdout)
        assert out["angle"]["max_offdiag"] == pytest.approx(1.0)
        assert out["concentrated"] is False

    def test_requires_exactly_one_source(self, tmp_path, gaussian_model, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n3,4\n")
        code, _, stderr = run_cli(
            ["diagnose", "--data", str(data), "--model", gaussian_model], capsys
        )
        assert code == 2
        assert "exactly one" in json.loads(stderr)["message"]
        code, _, stderr = run_cli(["diagnose"], capsys)
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 40, "p": 10}))
        out_path = tmp_path / "diag.json"
        code, stdout, _ = run_cli(
            ["diagnose", "--model", str(path), "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text() == stdout


class TestVerify:
    def test_tightness_suite(self, tmp_path, capsys):
        out_path = tmp_path / "verify.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", "tightness", "--out", str(out_path)], capsys
        )
        assert code == 0
        out = json.loads(stdout)
        assert out["ok"] is True
        assert out["statistic"] == "spectral_tightness"
        assert out_path.read_text() == stdout

    def test_lemma6_reduced_reps(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "lemma6", "--reps", "50"], capsys
        )
        assert code == 0
        out = json.loads(stdout)
        assert out["ok"] is True
        assert out["dims"] == [50, 100, 200]

    def test_quadform_reduced_reps(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "quadform", "--reps", "5"], capsys
        )
        assert code == 0
        assert json.loads(stdout)["ok"] is True

    def test_failing_suite_exit_4(self, monkeypatch, capsys):
        from rmtlaw.concentration import ConcentrationReport

        report = ConcentrationReport(statistic="spectral_tightness", dims=[2], reps=1, seed=0)
        monkeypatch.setattr(cli, "verify_tightness", lambda seed: (report, False))
        code, stdout, _ = run_cli(["verify", "--suite", "tightness"], capsys)
        assert code == 4
        assert json.loads(stdout)["ok"] is False

    @pytest.mark.parametrize(
        "suite, reps",
        [("lemma6", "0"), ("quadform", "0"), ("copula", "5"), ("tightness", "5")],
    )
    def test_reps_rejected_exit_2(self, suite, reps, capsys):
        # 0 reaches the suite's own check; copula and tightness take no reps.
        code, stdout, stderr = run_cli(["verify", "--suite", suite, "--reps", reps], capsys)
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "ValueError"

    def test_unknown_suite_exit_2(self, capsys):
        code, _, stderr = run_cli(["verify", "--suite", "everything"], capsys)
        assert code == 2
        assert json.loads(stderr)["error"] == "UsageError"


class TestCompare:
    def test_hand_value(self, tmp_path, capsys):
        eigs = tmp_path / "eigs.csv"
        eigs.write_text("0.5\n")
        law = tmp_path / "law.csv"
        law.write_text("x,density,cdf\n0,1,0\n1,1,1\n")
        code, stdout, _ = run_cli(
            ["compare", "--eigs", str(eigs), "--law", str(law)], capsys
        )
        assert code == 0
        assert json.loads(stdout)["ks_distance"] == pytest.approx(0.5)

    def test_simulate_solve_compare_pipeline(self, tmp_path, unit_h, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"family": "gaussian", "n": 400, "p": 200}))
        code, _, _ = run_cli(
            ["simulate", "--model", str(model), "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            [
                "solve-mp",
                "--h-file",
                unit_h,
                "--rho",
                "0.5",
                "--grid",
                "0,3.5,400",
                "--out",
                str(tmp_path / "law"),
            ],
            capsys,
        )
        assert code == 0
        code, stdout, _ = run_cli(
            [
                "compare",
                "--eigs",
                str(tmp_path / "sim.eigs.csv"),
                "--law",
                str(tmp_path / "law.density.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["ks_distance"] < 0.08

    def test_grid_not_covering_exit_2(self, tmp_path, capsys):
        eigs = tmp_path / "eigs.csv"
        eigs.write_text("5.0\n")
        law = tmp_path / "law.csv"
        law.write_text("x,density,cdf\n0,1,0\n1,1,1\n")
        code, _, stderr = run_cli(
            ["compare", "--eigs", str(eigs), "--law", str(law)], capsys
        )
        assert code == 2
        # Plain floats, not numpy reprs.
        message = json.loads(stderr)["message"]
        assert message == "grid [0.0, 1.0] does not cover the spectrum [5.0, 5.0]"

    @pytest.mark.xfail(
        strict=True,
        reason="rounding puts 101 of S's 201 zero eigenvalues below the grid's 0: exit 2 "
        "with 'grid [0.0, 6.328427124746191] does not cover the spectrum "
        "[-1.96565063230861e-15, 6.028237244120048]'",
    )
    def test_rank_deficient_covariance_against_default_grid(self, tmp_path, unit_h, capsys):
        # p = 2n: the centred S has rank n - 1, and the law at rho = 2 puts an
        # atom of mass 1/2 at 0, where the default grid starts.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"family": "gaussian", "n": 200, "p": 400}))
        law = str(tmp_path / "law")
        assert run_cli(["solve-mp", "--h-file", unit_h, "--rho", "2", "--out", law], capsys)[0] == 0
        for seed in range(1, 6):
            sim = str(tmp_path / f"sim{seed}")
            argv = ["simulate", "--model", str(model), "--matrix", "covariance",
                    "--seed", str(seed), "--out", sim]
            assert run_cli(argv, capsys)[0] == 0
            argv = ["compare", "--eigs", f"{sim}.eigs.csv", "--law", f"{law}.density.csv"]
            code, stdout, _ = run_cli(argv, capsys)
            assert code == 0
            assert json.loads(stdout)["ks_distance"] <= 0.05

    def test_nan_law_row_exit_2(self, tmp_path, capsys):
        # A nan CDF is named, not carried into a KS of nan.
        eigs = tmp_path / "eigs.csv"
        eigs.write_text("0.5\n")
        law = tmp_path / "law.csv"
        law.write_text("x,density,cdf\n0,1,0\n0.5,nan,nan\n1,1,1\n")
        code, _, stderr = run_cli(
            ["compare", "--eigs", str(eigs), "--law", str(law)], capsys
        )
        assert code == 2
        assert json.loads(stderr)["message"] == "cdf must be finite"

    def test_malformed_law_exit_2(self, tmp_path, capsys):
        eigs = tmp_path / "eigs.csv"
        eigs.write_text("0.5\n")
        law = tmp_path / "law.csv"
        law.write_text("x,density\n0,1\n1,1\n")
        code, _, stderr = run_cli(
            ["compare", "--eigs", str(eigs), "--law", str(law)], capsys
        )
        assert code == 2
        assert "x,density,cdf" in json.loads(stderr)["message"]


class TestParserErrors:
    def test_missing_required_flag(self, capsys):
        code, _, stderr = run_cli(["solve-mp", "--rho", "1"], capsys)
        assert code == 2
        err = json.loads(stderr)
        assert err["error"] == "UsageError"
        assert "--h-file" in err["message"]

    def test_unknown_command(self, capsys):
        code, _, stderr = run_cli(["transmogrify"], capsys)
        assert code == 2
        assert json.loads(stderr)["error"] == "UsageError"

    def test_damping_flag_removed(self, tmp_path, unit_h, capsys):
        # The fallback is the plain step T(w), so there is no damping knob.
        out = tmp_path / "law"
        code, _, stderr = run_cli(
            ["solve-mp", "--h-file", unit_h, "--rho", "0.5", "--damping", "1",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        err = json.loads(stderr)
        assert err["error"] == "UsageError"
        assert "--damping" in err["message"]
        assert not (tmp_path / "law.summary.json").exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "model.json", "--out", "sim"],
            ["diagnose", "--model", "model.json"],
            ["verify", "--suite", "tightness"],
        ],
    )
    def test_negative_seed_names_the_option(self, argv, capsys):
        code, _, stderr = run_cli(argv + ["--seed", "-1"], capsys)
        assert code == 2
        err = json.loads(stderr)
        assert err["error"] == "UsageError"
        assert "--seed" in err["message"] and "'-1'" in err["message"]


class TestProcessLevel:
    # Runs argv[1] in a fresh interpreter, then prints the scipy modules loaded.
    _SCIPY_PROBE = (
        "import json, sys\n"
        "exec(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))\n"
    )

    def _scipy_modules(self, code, *args):
        proc = subprocess.run(
            [sys.executable, "-c", self._SCIPY_PROBE, code, *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("code", ["import rmtlaw", "import rmtlaw.cli"])
    def test_import_loads_no_scipy(self, code):
        assert self._scipy_modules(code) == []

    def test_law_commands_load_no_scipy(self, tmp_path, unit_h, unit_params):
        eigs = tmp_path / "eigs.csv"
        eigs.write_text("0.5\n1\n1.5\n")
        commands = [
            ["solve-mp", "--h-file", unit_h, "--rho", "0.5", "--out", str(tmp_path / "mp")],
            ["solve-elliptical", "--params", unit_params, "--out", str(tmp_path / "ell")],
            ["edge", "--h-file", unit_h, "--n-over-p", "4"],
            ["compare", "--eigs", str(eigs), "--law", str(tmp_path / "mp.density.csv")],
        ]
        code = (
            "from rmtlaw.cli import main\n"
            "assert [main(a + ['--quiet']) for a in json.loads(sys.argv[2])] == [0, 0, 0, 0]\n"
        )
        assert self._scipy_modules(code, json.dumps(commands)) == []

    @pytest.mark.skipif(shutil.which("rmtlaw") is None, reason="rmtlaw console script not installed")
    def test_console_script_loads_no_scipy(self, tmp_path, unit_h):
        # Runs the installed entry point as __main__ under the same probe.
        code = (
            "import runpy\n"
            "sys.argv = json.loads(sys.argv[2])\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
        )
        for args in (
            ["edge", "--h-file", unit_h, "--n-over-p", "4"],
            ["solve-mp", "--h-file", unit_h, "--rho", "0.5", "--out", str(tmp_path / "mp")],
        ):
            argv = [shutil.which("rmtlaw"), *args, "--quiet"]
            assert self._scipy_modules(code, json.dumps(argv)) == []

    def test_sampling_loads_scipy_special_on_first_draw(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"family": "lb_ball", "n": 60, "p": 20, "b": 1.5}))
        argv = ["simulate", "--model", str(model), "--quiet", "--out"]
        code = "from rmtlaw.cli import main\nassert main(json.loads(sys.argv[2])) == 0\n"
        fresh = json.dumps(argv + [str(tmp_path / "fresh")])
        assert "scipy.special" in self._scipy_modules(code, fresh)
        assert run_cli(argv + [str(tmp_path / "warm")], capsys)[0] == 0
        assert (tmp_path / "fresh.eigs.csv").read_bytes() == (
            tmp_path / "warm.eigs.csv"
        ).read_bytes()

    @pytest.mark.parametrize("family", ["gaussian", "gaussian_copula"])
    def test_toeplitz_simulate_loads_no_scipy_linalg(self, tmp_path, family):
        model = tmp_path / "model.json"
        shape = {"kind": "toeplitz", "r": 0.4}
        model.write_text(json.dumps({"family": family, "n": 60, "p": 20, "shape": shape}))
        argv = ["simulate", "--model", str(model), "--quiet", "--out", str(tmp_path / "t")]
        code = "from rmtlaw.cli import main\nassert main(json.loads(sys.argv[2])) == 0\n"
        modules = self._scipy_modules(code, json.dumps(argv))
        assert "scipy.special" in modules
        assert "scipy.linalg" not in modules

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--eigs", "empty.csv", "--law", "law.csv"], "empty.csv has no data rows"),
            (["compare", "--eigs", "eigs.csv", "--law", "header.csv"], "header.csv has no data rows"),
            (["diagnose", "--data", "empty.csv"], "empty.csv has no data rows"),
            (["diagnose", "--model", "model.json", "--trace-sigma-over-p", "nan"],
             "trace_sigma_over_p must be finite and >= 0"),
            (["diagnose", "--data", "data.csv", "--trace-sigma-over-p", "-1"],
             "trace_sigma_over_p must be finite and >= 0"),
            (["diagnose", "--data", "data.csv", "--norm-threshold", "nan"], "--norm-threshold"),
            (["diagnose", "--data", "data.csv", "--angle-threshold", "inf"], "--angle-threshold"),
            (["diagnose", "--data", "empty.csv", "--norm-threshold=-inf"], "--norm-threshold"),
        ],
        ids=["empty-eigs", "header-only-law", "empty-data", "nan-target", "negative-target",
             "nan-norm-threshold", "inf-angle-threshold", "threshold-before-input"],
    )
    def test_input_error_is_one_json_line_under_w_error(self, tmp_path, argv, message):
        # An empty file is refused before numpy warns; a bad diagnose flag is
        # refused, naming it, before anything is computed or written.
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "header.csv").write_text("x,density,cdf\n")
        (tmp_path / "law.csv").write_text("x,density,cdf\n0,1,0\n1,1,1\n")
        (tmp_path / "eigs.csv").write_text("0.5\n")
        (tmp_path / "data.csv").write_text("1,2\n3,4\n5,7\n")
        (tmp_path / "model.json").write_text(json.dumps({"family": "gaussian", "n": 20, "p": 10}))
        argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rmtlaw.cli", *argv,
             "--out", str(tmp_path / "out.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert message in json.loads(lines[0])["message"]
        assert not (tmp_path / "out.json").exists()

    def test_console_script_thread_invariance(self, tmp_path):
        # Two runs in fresh processes write the same bytes.
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": 1.0, "weight": 1.0}]}))
        outputs = []
        for name in ("run1", "run2"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "rmtlaw.cli",
                    "solve-mp",
                    "--h-file",
                    str(h),
                    "--rho",
                    "2.0",
                    "--out",
                    str(tmp_path / name),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (
                    (tmp_path / f"{name}.density.csv").read_bytes(),
                    (tmp_path / f"{name}.summary.json").read_bytes(),
                    proc.stdout,
                )
            )
        assert outputs[0] == outputs[1]

    def test_solves_invariant_to_blas_and_worker_threads(self, tmp_path):
        # A 200-atom H makes every evaluation reduce over a (points x atoms)
        # block, which a one-atom H (criterion 13) never reaches.
        atoms = [{"value": float(v), "weight": 1.0 / 200} for v in np.linspace(0.5, 3.0, 200)]
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": atoms}))
        params = tmp_path / "params.json"
        nu = {"atoms": [{"value": 0.7, "weight": 0.4}, {"value": 1.3, "weight": 0.6}]}
        params.write_text(json.dumps({"H": {"atoms": atoms}, "nu": nu, "theta": 1.0, "rho": 0.5}))
        script = "import json, sys; from rmtlaw.cli import main; " \
                 "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / f"b{blas}"
            out.mkdir()
            commands = [
                ["solve-mp", "--h-file", str(h), "--rho", "0.5", "--out", str(out / "mp")],
                ["solve-elliptical", "--params", str(params), "--out", str(out / "ell")],
            ]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                [proc.stdout]
                + [(out / name).read_bytes() for name in
                   ("mp.density.csv", "mp.summary.json", "ell.density.csv", "ell.summary.json")]
            )
        assert all(o == outputs[0] for o in outputs[1:])
