"""End-to-end CLI contracts: files, JSON, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rmtlaw import cli


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def unit_h(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"atoms": [{"value": 1.0, "weight": 1.0}]}))
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

        report = ConcentrationReport(
            statistic="spectral_tightness",
            dims=[2],
            reps=1,
            thresholds=[[]],
            frequencies=[[]],
            bounds=[[]],
            seed=0,
        )
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
        assert "does not cover" in json.loads(stderr)["message"]

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


class TestProcessLevel:
    def test_console_script_thread_invariance(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"atoms": [{"value": 1.0, "weight": 1.0}]}))
        outputs = []
        for threads, name in (("1", "t1"), ("4", "t4")):
            env = dict(os.environ, RMT_THREADS=threads)
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
                env=env,
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
        for blas, workers in (("1", "1"), ("2", "2"), ("1", "2"), ("2", "1")):
            out = tmp_path / f"b{blas}w{workers}"
            out.mkdir()
            commands = [
                ["solve-mp", "--h-file", str(h), "--rho", "0.5", "--out", str(out / "mp")],
                ["solve-elliptical", "--params", str(params), "--out", str(out / "ell")],
            ]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, RMT_THREADS=workers)
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
