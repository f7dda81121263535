"""Shipping acceptance suite: thirteen end-to-end criteria at fixed tolerances.

Every test prints one `CRITERION nn <name>: PASS/FAIL (<measured values>)`
line before asserting, so the numbers are always in the run log (use -s to
see them for passing tests; failures show them in the captured output).

Two sub-checks encode targets that the sampling models themselves violate at
the stated dimensions, and they fail by design rather than being loosened:
the diagonal root-mean-square half of criterion 2 (max_i |sqrt(S_ii) - 1|
concentrates near 0.08 at n=800, above the 0.05 target) and the pairwise
angle half of criterion 11 (the max scaled inner product over ~8e4 row pairs
concentrates near 0.24 at p=400, above the 0.2 threshold). The printed lines
document the measured values in both cases.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from rmtlaw.concentration import (
    angle_diagnostic,
    norm_diagnostic,
    verify_copula,
    verify_lemma6,
    verify_quadform,
)
from rmtlaw import cli
from rmtlaw.elliptical_solver import (
    EllipticalParams,
    elliptical_solve,
    mixing_integral,
)
from rmtlaw.experiments import (
    ExperimentSpec,
    run_experiment,
)
from rmtlaw.linalg import (
    sample_correlation,
    sym_eigenvalues,
    toeplitz_corr,
)
from rmtlaw.measures import DiscreteMeasure, delta, measure_from_eigenvalues
from rmtlaw.mp_solver import (
    SolverConfig,
    default_v_eps,
    density_grid_detailed,
    mp_companion_solve,
    solve_edge,
)
from rmtlaw.samplers import PopulationModel, sample_model

UNIT = delta(1.0)
FIXTURES = Path(__file__).parent / "data" / "diagnostic_fixtures.json"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} {name}: {status} ({detail})", flush=True)


def _null_mp_density(xs: np.ndarray, rho: float) -> np.ndarray:
    """Closed-form continuous density of the unit-population null law."""
    a = (1.0 - np.sqrt(rho)) ** 2
    b = (1.0 + np.sqrt(rho)) ** 2
    out = np.zeros_like(xs)
    inside = (xs > a) & (xs < b)
    x = xs[inside]
    out[inside] = np.sqrt((b - x) * (x - a)) / (2.0 * np.pi * rho * x)
    return out


@functools.lru_cache(maxsize=None)
def _toeplitz_h() -> DiscreteMeasure:
    gamma = toeplitz_corr(400, 0.5)
    return measure_from_eigenvalues(np.maximum(sym_eigenvalues(gamma), 0.0))


@functools.lru_cache(maxsize=None)
def _copula_h() -> DiscreteMeasure:
    from rmtlaw.linalg import copula_cov

    T = copula_cov(toeplitz_corr(200, 0.3))
    return measure_from_eigenvalues(np.maximum(sym_eigenvalues(T), 0.0))


def _two_atom_mixing() -> DiscreteMeasure:
    return DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))


def test_criterion_01_null_correlation_law():
    start = time.perf_counter()
    spec = ExperimentSpec(
        model=PopulationModel(family="gaussian", n=1000, p=500),
        seed=0,
    )
    result = run_experiment(spec)
    elapsed = time.perf_counter() - start
    ks_ok = result.ks_distance <= 0.05
    time_ok = elapsed <= 60.0
    _report(
        1,
        "null correlation law",
        ks_ok and time_ok,
        f"ks={result.ks_distance:.4f} <= 0.05, runtime={elapsed:.1f}s <= 60s",
    )
    assert ks_ok
    assert time_ok


def test_criterion_02_toeplitz_correlation_law():
    spec = ExperimentSpec(
        model=PopulationModel(
            family="gaussian", n=800, p=400, shape=toeplitz_corr(400, 0.5)
        ),
        seed=0,
    )
    result = run_experiment(spec)
    ks_ok = result.ks_distance <= 0.06
    diag_ok = result.lemma5_stat <= 0.05
    _report(
        2,
        "toeplitz correlation law",
        ks_ok and diag_ok,
        f"ks={result.ks_distance:.4f} <= 0.06 [{'ok' if ks_ok else 'fail'}], "
        f"max|sqrt(S_ii)-1|={result.lemma5_stat:.4f} <= 0.05 "
        f"[{'ok' if diag_ok else 'fail'}]",
    )
    assert ks_ok
    assert diag_ok, (
        "max_i |sqrt(S_ii) - 1| concentrates near 0.08 at p=400, n=800; "
        "the 0.05 target would need n ~ 4000 at this p"
    )


def test_criterion_03_correlation_scale_invariance():
    Y = sample_model(PopulationModel(family="gaussian", n=200, p=100), seed=0)
    scales = np.geomspace(0.2, 5.0, 100)
    base = sym_eigenvalues(sample_correlation(Y))
    rescaled = sym_eigenvalues(sample_correlation(Y * scales))
    diff = float(np.max(np.abs(base - rescaled)))
    ok = diff <= 1e-10
    _report(3, "correlation scale invariance", ok, f"max|delta eig|={diff:.2e} <= 1e-10")
    assert ok


def test_criterion_04_edge_formula():
    edge = solve_edge(UNIT, 4.0)
    c0_err = abs(edge.c0 - 2.0 / 3.0)
    mu_err = abs(edge.mu - 2.25)
    exact_ok = c0_err <= 1e-10 and mu_err <= 1e-10

    rel_errs = []
    for seed in range(10):
        Y = sample_model(PopulationModel(family="gaussian", n=1000, p=250), seed=seed)
        lam_max = float(sym_eigenvalues(sample_correlation(Y))[-1])
        rel_errs.append(abs(lam_max - edge.mu) / edge.mu)
    mc_ok = max(rel_errs) <= 0.05
    _report(
        4,
        "largest-eigenvalue edge",
        exact_ok and mc_ok,
        f"|c0-2/3|={c0_err:.1e}, |mu-2.25|={mu_err:.1e} (<= 1e-10), "
        f"max rel err over 10 seeds={max(rel_errs):.4f} <= 0.05",
    )
    assert exact_ok
    assert mc_ok


def test_criterion_05_null_density_oracle():
    details = []
    ok = True
    for rho in (0.25, 0.5, 2.0):
        a = (1.0 - np.sqrt(rho)) ** 2
        b = (1.0 + np.sqrt(rho)) ** 2
        width = b - a
        interior = np.linspace(a + 0.05 * width, b - 0.05 * width, 50)
        v = default_v_eps(UNIT, rho)
        _, density, _, _ = density_grid_detailed(UNIT, rho, interior, SolverConfig())
        err = float(np.max(np.abs(density - _null_mp_density(interior, rho))))

        full = np.linspace(max(0.0, a - 0.5), b + 0.5, 400)
        _, _, cdf, stats = density_grid_detailed(UNIT, rho, full, SolverConfig())
        mass = float(cdf[-1])
        rho_ok = err <= 5.0 * v and abs(mass - 1.0) <= 0.02
        ok = ok and rho_ok
        details.append(
            f"rho={rho:g}: err={err:.1e} <= {5.0 * v:.1e}, mass={mass:.4f}"
            + (f" (atom0={stats['atom0_mass']:.2f})" if stats["atom0_mass"] else "")
        )
    _report(5, "null density matches closed form", ok, "; ".join(details))
    assert ok


def test_criterion_06_reduction_to_companion_solver():
    zs = [
        complex(x, v)
        for x in (0.2, 1.15, 2.1, 3.05, 4.0)
        for v in (1e-3, 1e-2, 0.1, 1.0)
    ]
    max_dw = 0.0
    max_dm = 0.0
    max_resid = 0.0
    for rho in (0.25, 0.5, 1.0, 2.0):
        params = EllipticalParams(H=UNIT, nu=UNIT, theta=1.0, rho=rho)
        for z in zs:
            ell = elliptical_solve(z, params)
            mp = mp_companion_solve(z, UNIT, rho)
            b = mixing_integral(ell.w, params.nu, params.theta, params.xi)
            max_resid = max(max_resid, abs(1.0 + z * ell.m - ell.w * b))
            max_dm = max(max_dm, abs(ell.m - mp.m))
            if rho == 1.0:
                # The two w-transforms are the same object only at rho=1.
                max_dw = max(max_dw, abs(ell.w - mp.w))
    ok = max_dw <= 1e-8 and max_dm <= 1e-8 and max_resid <= 1e-10
    _report(
        6,
        "unit-mixing reduction",
        ok,
        f"max|dw| at rho=1 over 20 z's={max_dw:.1e} <= 1e-8, "
        f"max|dm| over rho in {{0.25,0.5,1,2}}={max_dm:.1e} <= 1e-8, "
        f"max identity residual={max_resid:.1e} <= 1e-10",
    )
    assert ok


def test_criterion_07_elliptical_monte_carlo():
    base_model = PopulationModel(
        family="sphere_elliptical", n=600, p=300, mixing=_two_atom_mixing()
    )
    result_a = run_experiment(
        ExperimentSpec(model=base_model, grid_count=2000, seed=0)
    )

    copula_model = PopulationModel(
        family="gaussian_copula", n=600, p=200, shape=toeplitz_corr(200, 0.3)
    )
    result_b = run_experiment(
        ExperimentSpec(model=copula_model, seed=0)
    )

    shifted_model = PopulationModel(
        family="sphere_elliptical",
        n=600,
        p=300,
        mixing=_two_atom_mixing(),
        location=0.5,
    )
    result_c = run_experiment(
        ExperimentSpec(model=shifted_model, grid_count=2000, seed=0)
    )
    shift_change = abs(result_c.ks_distance - result_a.ks_distance)

    ok = (
        result_a.ks_distance <= 0.07
        and result_b.ks_distance <= 0.07
        and shift_change <= 0.02
    )
    _report(
        7,
        "scaled-gram laws by monte carlo",
        ok,
        f"two-atom mixing ks={result_a.ks_distance:.4f} <= 0.07, "
        f"copula ks={result_b.ks_distance:.4f} <= 0.07, "
        f"|ks shift| from location 0.5={shift_change:.4f} <= 0.02",
    )
    assert ok


def test_criterion_08_uniqueness_probes():
    cfg = SolverConfig(tol=1e-13, max_iters=30000)
    max_diff = 0.0

    mp_grids = [
        (UNIT, 0.5, np.linspace(0.05, 3.5, 10)),
        (_toeplitz_h(), 0.5, np.linspace(0.05, 8.0, 10)),
    ]
    for H, rho, xs in mp_grids:
        v = default_v_eps(H, rho)
        for x in xs:
            z = complex(x, v)
            first = mp_companion_solve(z, H, rho, cfg)
            second = mp_companion_solve(z, H, rho, cfg, w0=2j)
            max_diff = max(max_diff, abs(first.w - second.w), abs(first.m - second.m))

    elliptical_grids = [
        (
            EllipticalParams(H=UNIT, nu=_two_atom_mixing(), theta=1.0, rho=0.5),
            np.linspace(0.05, 10.0, 10),
        ),
        (
            EllipticalParams(H=_copula_h(), nu=UNIT, theta=1.0, rho=200.0 / 600.0),
            np.linspace(0.005, 1.0, 10),
        ),
    ]
    for params, xs in elliptical_grids:
        v = default_v_eps(params.H, params.rho)
        for x in xs:
            z = complex(x, v)
            first = elliptical_solve(z, params, cfg)
            second = elliptical_solve(z, params, cfg, w0=2j)
            max_diff = max(max_diff, abs(first.w - second.w), abs(first.m - second.m))

    ok = max_diff <= 1e-8
    _report(
        8,
        "fixed-point uniqueness probes",
        ok,
        f"max two-start difference over 4 law grids={max_diff:.1e} <= 1e-8",
    )
    assert ok


def test_criterion_09_stieltjes_tail_bound():
    report, ok = verify_lemma6()
    stds = ", ".join(f"{s:.4f}" for s in report.details["stds"])
    _report(
        9,
        "martingale tail bound suite",
        ok,
        f"all tail frequencies within bound + 3se, "
        f"sd ladder p=(50,100,200) = ({stds}) strictly decreasing="
        f"{report.details['sd_strictly_decreasing']}",
    )
    assert ok


def test_criterion_10_quadratic_form_concentration():
    report, ok = verify_quadform()
    means = report.details["mean_max_deviation"]
    gaussian = ", ".join(f"{v:.4f}" for v in means["gaussian"])
    sphere_max = max(means["sphere"])
    _report(
        10,
        "quadratic-form concentration suite",
        ok,
        f"gaussian mean max deviation p=(100,200,400) = ({gaussian}) nonincreasing, "
        f"sphere max={sphere_max:.1e} (exact zero), copula nonincreasing="
        f"{report.details['nonincreasing']['copula']}",
    )
    assert ok


def test_criterion_11_geometric_diagnostics():
    fixture = json.loads(FIXTURES.read_text())
    assert fixture["norm_threshold"] == 0.35
    assert fixture["angle_threshold"] == 0.2

    # Guard against stale fixtures: recompute two of the 50 stored runs.
    model = PopulationModel(family="gaussian", n=400, p=400)
    for idx in (0, 49):
        Y = sample_model(model, seed=fixture["seeds"][idx])
        _, norm_max = norm_diagnostic(Y, 1.0)
        angle_max, _ = angle_diagnostic(Y)
        assert norm_max == fixture["norm_max"][idx]
        assert angle_max == fixture["angle_max"][idx]

    norm_frac = fixture["norm_pass_fraction"]
    angle_frac = fixture["angle_pass_fraction"]
    norm_ok = norm_frac >= 0.99
    angle_ok = angle_frac >= 0.99
    _report(
        11,
        "row geometry diagnostics",
        norm_ok and angle_ok,
        f"norm deviation <= 0.35 in {norm_frac:.0%} of 50 runs (need >= 99%) "
        f"[{'ok' if norm_ok else 'fail'}], "
        f"pairwise angle <= 0.2 in {angle_frac:.0%} "
        f"(max observed {max(fixture['angle_max']):.4f}) "
        f"[{'ok' if angle_ok else 'fail'}]",
    )
    assert norm_ok
    assert angle_ok, (
        "max_{i<j} |r_i'r_j|/p over ~8e4 pairs concentrates near 0.24 at "
        "p=n=400; no run among the 50 stored seeds meets the 0.2 threshold"
    )


def test_criterion_12_copula_covariance_suite():
    report, ok = verify_copula()
    d = report.details
    _report(
        12,
        "copula covariance suite",
        ok,
        f"diagonal exact={d['diagonal_exact']}, "
        f"norm bound dominates (min gap {d['min_bound_gap']:.4f})="
        f"{d['bound_dominates']}, mc within 5 se={d['mc_within_5_se']} "
        f"(max abs err {d['mc_max_abs_error']:.2e})",
    )
    assert ok


def test_criterion_13_cli_determinism(tmp_path, capsys):
    shared = tmp_path / "shared"
    shared.mkdir()
    h_file = shared / "h.json"
    h_file.write_text(json.dumps({"atoms": [{"value": 1.0, "weight": 1.0}]}))
    params_file = shared / "params.json"
    params_file.write_text(
        json.dumps(
            {
                "H": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                "nu": {"atoms": [{"value": 1.0, "weight": 1.0}]},
                "theta": 1.0,
                "rho": 0.5,
            }
        )
    )
    model_file = shared / "model.json"
    model_file.write_text(json.dumps({"family": "gaussian", "n": 80, "p": 20}))
    eigs_file = shared / "eigs.csv"
    eigs_file.write_text("0.25\n0.5\n1.5\n")
    law_file = shared / "law.csv"
    law_file.write_text("x,density,cdf\n0,0.5,0\n2,0.5,1\n")

    commands = {
        "solve-mp": lambda d: [
            "solve-mp", "--h-file", str(h_file), "--rho", "0.5",
            "--grid", "0,3.5,200", "--out", str(d / "mp"),
        ],
        "solve-elliptical": lambda d: [
            "solve-elliptical", "--params", str(params_file),
            "--grid", "0,3.5,150", "--out", str(d / "ell"),
        ],
        "edge": lambda d: [
            "edge", "--h-file", str(h_file), "--n-over-p", "4",
            "--out", str(d / "edge.json"),
        ],
        "simulate": lambda d: [
            "simulate", "--model", str(model_file), "--seed", "3",
            "--out", str(d / "sim"),
        ],
        "diagnose": lambda d: [
            "diagnose", "--model", str(model_file), "--seed", "1",
            "--out", str(d / "diag.json"),
        ],
        "verify": lambda d: [
            "verify", "--suite", "lemma6", "--reps", "12",
            "--out", str(d / "verify.json"),
        ],
        "compare": lambda d: [
            "compare", "--eigs", str(eigs_file), "--law", str(law_file),
            "--out", str(d / "cmp.json"),
        ],
    }

    def run_all(run_dir: Path):
        run_dir.mkdir()
        outputs = {}
        for name, argv in commands.items():
            code = cli.main(argv(run_dir))
            stdout = capsys.readouterr().out
            files = {
                f.name: f.read_bytes() for f in sorted(run_dir.iterdir())
            }
            outputs[name] = (code, stdout, files)
        return outputs

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")

    mismatched = [name for name in commands if first[name] != second[name]]
    ok = not mismatched
    _report(
        13,
        "cli determinism on rerun",
        ok,
        "7 subcommands rerun byte-identical"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok, f"non-deterministic subcommands: {mismatched}"
