"""Command-line front end: solvers, simulation, diagnostics, verification.

Subcommands:
  solve-mp          density/CDF of the covariance-correlation limit law
  solve-elliptical  density/CDF of the scaled-Gram limit law
  edge              largest-eigenvalue limit {c0, mu}
  simulate          eigenvalues of a simulated matrix, plus metadata
  diagnose          row-geometry diagnostics of a data set
  verify            Monte Carlo verification suites
  compare           KS distance between an eigenvalue file and a law CSV

All randomness flows from --seed (default 0). Numeric output is printed
with 17 significant digits and files end with a trailing newline, so any
command is byte-identical on rerun. Exit codes: 0 success, 2 invalid
input, 3 numerical failure, 4 verification-suite bound violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from ._serialize import _write_lines, json_dumps, load_json, write_density_csv, write_spectrum_csv
from .concentration import (
    ANGLE_THRESHOLD,
    NORM_THRESHOLD,
    angle_diagnostic,
    norm_diagnostic,
    population_covariance,
    verify_copula,
    verify_lemma6,
    verify_quadform,
    verify_tightness,
)
from .elliptical_solver import (
    elliptical_density_grid_detailed,
    load_params_json,
    scaled_gram,
)
from .errors import NumericalError
from .experiments import ks_distance
from .linalg import (
    _load_csv,
    load_matrix_csv,
    load_spectrum_csv,
    sample_correlation,
    sample_covariance,
    sym_eigenvalues,
)
from .measures import load_measure_json
from .mp_solver import (
    DEFAULT_GRID_COUNT,
    GRID_PAD,
    SolverConfig,
    _check_ratio,
    density_grid_detailed,
    solve_edge,
    support_hull,
)
from .samplers import load_model_json, model_from_json_dict, sample_model

# Where a numerical failure happened and how close it got, when known.
_ERROR_FIELDS = ("index", "x", "residual", "iterations")


def _emit_error(kind: str, message: str, **fields) -> None:
    sys.stderr.write(json_dumps({"error": kind, "message": message, **fields}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as JSON on stderr."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _parse_grid(text: str) -> NDArray[np.float64]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('grid must be "min,max,count"')
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    for name, bound in (("min", lo), ("max", hi)):
        if not np.isfinite(bound):
            raise ValueError(f"grid {name} must be finite, got {bound!r}")
    if count < 2:
        raise ValueError("grid count must be >= 2")
    if not (hi > lo):
        raise ValueError("grid max must exceed grid min")
    return np.linspace(lo, hi, count)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _add_solve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", required=True, help="output prefix for .density.csv/.summary.json")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout summary")
    sub.add_argument(
        "--tol", type=float, default=SolverConfig.tol, help="fixed-point residual target"
    )
    sub.add_argument(
        "--max-iters", type=int, default=SolverConfig.max_iters, help="evaluation cap per point"
    )
    sub.add_argument(
        "--v-eps", type=float, default=None, help="imaginary offset for density recovery"
    )
    sub.add_argument(
        "--grid", default=None, help='real grid "min,max,count"; default spans the support'
    )


def _print_json(args: argparse.Namespace, obj, path: Optional[str]) -> None:
    text = json_dumps(obj)
    if not args.quiet:
        sys.stdout.write(text + "\n")
    if path:
        _write_lines(path, [text])


def _mp_law(args: argparse.Namespace):
    """(span(), solve(xs, cfg)) for solve-mp: the covariance law of H at
    rho, whose span is its exact support hull."""
    H = load_measure_json(args.h_file)
    rho = args.rho
    _check_ratio(rho, "--rho")
    return (
        lambda: support_hull(H, rho),
        lambda xs, cfg: density_grid_detailed(H, rho, xs, cfg),
    )


def _elliptical_law(args: argparse.Namespace):
    """(span(), solve(xs, cfg)) for solve-elliptical: the scaled-Gram law.

    Its matrices lie between theta*min(nu^2)*S and theta*max(nu^2)*S in
    the Loewner order, S the sample covariance of H at ratio theta*rho, so
    the span scales that covariance law's exact hull; with one mixing atom
    the law is theta*lam^2 times it and the span is exact.
    """
    params = load_params_json(args.params)
    lam2 = params.nu.values**2

    def span():
        a, b = support_hull(params.H, params.theta * params.rho)
        return params.theta * lam2.min() * a, params.theta * lam2.max() * b

    return span, lambda xs, cfg: elliptical_density_grid_detailed(params, xs, cfg)


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve the subcommand's law; its stats are the summary JSON."""
    span, solve = args.law(args)
    cfg = SolverConfig(tol=args.tol, max_iters=args.max_iters, v_eps=args.v_eps)
    if args.grid is not None:
        xs = _parse_grid(args.grid)
    else:
        # The law's span, GRID_PAD wider on each side; far from 0 the pad
        # spans at least DEFAULT_GRID_COUNT ulps of b, so the points stay
        # distinct after rounding.
        a, b = span()
        pad = max(GRID_PAD, DEFAULT_GRID_COUNT * float(np.spacing(b)))
        xs = np.linspace(max(0.0, a - pad), b + pad, DEFAULT_GRID_COUNT)
    xs, density, cdf, stats = solve(xs, cfg)
    write_density_csv(f"{args.out}.density.csv", xs, density, cdf)
    _print_json(args, stats, f"{args.out}.summary.json")
    return 0


def cmd_edge(args: argparse.Namespace) -> int:
    H = load_measure_json(args.h_file)
    result = solve_edge(H, args.n_over_p)
    _print_json(args, {"c0": result.c0, "mu": result.mu}, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    obj = load_json(args.model, "model")
    model = model_from_json_dict(obj)
    Y = sample_model(model, args.seed, 0)
    if args.matrix == "correlation":
        mat = sample_correlation(Y)
    elif args.matrix == "covariance":
        mat = sample_covariance(Y)
    else:
        mat = scaled_gram(Y, model.p)
    eigs = sym_eigenvalues(mat)
    write_spectrum_csv(f"{args.out}.eigs.csv", eigs)
    meta = {
        "model": obj,  # the model JSON as given
        "seed": args.seed,
        "dims": {"n": model.n, "p": model.p, "d": model.d},
        "matrix": args.matrix,
    }
    _print_json(args, meta, f"{args.out}.meta.json")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    if (args.data is None) == (args.model is None):
        raise ValueError("provide exactly one of --data or --model")
    thresholds = {"norm": args.norm_threshold, "angle": args.angle_threshold}
    for name, value in thresholds.items():
        if not np.isfinite(value):
            raise ValueError(f"--{name}-threshold must be finite, got {value!r}")
    trace = args.trace_sigma_over_p
    if args.data is not None:
        Y = load_matrix_csv(args.data)
        trace = 1.0 if trace is None else trace
    else:
        model = load_model_json(args.model)
        Y = sample_model(model, args.seed, 0)
        if trace is None:
            trace = float(np.trace(population_covariance(model))) / model.d
    norm_values, norm_max = norm_diagnostic(Y, trace, center=args.center)
    angle_max, angle_hist = angle_diagnostic(Y)
    lo, hi = float(norm_values.min()), float(norm_values.max())
    # near-constant norms (e.g. sphere rows) underflow 50 finite bins
    if hi - lo < 50 * np.spacing(max(abs(lo), abs(hi), 1.0)):
        lo, hi = lo - 0.5, hi + 0.5
    norm_hist, norm_edges = np.histogram(norm_values, bins=50, range=(lo, hi))
    # Only the column variances, diag(S), enter: no p x p covariance is built.
    lemma5_stat = float(np.max(np.abs(np.sqrt(np.var(Y, axis=0, ddof=1)) - 1.0)))
    concentrated = norm_max <= args.norm_threshold and angle_max <= args.angle_threshold
    out = {
        "norm": {
            "histogram": norm_hist,
            "bin_edges": norm_edges,
            "max_deviation": norm_max,
            "target": trace,
        },
        "angle": {
            "histogram": angle_hist,
            "bin_edges": np.linspace(0.0, 1.0, angle_hist.size + 1),
            "max_offdiag": angle_max,
        },
        "lemma5_stat": lemma5_stat,
        "thresholds": thresholds,
        "concentrated": bool(concentrated),
    }
    _print_json(args, out, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # The replicate defaults live in the suites' signatures.
    reps = {} if args.reps is None else {"reps": args.reps}
    if args.suite == "lemma6":
        report, ok = verify_lemma6(seed=args.seed, **reps)
    elif args.suite == "quadform":
        report, ok = verify_quadform(seed=args.seed, **reps)
    elif reps:
        raise ValueError(f"--reps does not apply to suite {args.suite}")
    elif args.suite == "copula":
        report, ok = verify_copula(seed=args.seed)
    else:
        report, ok = verify_tightness(seed=args.seed)
    _print_json(args, {**asdict(report), "ok": ok}, args.out)
    return 0 if ok else 4


def cmd_compare(args: argparse.Namespace) -> int:
    eigs = load_spectrum_csv(args.eigs)
    law = _load_csv(args.law, 2, delimiter=",", skiprows=1)
    if law.ndim != 2 or law.shape[1] != 3:
        raise ValueError("law file must be an x,density,cdf CSV")
    ks = ks_distance(eigs, law[:, 0], law[:, 2])
    _print_json(args, {"ks_distance": ks}, args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rmtlaw",
        description="Limiting spectral laws of sample covariance/correlation "
        "matrices: solvers, simulation, diagnostics, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-mp", help="solve the covariance/correlation limit law")
    p.add_argument("--h-file", required=True, help="population spectrum measure JSON")
    p.add_argument("--rho", type=float, required=True, help="aspect ratio p/n")
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve, law=_mp_law)

    p = sub.add_parser("solve-elliptical", help="solve the scaled-Gram limit law")
    p.add_argument("--params", required=True, help="EllipticalParams JSON file")
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve, law=_elliptical_law)

    p = sub.add_parser("edge", help="largest-eigenvalue limit {c0, mu}")
    p.add_argument("--h-file", required=True, help="population spectrum measure JSON")
    p.add_argument("--n-over-p", type=float, required=True, help="aspect ratio n/p")
    p.add_argument("--out", default=None, help="optional JSON output file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_edge)

    p = sub.add_parser("simulate", help="eigenvalues of a simulated matrix")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument(
        "--matrix",
        choices=("correlation", "covariance", "gram"),
        default="correlation",
        help="which matrix to decompose",
    )
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output prefix for .eigs.csv/.meta.json")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="row-geometry diagnostics")
    p.add_argument("--data", default=None, help="data matrix CSV (rows = observations)")
    p.add_argument("--model", default=None, help="model JSON to simulate instead of --data")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--trace-sigma-over-p",
        type=float,
        default=None,
        help="norm target; defaults to the model's trace(Sigma)/p, or 1 with --data",
    )
    p.add_argument("--center", action="store_true", help="center columns before norms")
    p.add_argument("--norm-threshold", type=float, default=NORM_THRESHOLD)
    p.add_argument("--angle-threshold", type=float, default=ANGLE_THRESHOLD)
    p.add_argument("--out", default=None, help="optional JSON output file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("verify", help="Monte Carlo verification suites")
    p.add_argument(
        "--suite", required=True, choices=("lemma6", "quadform", "copula", "tightness")
    )
    p.add_argument("--reps", type=int, default=None, help="replicate count override")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default=None, help="optional JSON output file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="KS distance of eigenvalues vs a law CSV")
    p.add_argument("--eigs", required=True, help="eigenvalue CSV (one per line)")
    p.add_argument("--law", required=True, help="x,density,cdf CSV from a solve command")
    p.add_argument("--out", default=None, help="optional JSON output file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except ArithmeticError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    except NumericalError as exc:
        fields = {k: v for k in _ERROR_FIELDS if (v := getattr(exc, k, None)) is not None}
        _emit_error(type(exc).__name__, str(exc), **fields)
        return 3


if __name__ == "__main__":
    sys.exit(main())
