"""Correctness checks on the files each benchmark op wrote.

`check(op, exit_code, directory)` returns (ok, message, extras). It reads
only the op's own outputs; extras carry readings that are not pass/fail,
such as the mass defect of a solved law.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import Op

# Closed-form edge of a point mass s at n/p = q: c0 = sqrt(q)/(s(1+sqrt(q))),
# mu = s(1+sqrt(q))^2/q; bisection resolves c0 to 1e-12 relative width.
EDGE_RTOL = 1e-12
# Edge of a general H: mu must agree with its defining formula at c0.
EDGE_FORMULA_RTOL = 1e-9
TRACE_RTOL = 1e-8
# The written CDF is a trapezoid sum of the inverted density, so its total
# mass is only approximately 1; the acceptance suite (criterion 5) and the
# solver tests accept |1 - final CDF| up to 0.02. The CDF may exceed 1 by no
# more than that; the overshoot itself is reported, not gated.
MASS_ATOL = 0.02


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_law(op: Op, d: Path) -> dict:
    table = np.loadtxt(d / f"{op.prefix}.density.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(table.ndim == 2 and table.shape[1] == 3, "law CSV is not x,density,cdf")
    _load_json(d / f"{op.prefix}.summary.json")
    xs, density, cdf = table[:, 0], table[:, 1], table[:, 2]
    _require(bool(np.all(np.isfinite(table))), "law CSV has non-finite values")
    _require(bool(np.all(np.diff(xs) > 0)), "grid is not strictly ascending")
    _require(bool(np.all(density >= 0)), f"negative density (min {density.min()!r})")
    _require(
        bool(np.all((cdf >= 0) & (cdf <= 1 + MASS_ATOL))),
        f"CDF outside [0, 1 + {MASS_ATOL}] (min {cdf.min()!r}, max {cdf.max()!r})",
    )
    _require(bool(np.all(np.diff(cdf) >= 0)), "CDF decreases")
    return {"mass_defect": abs(1.0 - float(cdf[-1])), "cdf_max": float(cdf.max())}


def _check_edge(op: Op, d: Path) -> dict:
    out = _load_json(d / f"{op.prefix}.json")
    c0, mu = float(out["c0"]), float(out["mu"])
    atoms = np.asarray(op.expect["atoms"], dtype=np.float64)
    q = float(op.expect["n_over_p"])
    if atoms.size == 1:
        s, root = float(atoms[0]), math.sqrt(q)
        c0_exact = root / (s * (1.0 + root))
        mu_exact = s * (1.0 + root) ** 2 / q
        _require(abs(c0 - c0_exact) <= EDGE_RTOL * c0_exact, f"c0={c0!r}, expected {c0_exact!r}")
        _require(abs(mu - mu_exact) <= EDGE_RTOL * mu_exact, f"mu={mu!r}, expected {mu_exact!r}")
        return {}
    weights = np.asarray(op.expect.get("weights", np.full(atoms.size, 1.0 / atoms.size)))
    _require(0.0 < c0 < 1.0 / atoms.max(), f"c0={c0!r} outside (0, 1/max(H))")
    t = atoms * c0 / (1.0 - atoms * c0)
    mu_formula = (1.0 / c0) * (1.0 + float(np.dot(weights, t)) / q)
    _require(
        abs(mu - mu_formula) <= EDGE_FORMULA_RTOL * mu_formula,
        f"mu={mu!r} disagrees with its formula at c0 ({mu_formula!r})",
    )
    return {}


def _check_simulate(op: Op, d: Path) -> dict:
    eigs = np.loadtxt(d / f"{op.prefix}.eigs.csv", ndmin=1)
    _load_json(d / f"{op.prefix}.meta.json")
    p = int(op.expect["p"])
    _require(eigs.shape == (p,), f"{eigs.size} eigenvalues, expected {p}")
    _require(bool(np.all(np.isfinite(eigs))), "non-finite eigenvalue")
    _require(bool(np.all(np.diff(eigs) >= 0)), "eigenvalues not ascending")
    if op.expect["matrix"] == "correlation":
        total = float(eigs.sum())
        _require(abs(total - p) <= TRACE_RTOL * p, f"trace {total!r}, expected {p}")
    return {}


def _check_compare(op: Op, d: Path) -> dict:
    ks = float(_load_json(d / f"{op.prefix}.json")["ks_distance"])
    _require(0.0 <= ks <= op.expect["ks_max"], f"KS {ks!r} above {op.expect['ks_max']}")
    return {"ks": ks}


def _check_diagnose(op: Op, d: Path) -> dict:
    out = _load_json(d / f"{op.prefix}.json")
    _require(isinstance(out.get("concentrated"), bool), "diagnose output lacks 'concentrated'")
    return {}


def _check_verify(op: Op, d: Path) -> dict:
    out = _load_json(d / f"{op.prefix}.json")
    _require(out.get("ok") is True, "suite reported ok=false")
    return {}


_CHECKS = {
    "solve-mp": _check_law,
    "solve-elliptical": _check_law,
    "edge": _check_edge,
    "simulate": _check_simulate,
    "compare": _check_compare,
    "diagnose": _check_diagnose,
    "verify": _check_verify,
}


def check(op: Op, exit_code, directory: Path) -> tuple[bool, str, dict]:
    """Exit code 0, outputs that parse, and the op's own invariants."""
    if exit_code != 0:
        return False, f"exit code {exit_code}", {}
    try:
        extras = _CHECKS[op.command](op, directory)
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"{type(exc).__name__}: {exc}", {}
    return True, "", extras
