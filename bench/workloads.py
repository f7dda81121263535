"""Seeded op lists for the rmtlaw benchmark.

A workload is a list of CLI invocations ("ops") plus the input files they
read. `build(workload, seed, pass_index)` is a pure function: the same
arguments give the same argv lists and byte-identical input files. The seed
and the pass index change values only (rho, population scales, Toeplitz r,
mixing atoms, bounds, the `--seed` passed to the program), never the op
list or the matrix sizes, so passes of one run, and runs of different
seeds, do the same amount of work on different inputs. Within a run no two
ops share identical inputs, so a cache across ops can only show a gain
where real inputs repeat.

Inputs are built with numpy alone, never with rmtlaw, so a change to the
program cannot change what it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

WORKLOADS = ("laws", "simulate", "verify")

# Law inputs: population spectra H and aspect ratios rho = p/n. rho = 1 is
# the hard edge (known mass defect) and is never jittered.
H_KINDS = ("delta", "two_atom", "toeplitz200", "toeplitz1000")
RHOS = (0.1, 0.5, 1.0, 2.0)
MP_VARIANTS = 4
TOEPLITZ_SIZES = {"toeplitz200": 200, "toeplitz1000": 1000}
# (H kind, nominal rho) pairs solved with every nu-atom count and theta.
ELLIPTICAL_CASES = (("delta", 0.1), ("two_atom", 0.5), ("toeplitz200", 0.5), ("delta", 2.0))
THETAS = (0.5, 1.0)
NU_ATOM_COUNTS = (1, 2, 3)
# n/p = 4 is kept exact: on a point mass it has the closed form mu = 2.25 s.
EDGE_RATIOS = (4.0, 2.0, 8.0)

# Simulation sizes (n, p) and the matrix each family is decomposed into at
# each size; every size covers all three matrix kinds.
SIM_SIZES = ((1000, 500), (2000, 1000))
SIM_PLAN = (
    (
        ("gaussian", "correlation"),
        ("bounded_iid", "covariance"),
        ("sphere_elliptical", "gram"),
        ("gaussian_copula", "gram"),
        ("lb_ball", "correlation"),
    ),
    (
        ("gaussian", "covariance"),
        ("bounded_iid", "correlation"),
        ("sphere_elliptical", "gram"),
        ("gaussian_copula", "gram"),
        ("lb_ball", "correlation"),
    ),
)
SIM_GRID_COUNT = 400

# KS tolerances of the acceptance suite, by limit law.
KS_NULL = 0.05
KS_TOEPLITZ = 0.06
KS_ELLIPTICAL = 0.07

VERIFY_SUITES = ("lemma6", "quadform", "copula", "tightness")

_WORKLOAD_KEY = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Op:
    """One CLI invocation: argv, the input files it reads, and what to check.

    Paths in argv are relative to the pass directory. Every output file of
    the op starts with `prefix`. `expect` holds the check's parameters.
    """

    name: str
    command: str
    argv: list[str]
    prefix: str
    expect: dict = field(default_factory=dict)


@dataclass
class Pass:
    ops: list[Op]
    files: dict[str, str]


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _WORKLOAD_KEY[workload], int(pass_index)])


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _measure(values, weights=None) -> dict:
    values = np.asarray(values, dtype=np.float64)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    return {
        "atoms": [{"value": float(v), "weight": float(w)} for v, w in zip(values, weights)]
    }


def _toeplitz(p: int, r: float) -> np.ndarray:
    idx = np.arange(p)
    return r ** np.abs(np.subtract.outer(idx, idx))


def _spectrum(matrix: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.eigvalsh(matrix), 0.0)


def _copula_cov(R: np.ndarray) -> np.ndarray:
    C = np.arcsin(R / 2.0) / (2.0 * np.pi)
    np.fill_diagonal(C, 1.0 / 12.0)
    return C


def _jitter(rng: np.random.Generator, nominal: float) -> float:
    return nominal if nominal == 1.0 else nominal * float(rng.uniform(0.9, 1.1))


def _grid(hi: float) -> str:
    return f"0,{hi!r},{SIM_GRID_COUNT}"


def _mixing(rng: np.random.Generator, count: int) -> tuple[list[float], list[float]]:
    values = np.sort(rng.uniform(0.5, 2.0, size=count))
    weights = rng.uniform(0.2, 1.0, size=count)
    weights = weights / weights.sum()
    return values.tolist(), weights.tolist()


def _h_laws(kind: str, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Atoms of H (equal weights unless two_atom) before writing."""
    if kind == "delta":
        return np.array([scale])
    if kind == "two_atom":
        return np.array([scale, 10.0 * scale])
    p = TOEPLITZ_SIZES[kind]
    return scale * _spectrum(_toeplitz(p, float(rng.uniform(0.3, 0.7))))


def _adder(ops: list[Op]):
    """add(name, command, argv_of_prefix, expect) appends an op and returns
    its output prefix; argv_of_prefix builds the arguments after the command."""

    def add(name, command, argv, expect):
        prefix = f"o{len(ops):03d}"
        ops.append(Op(name, command, [command] + argv(prefix), prefix, expect))
        return prefix

    return add


def _build_laws(rng: np.random.Generator, pass_index: int) -> Pass:
    files: dict[str, str] = {}
    ops: list[Op] = []
    atoms: dict[tuple[str, int], np.ndarray] = {}
    for kind in H_KINDS:
        for v in range(MP_VARIANTS):
            # Pass 0, variant 0 is the literal H of each kind (scale 1).
            scale = 1.0 if (pass_index == 0 and v == 0) else float(rng.uniform(0.5, 2.0))
            atoms[kind, v] = _h_laws(kind, scale, rng)
            files[f"h_{kind}_{v}.json"] = _json(_measure(atoms[kind, v]))
    add = _adder(ops)
    for kind in H_KINDS:
        for rho_nominal in RHOS:
            for v in range(MP_VARIANTS):
                rho = _jitter(rng, rho_nominal)
                add(
                    f"solve-mp/{kind}/rho={rho_nominal}/v{v}",
                    "solve-mp",
                    lambda pre: ["--h-file", f"h_{kind}_{v}.json", "--rho", repr(rho),
                                 "--out", pre, "--quiet"],
                    {"law": "mp"},
                )
    for count in NU_ATOM_COUNTS:
        for theta in THETAS:
            for kind, rho_nominal in ELLIPTICAL_CASES:
                # The literal H of each kind (scale 1; Toeplitz r seeded); the
                # mixing atoms and rho make every op's inputs its own. A scaled
                # H = {s, 10s} at theta = 1 can end its CDF beyond the checks'
                # mass tolerance (bench/README.md, "Checks").
                values, weights = _mixing(rng, count)
                params = {
                    "H": _measure(_h_laws(kind, 1.0, rng)),
                    "nu": _measure(values, weights),
                    "theta": theta,
                    "rho": _jitter(rng, rho_nominal),
                }
                fname = f"params_{len(ops):03d}.json"
                files[fname] = _json(params)
                add(
                    f"solve-elliptical/{kind}/nu{count}/theta={theta}/rho={rho_nominal}",
                    "solve-elliptical",
                    lambda pre: ["--params", fname, "--out", pre, "--quiet"],
                    {"law": "elliptical"},
                )
    for kind in H_KINDS:
        for v, ratio_nominal in enumerate(EDGE_RATIOS):
            ratio = ratio_nominal if ratio_nominal == 4.0 else _jitter(rng, ratio_nominal)
            v %= MP_VARIANTS
            expect = {"n_over_p": ratio, "atoms": atoms[kind, v].tolist()}
            if kind == "two_atom":
                expect["weights"] = [0.5, 0.5]
            add(
                f"edge/{kind}/n_over_p={ratio_nominal}",
                "edge",
                lambda pre: ["--h-file", f"h_{kind}_{v}.json", "--n-over-p", repr(ratio),
                             "--out", f"{pre}.json", "--quiet"],
                expect,
            )
    return Pass(ops, files)


def _sim_model(family: str, n: int, p: int, rng: np.random.Generator) -> tuple[dict, dict]:
    """Model JSON and the limit-law facts the benchmark derives from it."""
    model: dict = {"family": family, "n": n, "p": p}
    facts: dict = {}
    if family == "gaussian":
        r = float(rng.uniform(0.3, 0.7))
        model["shape"] = {"kind": "toeplitz", "r": r}
        facts["h"] = _spectrum(_toeplitz(p, r))
    elif family == "bounded_iid":
        bound = float(rng.uniform(0.5, 2.0))
        model["bound"] = bound
        facts["variance"] = bound**2 / 3.0
    elif family == "sphere_elliptical":
        values = [float(rng.uniform(0.7, 1.0)), float(rng.uniform(1.5, 2.0))]
        model["mixing"] = _measure(values, [0.5, 0.5])
        facts["nu"] = model["mixing"]
    elif family == "gaussian_copula":
        r = float(rng.uniform(0.1, 0.4))
        model["shape"] = {"kind": "toeplitz", "r": r}
        facts["h"] = _spectrum(_copula_cov(_toeplitz(p, r)))
    else:
        model["b"] = float(rng.uniform(1.0, 2.0))
    return model, facts


def _grid_hi(h_max: float, rho: float, rng: np.random.Generator) -> float:
    """Bound h_max (1 + sqrt(rho))^2 on the spectrum plus a pad of at least
    the 0.5 that rmtlaw.experiments puts above the top eigenvalue of its
    comparison grids; the seeded pad keeps repeated laws off equal grids."""
    return h_max * (1.0 + math.sqrt(rho)) ** 2 + float(rng.uniform(0.5, 1.0))


def _build_simulate(rng: np.random.Generator, pass_index: int) -> Pass:
    files: dict[str, str] = {}
    ops: list[Op] = []
    add = _adder(ops)
    null_law = None
    diagnose_models = []
    for size_index, (n, p) in enumerate(SIM_SIZES):
        rho = p / n
        for family, matrix in SIM_PLAN[size_index]:
            model, facts = _sim_model(family, n, p, rng)
            model_file = f"model_{family}_{n}x{p}.json"
            files[model_file] = _json(model)
            if size_index == 0:
                diagnose_models.append((family, model_file))
            tag = f"{family}/{matrix}/{n}x{p}"
            sim = add(
                f"simulate/{tag}",
                "simulate",
                lambda pre: ["--model", model_file, "--matrix", matrix,
                             "--seed", str(int(rng.integers(0, 2**31))), "--out", pre, "--quiet"],
                {"matrix": matrix, "p": p},
            )
            if family in ("gaussian", "bounded_iid", "lb_ball"):
                if family == "gaussian":
                    h_file = f"h_{n}x{p}.json"
                    files[h_file] = _json(_measure(facts["h"]))
                    hi, tol = _grid_hi(float(facts["h"][-1]), rho, rng), KS_TOEPLITZ
                elif matrix == "covariance":
                    h_file = f"h_bounded_{n}x{p}.json"
                    files[h_file] = _json(_measure([facts["variance"]]))
                    hi, tol = _grid_hi(facts["variance"], rho, rng), KS_NULL
                else:
                    h_file, hi, tol = "h_null.json", _grid_hi(1.0, rho, rng), KS_NULL
                    files[h_file] = _json(_measure([1.0]))
                law = null_law if h_file == "h_null.json" else None
                if law is None:
                    law = add(
                        f"solve-mp/{tag}",
                        "solve-mp",
                        lambda pre: ["--h-file", h_file, "--rho", repr(rho), "--grid", _grid(hi),
                                     "--out", pre, "--quiet"],
                        {"law": "mp"},
                    )
                    if h_file == "h_null.json":
                        null_law = law
            else:
                if family == "sphere_elliptical":
                    h, nu = _measure([1.0]), facts["nu"]
                    h_max = 1.0
                    nu_max = max(a["value"] for a in nu["atoms"])
                else:
                    h, nu = _measure(facts["h"]), _measure([1.0])
                    h_max, nu_max = float(facts["h"][-1]), 1.0
                params_file = f"params_{family}_{n}x{p}.json"
                files[params_file] = _json({"H": h, "nu": nu, "theta": 1.0, "rho": rho})
                hi = _grid_hi(nu_max**2 * h_max, rho, rng)
                tol = KS_ELLIPTICAL
                law = add(
                    f"solve-elliptical/{tag}",
                    "solve-elliptical",
                    lambda pre: ["--params", params_file, "--grid", _grid(hi), "--out", pre,
                                 "--quiet"],
                    {"law": "elliptical"},
                )
            add(
                f"compare/{tag}",
                "compare",
                lambda pre: ["--eigs", f"{sim}.eigs.csv", "--law", f"{law}.density.csv",
                             "--out", f"{pre}.json", "--quiet"],
                {"ks_max": tol},
            )
    for family, model_file in diagnose_models:
        add(
            f"diagnose/{family}",
            "diagnose",
            lambda pre: ["--model", model_file, "--seed", str(int(rng.integers(0, 2**31))),
                         "--out", f"{pre}.json", "--quiet"],
            {},
        )
    return Pass(ops, files)


def _build_verify(rng: np.random.Generator, pass_index: int) -> Pass:
    ops: list[Op] = []
    add = _adder(ops)
    for suite in VERIFY_SUITES:
        seed = str(int(rng.integers(0, 2**31)))
        add(
            f"verify/{suite}",
            "verify",
            lambda pre: ["--suite", suite, "--seed", seed, "--out", f"{pre}.json", "--quiet"],
            {"suite": suite},
        )
    return Pass(ops, {})


_BUILDERS = {"laws": _build_laws, "simulate": _build_simulate, "verify": _build_verify}


def build(workload: str, seed: int, pass_index: int) -> Pass:
    """Op list and input files of one pass of `workload`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](_rng(workload, seed, pass_index), pass_index)
