"""Tests of the benchmark itself: seeding, tracing and a tiny smoke run.

Run from the repository root with `python3 -m pytest -q bench`.
"""

from __future__ import annotations

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

@pytest.fixture(scope="module")
def cli():
    return run._import_program()


@pytest.fixture
def tiny(monkeypatch):
    """Shrink sizes and op counts; keep every command and matrix kind.

    The simulation sizes stay large enough for the acceptance KS tolerances.
    """
    monkeypatch.setattr(workloads, "MP_VARIANTS", 1)
    monkeypatch.setattr(workloads, "TOEPLITZ_SIZES", {"toeplitz200": 20, "toeplitz1000": 40})
    monkeypatch.setattr(workloads, "NU_ATOM_COUNTS", (2,))
    monkeypatch.setattr(workloads, "THETAS", (1.0,))
    monkeypatch.setattr(workloads, "SIM_SIZES", ((400, 200), (600, 300)))
    monkeypatch.setattr(workloads, "VERIFY_SUITES", ("lemma6", "quadform", "tightness"))
    build = workloads.build

    def tiny_build(workload, seed, pass_index):
        spec = build(workload, seed, pass_index)
        for op in spec.ops:
            if "lemma6" in op.argv:
                op.argv += ["--reps", "50"]
            elif "quadform" in op.argv:
                op.argv += ["--reps", "1"]
        return spec

    monkeypatch.setattr(workloads, "build", tiny_build)


def _shape(spec: workloads.Pass) -> tuple:
    """Op list and sizes with every value masked out."""
    return [(op.name, op.command, len(op.argv)) for op in spec.ops], sorted(
        (name, _sizes(text)) for name, text in spec.files.items()
    )


def _sizes(text: str):
    obj = json.loads(text)
    if "atoms" in obj:
        return len(obj["atoms"])
    if "family" in obj:
        return obj["family"], obj["n"], obj["p"]
    return len(obj["H"]["atoms"]), len(obj["nu"]["atoms"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for index in (0, 1):
        a = workloads.build(workload, 7, index)
        b = workloads.build(workload, 7, index)
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert a.files == b.files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_values_not_ops(workload):
    a = workloads.build(workload, 7, 0)
    b = workloads.build(workload, 8, 0)
    assert _shape(a) == _shape(b)
    assert [op.argv for op in a.ops] != [op.argv for op in b.ops] or a.files != b.files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_ops_share_inputs(workload):
    """Within a run (several passes) every op sees inputs of its own."""
    seen = set()
    for index in range(3):
        spec = workloads.build(workload, 3, index)
        produced = {}  # op prefix -> the inputs of the op that wrote those files
        for op in spec.ops:
            inputs = []
            for arg in op.argv:
                stem = arg.split(".")[0]
                if stem == op.prefix:
                    continue
                inputs.append(produced.get(stem) or spec.files.get(arg, arg))
            key = tuple(inputs)
            assert key not in seen, op.name
            seen.add(key)
            produced[op.prefix] = key


def test_op_counts_and_matrix_kinds():
    laws = workloads.build("laws", 0, 0)
    assert len(laws.ops) == 100
    assert sum(op.command == "solve-mp" for op in laws.ops) == 64
    sim = workloads.build("simulate", 0, 0)
    matrices = {(op.argv[op.argv.index("--model") + 1].split("_")[-1], op.expect["matrix"])
                for op in sim.ops if op.command == "simulate"}
    assert matrices == {(f"{n}x{p}.json", m) for n, p in workloads.SIM_SIZES
                        for m in ("correlation", "covariance", "gram")}


EXPECTED_KEYS = {
    "laws": {"cli.main", "measures.integrate", "mp_solver.grid", "mp_solver.solve",
             "mp_solver.edge", "elliptical_solver.grid", "elliptical_solver.solve",
             "serialize.json", "serialize.csv"},
    "simulate": {"samplers.sample", "samplers.stream", "samplers.normal", "linalg.eig",
                 "linalg.sqrt", "linalg.build", "concentration.diagnostic", "experiments.ks"},
    "verify": {"concentration.parallel_map", "concentration.quadform",
               "concentration.verify", "samplers.stream", "linalg.eig"},
}
EXPECTED_COUNTERS = {
    "laws": {"mp_solver.points", "mp_solver.evals", "elliptical_solver.points",
             "elliptical_solver.evals", "serialize.bytes_written"},
    "simulate": {"samplers.rows", "serialize.bytes_written"},
    "verify": {"concentration.items", "samplers.rows"},
}


def test_every_wrapper_fires_and_none_stays_installed(cli, tiny, tmp_path):
    assert spans.installed_wrappers() == []
    fired = set()
    for workload in workloads.WORKLOADS:
        tracer = spans.Tracer()
        run.traced_pass(cli, workload, 0, 0, tmp_path, tracer)
        assert spans.installed_wrappers() == []
        called = {key for key, count in tracer.calls.items() if count > 0}
        assert EXPECTED_KEYS[workload] <= called, workload
        counted = {key for key, value in tracer.counters.items() if value > 0}
        assert EXPECTED_COUNTERS[workload] <= counted, workload
        fired |= called
    assert fired == {key for _, _, key, _ in spans.TARGETS}


def test_install_covers_every_binding(cli):
    import rmtlaw.mp_solver

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.installed_wrappers()
        assert "rmtlaw.cli.density_grid_detailed" in wrapped
        assert "rmtlaw.mp_solver.density_grid_detailed" in wrapped
        assert "rmtlaw.measures.DiscreteMeasure.integrate" in wrapped
        assert cli.density_grid_detailed is rmtlaw.mp_solver.density_grid_detailed
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []


def test_untraced_pass_installs_nothing(cli, tiny, tmp_path):
    run.run_pass(cli, "verify", 0, 0, tmp_path)
    assert spans.installed_wrappers() == []


def test_tiny_smoke_run_passes_every_check(cli, tiny, tmp_path):
    for workload in workloads.WORKLOADS:
        record = run.run_pass(cli, workload, 0, 0, tmp_path)
        failing = [(op["name"], op["message"]) for op in record["ops"] if not op["ok"]]
        assert failing == [], workload


def _law(tmp_path: Path, cdf_end: float) -> workloads.Op:
    op = workloads.Op("solve-mp/x", "solve-mp", [], "o000", {"law": "mp"})
    (tmp_path / "o000.summary.json").write_text("{}")
    (tmp_path / "o000.density.csv").write_text(f"x,density,cdf\n0,0.5,0\n1,0.5,{cdf_end!r}\n")
    return op


def test_checks_reject_bad_outputs(tmp_path):
    op = _law(tmp_path, 1.0 + 1.5 * checks.MASS_ATOL)
    ok, message, _ = checks.check(op, 0, tmp_path)
    assert not ok and "CDF outside" in message
    op = _law(tmp_path, 1.0)
    assert checks.check(op, 0, tmp_path)[0] is True
    assert checks.check(op, 3, tmp_path)[0] is False
    (tmp_path / "o000.density.csv").write_text("x,density,cdf\n0,0.5,0.2\n1,0.5,0.1\n")
    assert checks.check(op, 0, tmp_path)[0] is False


def test_cdf_overshoot_within_mass_tolerance_is_reported(tmp_path):
    op = _law(tmp_path, 1.005)
    ok, _, extras = checks.check(op, 0, tmp_path)
    assert ok
    assert extras["cdf_max"] == 1.005
    assert extras["mass_defect"] == pytest.approx(0.005)


def test_exits_nonzero_without_program(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    root = Path(run.__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_spans_lose_no_update_under_threads():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x, lambda t, a, k, r: t.add("items", 1))
    outer = tracer.wrap("outer", lambda x: inner(x), None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(outer, range(4000), timeout=60)) == list(range(4000))
    finally:
        sys.setswitchinterval(interval)
    assert tracer.calls["outer"] == tracer.calls["inner"] == 4000
    assert tracer.counters["items"] == 4000
    assert tracer.self_time["outer"] <= tracer.time["outer"]
