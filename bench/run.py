"""rmtlaw benchmark: seeded CLI workloads, end-to-end timings, traced layers.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Every op is driven in-process through `rmtlaw.cli.main(argv)`, the code
path of the `rmtlaw` command, inside a scratch directory under
`.bench_work/`. The run repeats passes of the workload's op list (each
pass with fresh seeded values) while another pass fits in `--seconds`,
checks every op's output, and prints two lines: a JSON report (metrics
with units, per-command medians, failing ops, output sha256, environment)
and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`. Every time is divided by
the host's slowdown measured alongside it (see calibrate.py); the raw
seconds are in the report.

With `--trace 0` the metrics are the end-to-end ones, measured with no
wrapper installed. With `--trace 1` the run makes one untraced pass, one
traced pass (and, on `verify`, one traced pass at RMT_THREADS=1) and the
metrics are the per-layer ones from the traced pass; see bench/README.md.
"""

from __future__ import annotations

import argparse
from collections import defaultdict
import contextlib
import gc
import hashlib
import io
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
import traceback

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 9

# One extra calibration sample after an op for every this many seconds it
# ran, taken in the benchmark process (see calibrate.py).
CALIBRATION_PERIOD_S = 0.5

COMMAND_METRICS = {
    "solve-mp": "solve_mp_s",
    "solve-elliptical": "solve_elliptical_s",
    "edge": "edge_s",
    "simulate": "simulate_s",
    "diagnose": "diagnose_s",
    "compare": "compare_s",
}
# One time per verify suite; tightness (about 20 ms) counts only in wall_s.
SUITE_METRICS = {"lemma6": "verify_lemma6_s", "quadform": "verify_quadform_s",
                 "copula": "verify_copula_s"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# The tail percentile is reported only with at least ten ops beyond it.
P90_MIN_OPS = 100

PER_LAYER_UNITS = {
    "import.cli_s": "s",
    "import.samplers_s": "s",
    "cli.self_s": "s",
    "measures.integrate_calls": "count",
    "measures.integrate_s": "s",
    "mp_solver.grid_calls": "count",
    "mp_solver.points": "count",
    "mp_solver.evals": "count",
    "mp_solver.evals_per_point": "evals/point",
    "mp_solver.grid_s": "s",
    "mp_solver.edge_s": "s",
    "mp_solver.mass_defect_max": "mass",
    "elliptical_solver.points": "count",
    "elliptical_solver.evals": "count",
    "elliptical_solver.evals_per_point": "evals/point",
    "elliptical_solver.grid_s": "s",
    "elliptical_solver.consistency_residual_max": "abs",
    "elliptical_solver.mass_defect_max": "mass",
    "samplers.sample_s": "s",
    "samplers.rows": "count",
    "samplers.streams": "count",
    "samplers.stream_s": "s",
    "samplers.normal_s": "s",
    "samplers.self_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.sqrt_calls": "count",
    "linalg.sqrt_s": "s",
    "linalg.build_s": "s",
    "concentration.items": "count",
    "concentration.parallel_map_s": "s",
    "concentration.quadform_s": "s",
    "concentration.diagnostic_s": "s",
    "concentration.verify_s": "s",
    "concentration.parallel_speedup": "x",
    "experiments.ks_s": "s",
    "serialize.json_s": "s",
    "serialize.csv_s": "s",
    "serialize.bytes_written": "B",
    "trace.overhead_ratio": "x",
}


class SetupError(Exception):
    pass


def _import_program():
    """Import rmtlaw from this checkout's src/, never from site-packages."""
    if not (SRC / "rmtlaw" / "cli.py").is_file():
        raise SetupError(f"no rmtlaw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rmtlaw.cli

    origin = Path(rmtlaw.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"rmtlaw imported from {origin}, not from {SRC}")
    return rmtlaw.cli


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def slowdown(samples: list[float]) -> float:
    """Host slowdown relative to the reference host, from kernel samples."""
    return statistics.median(samples) / calibrate.REFERENCE_S


@contextlib.contextmanager
def host_samples():
    """Collect calibration samples: the caller appends its own, and a monitor
    process adds one every calibrate.PERIOD_S until the block ends."""
    samples: list[float] = []
    monitor = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        yield samples
    finally:
        try:
            samples += json.loads(monitor.communicate("stop\n", timeout=60)[0])
        finally:
            monitor.kill()
            monitor.wait()


def _run_imports(*flags: str) -> tuple[list[float], list[str], float]:
    """Run fresh interpreters that `import rmtlaw.cli`; return their wall
    times, their stderr and the host slowdown measured around them."""
    times, stderr = [], []
    with host_samples() as kernel:
        for _ in range(IMPORT_REPEATS):
            kernel.append(calibrate.kernel_seconds())
            start = perf_counter()
            proc = subprocess.run([sys.executable, *flags, "-c", "import rmtlaw.cli"],
                                  cwd=ROOT, env=_child_env(), check=True,
                                  capture_output=True, text=True)
            times.append(perf_counter() - start)
            stderr.append(proc.stderr)
    return times, stderr, slowdown(kernel)


def cold_import() -> tuple[float, float]:
    """Normalized median wall time of a fresh interpreter's `import rmtlaw.cli`,
    and the host slowdown."""
    times, _, factor = _run_imports()
    return statistics.median(times) / factor, factor


def import_profile() -> dict[str, float]:
    """Normalized median cumulative -X importtime seconds of rmtlaw.cli and rmtlaw.samplers."""
    _, stderr, factor = _run_imports("-X", "importtime")
    samples: dict[str, list[float]] = {"rmtlaw.cli": [], "rmtlaw.samplers": []}
    for text in stderr:
        for line in text.splitlines():
            parts = [part.strip() for part in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(values) / factor if values else 0.0
            for name, values in samples.items()}


def _invoke(cli, argv: list[str]) -> tuple[object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception fails the op, not the run
            code = "exception"
            err.write(traceback.format_exc())
    return code, err.getvalue()


def run_pass(cli, workload: str, seed: int, index: int, base: Path) -> dict:
    """Build, run and check one pass; return its op records and output digest."""
    build_start = perf_counter()
    spec = workloads.build(workload, seed, index)
    directory = base / f"pass{index}"
    directory.mkdir()
    for name, text in spec.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with host_samples() as kernel:
            for op in spec.ops:
                gc.collect()
                kernel.append(calibrate.kernel_seconds())
                start = perf_counter()
                code, stderr = _invoke(cli, op.argv)
                seconds = perf_counter() - start
                kernel.extend(calibrate.kernel_seconds()
                              for _ in range(int(seconds / CALIBRATION_PERIOD_S)))
                ok, message, extras = checks.check(op, code, directory)
                if not ok and stderr.strip():
                    message = f"{message}; stderr: {stderr.strip()[-300:]}"
                for path in sorted(directory.glob(f"{op.prefix}.*")):
                    digest.update(path.name.encode())
                    digest.update(path.read_bytes())
                records.append({"name": op.name, "command": op.command, "argv": op.argv,
                                "seconds": seconds, "ok": ok, "message": message,
                                "extras": extras})
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory)
    factor = slowdown(kernel)
    for record in records:
        record["normalized_s"] = record["seconds"] / factor
    return {
        "index": index,
        "ops": records,
        "slowdown": factor,
        "raw_wall_s": sum(r["seconds"] for r in records),
        "wall_s": sum(r["normalized_s"] for r in records),
        "elapsed_s": perf_counter() - build_start,
        "sha256": digest.hexdigest(),
    }


def traced_pass(cli, workload: str, seed: int, index: int, base: Path,
                tracer: spans.Tracer) -> dict:
    tracer.install()
    try:
        return run_pass(cli, workload, seed, index, base)
    finally:
        tracer.uninstall()


def op_timings(passes: list[dict]) -> dict[str, float]:
    """Median time per CLI command and per verify suite, the median op, and
    the 90th-percentile op when there are enough ops."""
    by_metric: dict[str, list[float]] = {}
    for p in passes:
        for r in p["ops"]:
            if r["command"] == "verify":
                metric = SUITE_METRICS.get(r["argv"][r["argv"].index("--suite") + 1])
            else:
                metric = COMMAND_METRICS[r["command"]]
            if metric:
                by_metric.setdefault(metric, []).append(r["normalized_s"])
    timings = {name: statistics.median(v) for name, v in sorted(by_metric.items())}
    op_times = [r["normalized_s"] for p in passes for r in p["ops"]]
    timings["op_median_s"] = statistics.median(op_times)
    if len(op_times) >= P90_MIN_OPS:
        timings["op_p90_s"] = float(np.percentile(op_times, 90))
    return timings


def end_to_end(passes: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: spans.Tracer, traced: dict, untraced: dict,
              serial: dict | None, imports: dict[str, float]) -> dict[str, float]:
    c = tracer.counters
    # Layer times come from the traced pass and are normalized like its wall_s.
    t = {key: value / traced["slowdown"] for key, value in tracer.time.items()}
    s = {key: value / traced["slowdown"] for key, value in tracer.self_time.items()}
    t = defaultdict(float, t)
    s = defaultdict(float, s)
    mp_points = c["mp_solver.points"]
    ell_points = c["elliptical_solver.points"]
    defects = defaultdict(list)
    for r in traced["ops"]:
        if "mass_defect" in r["extras"]:
            defects[r["command"]].append(r["extras"]["mass_defect"])
    metrics = {
        "import.cli_s": imports["rmtlaw.cli"],
        "import.samplers_s": imports["rmtlaw.samplers"],
        "cli.self_s": s["cli.main"],
        "measures.integrate_calls": tracer.calls["measures.integrate"],
        "measures.integrate_s": t["measures.integrate"],
        "mp_solver.grid_calls": tracer.calls["mp_solver.grid"],
        "mp_solver.points": mp_points,
        "mp_solver.evals": c["mp_solver.evals"],
        "mp_solver.evals_per_point": c["mp_solver.evals"] / mp_points if mp_points else 0.0,
        "mp_solver.grid_s": t["mp_solver.grid"],
        "mp_solver.edge_s": t["mp_solver.edge"],
        "mp_solver.mass_defect_max": max(defects["solve-mp"], default=0.0),
        "elliptical_solver.points": ell_points,
        "elliptical_solver.evals": c["elliptical_solver.evals"],
        "elliptical_solver.evals_per_point":
            c["elliptical_solver.evals"] / ell_points if ell_points else 0.0,
        "elliptical_solver.grid_s": t["elliptical_solver.grid"],
        "elliptical_solver.consistency_residual_max":
            tracer.maxima.get("elliptical_solver.consistency_residual_max", 0.0),
        "elliptical_solver.mass_defect_max": max(defects["solve-elliptical"], default=0.0),
        "samplers.sample_s": t["samplers.sample"],
        "samplers.rows": c["samplers.rows"],
        "samplers.streams": tracer.calls["samplers.stream"],
        "samplers.stream_s": t["samplers.stream"],
        "samplers.normal_s": s["samplers.normal"],
        "samplers.self_s": s["samplers.sample"],
        "linalg.eig_calls": tracer.calls["linalg.eig"],
        "linalg.eig_s": t["linalg.eig"],
        "linalg.sqrt_calls": tracer.calls["linalg.sqrt"],
        "linalg.sqrt_s": t["linalg.sqrt"],
        "linalg.build_s": t["linalg.build"],
        "concentration.items": c["concentration.items"],
        "concentration.parallel_map_s": t["concentration.parallel_map"],
        "concentration.quadform_s": t["concentration.quadform"],
        "concentration.diagnostic_s": t["concentration.diagnostic"],
        "concentration.verify_s": t["concentration.verify"],
        "concentration.parallel_speedup": serial["wall_s"] / traced["wall_s"] if serial else 0.0,
        "experiments.ks_s": t["experiments.ks"],
        "serialize.json_s": t["serialize.json"],
        "serialize.csv_s": t["serialize.csv"],
        "serialize.bytes_written": c["serialize.bytes_written"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    return {name: float(value) for name, value in metrics.items()}


def _openblas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rmtlaw").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    config = np.show_config(mode="dicts")
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config.get("Build Dependencies", {}).get("blas", {}).get("version"),
        "openblas_threads": _openblas_threads(),
        "rmt_threads": os.environ.get("RMT_THREADS"),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark and return (report, result)."""
    cli = _import_program()
    # The user default is one worker per core; pin it so an inherited value
    # can neither change the work nor exceed the core count.
    threads = str(os.cpu_count() or 1)
    os.environ["RMT_THREADS"] = threads
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        base = Path(tmp)
        if trace:
            setup_slowdown = None
            imports = import_profile()
            untraced = run_pass(cli, workload, seed, 0, base)
            tracer = spans.Tracer()
            traced = traced_pass(cli, workload, seed, 1, base, tracer)
            serial = None
            if workload == "verify":
                os.environ["RMT_THREADS"] = "1"
                try:
                    serial = traced_pass(cli, workload, seed, 2, base, spans.Tracer())
                finally:
                    os.environ["RMT_THREADS"] = threads
            passes = [untraced, traced] + ([serial] if serial else [])
            metrics = _with_units(per_layer(tracer, traced, untraced, serial, imports),
                                  PER_LAYER_UNITS)
        else:
            setup_s, setup_slowdown = cold_import()
            passes = []
            start = perf_counter()
            while True:
                passes.append(run_pass(cli, workload, seed, len(passes), base))
                typical = statistics.median(p["elapsed_s"] for p in passes)
                if perf_counter() - start + typical > seconds:
                    break
            metrics = _with_units(end_to_end(passes, setup_s), END_TO_END_UNITS)
    ops = [r for p in passes for r in p["ops"]]
    failing = [{"pass": p["index"], "op": r["name"], "message": r["message"]}
               for p in passes for r in p["ops"] if not r["ok"]]
    # Laws whose CDF ends above 1, within the checks' mass tolerance: the
    # trapezoid CDF defect of ROADMAP open item 3, reported but not failed.
    cdf_above_one = [{"pass": p["index"], "op": r["name"], "cdf_max": r["extras"]["cdf_max"]}
                     for p in passes for r in p["ops"] if r["extras"].get("cdf_max", 0.0) > 1.0]
    report = {
        "workload": workload,
        "trace": int(trace),
        "passes": len(passes),
        "ops_per_pass": len(passes[0]["ops"]),
        "ops_timed": len(ops),
        "slowdown": {"setup": setup_slowdown, "passes": [p["slowdown"] for p in passes]},
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "metrics": metrics,
        "timings": {name: {"value": value, "unit": "s"}
                    for name, value in op_timings(passes).items()},
        "op_fail_ratio": len(failing) / len(ops),
        "failing_ops": failing,
        "cdf_above_one": cdf_above_one,
        "output_sha256": passes[0]["sha256"],
        "pass_sha256": [p["sha256"] for p in passes],
        "environment": environment(seed),
    }
    result = {"correct": not failing, "attempted": len(ops), "failed": len(failing),
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in report["failing_ops"]:
        print(f"bench: FAILED pass {failure['pass']} {failure['op']}: {failure['message']}",
              file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
