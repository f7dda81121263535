"""Per-layer tracing of rmtlaw from outside the program.

`Tracer.install()` wraps the public functions of each `rmtlaw` module at
every module binding a caller looks the name up through (for example both
`rmtlaw.cli.density_grid_detailed` and `rmtlaw.mp_solver.density_grid_detailed`),
plus the `DiscreteMeasure.integrate` method; `uninstall()` puts every
original back. The program itself carries no tracing.

A span is one call of a wrapped function. Spans nest per thread, so they
are safe under `parallel_map` worker threads; shared totals are updated
under a lock. Per key the tracer keeps the call count, the time of
outermost spans (a key nested inside itself is not counted twice), the
self time (duration minus direct child spans on the same thread) and
counters filled by per-key hooks. Spans are aggregated as they close
rather than stored: a `laws` pass opens over half a million of them.
Times are busy times, so under threads a layer can exceed wall time.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Optional

# Attribute that marks a function object as a tracer wrapper.
WRAPPER_MARK = "_rmtlaw_bench_span"


def _grid_hook(tracer: "Tracer", prefix: str, result) -> None:
    xs, stats = result[0], result[3]
    tracer.add(f"{prefix}.points", len(xs))
    if "max_consistency_residual" in stats:
        tracer.maximum(f"{prefix}.consistency_residual_max", stats["max_consistency_residual"])


def _evals_hook(prefix: str):
    return lambda tracer, args, kwargs, result: tracer.add(f"{prefix}.evals", result.iterations)


def _rows_hook(tracer, args, kwargs, result) -> None:
    tracer.add("samplers.rows", result.shape[0])


def _items_hook(tracer, args, kwargs, result) -> None:
    tracer.add("concentration.items", len(result))


def _json_bytes_hook(tracer, args, kwargs, result) -> None:
    tracer.add("serialize.bytes_written", len(result.encode("utf-8")) + 1)


def _csv_bytes_hook(tracer, args, kwargs, result) -> None:
    tracer.add("serialize.bytes_written", os.path.getsize(args[0]))


# (module, attribute, span key, hook). A hook runs after an outermost span
# of its key returns, with (tracer, args, kwargs, result).
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("rmtlaw.cli", "main", "cli.main", None),
    ("rmtlaw.measures", "DiscreteMeasure.integrate", "measures.integrate", None),
    ("rmtlaw.mp_solver", "density_grid_detailed", "mp_solver.grid",
     lambda t, a, k, r: _grid_hook(t, "mp_solver", r)),
    ("rmtlaw.mp_solver", "mp_companion_solve", "mp_solver.solve", _evals_hook("mp_solver")),
    ("rmtlaw.mp_solver", "solve_edge", "mp_solver.edge", None),
    ("rmtlaw.elliptical_solver", "elliptical_density_grid_detailed", "elliptical_solver.grid",
     lambda t, a, k, r: _grid_hook(t, "elliptical_solver", r)),
    ("rmtlaw.elliptical_solver", "elliptical_solve", "elliptical_solver.solve",
     _evals_hook("elliptical_solver")),
    ("rmtlaw.elliptical_solver", "scaled_gram", "linalg.build", None),
    ("rmtlaw.samplers", "sample_model", "samplers.sample", _rows_hook),
    ("rmtlaw.samplers", "sample_gaussian_copula", "samplers.sample", _rows_hook),
    ("rmtlaw.samplers", "rng_stream", "samplers.stream", None),
    ("rmtlaw.samplers", "standard_normal", "samplers.normal", None),
    ("rmtlaw.linalg", "sym_eigenvalues", "linalg.eig", None),
    ("rmtlaw.linalg", "matrix_sqrt_psd", "linalg.sqrt", None),
    ("rmtlaw.linalg", "sample_covariance", "linalg.build", None),
    ("rmtlaw.linalg", "sample_correlation", "linalg.build", None),
    ("rmtlaw.concentration", "parallel_map", "concentration.parallel_map", _items_hook),
    ("rmtlaw.concentration", "quadratic_form_deviation", "concentration.quadform", None),
    ("rmtlaw.concentration", "norm_diagnostic", "concentration.diagnostic", None),
    ("rmtlaw.concentration", "angle_diagnostic", "concentration.diagnostic", None),
    ("rmtlaw.concentration", "verify_lemma6", "concentration.verify", None),
    ("rmtlaw.concentration", "verify_quadform", "concentration.verify", None),
    ("rmtlaw.concentration", "verify_copula", "concentration.verify", None),
    ("rmtlaw.concentration", "verify_tightness", "concentration.verify", None),
    ("rmtlaw.experiments", "ks_distance", "experiments.ks", None),
    ("rmtlaw._serialize", "json_dumps", "serialize.json", _json_bytes_hook),
    ("rmtlaw._serialize", "write_density_csv", "serialize.csv", _csv_bytes_hook),
    ("rmtlaw._serialize", "write_spectrum_csv", "serialize.csv", _csv_bytes_hook),
    ("rmtlaw._serialize", "write_matrix_csv", "serialize.csv", _csv_bytes_hook),
)


def _program_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rmtlaw" or name.startswith("rmtlaw."))]


def installed_wrappers() -> list[str]:
    """Names of every rmtlaw binding that currently holds a tracer wrapper."""
    found = []
    for module in _program_modules():
        for name, value in vars(module).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


class Tracer:
    """Span aggregation over wrapped rmtlaw functions."""

    def __init__(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.time: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(entry[0] != key for entry in stack)
            entry = [key, 0.0]
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.calls[key] += 1
                    tracer.self_time[key] += duration - entry[1]
                    if outermost:
                        tracer.time[key] += duration
            if hook is not None and outermost:
                hook(tracer, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every rmtlaw binding that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for module_name, attr, key, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(key, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(key, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
