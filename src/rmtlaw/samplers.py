"""Seed-deterministic samplers for every data family used in the experiments.

All randomness flows through counter-based Philox streams split from
(seed, replicate, kind, index), so results are reproducible bit-for-bit
under any parallel schedule. A block of rows draws its streams at once:
numpy's SeedSequence hash runs on arrays over the row index to give every
row's Philox key in one pass, and one reused Philox draws each row, so a
row holds the same bytes as rng_stream(seed, replicate, kind, i) gives.
Uniforms are mapped through inverse CDFs (normal via ndtri, gamma
magnitudes via gammaincinv) rather than rejection methods, keeping every
draw a pure function of its stream. Those come from scipy.special, which
the functions that call them import on their first draw: importing this
module, and so rmtlaw and its CLI, loads no scipy module.

The module also owns the one worker pool (parallel_map, sized by
RMT_THREADS). Its only job in the program is the inverse-CDF maps, which
run on it in row blocks; each entry is the same scalar computation
whichever thread runs it, so the bytes do not depend on the thread count.
Monte Carlo replicates run in a plain loop, leaving BLAS both cores.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
import os
import threading
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from ._serialize import load_json
from .linalg import as_corr_matrix, as_sym_matrix, load_matrix_csv, matrix_sqrt_psd, toeplitz_corr
from .measures import DiscreteMeasure, delta, measure_from_json_dict, measure_to_json_dict

__all__ = [
    "PopulationModel",
    "rng_stream",
    "uniform_open",
    "standard_normal",
    "sample_gaussian",
    "sample_sphere",
    "sample_elliptical",
    "sample_gaussian_copula",
    "sample_lb_ball",
    "sample_bounded_iid",
    "sample_covariance_model",
    "sample_model",
    "model_from_json_dict",
    "model_to_json_dict",
    "load_model_json",
]

FAMILIES = ("gaussian", "sphere_elliptical", "gaussian_copula", "lb_ball", "bounded_iid")

# Stream kinds keep row draws and auxiliary draws (mixing scalars) on
# disjoint spawn keys for the same (seed, replicate).
_KIND_ROW = 0
_KIND_MIXING = 1

_T = TypeVar("_T")
_U = TypeVar("_U")


def _thread_count() -> int:
    env = os.environ.get("RMT_THREADS")
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"RMT_THREADS must be an integer >= 1, got {env!r}")
        return count
    return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_workers = 0
# active is set in the pool's own threads, so a map called there runs inline.
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The one worker pool, rebuilt only when the thread count changes.

    A replaced pool is dropped, not shut down, so a map still running on it
    finishes; its threads exit once it is collected.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            _pool = ThreadPoolExecutor(max_workers=workers, initializer=_mark_worker)
            _pool_workers = workers
        return _pool


def parallel_map(fn: Callable[[_T], _U], items: Sequence[_T]) -> list[_U]:
    """Map preserving order, threaded when RMT_THREADS allows.

    Results are independent of the thread count as long as each item's
    result depends on that item alone, as a row block of an elementwise map
    does. Called from a pool worker, it runs inline in that worker: a worker
    waiting on items queued behind itself could wait forever.
    """
    workers = _thread_count()
    if workers <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    return list(_shared_pool(workers).map(fn, items))


def _map_rows(fn: Callable, x: NDArray, out: NDArray) -> NDArray:
    """fn(x, out=out) for an elementwise fn, in one row block per worker.

    Blocks split axis 0 and write straight into their rows of out (which
    may be x itself); parallel_map runs them inline at one thread or inside
    a pool worker. A scalar x gives the scalar fn(x).
    """
    if np.ndim(x) == 0:
        return fn(x)
    blocks = max(1, min(_thread_count(), len(x)))
    bounds = [len(x) * k // blocks for k in range(blocks + 1)]

    def block(k: int) -> None:
        part = slice(bounds[k], bounds[k + 1])
        fn(x[part], out=out[part])

    parallel_map(block, range(blocks))
    return out


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator | _RowStreams, size) -> NDArray[np.float64]:
    """Uniforms strictly inside (0, 1): (k + 1/2)/2^53 over 53-bit integers.

    rng is a Generator, or a _RowStreams block of one stream per row.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (k.astype(np.float64) + 0.5) * 2.0**-53


def standard_normal(rng: np.random.Generator | _RowStreams, size) -> NDArray[np.float64]:
    """Standard normals by inverse CDF of open-interval uniforms."""
    from scipy.special import ndtri  # here, not at import: the law commands never sample

    u = uniform_open(rng, size)
    return _map_rows(ndtri, u, out=u)


# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant.

    value is a Python int below 2**32 or a uint32 array; both wrap modulo
    2**32 (an array's uint32 product wraps without a warning).
    """
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x: int, y):
    """SeedSequence's mix of a pool word x (an int) with y (an int or a uint32 array)."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _stream_keys(seed: int, path: tuple[int, ...], n: int) -> NDArray[np.uint64]:
    """Philox keys of SeedSequence(seed, spawn_key=(*path, i)) for i < n, shape (n, 2).

    numpy's mix_entropy and generate_state(2, uint64). Every word but the
    last, the row index i, is the same for every row, so their part of the
    hash runs once on Python ints; the rest runs on arrays over i.
    """
    run = _uint32_words(seed)
    # With a spawn key present, SeedSequence zero-pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + [word for key in path for word in _uint32_words(key)]

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    rows = np.arange(n, dtype=np.uint32)
    pool = [_mix(word, hashmix(rows)) for word in pool]

    generate = _hasher(_INIT_B, _MULT_B)
    state = [generate(word).astype(np.uint64) for word in pool]
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


class _RowStreams:
    """The streams rng_stream(seed, replicate, kind, i), one per row i.

    integers(0, 2**53, (n, cols), uint64) fills row i with the first cols
    draws of stream i, byte for byte: the keys come from _stream_keys and
    one Philox, reset to counter 0 for each row, draws them. Lemire's map
    with a power-of-two range never rejects and reduces to a shift, so
    random_raw(cols) >> 11 is what Generator.integers returns. uniform_open
    and standard_normal then map the whole block in one call.
    """

    def __init__(self, seed: int, replicate: int, kind: int = _KIND_ROW) -> None:
        self.seed = seed
        self.path = (int(replicate), int(kind))

    def integers(self, low, high, size, dtype) -> NDArray[np.uint64]:
        if (low, high, dtype) != (0, 1 << 53, np.uint64):
            raise ValueError("row streams draw only 53-bit integers")
        n, cols = size
        keys = _stream_keys(self.seed, self.path, n)
        philox = np.random.Philox(0)
        state = philox.state
        bits = np.empty((n, cols), dtype=np.uint64)
        for i in range(n):
            state["state"]["key"] = keys[i]
            philox.state = state
            bits[i] = philox.random_raw(cols)
        bits >>= np.uint64(11)
        return bits


def _row_normals(seed: int, replicate: int, n: int, p: int) -> NDArray[np.float64]:
    """n x p standard normals, one independent stream per row."""
    return standard_normal(_RowStreams(seed, replicate), (n, p))


def _row_uniforms(seed: int, replicate: int, n: int, cols: int) -> NDArray[np.float64]:
    return uniform_open(_RowStreams(seed, replicate), (n, cols))


@dataclass(frozen=True)
class PopulationModel:
    """Specification of a sampling family.

    shape is the family's matrix parameter: Sigma for gaussian, Gamma (d x p)
    for sphere_elliptical, correlation R for gaussian_copula; unused for
    lb_ball / bounded_iid. mixing is the atomic law of the elliptical scaling
    scalars; mixing_schedule=True replaces i.i.d. draws with the
    deterministic quantile schedule at probabilities (i - 1/2)/n.
    """

    family: str
    n: int
    p: int
    d: Optional[int] = None
    shape: Optional[NDArray[np.float64]] = None
    mixing: Optional[DiscreteMeasure] = None
    b_exponent: Optional[float] = None
    bound: Optional[float] = None
    location: float | NDArray[np.float64] = 0.0
    mixing_schedule: bool = False
    entry_family: str = "gaussian"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1 or self.p < 1:
            raise ValueError("dimensions n and p must be positive")
        if self.entry_family not in ("gaussian", "bounded"):
            raise ValueError("entry_family must be 'gaussian' or 'bounded'")
        if self.family == "gaussian":
            if self.shape is None:
                object.__setattr__(self, "shape", np.eye(self.p))
            shape = as_sym_matrix(self.shape, "Sigma")
            if shape.shape[0] != self.p:
                raise ValueError(f"Sigma must be {self.p}x{self.p}")
            object.__setattr__(self, "shape", shape)
        elif self.family == "sphere_elliptical":
            d = self.d if self.d is not None else self.p
            object.__setattr__(self, "d", int(d))
            if self.shape is None:
                if d != self.p:
                    raise ValueError("Gamma is required when d != p")
                object.__setattr__(self, "shape", np.eye(self.p))
            gamma = np.asarray(self.shape, dtype=np.float64)
            if gamma.shape != (self.d, self.p):
                raise ValueError(f"Gamma must be {self.d}x{self.p}, got {gamma.shape}")
            if not np.all(np.isfinite(gamma)):
                raise ValueError("Gamma must be finite")
            object.__setattr__(self, "shape", gamma)
            if self.mixing is None:
                object.__setattr__(self, "mixing", delta(1.0))
        elif self.family == "gaussian_copula":
            if self.shape is None:
                object.__setattr__(self, "shape", np.eye(self.p))
            R = as_corr_matrix(self.shape)
            if R.shape[0] != self.p:
                raise ValueError(f"R must be {self.p}x{self.p}")
            object.__setattr__(self, "shape", R)
        elif self.family == "lb_ball":
            if self.b_exponent is None or not (1.0 <= float(self.b_exponent) <= 2.0):
                raise ValueError("b_exponent must be in [1, 2]")
        elif self.family == "bounded_iid":
            if self.bound is None or float(self.bound) < 0:
                raise ValueError("bound must be >= 0")
        if self.d is None:
            object.__setattr__(self, "d", self.p)
        mu = np.asarray(self.location, dtype=np.float64)
        if mu.ndim not in (0, 1):
            raise ValueError("location must be a scalar or a vector")
        row_dim = self.d if self.family == "sphere_elliptical" else self.p
        if mu.ndim == 1 and mu.size != row_dim:
            raise ValueError(f"location vector must have length {row_dim}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("location must be finite")
        object.__setattr__(self, "location", mu if mu.ndim else float(mu))


def _sigma_root(sigma) -> tuple[int, Optional[NDArray[np.float64]]]:
    """(p, sqrt(Sigma)); the root is None when Sigma is exactly the identity.

    X @ I equals X exactly, so identity models skip the p x p eigh and GEMM.
    """
    A = as_sym_matrix(sigma)
    p = A.shape[0]
    return p, None if np.array_equal(A, np.eye(p)) else matrix_sqrt_psd(A)


def sample_gaussian(n: int, sigma, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Rows i.i.d. N(0, Sigma): row = g @ sqrt(Sigma), g standard normal."""
    return sample_covariance_model(n, sigma, seed, replicate)


def _sphere_rows(seed: int, replicate: int, n: int, p: int) -> NDArray[np.float64]:
    G = _row_normals(seed, replicate, n, p)
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    return np.sqrt(p) * (G / norms)


def sample_sphere(p: int, seed: int, replicate: int = 0, row: int = 0) -> NDArray[np.float64]:
    """One uniform direction on the sphere of radius sqrt(p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = standard_normal(rng_stream(seed, replicate, _KIND_ROW, row), p)
    return np.sqrt(p) * (g / np.linalg.norm(g))


def _mixing_values(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    nu = model.mixing
    assert nu is not None
    if model.mixing_schedule:
        probs = (np.arange(model.n) + 0.5) / model.n
    else:
        rng = rng_stream(seed, replicate, _KIND_MIXING, 0)
        probs = uniform_open(rng, model.n)
    cum = np.cumsum(nu.weights)
    idx = np.searchsorted(cum, probs, side="left")
    return nu.values[np.minimum(idx, nu.n_atoms - 1)]


def sample_elliptical(model: PopulationModel, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Rows mu + lambda_i * Gamma (sqrt(p) r_i), r_i uniform directions.

    The mixing scalars come from a stream independent of every row stream.
    """
    if model.family != "sphere_elliptical":
        raise ValueError("sample_elliptical requires family 'sphere_elliptical'")
    lam = _mixing_values(model, seed, replicate)
    R = _sphere_rows(seed, replicate, model.n, model.p)
    Y = (lam[:, None] * R) @ np.asarray(model.shape).T
    return Y + model.location


def sample_gaussian_copula(n: int, R, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Rows Phi(v) - 1/2 with v ~ N(0, R); entries strictly inside (-1/2, 1/2)."""
    R = as_corr_matrix(R)
    V = sample_gaussian(n, R, seed, replicate)
    from scipy.special import ndtr  # here, not at import: the law commands never sample

    # ndtr saturates to exactly 0/1 around |v| ~ 9; clamp to keep the
    # strict-openness contract. V is a fresh draw, so every step runs in place.
    _map_rows(ndtr, V, out=V)
    np.clip(V, 2.0**-55, 1.0 - 2.0**-53, out=V)
    V -= 0.5
    return V


def sample_lb_ball(n: int, p: int, b: float, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Rows uniform in the l_b ball of radius p^(1/b).

    Construction: entries g_i with density ~ exp(-|t|^b) (magnitudes are
    Gamma(1/b)^(1/b) by inverse CDF), an independent Exp(1) variable W, and
    row = g / (sum |g_i|^b + W)^(1/b), which is uniform in the unit ball;
    the row is then scaled by p^(1/b).
    """
    b = float(b)
    if not (1.0 <= b <= 2.0):
        raise ValueError("b must be in [1, 2]")
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    from scipy.special import gammaincinv  # here, not at import: the law commands never sample

    U = _row_uniforms(seed, replicate, n, 2 * p + 1)
    gamma_draws = _map_rows(partial(gammaincinv, 1.0 / b), U[:, :p], out=np.empty((n, p)))
    magnitudes = gamma_draws ** (1.0 / b)
    signs = np.where(U[:, p : 2 * p] < 0.5, -1.0, 1.0)
    w_exp = -np.log1p(-U[:, 2 * p])
    # A scalar pow per row, as each row stream once computed it: numpy's
    # vectorized pow can differ from libm's in the last bit.
    radii = (np.sum(gamma_draws, axis=1) + w_exp).tolist()
    denom = np.array([r ** (1.0 / b) for r in radii])
    out = signs * magnitudes / denom[:, None]
    return p ** (1.0 / b) * out


def sample_bounded_iid(n: int, p: int, bound: float, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """i.i.d. entries uniform on [-bound, bound]."""
    bound = float(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    U = _row_uniforms(seed, replicate, n, p)
    return bound * (2.0 * U - 1.0)


def sample_covariance_model(
    n: int, sigma, seed: int, replicate: int = 0, entry_family: str = "gaussian"
) -> NDArray[np.float64]:
    """Y = X @ sqrt(Sigma) with i.i.d. unit-variance entries in X."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, root = _sigma_root(sigma)
    if entry_family == "gaussian":
        X = _row_normals(seed, replicate, n, p)
    elif entry_family == "bounded":
        # uniform on [-sqrt(3), sqrt(3)] has variance 1
        X = np.sqrt(3.0) * (2.0 * _row_uniforms(seed, replicate, n, p) - 1.0)
    else:
        raise ValueError("entry_family must be 'gaussian' or 'bounded'")
    return X if root is None else X @ root


def sample_model(model: PopulationModel, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Draw the model's n x (p or d) data matrix."""
    if model.family == "gaussian":
        return sample_covariance_model(
            model.n, model.shape, seed, replicate, model.entry_family
        ) + model.location
    if model.family == "sphere_elliptical":
        return sample_elliptical(model, seed, replicate)
    if model.family == "gaussian_copula":
        return sample_gaussian_copula(model.n, model.shape, seed, replicate) + model.location
    if model.family == "lb_ball":
        return sample_lb_ball(model.n, model.p, model.b_exponent, seed, replicate) + model.location
    if model.family == "bounded_iid":
        return sample_bounded_iid(model.n, model.p, model.bound, seed, replicate) + model.location
    raise ValueError(f"unknown family {model.family!r}")


def _shape_from_json(spec, p: int, rows: int | None = None):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError('shape spec must be an object with a "kind"')
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(p if rows is None else rows)
    if kind == "dense":
        if "entries" not in spec:
            raise ValueError('dense shape needs "entries"')
        return np.asarray(spec["entries"], dtype=np.float64)
    if kind == "toeplitz":
        if "r" not in spec:
            raise ValueError('toeplitz shape needs "r"')
        return toeplitz_corr(p, float(spec["r"]))
    if kind == "file":
        if "path" not in spec:
            raise ValueError('file shape needs "path"')
        return load_matrix_csv(spec["path"])
    raise ValueError(f"unknown shape kind {kind!r}")


def model_from_json_dict(obj) -> PopulationModel:
    """Parse a model JSON object into a PopulationModel."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    for key in ("family", "n", "p"):
        if key not in obj:
            raise ValueError(f'model JSON needs "{key}"')
    family = obj["family"]
    n = int(obj["n"])
    p = int(obj["p"])
    d = int(obj["d"]) if "d" in obj and obj["d"] is not None else None
    rows = d if family == "sphere_elliptical" else None
    shape = _shape_from_json(obj.get("shape"), p, rows)
    mixing = measure_from_json_dict(obj["mixing"]) if obj.get("mixing") else None
    mu = obj.get("mu", 0.0)
    mu = np.asarray(mu, dtype=np.float64) if isinstance(mu, (list, np.ndarray)) else float(mu)
    return PopulationModel(
        family=family,
        n=n,
        p=p,
        d=d,
        shape=shape,
        mixing=mixing,
        b_exponent=float(obj["b"]) if obj.get("b") is not None else None,
        bound=float(obj["bound"]) if obj.get("bound") is not None else None,
        location=mu,
        mixing_schedule=bool(obj.get("mixing_schedule", False)),
        entry_family=obj.get("entry_family", "gaussian"),
    )


def model_to_json_dict(model: PopulationModel) -> dict:
    out: dict = {"family": model.family, "n": model.n, "p": model.p, "d": model.d}
    if model.shape is not None:
        out["shape"] = {"kind": "dense", "entries": model.shape}
    if model.mixing is not None:
        out["mixing"] = measure_to_json_dict(model.mixing)
    if model.b_exponent is not None:
        out["b"] = model.b_exponent
    if model.bound is not None:
        out["bound"] = model.bound
    out["mu"] = model.location
    out["mixing_schedule"] = model.mixing_schedule
    out["entry_family"] = model.entry_family
    return out


def load_model_json(path) -> PopulationModel:
    return model_from_json_dict(load_json(path, "model"))
