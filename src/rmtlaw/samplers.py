"""Seed-deterministic samplers for every data family used in the experiments.

All randomness flows through counter-based Philox streams, one per (seed,
replicate, kind) (rng_stream; Salmon, Moraes, Dror & Shaw, SC 2011). Rows
draw from kind 0: in an n x cols block, row i takes the B = ceil(cols/4)
four-word Philox blocks from block i*B on, so the whole block is one
advance and one random_raw call, reshaped to (n, 4B) and cut to cols. A
row is a pure function of (seed, replicate, kind, i, cols): any run of
rows, or one row alone (sample_sphere's row argument), is drawn on its own
from its first row's block, shrinking n keeps a prefix of the rows, and a
row's words change with cols, since cols sets where the row starts. The
elliptical mixing scalars come from kind 1. Each family has one record in
one table: the model-JSON keys it reads, its checks, its draw and its row
scatter, which the row covariance and the limit laws are read from.
sample_model adds the model's location to its family's draw. gaussian and
gaussian_copula rows are X @ L^T, L the Cholesky factor of the shape. For
an AR(1) shape, exactly toeplitz_corr(p, r), that map runs as the AR(1)
recurrence in place over X's columns. Any other shape is factored by
Cholesky, or by the PSD root when it is singular, once, on the first draw.
Uniforms are mapped through inverse CDFs (normal via ndtri, gamma
magnitudes via _gamma_quantile, a quintic Hermite table of log x built from
gammaincinv knots) rather than rejection methods, keeping every draw
a pure function of its stream. Those come from scipy.special, which the
functions that call them import on their first draw: importing this
module, and so rmtlaw and its CLI, loads no scipy module.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from ._serialize import _json_numbers, _json_typed, check_keys, load_json
from .linalg import (
    as_corr_matrix, as_sym_matrix, copula_cov, load_matrix_csv, matrix_sqrt_psd, toeplitz_corr
)
from .measures import DiscreteMeasure, delta, measure_from_json_dict

__all__ = [
    "PopulationModel",
    "rng_stream",
    "uniform_open",
    "standard_normal",
    "sample_sphere",
    "sample_gaussian_copula",
    "sample_model",
    "model_from_json_dict",
    "load_model_json",
]

# Stream kinds keep row draws and auxiliary draws (mixing scalars) on
# disjoint spawn keys for the same (seed, replicate).
_KIND_ROW = 0
_KIND_MIXING = 1

# The range of uniform_open.
_U_MIN = 2.0**-54
_U_MAX = 1.0 - 2.0**-53
# Entries uniform_open converts at once in a block of rows, so that each
# chunk's three passes run while it is in cache.
_UNIFORM_CHUNK = 1 << 16

def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator | _RowStreams, size) -> NDArray[np.float64]:
    """Uniforms strictly inside (0, 1): (k + 1/2)/2^53 over 53-bit integers.

    Above 1/2, k + 1/2 rounds to even, so the values lie on a 2^-52 lattice
    there, and k = 2^53 - 1 would round to 1: the result is clamped at
    1 - 2^-53. The values span [2^-54, 1 - 2^-53]. rng is a Generator, or a
    _RowStreams block of rows. A block of rows is converted in the words' own
    buffer, _UNIFORM_CHUNK entries at a time, so it holds no second copy.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    if np.ndim(k) != 2:
        u = (k.astype(np.float64) + 0.5) * 2.0**-53
        # A scalar u has no buffer.
        return np.minimum(u, _U_MAX, out=u if np.ndim(u) else None)
    u = k.view(np.float64)
    rows = max(1, _UNIFORM_CHUNK // max(1, k.shape[1]))
    for start in range(0, len(k), rows):
        chunk = u[start : start + rows]
        np.add(k[start : start + rows], 0.5, out=chunk)
        chunk *= 2.0**-53
        np.minimum(chunk, _U_MAX, out=chunk)
    return u


def standard_normal(rng: np.random.Generator | _RowStreams, size) -> NDArray[np.float64]:
    """Standard normals by inverse CDF of open-interval uniforms."""
    from scipy.special import ndtri  # here, not at import: the law commands never sample

    u = uniform_open(rng, size)
    return ndtri(u, out=u if np.ndim(u) else None)


class _RowStreams:
    """Rows start, start + 1, ... of the stream rng_stream(seed, replicate, kind).

    integers(0, 2**53, (n, cols), uint64) gives row i the B = ceil(cols/4)
    Philox blocks from block (start + i)·B on: one advance and one random_raw
    of n·4B words, reshaped to (n, 4B) and cut to cols. Lemire's map with a
    power-of-two range never rejects and reduces to a shift, so the raw
    words >> 11 are what Generator.integers returns. uniform_open and
    standard_normal then map the whole block in one call. Each later call
    draws the next rows at the same cols, from where the last one ended.
    """

    def __init__(self, seed: int, replicate: int, kind: int = _KIND_ROW, start: int = 0) -> None:
        self.seed = seed
        self.path = (int(replicate), int(kind))
        self.start = int(start)
        self._philox = None

    def integers(self, low, high, size, dtype) -> NDArray[np.uint64]:
        if (low, high, dtype) != (0, 1 << 53, np.uint64):
            raise ValueError("row streams draw only 53-bit integers")
        n, cols = size
        blocks = -(-cols // 4)
        if self._philox is None:
            self._philox = rng_stream(self.seed, *self.path).bit_generator
            self._philox.advance(self.start * blocks)
        words = self._philox.random_raw(4 * blocks * n).reshape(n, 4 * blocks)
        words >>= np.uint64(11)
        return words[:, :cols]


def _row_normals(seed: int, replicate: int, n: int, p: int, start: int = 0) -> NDArray[np.float64]:
    """Rows start, ..., start + n - 1 of standard normals, p to a row."""
    return standard_normal(_RowStreams(seed, replicate, start=start), (n, p))


def _row_uniforms(seed: int, replicate: int, n: int, cols: int) -> NDArray[np.float64]:
    return uniform_open(_RowStreams(seed, replicate), (n, cols))


def _uniform_entries(seed: int, replicate: int, n: int, p: int, c: float) -> NDArray[np.float64]:
    """Entries uniform on [-c, c]: c * (2u - 1) over row uniforms u, in u's own buffer."""
    U = _row_uniforms(seed, replicate, n, p)
    U *= 2.0
    U -= 1.0
    U *= c
    return U


@dataclass(frozen=True)
class PopulationModel:
    """Specification of a sampling family.

    shape is the family's matrix parameter: Sigma for gaussian, Gamma (d x p)
    for sphere_elliptical, correlation R for gaussian_copula; unused for
    lb_ball / bounded_iid. The three families that use shape keep their own
    read-only copy of it, the identity by default. mixing is the atomic law
    of the elliptical scaling scalars; mixing_schedule=True replaces i.i.d.
    draws with the deterministic quantile schedule at probabilities (i - 1/2)/n.
    A field the family's record does not read must keep its default.
    """

    family: str
    n: int
    p: int
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
        family = _FAMILIES[self.family]
        if self.n < 1 or self.p < 1:
            raise ValueError("dimensions n and p must be positive")
        reads = {"location", *(_FIELD_OF_KEY.get(key, key) for key in family.keys)}
        for f in fields(self):
            if f.default is MISSING or f.name in reads:
                continue
            value = getattr(self, f.name)
            # A None default is left by identity: shape and mixing do not compare with ==.
            if value is not None if f.default is None else value != f.default:
                raise ValueError(f"family {self.family!r} does not read {f.name}")
        if self.shape is None and "shape" in family.keys:
            object.__setattr__(self, "shape", np.eye(self.p))
        for name, value in (family.check(self) or {}).items():
            object.__setattr__(self, name, value)
        mu = np.asarray(self.location, dtype=np.float64)
        if mu.ndim not in (0, 1):
            raise ValueError("location must be a scalar or a vector")
        if mu.ndim == 1 and mu.size != self.d:
            raise ValueError(f"location vector must have length {self.d}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("location must be finite")
        object.__setattr__(self, "location", mu if mu.ndim else float(mu))

    @property
    def d(self) -> int:
        """Row dimension of the data: shape's row count (Gamma is d x p), else p."""
        return self.p if self.shape is None else self.shape.shape[0]

    @cached_property
    def _identity_shape(self) -> bool:
        """shape is exactly the identity, so X @ shape equals X and draws skip the GEMM."""
        return np.array_equal(self.shape, np.eye(self.p))

    @cached_property
    def _ar1_coefficient(self) -> Optional[float]:
        """r when shape is exactly toeplitz_corr(p, r) with 0 < |r| < 1, the
        covariance of a stationary AR(1) process, drawn by the recurrence of
        _times_shape_root; else None. The matrix decides, not the model JSON's
        kind, so a dense copy of a Toeplitz shape draws the same bytes.
        """
        if self.p < 2:
            return None
        r = float(self.shape[0, 1])
        # The first row alone turns away most other shapes without a p x p build.
        if not 0.0 < abs(r) < 1.0 or not np.array_equal(self.shape[0], r ** np.arange(self.p)):
            return None
        return r if np.array_equal(self.shape, toeplitz_corr(self.p, r)) else None

    @cached_property
    def _shape_root(self) -> Optional[NDArray[np.float64]]:
        """R for gaussian and gaussian_copula rows X @ R whose shape is not
        AR(1), taken on the first draw: L^T for shape = L L^T by Cholesky, or
        the PSD root when shape is singular; any R^T R = shape gives the same
        limit law (Silverstein & Bai, J. Multivariate Anal. 54, 1995). None
        for an identity shape. shape is read-only, so R cannot go stale; R is
        read-only too, as every draw shares it.
        """
        if self._identity_shape:
            return None
        try:
            return _read_only(np.linalg.cholesky(self.shape).T)
        except np.linalg.LinAlgError:  # singular or indefinite: clamp or refuse
            return _read_only(matrix_sqrt_psd(self.shape))


def _read_only(a: NDArray[np.float64]) -> NDArray[np.float64]:
    a.setflags(write=False)
    return a


def _gaussian_check(model: PopulationModel) -> dict:
    if model.entry_family not in ("gaussian", "bounded"):
        raise ValueError("entry_family must be 'gaussian' or 'bounded'")
    sigma = as_sym_matrix(model.shape, "Sigma")
    if sigma.shape[0] != model.p:
        raise ValueError(f"Sigma must be {model.p}x{model.p}")
    return {"shape": _read_only(sigma)}


def _times_shape_root(model: PopulationModel, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """X @ R, R^T R = shape, for a fresh block X, which an AR(1) shape overwrites."""
    r = model._ar1_coefficient
    if r is None:
        root = model._shape_root
        return X if root is None else X @ root
    # L^T's inverse is bidiagonal, so X @ L^T is the recurrence y_0 = x_0,
    # y_j = r y_{j-1} + sqrt((1 - r)(1 + r)) x_j along each row: O(np), no BLAS.
    X[:, 1:] *= np.sqrt((1.0 - r) * (1.0 + r))
    for j in range(1, model.p):
        X[:, j] += r * X[:, j - 1]
    return X


def _gaussian_draw(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    """Y = X @ R, R the Cholesky factor of Sigma (or the PSD root when Sigma
    is singular), with i.i.d. unit-variance entries in X: standard normal, or
    uniform on [-sqrt(3), sqrt(3)] for entry_family 'bounded'."""
    if model.entry_family == "gaussian":
        X = _row_normals(seed, replicate, model.n, model.p)
    else:
        X = _uniform_entries(seed, replicate, model.n, model.p, np.sqrt(3.0))
    return _times_shape_root(model, X)


def _elliptical_check(model: PopulationModel) -> dict:
    gamma = np.array(model.shape, dtype=np.float64)
    if gamma.ndim != 2 or gamma.shape[1] != model.p:
        raise ValueError(f"Gamma must be d x {model.p}, got {gamma.shape}")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("Gamma must be finite")
    return {"shape": _read_only(gamma), "mixing": model.mixing or delta(1.0)}


def _sphere_rows(seed: int, replicate: int, n: int, p: int, start: int = 0) -> NDArray[np.float64]:
    G = _row_normals(seed, replicate, n, p, start)
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    G *= np.sqrt(p)
    return G


def sample_sphere(p: int, seed: int, replicate: int = 0, row: int = 0) -> NDArray[np.float64]:
    """One uniform direction on the sphere of radius sqrt(p): row `row` of _sphere_rows."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if row < 0:
        raise ValueError("row must be >= 0")
    return _sphere_rows(seed, replicate, 1, p, start=row)[0]


def _mixing_values(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    nu = model.mixing
    assert nu is not None
    if model.mixing_schedule:
        probs = (np.arange(model.n) + 0.5) / model.n
    else:
        rng = rng_stream(seed, replicate, _KIND_MIXING)
        probs = uniform_open(rng, model.n)
    cum = np.cumsum(nu.weights)
    idx = np.searchsorted(cum, probs, side="left")
    return nu.values[np.minimum(idx, nu.n_atoms - 1)]


def _elliptical_draw(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    """Rows lambda_i * Gamma (sqrt(p) r_i), r_i uniform directions.

    The mixing scalars come from a stream independent of every row stream.
    """
    rows = _sphere_rows(seed, replicate, model.n, model.p)
    rows *= _mixing_values(model, seed, replicate)[:, None]
    return rows if model._identity_shape else rows @ model.shape.T


def _copula_check(model: PopulationModel) -> dict:
    R = as_corr_matrix(model.shape)
    if R.shape[0] != model.p:
        raise ValueError(f"R must be {model.p}x{model.p}")
    return {"shape": _read_only(R)}


def _copula_draw(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    """Rows Phi(v) - 1/2 with v ~ N(0, R); entries strictly inside (-1/2, 1/2)."""
    from scipy.special import ndtr  # here, not at import: the law commands never sample

    V = _times_shape_root(model, _row_normals(seed, replicate, model.n, model.p))
    # ndtr saturates to exactly 0/1 around |v| ~ 9; clamp to keep the
    # strict-openness contract. V is a fresh draw, so every step runs in place.
    ndtr(V, out=V)
    np.clip(V, 2.0**-55, 1.0 - 2.0**-53, out=V)
    V -= 0.5
    return V


def _lb_ball_check(model: PopulationModel) -> None:
    if model.b_exponent is None or not (1.0 <= float(model.b_exponent) <= 2.0):
        raise ValueError("b_exponent must be in [1, 2]")


_QUANTILE_KNOTS = 2048
# Entries a quantile call maps at once, so that its temporaries (t, j, s, y_s)
# hold one chunk rather than the whole n x p block.
_QUANTILE_CHUNK = 1 << 12
# Uniforms an lb_ball draw holds at once, rather than all n x (2p + 1).
_LB_BALL_BLOCK = 1 << 18


def _logit(u: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.log(u / (1.0 - u))


def _gamma_quantile(a: float) -> Callable[..., NDArray[np.float64]]:
    """The Gamma(a) quantile x with P(a, x) = u, as quantile(u, out=out) over
    u in [2^-54, 1 - 2^-53], the range of uniform_open.

    y = log x is a smooth function of t = logit u. A table gives y at
    _QUANTILE_KNOTS knots even in t over that range (gammaincinv up to
    u = 1/2, gammainccinv(a, 1 - u) above, so the top knot is finite) and its
    first two derivatives in closed form: with f the Gamma(a) density,
    y' = u(1 - u)/(x f(x)) and y'' = y'((1 - u) - u + (x - a)y'). Each entry
    is the quintic Hermite interpolant of y on its knot interval, a
    polynomial in s = (t - t_j)/(t_{j+1} - t_j) with s scaled by that
    interval's own spacing, so no special function runs per entry. It is
    within about 4e-14 relative of scipy's inverse for a in [1/2, 1], and
    nondecreasing in u. Each entry is the same elementwise computation
    whatever chunk holds it.
    """
    # here, not at import: the law commands never sample
    from scipy.special import expit, gammainccinv, gammaincinv, gammaln

    knots, step = np.linspace(_logit(_U_MIN), _logit(_U_MAX), _QUANTILE_KNOTS, retstep=True)
    P, Q = expit(knots), expit(-knots)  # u and 1 - u at the knots, each without cancellation
    upper = knots > 0.0
    y = np.empty_like(knots)
    y[~upper] = np.log(gammaincinv(a, P[~upper]))
    y[upper] = np.log(gammainccinv(a, Q[upper]))
    x = np.exp(y)
    dy = P * Q * np.exp(gammaln(a) - a * y + x)
    d2y = dy * (Q - P + (x - a) * dy)
    # Per interval, in s: the values, slopes h y' and curvatures h^2 y'' at
    # both ends give the monomial coefficients c_0, ..., c_5.
    h = np.diff(knots)
    slope, curve = h * dy[:-1], h * h * d2y[:-1]
    gap = y[1:] - y[:-1] - slope - 0.5 * curve
    dslope = h * dy[1:] - slope - curve
    dcurve = h * h * d2y[1:] - curve
    coef = (
        y[:-1],
        slope,
        0.5 * curve,
        10.0 * gap - 4.0 * dslope + 0.5 * dcurve,
        -15.0 * gap + 7.0 * dslope - dcurve,
        6.0 * gap - 3.0 * dslope + 0.5 * dcurve,
    )
    last = _QUANTILE_KNOTS - 2

    def quantile(u: NDArray[np.float64], out: NDArray[np.float64]) -> NDArray[np.float64]:
        rows = max(1, _QUANTILE_CHUNK * len(u) // u.size)
        for start in range(0, len(u), rows):
            t = _logit(u[start : start + rows])
            # The interval from t's offset in steps, corrected by one against
            # the knots themselves: knots[j] <= t < knots[j + 1].
            j = np.clip(((t - knots[0]) / step).astype(np.intp), 0, last)
            j -= t < knots[j]
            j += t >= knots[j + 1]
            np.minimum(j, last, out=j)
            s = (t - knots[j]) / h[j]
            y_s = coef[5].take(j)
            for c in coef[4::-1]:
                y_s *= s
                y_s += c.take(j)
            np.exp(y_s, out=out[start : start + rows])
        return out

    return quantile


def _lb_ball_draw(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    """Rows uniform in the l_b ball of radius p^(1/b), b = b_exponent.

    Construction: entries g_i with density ~ exp(-|t|^b) (magnitudes are
    Gamma(1/b)^(1/b), the Gamma draws by _gamma_quantile), an independent
    Exp(1) variable W, and row = g / (sum |g_i|^b + W)^(1/b), which is
    uniform in the unit ball; the row is then scaled by p^(1/b). Rows are
    drawn in blocks of about _LB_BALL_BLOCK uniforms, one after another from
    one row stream, so the bytes do not depend on the blocking. After a
    block's row sums, its Gamma draws become its rows in place, in that
    order, so the draw holds one n x p array and one block of uniforms.
    """
    n, p, b = model.n, model.p, float(model.b_exponent)
    quantile = _gamma_quantile(1.0 / b)
    out = np.empty((n, p))
    streams = _RowStreams(seed, replicate)
    step = max(1, _LB_BALL_BLOCK // (2 * p + 1))
    for start in range(0, n, step):
        rows = min(step, n - start)
        U = uniform_open(streams, (rows, 2 * p + 1))
        block = quantile(U[:, :p], out=out[start : start + rows])
        w_exp = -np.log1p(-U[:, 2 * p])
        denom = np.power(np.sum(block, axis=1) + w_exp, 1.0 / b)
        np.power(block, 1.0 / b, out=block)
        np.negative(block, out=block, where=U[:, p : 2 * p] < 0.5)
        block /= denom[:, None]
        block *= p ** (1.0 / b)
        del U  # before the next block's uniforms are drawn
    return out


def _lb_ball_scatter(model: PopulationModel) -> tuple:
    """c I, c = E x_1^2 = p^(2/b) G(3/b)/G(1/b) G(p/b + 1)/G(p/b + 1 + 2/b) since E g_1^2 =
    G(3/b)/G(1/b) and g's direction is independent of sum |g_i|^b + W ~ Gamma(p/b + 1) (Barthe,
    Guedon, Mendelson & Naor, Ann. Probab. 33, 2005); sign symmetry makes T diagonal."""
    from scipy.special import gammaln  # here, not at import: the law commands never sample

    p, b = model.p, float(model.b_exponent)
    log_c = 2.0 / b * np.log(p) + gammaln(3.0 / b) - gammaln(1.0 / b)
    log_c += gammaln(p / b + 1.0) - gammaln(p / b + 1.0 + 2.0 / b)
    return float(np.exp(log_c)) * np.eye(p), delta(1.0)


def _bounded_iid_check(model: PopulationModel) -> None:
    if model.bound is None or not (0 <= float(model.bound) < np.inf):
        raise ValueError("bound must be finite and >= 0")


def _bounded_iid_draw(model: PopulationModel, seed: int, replicate: int) -> NDArray[np.float64]:
    """i.i.d. entries uniform on [-bound, bound]."""
    return _uniform_entries(seed, replicate, model.n, model.p, float(model.bound))


# One record per family: the model-JSON keys it reads beside family, n, p, d and mu;
# check, which validates a model and returns any fields it normalizes; draw, a checked
# model's rows before its location, in a fresh array that sample_model adds it to;
# scatter, (T, nu) with row covariance int l^2 dnu T.
_Family = namedtuple("_Family", "keys check draw scatter")
_FAMILIES = {
    "gaussian": _Family(
        ("shape", "entry_family"), _gaussian_check, _gaussian_draw,
        lambda m: (m.shape, delta(1.0)),  # either entry law has unit variance
    ),
    "sphere_elliptical": _Family(
        ("shape", "mixing", "mixing_schedule"), _elliptical_check, _elliptical_draw,
        lambda m: (as_sym_matrix(m.shape @ m.shape.T, "T"), m.mixing),  # sqrt(p) r_i is isotropic
    ),
    "gaussian_copula": _Family(
        ("shape",), _copula_check, _copula_draw, lambda m: (copula_cov(m.shape), delta(1.0))
    ),
    "lb_ball": _Family(("b",), _lb_ball_check, _lb_ball_draw, _lb_ball_scatter),
    "bounded_iid": _Family(
        ("bound",), _bounded_iid_check, _bounded_iid_draw,
        lambda m: (float(m.bound) ** 2 / 3.0 * np.eye(m.p), delta(1.0)),  # Var U[-c, c] = c^2/3
    ),
}
FAMILIES = tuple(_FAMILIES)
# The model field each record key names where the two differ.
_FIELD_OF_KEY = {"b": "b_exponent"}


def sample_model(model: PopulationModel, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Draw the model's n x d data matrix: its family's draw plus its location."""
    Y = _FAMILIES[model.family].draw(model, seed, replicate)
    Y += model.location
    return Y


def sample_gaussian_copula(n: int, R, seed: int, replicate: int = 0) -> NDArray[np.float64]:
    """Rows Phi(v) - 1/2 with v ~ N(0, R): sample_model of the gaussian_copula model over R."""
    model = PopulationModel(family="gaussian_copula", n=n, p=len(R), shape=R)
    return sample_model(model, seed, replicate)


_SHAPE_KEYS = {"identity": (), "dense": ("entries",), "toeplitz": ("r",), "file": ("path",)}


def _shape_from_json(spec, p: int):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError('shape spec must be an object with a "kind"')
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SHAPE_KEYS:
        raise ValueError(f"unknown shape kind {kind!r}")
    check_keys(spec, f"{kind} shape", ("kind", *_SHAPE_KEYS[kind]), ())
    if kind == "identity":
        return np.eye(p)
    if kind == "dense":
        return _json_numbers(spec, "dense shape", "entries")
    if kind == "toeplitz":
        return toeplitz_corr(p, _json_typed(spec, "toeplitz shape", "r", "a number"))
    return load_matrix_csv(_json_typed(spec, "file shape", "path", "a string"))


def model_from_json_dict(obj) -> PopulationModel:
    """Parse a model JSON object into a PopulationModel.

    simulate records obj as given, so each value must read as written: no key
    its family does not read (d, mu and its record's keys), JSON integers for n,
    p and d, JSON numbers (never true or false) for b, bound and mu and in a
    shape, a JSON boolean for mixing_schedule, an object for mixing, and only
    its kind's keys in a shape object. A "d" must equal the row dimension.
    """
    check_keys(obj, "model", ("family",), tuple(obj) if isinstance(obj, dict) else ())
    # An unknown family may hold any key here, so that PopulationModel names it.
    keys = _FAMILIES[obj["family"]].keys if obj["family"] in FAMILIES else tuple(obj)
    check_keys(obj, "model", ("family", "n", "p"), ("d", "mu", *keys))
    n, p = (_json_typed(obj, "model", key, "an integer") for key in ("n", "p"))
    shape = _shape_from_json(obj.get("shape"), p)
    mixing = _json_typed(obj, "model", "mixing", "an object")
    model = PopulationModel(
        family=obj["family"],
        n=n,
        p=p,
        shape=shape,
        mixing=None if mixing is None else measure_from_json_dict(mixing),
        b_exponent=_json_typed(obj, "model", "b", "a number"),
        bound=_json_typed(obj, "model", "bound", "a number"),
        location=_json_numbers(obj, "model", "mu") if "mu" in obj else 0.0,
        mixing_schedule=_json_typed(obj, "model", "mixing_schedule", "a boolean", False),
        entry_family=obj.get("entry_family", "gaussian"),
    )
    d = _json_typed(obj, "model", "d", "an integer")
    if d is not None and d != model.d:
        raise ValueError(f"d={d} disagrees with the model's row dimension {model.d}")
    return model


def load_model_json(path) -> PopulationModel:
    return model_from_json_dict(load_json(path, "model"))
