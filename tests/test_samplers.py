"""Sampling families: determinism, geometry contracts, and moment oracles."""

from fractions import Fraction
import json
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.special import erfcinv, erfinv, expit, gammainccinv, gammaincinv, ndtr, ndtri

from rmtlaw.linalg import matrix_sqrt_psd, sample_covariance, toeplitz_corr
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw import samplers
from rmtlaw.samplers import (
    FAMILIES,
    PopulationModel,
    _RowStreams,
    _row_normals,
    _row_uniforms,
    load_model_json,
    model_from_json_dict,
    rng_stream,
    sample_gaussian_copula,
    sample_model,
    sample_sphere,
    standard_normal,
    uniform_open,
)


def draw(family, n, p, seed, replicate=0, **kwargs):
    """sample_model of PopulationModel(family, n, p, **kwargs)."""
    return sample_model(PopulationModel(family=family, n=n, p=p, **kwargs), seed, replicate)


class TestStreams:
    def test_same_seed_identical(self):
        a = draw("gaussian", 5, 3, seed=42)
        b = draw("gaussian", 5, 3, seed=42)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = draw("gaussian", 5, 3, seed=42, replicate=0)
        b = draw("gaussian", 5, 3, seed=42, replicate=1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = draw("gaussian", 5, 3, seed=0)
        b = draw("gaussian", 5, 3, seed=1)
        assert not np.array_equal(a, b)

    def test_row_prefix_stable(self):
        # Each row draws from its own stream, so shrinking n keeps a prefix.
        big = draw("gaussian", 8, 4, seed=7)
        small = draw("gaussian", 3, 4, seed=7)
        assert np.array_equal(big[:3], small)

    def test_uniform_open_strictly_inside(self):
        u = uniform_open(rng_stream(0, 0), 200000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1.0 / 12 / u.size)

    def test_standard_normal_moments(self):
        g = standard_normal(rng_stream(1, 0), 200000)
        n = g.size
        assert abs(g.mean()) < 5 / np.sqrt(n)
        assert abs(g.var() - 1.0) < 5 * np.sqrt(2.0 / n)
        # fourth moment 3 for a Gaussian; se of the estimate is sqrt(96/n)
        assert abs(np.mean(g**4) - 3.0) < 5 * np.sqrt(96.0 / n)

    @pytest.mark.parametrize("size", [None, ()])
    def test_standard_normal_scalar(self, size):
        # size None (or ()) draws one value and returns a scalar, as numpy does.
        z = standard_normal(rng_stream(0, 0), size)
        assert np.ndim(z) == 0
        assert z == ndtri(uniform_open(rng_stream(0, 0), size)) == 0.5864003712044271

    def test_uniform_open_ends(self):
        # k + 1/2 rounds to 2^53 at the top integer, so that one is clamped.
        class Stub:
            def integers(self, low, high, size, dtype):
                return np.array([0, 2**53 - 2, 2**53 - 1], dtype=dtype)

        u = uniform_open(Stub(), 3)
        assert u.tolist() == [2.0**-54, 1.0 - 2.0**-52, 1.0 - 2.0**-53]

    def test_block_converted_in_place(self):
        # A 2000 x 2001 block's uniforms live in its words' own buffer of
        # 2000 x 2004 words (30.5 MiB). Beside it the conversion holds at most
        # the copy numpy makes of a chunk whose input shares memory with its
        # output, not a second block.
        words = 2000 * 2004 * 8
        _row_uniforms(0, 0, 2, 3)
        tracemalloc.start()
        try:
            U = _row_uniforms(0, 0, 2000, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert U.shape == (2000, 2001)
        assert words <= peak <= words + 2 * 8 * samplers._UNIFORM_CHUNK
        assert U[1999].tobytes() == _row_uniform(0, 0, 1999, 2001).tobytes()


def _stream_words(seed, replicate, kind, i, cols):
    """Row i of a block: words 4B·i, ..., 4B·i + cols - 1 of the one stream
    rng_stream(seed, replicate, kind), B = ceil(cols/4), cut to 53 bits."""
    width = 4 * -(-cols // 4)
    words = rng_stream(seed, replicate, kind).bit_generator.random_raw(width * (i + 1))
    return words[width * i : width * i + cols] >> np.uint64(11)


def _row_uniform(seed, replicate, i, cols, kind=0):
    u = (_stream_words(seed, replicate, kind, i, cols).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def _lb_ball_reference(n, p, b, seed, replicate):
    """An lb_ball model's draw one row at a time, each row read from the stream on its own."""
    out = np.empty((n, p))
    for i in range(n):
        u = _row_uniform(seed, replicate, i, 2 * p + 1)
        gamma_draws = samplers._gamma_quantile(1.0 / b)(u[:p], out=np.empty(p))
        magnitudes = gamma_draws ** (1.0 / b)
        signs = np.where(u[p : 2 * p] < 0.5, -1.0, 1.0)
        w_exp = -np.log1p(-u[2 * p])
        denom = np.power(np.sum(gamma_draws) + w_exp, 1.0 / b)
        out[i] = signs * magnitudes / denom
    return p ** (1.0 / b) * out


class TestRowStreams:
    """Row i of a block holds the stream's words from block i·ceil(cols/4) on."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 3, 2**70 + 11])
    @pytest.mark.parametrize("replicate", [0, 3, 2**33])
    @pytest.mark.parametrize("kind", [0, 1])
    def test_rows_equal_per_row_streams(self, seed, replicate, kind):
        for cols in (1, 3, 4, 5, 401):
            U = uniform_open(_RowStreams(seed, replicate, kind), (4, cols))
            G = standard_normal(_RowStreams(seed, replicate, kind), (4, cols))
            for i in range(4):
                u = _row_uniform(seed, replicate, i, cols, kind)
                assert U[i].tobytes() == u.tobytes()
                assert G[i].tobytes() == ndtri(u).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**80),
        replicate=st.integers(0, 2**40),
        n=st.integers(1, 6),
        cols=st.integers(1, 9),
    )
    def test_row_helpers_property(self, seed, replicate, n, cols):
        U = _row_uniforms(seed, replicate, n, cols)
        G = _row_normals(seed, replicate, n, cols)
        assert U.shape == G.shape == (n, cols)
        for i in range(n):
            u = _row_uniform(seed, replicate, i, cols)
            assert U[i].tobytes() == u.tobytes()
            assert G[i].tobytes() == ndtri(u).tobytes()

    @pytest.mark.parametrize("pieces", [1, 2])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        replicate=st.integers(0, 2**40),
        kind=st.integers(0, 1),
        cols=st.integers(1, 40),
        bounds=st.lists(st.integers(0, 30), min_size=2, max_size=2, unique=True).map(sorted),
    )
    def test_block_from_start_is_slice(self, pieces, seed, replicate, kind, cols, bounds):
        # Rows r0..r1 drawn in `pieces` consecutive blocks, each from its own start.
        r0, r1 = bounds
        full = standard_normal(_RowStreams(seed, replicate, kind), (r1, cols))
        cuts = [r0 + (r1 - r0) * k // pieces for k in range(pieces + 1)]
        blocks = [
            standard_normal(_RowStreams(seed, replicate, kind, start=a), (b - a, cols))
            for a, b in zip(cuts, cuts[1:])
        ]
        assert np.vstack(blocks).tobytes() == full[r0:r1].tobytes()

    @pytest.mark.parametrize("path", [(-1, 0, 0), (0, -1, 0)])
    def test_negative_entropy_raises_like_seed_sequence(self, path):
        seed, replicate, kind = path
        with pytest.raises(ValueError, match="non-negative") as expected:
            np.random.SeedSequence(seed, spawn_key=(replicate, kind))
        with pytest.raises(ValueError, match=str(expected.value)):
            _row_uniforms(seed, replicate, 2, 3)

    def test_only_53_bit_integers(self):
        with pytest.raises(ValueError, match="53-bit"):
            _RowStreams(0, 0).integers(0, 10, (2, 2), np.uint64)

    @pytest.mark.parametrize("b", [1.0, 1.3, 2.0])
    @pytest.mark.parametrize("seed", [0, 2**70 + 11])
    def test_lb_ball_equals_per_row_reference(self, b, seed, monkeypatch):
        for p in (1, 7, 120):
            got = draw("lb_ball", 40, p, seed, replicate=3, b_exponent=b)
            assert got.tobytes() == _lb_ball_reference(40, p, b, seed, 3).tobytes()
        # Blocks of 1000 uniforms hold 4 rows of 241: 42 rows are 10 whole
        # blocks and a partial one, drawn one after another.
        monkeypatch.setattr(samplers, "_LB_BALL_BLOCK", 1000)
        got = draw("lb_ball", 42, 120, seed, replicate=3, b_exponent=b)
        assert got.tobytes() == _lb_ball_reference(42, 120, b, seed, 3).tobytes()

    def test_lb_ball_holds_one_block_of_uniforms(self, monkeypatch):
        # 5000 x 241 uniforms are 4.6 blocks. The draw holds its n x p rows
        # and one block, never all n x (2p + 1) uniforms, and its bytes equal
        # those of the draw in one block.
        n, p = 5000, 120
        model = PopulationModel(family="lb_ball", n=n, p=p, b_exponent=1.5)
        assert n * (2 * p + 1) > 4 * samplers._LB_BALL_BLOCK
        sample_model(model, 2)
        tracemalloc.start()
        try:
            Y = sample_model(model, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (2 * p + 1)
        monkeypatch.setattr(samplers, "_LB_BALL_BLOCK", n * (2 * p + 1))
        assert sample_model(model, 2).tobytes() == Y.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32 + 3])
    def test_bounded_iid_equals_per_row_reference(self, seed):
        got = draw("bounded_iid", 30, 9, seed, replicate=2, bound=1.5)
        for i in range(30):
            u = _row_uniform(seed, 2, i, 9)
            assert got[i].tobytes() == (1.5 * (2.0 * u - 1.0)).tobytes()

    @pytest.mark.parametrize("p", [4, 37, 200])
    def test_identity_sigma_skips_root_exactly(self, p):
        # The identity shortcut returns what the root and GEMM returned.
        eye = np.eye(p)
        assert np.array_equal(matrix_sqrt_psd(eye), eye)
        G = _row_normals(5, 1, 30, p)
        expected = G @ matrix_sqrt_psd(eye)
        model = PopulationModel(family="gaussian", n=30, p=p, shape=eye)
        assert sample_model(model, 5, replicate=1).tobytes() == expected.tobytes()
        assert model._shape_root is None


class TestShortRows:
    """A row of cols < 4k columns still takes k whole Philox blocks; the
    unused words at its end are skipped, not handed to the next row. A
    block drawn in cuts + 1 chunks, each from its own start or each after
    the last on one _RowStreams, equals the block drawn at once."""

    @pytest.mark.parametrize("cols", [1, 4, 31, 32])
    @pytest.mark.parametrize("seed, replicate", [(0, 0), (2**70 + 11, 2**33)])
    @pytest.mark.parametrize("cuts", [1, 2])
    def test_chunk_edges_equal_row_streams(self, cols, seed, replicate, cuts):
        n = 301
        starts = [n * k // (cuts + 1) for k in range(cuts + 2)]
        U = uniform_open(_RowStreams(seed, replicate), (n, cols))
        G = standard_normal(_RowStreams(seed, replicate), (n, cols))
        chunks = [
            standard_normal(_RowStreams(seed, replicate, start=a), (b - a, cols))
            for a, b in zip(starts, starts[1:])
        ]
        assert np.vstack(chunks).tobytes() == G.tobytes()
        streams = _RowStreams(seed, replicate)  # chunks drawn one after another
        chunks = [standard_normal(streams, (b - a, cols)) for a, b in zip(starts, starts[1:])]
        assert np.vstack(chunks).tobytes() == G.tobytes()
        for a, b in zip(starts, starts[1:]):  # the first and last row of each chunk
            for i in (a, b - 1):
                u = _row_uniform(seed, replicate, i, cols)
                assert U[i].tobytes() == u.tobytes()
                assert G[i].tobytes() == ndtri(u).tobytes()


_cholesky = np.linalg.cholesky
# A unit-diagonal SPD shape that is not r^|i-j|, so that its draws factor it.
NOT_AR1 = 0.5 * (toeplitz_corr(30, 0.3) + toeplitz_corr(30, 0.6))


def _no_factor(M):
    raise AssertionError("the draw factored an AR(1) shape")


class _NoMatmul(np.ndarray):
    """Rows that refuse a GEMM, to show a draw skipped it."""

    def __matmul__(self, other):
        raise AssertionError("the draw multiplied by its shape")


def gaussian_reference(n, sigma, seed, replicate):
    """Normal rows times the Cholesky factor of sigma taken here, apart from any model."""
    return _row_normals(seed, replicate, n, len(sigma)) @ _cholesky(sigma).T


class TestShapeRoot:
    """A gaussian or gaussian_copula model checks and factors its shape once."""

    @pytest.mark.parametrize(
        "family, public",
        [("gaussian", gaussian_reference), ("gaussian_copula", sample_gaussian_copula)],
    )
    def test_root_taken_once(self, monkeypatch, family, public):
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(1) or _cholesky(M))
        R = NOT_AR1
        model = PopulationModel(family=family, n=40, p=30, shape=R)
        draws = [sample_model(model, 7, replicate) for replicate in range(3)]
        assert len(calls) == 1
        for replicate, Y in enumerate(draws):
            assert Y.tobytes() == public(40, R, 7, replicate).tobytes()

    @pytest.mark.parametrize("r", [0.3, 0.7])
    @pytest.mark.parametrize("p", [30, 200])
    def test_cholesky_factor(self, r, p):
        # Cholesky's backward error is at most (p + 1) eps |L||L^T| entrywise
        # (Higham, Accuracy and Stability, Thm 10.3), forming R^T R adds p eps
        # |R^T||R|, and by Cauchy-Schwarz |L||L^T| <= max diag(Sigma) <= ||Sigma||_2.
        sigma = toeplitz_corr(p, r)
        R = PopulationModel(family="gaussian", n=5, p=p, shape=sigma)._shape_root
        bound = 2 * (p + 1) * np.finfo(float).eps * np.linalg.norm(sigma, 2)
        assert np.max(np.abs(R.T @ R - sigma)) <= bound
        assert np.array_equal(R, np.triu(R))
        assert not R.flags.writeable

    def test_singular_sigma_takes_psd_root(self):
        sigma = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        Y = draw("gaussian", 50, 3, 4, replicate=1, shape=sigma)
        assert Y.tobytes() == (_row_normals(4, 1, 50, 3) @ matrix_sqrt_psd(sigma)).tobytes()
        assert np.all(Y[:, 1] == 0.0)

    def test_indefinite_sigma_refused_at_first_draw(self):
        model = PopulationModel(family="gaussian", n=5, p=2, shape=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="not PSD"):
            sample_model(model, 0)

    @pytest.mark.parametrize("shape", [None, np.eye(6)])
    def test_identity_gamma_skips_gemm_exactly(self, monkeypatch, shape):
        model = PopulationModel(
            family="sphere_elliptical", n=30, p=6, shape=shape, mixing=delta(1.5)
        )
        assert model._identity_shape
        expected = (1.5 * samplers._sphere_rows(3, 0, 30, 6)) @ np.eye(6).T
        sphere_rows = samplers._sphere_rows
        monkeypatch.setattr(samplers, "_sphere_rows", lambda *a: sphere_rows(*a).view(_NoMatmul))
        assert sample_model(model, 3).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "sphere_elliptical", "gaussian_copula"])
    def test_shape_read_only(self, family):
        # An exactly symmetric shape passes its check without a copy; the
        # model still keeps a copy of its own.
        for r in (0.0, 0.5):
            given = toeplitz_corr(3, r)
            model = PopulationModel(family=family, n=5, p=3, shape=given)
            with pytest.raises(ValueError, match="read-only"):
                model.shape[0, 1] = 0.75
            assert given.flags.writeable and not np.shares_memory(given, model.shape)
            given[0, 1] = 0.75  # the caller's array is left writable and unshared
            assert model.shape[0, 1] == r


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _ar1_bound(X, Y, L, r):
    """An entrywise bound on |Y - X @ L^T|, Y the recurrence's rows and L
    numpy's Cholesky factor of toeplitz_corr(p, r), from rounding alone.

    Both are within rounding of X @ F^T, F the exact factor of the exact
    r^|i-j| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.):
    - each recurrence step adds at most g2 |r y_{j-1}| + g5 s |x_j|, the
      rounded s = sqrt((1 - r)(1 + r)) being within g3 of s, and an error
      decays by |r| a step;
    - the computed X @ L^T is within g_p |X||L^T| of the exact product
      (eq. 3.13), and X @ (L - F)^T within |x|_2 ||L - F||_F;
    - L L^T = Sigma + dA, dA the rounding of r^k in toeplitz_corr (measured
      here against exact fractions) plus Cholesky's backward error, at most
      g_{p+1} |L||L^T| (Thm 10.3). Sun's bound (Thm 10.8) then gives
      ||L - F||_F <= ||S||^(1/2) ||S^-1|| ||dA||_F / (sqrt 2 (1 - ||S^-1|| ||dA||_F)),
      and both 2-norms are at most c = (1 + |r|)/(1 - |r|), the extremes of
      the AR(1) spectral density.
    The bound's own rounding is far below its last two terms.
    """
    p = X.shape[1]
    s = np.sqrt((1 - r) * (1 + r))
    rec = np.zeros_like(Y)
    for j in range(1, p):
        rec[:, j] = abs(r) * rec[:, j - 1] + _gamma(2) * np.abs(r * Y[:, j - 1])
        rec[:, j] += _gamma(5) * s * np.abs(X[:, j])
    powers = toeplitz_corr(p, r)[0]
    err = [abs(float(Fraction(v) - Fraction(r) ** k)) for k, v in enumerate(powers)]
    # r^k fills at most 2(p - k) entries of Sigma.
    rounding = np.sqrt(sum(2 * (p - k) * e**2 for k, e in enumerate(err)))
    dA = rounding + _gamma(p + 1) * np.linalg.norm(np.abs(L) @ np.abs(L).T)
    c = (1 + abs(r)) / (1 - abs(r))
    assert c * dA < 1
    dL = c**1.5 * dA / (np.sqrt(2) * (1 - c * dA))
    gemm = _gamma(p) * (np.abs(X) @ np.abs(L).T)
    return rec + gemm + np.linalg.norm(X, axis=1, keepdims=True) * dL


class TestAr1Recurrence:
    """A shape exactly r^|i-j| draws X @ L^T by the AR(1) recurrence and forms no factor."""

    @pytest.mark.parametrize("r", [0.45, -0.6, 0.95])
    @pytest.mark.parametrize("p", [30, 200])
    def test_matches_cholesky_product(self, monkeypatch, r, p):
        sigma = toeplitz_corr(p, r)
        model = PopulationModel(family="gaussian", n=50, p=p, shape=sigma)
        assert model._ar1_coefficient == r
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", _no_factor)
            m.setattr(samplers, "matrix_sqrt_psd", _no_factor)
            Y = sample_model(model, 8)
        X = _row_normals(8, 0, 50, p)
        L = np.linalg.cholesky(sigma)
        assert np.all(np.abs(Y - X @ L.T) <= _ar1_bound(X, Y, L, r))
        assert Y[:, 0].tobytes() == X[:, 0].tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "gaussian_copula"])
    def test_dense_twin_draws_same_bytes(self, monkeypatch, family):
        toeplitz = {"family": family, "n": 40, "p": 25, "shape": {"kind": "toeplitz", "r": -0.6}}
        entries = toeplitz_corr(25, -0.6).tolist()
        dense = {**toeplitz, "shape": {"kind": "dense", "entries": entries}}
        a, b = (model_from_json_dict(json.loads(json.dumps(m))) for m in (toeplitz, dense))
        monkeypatch.setattr(np.linalg, "cholesky", _no_factor)
        assert a._ar1_coefficient == b._ar1_coefficient == -0.6
        assert sample_model(a, 2, 1).tobytes() == sample_model(b, 2, 1).tobytes()

    @pytest.mark.parametrize("i, j", [(3, 7), (0, 5)])
    def test_perturbed_entry_takes_cholesky(self, monkeypatch, i, j):
        # One symmetric pair one ulp off r^|i-j|: inside the first row, which
        # the first test reads, or past it.
        sigma = toeplitz_corr(30, 0.45)
        sigma[i, j] = sigma[j, i] = np.nextafter(sigma[i, j], 1.0)
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(1) or _cholesky(M))
        model = PopulationModel(family="gaussian", n=40, p=30, shape=sigma)
        Y = sample_model(model, 6)
        assert model._ar1_coefficient is None and len(calls) == 1
        assert Y.tobytes() == gaussian_reference(40, sigma, 6, 0).tobytes()


class TestRowBlocks:
    """The inverse-CDF maps over a whole block of rows give the bytes of the
    per-row references."""

    N, P = 301, 220

    def test_lb_ball(self):
        Y = draw("lb_ball", self.N, self.P, 11, replicate=2, b_exponent=1.5)
        assert Y.tobytes() == _lb_ball_reference(self.N, self.P, 1.5, 11, 2).tobytes()

    def test_lb_ball_across_quantile_chunks(self):
        # 301 x 1000 entries span several of the quantile's chunks.
        n, p = 301, 1000
        assert n * p > 2 * samplers._QUANTILE_CHUNK
        expected = _lb_ball_reference(n, p, 1.25, 4, 1).tobytes()
        assert draw("lb_ball", n, p, 4, replicate=1, b_exponent=1.25).tobytes() == expected

    def test_gaussian_and_copula(self):
        rows = [ndtri(_row_uniform(11, 2, i, self.P)) for i in range(self.N)]
        gaussian = np.array(rows).tobytes()
        copula = np.array([np.clip(ndtr(g), 2.0**-55, 1.0 - 2.0**-53) - 0.5 for g in rows]).tobytes()
        eye = np.eye(self.P)
        assert draw("gaussian", self.N, self.P, 11, replicate=2).tobytes() == gaussian
        assert sample_gaussian_copula(self.N, eye, 11, replicate=2).tobytes() == copula


class TestGaussian:
    def test_covariance_oracle(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        Y = draw("gaussian", 40000, 2, seed=3, shape=sigma)
        S = sample_covariance(Y)
        n = Y.shape[0]
        for i in range(2):
            for j in range(2):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / n)
                assert abs(S[i, j] - sigma[i, j]) < 5 * se

    def test_bounded_entries(self):
        Y = draw("gaussian", 1000, 3, seed=0, entry_family="bounded")
        assert np.all(np.abs(Y) <= np.sqrt(3.0) + 1e-12)
        assert abs(Y.var() - 1.0) < 0.05

    def test_bad_entry_family(self):
        with pytest.raises(ValueError, match="entry_family"):
            PopulationModel(family="gaussian", n=5, p=2, entry_family="cauchy")


class TestSphere:
    def test_row_norm_exact(self):
        model = PopulationModel(family="sphere_elliptical", n=50, p=20)
        Y = sample_model(model, seed=5)
        norms = np.linalg.norm(Y, axis=1)
        assert np.allclose(norms, np.sqrt(20), atol=1e-12)

    def test_single_direction(self):
        v = sample_sphere(10, seed=2)
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(10), abs=1e-12)

    @pytest.mark.parametrize("p", [1, 3, 4, 9])
    def test_direction_is_row_of_block(self, p):
        rows = samplers._sphere_rows(13, 2, 12, p)
        for row in range(12):
            assert sample_sphere(p, 13, 2, row).tobytes() == rows[row].tobytes()

    def test_negative_row_rejected(self):
        # A negative row would wrap the Philox counter to a valid-looking direction.
        with pytest.raises(ValueError, match="row must be >= 0"):
            sample_sphere(4, 0, 0, -1)

    def test_coordinate_second_moment(self):
        # E y_1^2 = 1 on the sqrt(p)-sphere.
        rows = np.array([sample_sphere(8, seed=0, row=i) for i in range(4000)])
        first = rows[:, 0] ** 2
        assert abs(first.mean() - 1.0) < 5 * first.std() / np.sqrt(first.size)


class TestEllipticalMixing:
    def test_schedule_is_quantile_grid(self):
        nu = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        model = PopulationModel(
            family="sphere_elliptical", n=4, p=3, mixing=nu, mixing_schedule=True
        )
        Y = sample_model(model, seed=0)
        norms = np.linalg.norm(Y, axis=1) / np.sqrt(3)
        assert np.allclose(np.sort(norms), [1.0, 1.0, 2.0, 2.0], atol=1e-12)

    def test_iid_mixing_frequencies(self):
        nu = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.25, 0.75]))
        model = PopulationModel(family="sphere_elliptical", n=4000, p=2, mixing=nu)
        Y = sample_model(model, seed=9)
        norms = np.linalg.norm(Y, axis=1) / np.sqrt(2)
        frac3 = np.mean(norms > 2.0)
        assert abs(frac3 - 0.75) < 5 * np.sqrt(0.25 * 0.75 / 4000)

    def test_mixing_independent_of_rows(self):
        # Same row-direction draws under different mixing laws.
        m1 = PopulationModel(
            family="sphere_elliptical", n=6, p=4, mixing=delta(1.0)
        )
        m2 = PopulationModel(
            family="sphere_elliptical", n=6, p=4, mixing=delta(2.0)
        )
        Y1 = sample_model(m1, seed=11)
        Y2 = sample_model(m2, seed=11)
        assert np.allclose(Y2, 2.0 * Y1, atol=1e-12)

    def test_gamma_projection(self):
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = PopulationModel(family="sphere_elliptical", n=10, p=2, shape=gamma)
        Y = sample_model(model, seed=1)
        assert model.d == 3
        assert Y.shape == (10, 3)
        # third column is the sum of the first two by construction
        assert np.allclose(Y[:, 2], Y[:, 0] + Y[:, 1], atol=1e-12)


class TestCopula:
    def test_entries_strictly_inside(self):
        Y = sample_gaussian_copula(500, np.eye(10), seed=0)
        assert np.all(Y > -0.5)
        assert np.all(Y < 0.5)

    def test_uniform_marginal_moments(self):
        Y = sample_gaussian_copula(20000, np.eye(3), seed=4)
        n = Y.size
        assert abs(Y.mean()) < 5 * np.sqrt(1.0 / 12 / n)
        # var of a Uniform(-1/2, 1/2) sample variance: (E u^4 - var^2)/n
        se = np.sqrt((1.0 / 80 - 1.0 / 144) / n)
        assert abs(Y.var() - 1.0 / 12) < 5 * se

    def test_unit_diagonal_required(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            sample_gaussian_copula(5, 2.0 * np.eye(3), seed=0)

    def test_monotone_in_latent(self):
        # Phi is increasing, so comonotone latents give comonotone entries.
        R = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
        Y = sample_gaussian_copula(100, R, seed=0)
        assert np.all(np.abs(Y[:, 0] - Y[:, 1]) < 1e-5)


def _log_spaced_uniforms(m):
    """m uniforms log-spaced toward both ends of uniform_open's range, both ends included."""
    lo = np.geomspace(2.0**-54, 0.5, m // 2)
    return np.concatenate([lo, 1.0 - np.geomspace(2.0**-53, 0.5, m - m // 2)[::-1]])


def _knot_neighbours():
    """The quantile table's knots as uniforms, with the floats on either side, kept in range."""
    lo, hi = samplers._U_MIN, samplers._U_MAX
    knots = expit(np.linspace(samplers._logit(lo), samplers._logit(hi), samplers._QUANTILE_KNOTS))
    near = np.concatenate([np.nextafter(knots, 0.0), knots, np.nextafter(knots, 1.0)])
    return np.unique(near[(near >= lo) & (near <= hi)])


class TestGammaQuantile:
    """The quintic Hermite quantile against scipy's inverses and the closed forms."""

    U = _log_spaced_uniforms(100_000)

    def quantile(self, a, u=None):
        u = self.U if u is None else u
        return samplers._gamma_quantile(a)(u, out=np.empty_like(u))

    def assert_matches_scipy(self, a):
        u = np.concatenate([self.U, _knot_neighbours()])
        assert 2.0**-54 in u and 1.0 - 2.0**-53 in u
        expected = np.where(u <= 0.5, gammaincinv(a, u), gammainccinv(a, 1.0 - u))
        assert np.max(np.abs(self.quantile(a, u) - expected) / expected) <= 1e-13

    @pytest.mark.parametrize("b", [1.0, 1.25, 1.5, 2.0])
    def test_matches_scipy(self, b):
        self.assert_matches_scipy(1.0 / b)

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.5, 1.0))
    def test_matches_scipy_any_shape(self, a):
        self.assert_matches_scipy(a)

    @pytest.mark.parametrize("a", [0.5, 0.6, 1.0 / 1.37, 0.8, 0.9, 1.0])
    def test_nondecreasing(self, a):
        # Runs of uniform_open values from consecutive integers k, at the
        # bottom, inside, on both sides of 1/2 and at the top of the range,
        # merged with the floats around every knot.
        run = 200_000
        starts = [0, 1 << 30, 1 << 45, (1 << 52) - run // 2, 1 << 52, 3 << 51, (1 << 53) - run]

        class Runs:
            def integers(self, low, high, size, dtype):
                return np.concatenate([np.arange(k, k + run, dtype=dtype) for k in starts])

        u = np.sort(np.concatenate([uniform_open(Runs(), None), _knot_neighbours()]))
        assert np.all(np.diff(self.quantile(a, u)) >= 0.0)

    def test_exponential_closed_form(self):
        expected = -np.log1p(-self.U)
        assert np.max(np.abs(self.quantile(1.0) - expected) / expected) <= 1e-13

    def test_half_closed_form(self):
        # Gamma(1/2) is Z^2 / 2, so P(1/2, x) = erf(sqrt(x)).
        u = self.U
        expected = np.where(u <= 0.5, erfinv(u) ** 2, erfcinv(1.0 - u) ** 2)
        assert np.max(np.abs(self.quantile(0.5) - expected) / expected) <= 1e-13


class TestLbBall:
    def test_inside_ball(self):
        for b in (1.0, 1.5, 2.0):
            Y = draw("lb_ball", 200, 6, seed=0, b_exponent=b)
            lb_norms = np.sum(np.abs(Y) ** b, axis=1) ** (1.0 / b)
            assert np.all(lb_norms < 6 ** (1.0 / b))

    def test_l2_radial_law(self):
        # Uniform in the unit l2 ball: P(||x|| <= t) = t^p; the scaled draw
        # has ||row||^2 = p r^2 with E = p^2/(p+2).
        p, n = 10, 3000
        Y = draw("lb_ball", n, p, seed=1, b_exponent=2.0)
        sq = np.sum(Y**2, axis=1)
        mean_expected = p * p / (p + 2.0)
        assert abs(sq.mean() - mean_expected) < 5 * sq.std() / np.sqrt(n)
        frac = np.mean(sq <= p * 0.5 ** (2.0 / p))
        assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / n)

    def test_sign_symmetry(self):
        Y = draw("lb_ball", 4000, 3, seed=2, b_exponent=1.0)
        frac_neg = np.mean(Y < 0)
        assert abs(frac_neg - 0.5) < 5 * np.sqrt(0.25 / Y.size)

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match=r"b_exponent must be in \[1, 2\]"):
            PopulationModel(family="lb_ball", n=5, p=3, b_exponent=2.5)


class TestBoundedIid:
    def test_within_bound(self):
        Y = draw("bounded_iid", 100, 5, seed=0, bound=0.25)
        assert np.all(np.abs(Y) <= 0.25)

    def test_moments(self):
        Y = draw("bounded_iid", 2000, 10, seed=3, bound=2.0)
        n = Y.size
        assert abs(Y.mean()) < 5 * np.sqrt(4.0 / 3 / n)
        assert abs(Y.var() - 4.0 / 3) < 0.05

    def test_zero_bound(self):
        assert np.array_equal(draw("bounded_iid", 3, 2, seed=0, bound=0.0), np.zeros((3, 2)))

    def test_model_draw_is_shifted_sampler_draw(self):
        mu = np.array([0.5, -1.0, 2.0])
        model = PopulationModel(family="bounded_iid", n=7, p=3, bound=0.8, location=mu)
        expected = 0.8 * (2.0 * _row_uniforms(9, 2, 7, 3) - 1.0) + mu
        assert sample_model(model, seed=9, replicate=2).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, p", [(0, 3), (3, 0), (-2, 3)])
    def test_dimensions_checked(self, n, p):
        with pytest.raises(ValueError, match="dimensions n and p must be positive"):
            PopulationModel(family="bounded_iid", n=n, p=p, bound=1.0)

    @pytest.mark.parametrize("bound", [-0.5, float("nan"), float("inf")])
    def test_bound_finite_and_nonnegative(self, bound):
        with pytest.raises(ValueError, match="bound must be finite and >= 0"):
            PopulationModel(family="bounded_iid", n=3, p=2, bound=bound)


class TestLocation:
    def test_scalar_shift(self):
        base = PopulationModel(family="gaussian", n=6, p=3)
        shifted = PopulationModel(family="gaussian", n=6, p=3, location=2.5)
        assert np.allclose(
            sample_model(shifted, seed=0), sample_model(base, seed=0) + 2.5
        )

    def test_vector_shift(self):
        mu = np.array([1.0, -1.0, 0.5])
        base = PopulationModel(family="gaussian", n=6, p=3)
        shifted = PopulationModel(family="gaussian", n=6, p=3, location=mu)
        assert np.allclose(
            sample_model(shifted, seed=0), sample_model(base, seed=0) + mu
        )

    def test_vector_length_checked(self):
        with pytest.raises(ValueError, match="location vector"):
            PopulationModel(family="gaussian", n=6, p=3, location=np.ones(4))


class TestModelValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            PopulationModel(family="wishart", n=5, p=3)

    def test_all_families_construct(self):
        kwargs = {
            "gaussian": {},
            "sphere_elliptical": {},
            "gaussian_copula": {},
            "lb_ball": {"b_exponent": 1.5},
            "bounded_iid": {"bound": 1.0},
        }
        for family in FAMILIES:
            PopulationModel(family=family, n=4, p=3, **kwargs[family])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_d_is_the_row_dimension(self, family):
        # Gamma's row count for sphere_elliptical; p for every other family.
        kwargs = {
            "gaussian": {"shape": toeplitz_corr(3, 0.5)},
            "sphere_elliptical": {"shape": np.ones((5, 3))},
            "gaussian_copula": {"shape": toeplitz_corr(3, 0.5)},
            "lb_ball": {"b_exponent": 1.5},
            "bounded_iid": {"bound": 1.0},
        }
        model = PopulationModel(family=family, n=4, p=3, **kwargs[family])
        d = 5 if family == "sphere_elliptical" else 3
        assert model.d == d
        assert sample_model(model, 0, 0).shape == (4, d)

    def test_sigma_shape_checked(self):
        with pytest.raises(ValueError, match="Sigma"):
            PopulationModel(family="gaussian", n=5, p=3, shape=np.eye(2))

    def test_gamma_shape_checked(self):
        # Gamma is d x p for any d; its columns must match p.
        for gamma in (np.eye(4), np.ones(3)):
            with pytest.raises(ValueError, match="Gamma must be d x 3"):
                PopulationModel(family="sphere_elliptical", n=5, p=3, shape=gamma)

    def test_gamma_required_when_d_differs(self):
        # Without Gamma the row dimension is p, so a JSON d != p is rejected.
        obj = {"family": "sphere_elliptical", "n": 5, "p": 3, "d": 4}
        with pytest.raises(ValueError, match="d=4 disagrees"):
            model_from_json_dict(obj)
        gamma = {"kind": "dense", "entries": np.ones((4, 3)).tolist()}
        assert model_from_json_dict({**obj, "shape": gamma}).d == 4

    def test_json_d_checked_for_every_family(self):
        # Rows of the other families have p entries, whatever "d" says.
        with pytest.raises(ValueError, match="d=7 disagrees"):
            model_from_json_dict({"family": "gaussian", "n": 40, "p": 20, "d": 7})
        assert model_from_json_dict({"family": "gaussian", "n": 40, "p": 20, "d": 20}).d == 20

    def test_copula_diagonal_checked(self):
        R = np.eye(3)
        R[0, 0] = 2.0
        with pytest.raises(ValueError, match="unit diagonal"):
            PopulationModel(family="gaussian_copula", n=5, p=3, shape=R)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            PopulationModel(family="gaussian", n=0, p=3)

    @pytest.mark.parametrize(
        "family, field, value",
        [
            pytest.param("lb_ball", "entry_family", "bounded", id="lb_ball-entry_family"),
            pytest.param("lb_ball", "bound", 2.0, id="lb_ball-bound"),
            pytest.param("lb_ball", "mixing", delta(3.0), id="lb_ball-mixing"),
            pytest.param("lb_ball", "mixing_schedule", True, id="lb_ball-mixing_schedule"),
            pytest.param("gaussian", "mixing", delta(3.0), id="gaussian-mixing"),
        ],
    )
    def test_field_the_family_does_not_read(self, family, field, value):
        # A field outside the family's record keys must keep its default, as
        # the JSON reader refuses a key outside them.
        kwargs = {"b_exponent": 1.5} if family == "lb_ball" else {}
        with pytest.raises(ValueError, match=f"family '{family}' does not read {field}"):
            PopulationModel(family=family, n=5, p=3, **kwargs, **{field: value})


class TestModelJson:
    # Hand-written model JSON per family: the parsed fields, and a draw
    # byte-equal to that of the PopulationModel built directly.
    def test_round_trip_gaussian(self):
        obj = {
            "family": "gaussian",
            "n": 10,
            "p": 3,
            "shape": {"kind": "toeplitz", "r": 0.4},
            "mu": 1.5,
        }
        model = PopulationModel(
            family="gaussian", n=10, p=3, shape=toeplitz_corr(3, 0.4), location=1.5
        )
        back = model_from_json_dict(obj)
        assert back.family == "gaussian"
        assert back.n == 10 and back.p == 3 and back.d == 3
        assert back.shape.tobytes() == model.shape.tobytes()
        assert back.location == 1.5
        assert sample_model(back, seed=0).tobytes() == sample_model(model, seed=0).tobytes()

    def test_round_trip_elliptical(self):
        gamma = np.arange(15.0).reshape(5, 3)
        obj = {
            "family": "sphere_elliptical",
            "n": 8,
            "p": 3,
            "d": 5,
            "shape": {"kind": "dense", "entries": gamma.tolist()},
            "mixing": {"atoms": [{"value": 0.5, "weight": 0.3}, {"value": 2.0, "weight": 0.7}]},
            "mixing_schedule": True,
        }
        nu = DiscreteMeasure(np.array([0.5, 2.0]), np.array([0.3, 0.7]))
        model = PopulationModel(
            family="sphere_elliptical", n=8, p=3, shape=gamma, mixing=nu, mixing_schedule=True
        )
        back = model_from_json_dict(obj)
        assert back.d == 5
        assert back.mixing_schedule is True
        assert back.mixing.values.tobytes() == nu.values.tobytes()
        assert back.mixing.weights.tobytes() == nu.weights.tobytes()
        assert sample_model(back, seed=3).tobytes() == sample_model(model, seed=3).tobytes()

    def test_round_trip_lb_ball(self):
        back = model_from_json_dict({"family": "lb_ball", "n": 6, "p": 4, "b": 1.25})
        model = PopulationModel(family="lb_ball", n=6, p=4, b_exponent=1.25)
        assert back.b_exponent == 1.25
        assert sample_model(back, seed=1).tobytes() == sample_model(model, seed=1).tobytes()

    def test_unknown_key_rejected(self):
        obj = {"family": "gaussian", "n": 5, "p": 3, "location": 5.0}
        with pytest.raises(ValueError, match='unknown key "location"'):
            model_from_json_dict(obj)

    def test_every_written_key_read(self):
        # Every key a model JSON may hold is read, for every family.
        objs = {
            "gaussian": {"mu": [0.0, 1.0, 2.0], "d": 3, "shape": {"kind": "identity"},
                         "entry_family": "bounded"},
            "sphere_elliptical": {"mixing": {"atoms": [{"value": 2.0, "weight": 1.0}]},
                                  "mixing_schedule": True},
            "gaussian_copula": {"shape": {"kind": "toeplitz", "r": 0.2}, "mu": -1.0},
            "lb_ball": {"b": 1.5},
            "bounded_iid": {"bound": 1.0},
        }
        kwargs = {
            "gaussian": {"location": np.arange(3.0), "entry_family": "bounded"},
            "sphere_elliptical": {"mixing": delta(2.0), "mixing_schedule": True},
            "gaussian_copula": {"shape": toeplitz_corr(3, 0.2), "location": -1.0},
            "lb_ball": {"b_exponent": 1.5},
            "bounded_iid": {"bound": 1.0},
        }
        keys = {key for obj in objs.values() for key in obj}
        records = samplers._FAMILIES.values()
        assert keys == {"d", "mu"}.union(*(record.keys for record in records))
        for family in FAMILIES:
            back = model_from_json_dict({"family": family, "n": 4, "p": 3, **objs[family]})
            model = PopulationModel(family=family, n=4, p=3, **kwargs[family])
            assert sample_model(back, seed=2).tobytes() == sample_model(model, seed=2).tobytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("p", float("inf"), '"p" must be an integer'),
            ("d", 3.0, '"d" must be an integer'),
            ("shape", {"kind": "toeplitz", "r": 0.5, "entries": []}, 'unknown key "entries"'),
            ("shape", {"kind": "dense"}, 'dense shape JSON needs "entries"'),
            ("b", True, 'model JSON "b" must be a number'),
            ("bound", "1", 'model JSON "bound" must be a number'),
            ("mu", [1, "2", 3], 'model JSON "mu" must be a number or an array of numbers'),
            ("mixing", None, 'model JSON "mixing" must be an object'),
            ("shape", {"kind": "toeplitz", "r": False}, '"r" must be a number'),
            # float() and open() would take these: a fd number opens a stream.
            ("shape", {"kind": "file", "path": 0}, 'file shape JSON "path" must be a string'),
        ],
    )
    def test_value_read_as_written(self, key, value, message):
        # Beside the CLI's cases (tests/test_cli.py): a value the model would
        # read differently from how it is written is rejected, on a family
        # that reads the key.
        family = {"b": "lb_ball", "bound": "bounded_iid", "mixing": "sphere_elliptical"}
        obj = {"family": family.get(key, "gaussian"), "n": 5, "p": 3, key: value}
        with pytest.raises(ValueError, match=message):
            model_from_json_dict(obj)

    def test_shape_kind_identity(self):
        model = model_from_json_dict(
            {"family": "gaussian", "n": 5, "p": 3, "shape": {"kind": "identity"}}
        )
        assert np.array_equal(model.shape, np.eye(3))

    def test_shape_kind_toeplitz(self):
        model = model_from_json_dict(
            {
                "family": "gaussian",
                "n": 5,
                "p": 3,
                "shape": {"kind": "toeplitz", "r": 0.5},
            }
        )
        assert np.allclose(model.shape, toeplitz_corr(3, 0.5))

    def test_shape_kind_file(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1,0.2\n0.2,1\n")
        model = model_from_json_dict(
            {
                "family": "gaussian",
                "n": 5,
                "p": 2,
                "shape": {"kind": "file", "path": str(path)},
            }
        )
        assert model.shape[0, 1] == 0.2

    def test_shape_kind_unknown(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            model_from_json_dict(
                {"family": "gaussian", "n": 5, "p": 2, "shape": {"kind": "sparse"}}
            )

    def test_missing_key(self):
        with pytest.raises(ValueError, match='"p"'):
            model_from_json_dict({"family": "gaussian", "n": 5})

    def test_load_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "bounded_iid", "n": 4, "p": 2, "bound": 0.5}))
        model = load_model_json(path)
        assert model.bound == 0.5

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid model JSON"):
            load_model_json(path)
