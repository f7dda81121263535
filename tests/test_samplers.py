"""Sampling families: determinism, geometry contracts, and moment oracles."""

import json

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.special import gammaincinv, ndtr, ndtri

from rmtlaw.linalg import matrix_sqrt_psd, sample_covariance, toeplitz_corr
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.samplers import (
    FAMILIES,
    PopulationModel,
    _RowStreams,
    _row_normals,
    _row_uniforms,
    load_model_json,
    model_from_json_dict,
    model_to_json_dict,
    rng_stream,
    sample_bounded_iid,
    sample_covariance_model,
    sample_gaussian,
    sample_gaussian_copula,
    sample_lb_ball,
    sample_model,
    sample_sphere,
    standard_normal,
    uniform_open,
)


class TestStreams:
    def test_same_seed_identical(self):
        a = sample_gaussian(5, np.eye(3), seed=42)
        b = sample_gaussian(5, np.eye(3), seed=42)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = sample_gaussian(5, np.eye(3), seed=42, replicate=0)
        b = sample_gaussian(5, np.eye(3), seed=42, replicate=1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = sample_gaussian(5, np.eye(3), seed=0)
        b = sample_gaussian(5, np.eye(3), seed=1)
        assert not np.array_equal(a, b)

    def test_row_prefix_stable(self):
        # Each row draws from its own stream, so shrinking n keeps a prefix.
        big = sample_gaussian(8, np.eye(4), seed=7)
        small = sample_gaussian(3, np.eye(4), seed=7)
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


def _lb_ball_reference(n, p, b, seed, replicate):
    """sample_lb_ball one row stream at a time, as it was first written."""
    out = np.empty((n, p))
    for i in range(n):
        u = uniform_open(rng_stream(seed, replicate, 0, i), 2 * p + 1)
        gamma_draws = gammaincinv(1.0 / b, u[:p])
        magnitudes = gamma_draws ** (1.0 / b)
        signs = np.where(u[p : 2 * p] < 0.5, -1.0, 1.0)
        w_exp = -np.log1p(-u[2 * p])
        denom = (np.sum(gamma_draws) + w_exp) ** (1.0 / b)
        out[i] = signs * magnitudes / denom
    return p ** (1.0 / b) * out


class TestRowStreams:
    """Row blocks are byte-identical to numpy's own per-row streams."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 3, 2**70 + 11])
    @pytest.mark.parametrize("replicate", [0, 3, 2**33])
    @pytest.mark.parametrize("kind", [0, 1])
    def test_rows_equal_per_row_streams(self, seed, replicate, kind):
        for cols in (1, 3, 4, 5, 401):
            U = uniform_open(_RowStreams(seed, replicate, kind), (4, cols))
            G = standard_normal(_RowStreams(seed, replicate, kind), (4, cols))
            for i in range(4):
                rng = rng_stream(seed, replicate, kind, i)
                assert U[i].tobytes() == uniform_open(rng, cols).tobytes()
                rng = rng_stream(seed, replicate, kind, i)
                assert G[i].tobytes() == standard_normal(rng, cols).tobytes()

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
            ref = uniform_open(rng_stream(seed, replicate, 0, i), cols)
            assert U[i].tobytes() == ref.tobytes()
            ref = standard_normal(rng_stream(seed, replicate, 0, i), cols)
            assert G[i].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("path", [(-1, 0, 0), (0, -1, 0)])
    def test_negative_entropy_raises_like_seed_sequence(self, path):
        seed, replicate, _ = path
        with pytest.raises(ValueError, match="non-negative") as expected:
            np.random.SeedSequence(seed, spawn_key=(replicate, 0, 0))
        with pytest.raises(ValueError, match=str(expected.value)):
            _row_uniforms(seed, replicate, 2, 3)

    def test_only_53_bit_integers(self):
        with pytest.raises(ValueError, match="53-bit"):
            _RowStreams(0, 0).integers(0, 10, (2, 2), np.uint64)

    @pytest.mark.parametrize("b", [1.0, 1.3, 2.0])
    @pytest.mark.parametrize("seed", [0, 2**70 + 11])
    def test_lb_ball_equals_per_row_reference(self, b, seed):
        for p in (1, 7, 120):
            got = sample_lb_ball(40, p, b, seed, replicate=3)
            assert got.tobytes() == _lb_ball_reference(40, p, b, seed, 3).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32 + 3])
    def test_bounded_iid_equals_per_row_reference(self, seed):
        got = sample_bounded_iid(30, 9, 1.5, seed, replicate=2)
        for i in range(30):
            u = uniform_open(rng_stream(seed, 2, 0, i), 9)
            assert got[i].tobytes() == (1.5 * (2.0 * u - 1.0)).tobytes()

    @pytest.mark.parametrize("p", [4, 37, 200])
    def test_identity_sigma_skips_root_exactly(self, p):
        # The identity shortcut returns what the root and GEMM returned.
        eye = np.eye(p)
        assert np.array_equal(matrix_sqrt_psd(eye), eye)
        G = _row_normals(5, 1, 30, p)
        expected = G @ matrix_sqrt_psd(eye)
        assert sample_gaussian(30, eye, 5, replicate=1).tobytes() == expected.tobytes()
        assert sample_covariance_model(30, eye, 5, replicate=1).tobytes() == expected.tobytes()


class TestRowBlocks:
    """The inverse-CDF maps run in row blocks on the pool; the bytes do not
    depend on RMT_THREADS, an uneven split included."""

    N, P = 301, 220  # N odd and not a multiple of 3: uneven blocks

    def test_lb_ball(self, monkeypatch):
        expected = _lb_ball_reference(self.N, self.P, 1.5, 11, 2).tobytes()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RMT_THREADS", threads)
            assert sample_lb_ball(self.N, self.P, 1.5, 11, replicate=2).tobytes() == expected

    def test_gaussian_and_copula(self, monkeypatch):
        rows = [standard_normal(rng_stream(11, 2, 0, i), self.P) for i in range(self.N)]
        gaussian = np.array(rows).tobytes()
        copula = np.array([np.clip(ndtr(g), 2.0**-55, 1.0 - 2.0**-53) - 0.5 for g in rows]).tobytes()
        eye = np.eye(self.P)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RMT_THREADS", threads)
            assert sample_gaussian(self.N, eye, 11, replicate=2).tobytes() == gaussian
            assert sample_gaussian_copula(self.N, eye, 11, replicate=2).tobytes() == copula


class TestGaussian:
    def test_covariance_oracle(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        Y = sample_gaussian(40000, sigma, seed=3)
        S = sample_covariance(Y)
        n = Y.shape[0]
        for i in range(2):
            for j in range(2):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / n)
                assert abs(S[i, j] - sigma[i, j]) < 5 * se

    def test_bounded_entries(self):
        Y = sample_covariance_model(1000, np.eye(3), seed=0, entry_family="bounded")
        assert np.all(np.abs(Y) <= np.sqrt(3.0) + 1e-12)
        assert abs(Y.var() - 1.0) < 0.05

    def test_bad_entry_family(self):
        with pytest.raises(ValueError, match="entry_family"):
            sample_covariance_model(5, np.eye(2), seed=0, entry_family="cauchy")


class TestSphere:
    def test_row_norm_exact(self):
        model = PopulationModel(family="sphere_elliptical", n=50, p=20)
        Y = sample_model(model, seed=5)
        norms = np.linalg.norm(Y, axis=1)
        assert np.allclose(norms, np.sqrt(20), atol=1e-12)

    def test_single_direction(self):
        v = sample_sphere(10, seed=2)
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(10), abs=1e-12)

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
        model = PopulationModel(
            family="sphere_elliptical", n=10, p=2, d=3, shape=gamma
        )
        Y = sample_model(model, seed=1)
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


class TestLbBall:
    def test_inside_ball(self):
        for b in (1.0, 1.5, 2.0):
            Y = sample_lb_ball(200, 6, b, seed=0)
            lb_norms = np.sum(np.abs(Y) ** b, axis=1) ** (1.0 / b)
            assert np.all(lb_norms < 6 ** (1.0 / b))

    def test_l2_radial_law(self):
        # Uniform in the unit l2 ball: P(||x|| <= t) = t^p; the scaled draw
        # has ||row||^2 = p r^2 with E = p^2/(p+2).
        p, n = 10, 3000
        Y = sample_lb_ball(n, p, 2.0, seed=1)
        sq = np.sum(Y**2, axis=1)
        mean_expected = p * p / (p + 2.0)
        assert abs(sq.mean() - mean_expected) < 5 * sq.std() / np.sqrt(n)
        frac = np.mean(sq <= p * 0.5 ** (2.0 / p))
        assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / n)

    def test_sign_symmetry(self):
        Y = sample_lb_ball(4000, 3, 1.0, seed=2)
        frac_neg = np.mean(Y < 0)
        assert abs(frac_neg - 0.5) < 5 * np.sqrt(0.25 / Y.size)

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match=r"b must be in \[1, 2\]"):
            sample_lb_ball(5, 3, 2.5, seed=0)


class TestBoundedIid:
    def test_within_bound(self):
        Y = sample_bounded_iid(100, 5, 0.25, seed=0)
        assert np.all(np.abs(Y) <= 0.25)

    def test_moments(self):
        Y = sample_bounded_iid(2000, 10, 2.0, seed=3)
        n = Y.size
        assert abs(Y.mean()) < 5 * np.sqrt(4.0 / 3 / n)
        assert abs(Y.var() - 4.0 / 3) < 0.05

    def test_zero_bound(self):
        assert np.array_equal(sample_bounded_iid(3, 2, 0.0, seed=0), np.zeros((3, 2)))


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

    def test_sigma_shape_checked(self):
        with pytest.raises(ValueError, match="Sigma"):
            PopulationModel(family="gaussian", n=5, p=3, shape=np.eye(2))

    def test_gamma_shape_checked(self):
        with pytest.raises(ValueError, match="Gamma"):
            PopulationModel(
                family="sphere_elliptical", n=5, p=3, d=4, shape=np.eye(3)
            )

    def test_gamma_required_when_d_differs(self):
        with pytest.raises(ValueError, match="Gamma is required"):
            PopulationModel(family="sphere_elliptical", n=5, p=3, d=4)

    def test_copula_diagonal_checked(self):
        R = np.eye(3)
        R[0, 0] = 2.0
        with pytest.raises(ValueError, match="unit diagonal"):
            PopulationModel(family="gaussian_copula", n=5, p=3, shape=R)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            PopulationModel(family="gaussian", n=0, p=3)


class TestModelJson:
    def test_round_trip_gaussian(self):
        model = PopulationModel(
            family="gaussian", n=10, p=3, shape=toeplitz_corr(3, 0.4), location=1.5
        )
        back = model_from_json_dict(model_to_json_dict(model))
        assert back.family == model.family
        assert back.n == model.n and back.p == model.p
        assert np.allclose(back.shape, model.shape)
        assert back.location == 1.5
        assert np.array_equal(sample_model(back, seed=0), sample_model(model, seed=0))

    def test_round_trip_elliptical(self):
        nu = DiscreteMeasure(np.array([0.5, 2.0]), np.array([0.3, 0.7]))
        model = PopulationModel(
            family="sphere_elliptical",
            n=8,
            p=3,
            d=5,
            shape=np.arange(15.0).reshape(5, 3),
            mixing=nu,
            mixing_schedule=True,
        )
        back = model_from_json_dict(model_to_json_dict(model))
        assert back.d == 5
        assert back.mixing_schedule is True
        assert np.allclose(back.mixing.values, nu.values)
        assert np.array_equal(sample_model(back, seed=3), sample_model(model, seed=3))

    def test_round_trip_lb_ball(self):
        model = PopulationModel(family="lb_ball", n=6, p=4, b_exponent=1.25)
        back = model_from_json_dict(model_to_json_dict(model))
        assert back.b_exponent == 1.25

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
