"""Concentration statistics, diagnostics, and the verify suites."""

import numpy as np
import pytest

from rmtlaw import cli
from rmtlaw.concentration import (
    _EXACT_ZERO,
    ConcentrationReport,
    angle_diagnostic,
    azuma_bound,
    copula_norm_bound,
    empirical_stieltjes,
    norm_diagnostic,
    parallel_map,
    population_covariance,
    quadratic_form_deviation,
    stieltjes_concentration_mc,
    tightness_check,
    verify_copula,
    verify_lemma6,
    verify_quadform,
    verify_tightness,
)
from rmtlaw.linalg import copula_cov, operator_norm, toeplitz_corr
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.samplers import FAMILIES, PopulationModel, sample_model


class TestEmpiricalStieltjes:
    def test_single_zero_eigenvalue(self):
        # 1/(0 - i) = i
        assert empirical_stieltjes(np.array([0.0]), 1.0j) == pytest.approx(1.0j)

    def test_two_eigenvalues_hand_value(self):
        # (1/(1-(2+i)) + 1/(3-(2+i)))/2 = ((-1+i)/2 + (1+i)/2)/2 = i/2
        val = empirical_stieltjes(np.array([1.0, 3.0]), 2.0 + 1.0j)
        assert val == pytest.approx(0.5j, abs=1e-15)

    def test_maps_upper_to_upper(self):
        rng = np.random.Generator(np.random.Philox(0))
        eigs = rng.uniform(0, 10, size=30)
        for z in (1.0j, -3.0 + 0.01j, 5.0 + 2.0j):
            assert empirical_stieltjes(eigs, z).imag > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            empirical_stieltjes(np.array([]), 1.0j)

    def test_rejects_real_z(self):
        with pytest.raises(ValueError, match="imaginary"):
            empirical_stieltjes(np.array([1.0]), 1.0)


class TestAzumaBound:
    def test_frozen_value(self):
        # exponent r^2 p^2 v^2/(16 n) = 1/16 at r=1, p=2, n=4, v=1
        assert azuma_bound(1.0, 2, 4, 1.0) == pytest.approx(
            3.7576522512539032, abs=1e-15
        )

    def test_decreasing_in_r(self):
        bounds = [azuma_bound(r, 10, 100, 0.5) for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_vanishes_at_large_r(self):
        assert azuma_bound(1e3, 10, 100, 0.5) < 1e-300

    def test_doubling_p_ratio(self):
        # exponent scales as p^2: doubling p cubes the decay factor again
        r, p, n, v = 1.0, 5, 50, 0.5
        b1 = azuma_bound(r, p, n, v)
        b2 = azuma_bound(r, 2 * p, n, v)
        expected = b1 * np.exp(-3 * r**2 * p**2 * v**2 / (16 * n))
        assert b2 == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            azuma_bound(0.0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            azuma_bound(1.0, 0, 1, 1.0)


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(lambda i: i * i, list(range(20)))
        assert out == [i * i for i in range(20)]

    def test_empty(self):
        assert parallel_map(lambda i: i, []) == []

    def test_thread_count_invariance(self):
        # A rerun of both replicate maps gives the same values; the copula
        # rows run ndtri and ndtr.
        gaussian = PopulationModel(family="gaussian", n=15, p=10)
        copula = PopulationModel(family="gaussian_copula", n=40, p=10, shape=toeplitz_corr(10, 0.4))
        runs = []
        for _ in range(2):
            mc = stieltjes_concentration_mc(gaussian, 1.0j, 50, seed=0)
            quad = quadratic_form_deviation(copula, np.eye(10), reps=5, seed=0)
            runs.append(
                (mc.details["frequencies"], mc.details["std"], quad.details["per_replicate"])
            )
        assert runs[0] == runs[1]


class TestReport:
    def test_json_dict(self, monkeypatch, capsys):
        # verify prints a report as its fields and the suite's verdict.
        report = ConcentrationReport(statistic="x", dims=[5], reps=2, seed=3)
        monkeypatch.setattr(cli, "verify_tightness", lambda seed: (report, True))
        assert cli.main(["verify", "--suite", "tightness"]) == 0
        assert capsys.readouterr().out == (
            '{"details": {}, "dims": [5], "ok": true, "reps": 2, "seed": 3, "statistic": "x"}\n'
        )


class TestStieltjesMc:
    def test_small_run_contract(self):
        model = PopulationModel(family="gaussian", n=20, p=20)
        report = stieltjes_concentration_mc(model, 1.0j, 50, seed=1)
        assert report.dims == [20]
        assert len(report.details["thresholds"]) == 4
        assert all(0.0 <= f <= 1.0 for f in report.details["frequencies"])
        assert all(b <= 1.0 for b in report.details["bounds"])
        assert report.details["max_deviation"] >= report.details["mean_deviation"]

    def test_reps_floor(self):
        model = PopulationModel(family="gaussian", n=5, p=5)
        with pytest.raises(ValueError, match="reps"):
            stieltjes_concentration_mc(model, 1.0j, 10, seed=0)

    def test_z_validated(self):
        model = PopulationModel(family="gaussian", n=5, p=5)
        with pytest.raises(ValueError, match="imaginary"):
            stieltjes_concentration_mc(model, 1.0, 50, seed=0)


class TestPopulationCovariance:
    def test_gaussian(self):
        sigma = toeplitz_corr(3, 0.5)
        model = PopulationModel(family="gaussian", n=5, p=3, shape=sigma)
        assert np.allclose(population_covariance(model), sigma)

    def test_sphere_second_moment(self):
        nu = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        model = PopulationModel(family="sphere_elliptical", n=5, p=3, mixing=nu)
        # E lam^2 = (1 + 9)/2 = 5 with Gamma = Id
        assert np.allclose(population_covariance(model), 5.0 * np.eye(3))

    def test_copula(self):
        R = toeplitz_corr(3, 0.4)
        model = PopulationModel(family="gaussian_copula", n=5, p=3, shape=R)
        assert np.allclose(population_covariance(model), copula_cov(R))

    def test_bounded_iid_variance(self):
        model = PopulationModel(family="bounded_iid", n=5, p=3, bound=0.6)
        assert np.allclose(population_covariance(model), 0.12 * np.eye(3))

    def test_lb_ball_closed_forms(self):
        # Two results free of the Gamma formula: at p = 1 the ball is
        # [-1, 1], whose uniform law has variance 1/3 for every b; at b = 2
        # the ball is Euclidean of radius sqrt(p), so E x_1^2 = p/(p + 2).
        for b in (1.0, 1.25, 1.5, 1.75, 2.0):
            segment = PopulationModel(family="lb_ball", n=5, p=1, b_exponent=b)
            assert population_covariance(segment)[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        for p in (1, 3, 50, 1000):
            ball = PopulationModel(family="lb_ball", n=5, p=p, b_exponent=2.0)
            sigma = population_covariance(ball)
            assert np.all(np.diag(sigma) == pytest.approx(p / (p + 2.0), rel=1e-13))
            assert np.count_nonzero(sigma - np.diag(np.diag(sigma))) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_monte_carlo(self, family):
        # The record's covariance against the mean of r r' over n = 2000
        # centred rows, entry by entry within 4 Monte Carlo standard errors.
        p = 12
        gamma = np.random.default_rng(3).normal(size=(15, p)) / np.sqrt(p)
        nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.4, 0.6]))
        kwargs = {
            "gaussian": {"shape": toeplitz_corr(p, 0.5), "entry_family": "bounded"},
            "sphere_elliptical": {"shape": gamma, "mixing": nu},
            "gaussian_copula": {"shape": toeplitz_corr(p, 0.6)},
            "lb_ball": {"b_exponent": 1.25},
            "bounded_iid": {"bound": 0.7},
        }[family]
        model = PopulationModel(family=family, n=2000, p=p, location=0.5, **kwargs)
        X = sample_model(model, seed=11) - 0.5
        emp = X.T @ X / model.n
        second = (X**2).T @ (X**2) / model.n
        ses = np.sqrt((second - emp**2) / model.n)
        assert np.all(np.abs(emp - population_covariance(model)) <= 4.0 * ses)


class TestQuadraticForm:
    def test_sphere_identity_exact_zero(self):
        model = PopulationModel(
            family="sphere_elliptical", n=20, p=30, mixing=delta(1.0)
        )
        report = quadratic_form_deviation(model, np.eye(30), reps=3, seed=0)
        assert report.details["max_max_deviation"] <= 1e-13

    def test_zero_matrix(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        report = quadratic_form_deviation(model, np.zeros((5, 5)), reps=2, seed=0)
        assert report.details["max_max_deviation"] == 0.0

    def test_gaussian_decays_with_p(self):
        means = []
        for p in (100, 400):
            model = PopulationModel(family="gaussian", n=p, p=p)
            report = quadratic_form_deviation(model, np.eye(p), reps=5, seed=0)
            means.append(report.details["mean_max_deviation"])
        assert means[1] < means[0]

    def test_shape_mismatch(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="M must be"):
            quadratic_form_deviation(model, np.eye(4), reps=1, seed=0)

    def test_matches_three_operand_einsum(self):
        # Y @ M runs through BLAS, so it agrees with the 3-operand einsum
        # to rounding, not bit for bit.
        p = 20
        model = PopulationModel(family="gaussian", n=30, p=p, shape=toeplitz_corr(p, 0.4))
        A = np.random.default_rng(5).standard_normal((p, p))
        M = (A + A.T) / 2.0
        report = quadratic_form_deviation(model, M, reps=3, seed=2)
        target = np.trace(M @ model.shape) / p
        expected = []
        for replicate in range(3):
            Y = sample_model(model, 2, replicate)
            quad = np.einsum("ij,jk,ik->i", Y, M, Y) / p
            expected.append(np.max(np.abs(quad - target)))
        np.testing.assert_allclose(report.details["per_replicate"], expected, rtol=1e-12)

    def test_location_centering(self):
        # A known mean shift must not change the centered statistic.
        base = PopulationModel(family="gaussian", n=10, p=5)
        shifted = PopulationModel(family="gaussian", n=10, p=5, location=7.0)
        r1 = quadratic_form_deviation(base, np.eye(5), reps=2, seed=0)
        r2 = quadratic_form_deviation(shifted, np.eye(5), reps=2, seed=0)
        assert r1.details["per_replicate"] == pytest.approx(
            r2.details["per_replicate"], abs=1e-10
        )


class TestNormDiagnostic:
    def test_sphere_rows_exact(self):
        from rmtlaw.samplers import sample_model

        model = PopulationModel(family="sphere_elliptical", n=8, p=12)
        Y = sample_model(model, seed=0)
        values, max_dev = norm_diagnostic(Y, 1.0)
        assert np.allclose(values, 1.0, atol=1e-13)
        assert max_dev <= 1e-13

    def test_zero_matrix(self):
        values, max_dev = norm_diagnostic(np.zeros((3, 4)), 0.0)
        assert np.array_equal(values, np.zeros(3))
        assert max_dev == 0.0

    def test_centering_removes_shift(self):
        rng = np.random.Generator(np.random.Philox(1))
        Y = rng.normal(size=(50, 10))
        shifted = Y + 100.0
        _, dev_raw = norm_diagnostic(shifted, 1.0)
        _, dev_centered = norm_diagnostic(shifted, 1.0, center=True)
        assert dev_centered < dev_raw

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            norm_diagnostic(np.zeros(3), 1.0)


class TestAngleDiagnostic:
    def test_orthogonal_rows(self):
        max_angle, counts = angle_diagnostic(np.eye(4))
        assert max_angle == 0.0
        assert counts.sum() == 6  # C(4, 2) pairs
        assert counts[0] == 6

    def test_identical_rows(self):
        Y = np.ones((2, 10))
        max_angle, counts = angle_diagnostic(Y)
        assert max_angle == pytest.approx(1.0)
        assert counts[-1] == 1

    def test_overflow_clipped_to_top_bin(self):
        Y = 3.0 * np.ones((2, 10))
        max_angle, counts = angle_diagnostic(Y)
        assert max_angle == pytest.approx(9.0)
        assert counts.sum() == 1
        assert counts[-1] == 1

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two rows"):
            angle_diagnostic(np.ones((1, 5)))


class TestCopulaCov:
    def test_identity_diagonal_exact(self):
        C = copula_cov(np.eye(4))
        assert np.all(np.diag(C) == 1.0 / 12.0)
        assert np.all(C[~np.eye(4, dtype=bool)] == 0.0)

    def test_half_entry(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        C = copula_cov(R)
        assert C[0, 1] == pytest.approx(np.arcsin(0.25) / (2 * np.pi), abs=1e-15)

    def test_unit_diagonal_required(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            copula_cov(2.0 * np.eye(2))

    def test_entry_range_checked(self):
        R = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            copula_cov(R)

    def test_norm_bound_frozen_identity(self):
        assert copula_norm_bound(np.eye(3)) == pytest.approx(
            0.0946009186954903, abs=1e-15
        )

    def test_norm_bound_dominates(self):
        for r in (0.0, 0.3, 0.8):
            R = toeplitz_corr(6, r)
            assert copula_norm_bound(R) >= operator_norm(copula_cov(R))


class TestTightness:
    def test_null_passes(self):
        eigs = np.array([0.5, 1.0, 1.5])
        assert tightness_check(eigs, 1.0, 0.0) is True

    def test_heavy_tail_fails(self):
        eigs = np.full(10, 1e4)
        assert tightness_check(eigs, 1.0, 0.0) is False

    def test_margin_loosens(self):
        # exactly one of 10 eigenvalues at the cutoff: fraction 0.1
        eigs = np.concatenate([np.zeros(9), [20.0]])
        assert tightness_check(eigs, 1.0, 0.0) is True
        eigs = np.concatenate([np.zeros(7), np.full(3, 20.0)])
        assert tightness_check(eigs, 1.0, 0.0) is False
        assert tightness_check(eigs, 1.0, 4.0) is True

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="-1e-10"):
            tightness_check(np.array([-1.0]), 1.0, 0.0)


class TestVerifySuites:
    def test_lemma6_small_ladder(self):
        report, ok = verify_lemma6(reps=50, seed=0, dims=(20, 40))
        assert report.dims == [20, 40]
        assert len(report.details["stds"]) == 2
        assert isinstance(ok, bool)
        assert report.details["sd_strictly_decreasing"] == (
            report.details["stds"][1] < report.details["stds"][0]
        )

    def test_quadform_small_ladder(self):
        report, ok = verify_quadform(reps=5, seed=0, dims=(50, 100))
        assert ok
        assert report.details["sphere_exactly_zero"]
        assert max(report.details["mean_max_deviation"]["sphere"]) <= _EXACT_ZERO

    def test_quadform_small_ladder_pinned(self):
        # Values of r'r computed as einsum("ij,ij->i", Y @ M, Y) with M = I.
        report, _ = verify_quadform(reps=5, seed=0, dims=(50, 100))
        assert report.details["mean_max_deviation"] == {
            "gaussian": [0.47839661203709677, 0.40277347065064867],
            "sphere": [4.2188474935755947e-16, 7.105427357601002e-16],
            "copula": [0.024403406064235668, 0.019806166353246366],
        }

    def test_copula_reduced(self):
        report, ok = verify_copula(seed=0, trials=20, p=20, mc_samples=20000)
        assert ok
        assert report.details["diagonal_exact"]
        assert report.details["min_bound_gap"] >= 0

    def test_tightness(self):
        report, ok = verify_tightness(seed=0, p=100)
        assert ok
        assert report.details["null_passes"]
        assert report.details["adversarial_flagged"]

    @pytest.mark.parametrize(
        "suite, kwargs, message",
        [
            (verify_lemma6, {"dims": ()}, "dims must be nonempty"),
            (verify_quadform, {"dims": ()}, "dims must be nonempty"),
            (verify_copula, {"trials": 0}, "trials must be >= 1"),
        ],
    )
    def test_empty_sizes_rejected(self, suite, kwargs, message):
        with pytest.raises(ValueError, match=message):
            suite(**kwargs)
