"""Simulate-solve-compare pipelines and the KS distance they report."""

import numpy as np
import pytest

from rmtlaw.experiments import (
    _ks_against_law,
    ComparisonResult,
    ExperimentSpec,
    comparison_to_json_dict,
    ks_distance,
    run_correlation_experiment,
    run_elliptical_experiment,
)
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import solve_edge
from rmtlaw.samplers import PopulationModel


class TestKsDistance:
    def test_quantile_sample_of_uniform(self):
        # Eigenvalues at the (i - 1/2)/N quantiles sit exactly 1/(2N) off.
        N = 50
        eigs = (np.arange(N) + 0.5) / N
        xs = np.linspace(0.0, 1.0, 2001)
        ks = ks_distance(eigs, xs, xs)
        assert ks == pytest.approx(1.0 / (2 * N), abs=1e-3)

    def test_single_point_vs_uniform(self):
        ks = ks_distance(np.array([0.5]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert ks == pytest.approx(0.5)

    def test_tied_eigenvalues_against_continuous_law(self):
        # ECDF jumps 0 -> 1 at the tie; sup deviation is max(F(t), 1 - F(t)).
        xs = np.linspace(0.0, 1.0, 101)
        eigs = np.full(8, 0.3)
        ks = ks_distance(eigs, xs, xs)
        assert ks == pytest.approx(0.7)

    def test_shifted_mass(self):
        # all empirical mass at the right end of a uniform law
        ks = ks_distance(np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert ks == pytest.approx(1.0)

    def test_grid_must_cover_spectrum(self):
        with pytest.raises(ValueError, match="does not cover"):
            ks_distance(np.array([2.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_cdf_must_be_monotone(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ks_distance(
                np.array([0.5]), np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.8, 0.5])
            )

    def test_xs_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ks_distance(np.array([0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_empty_eigs(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_distance(np.array([]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_range_zero_one(self):
        rng = np.random.Generator(np.random.Philox(0))
        xs = np.linspace(-1.0, 4.0, 300)
        cdf = np.clip(np.linspace(-0.1, 1.2, 300), 0.0, 1.0)
        for _ in range(10):
            eigs = rng.uniform(-1.0, 4.0, size=25)
            assert 0.0 <= ks_distance(eigs, xs, cdf) <= 1.0


class TestKsAgainstLaw:
    STATS = {"atom0_mass": 0.5, "v_eps": 0.01}

    def test_grid_starts_at_atom_cutoff(self):
        # cutoff 0.1; the first grid point above it is 0.2, one eigenvalue
        # lies between them and is compared with F rising from 0 at 0.1.
        xs = np.array([0.0, 0.2, 1.0])
        cdf = np.array([0.5, 0.5, 1.0])
        ks = _ks_against_law(np.array([0.0, 0.15, 0.6]), xs, cdf, self.STATS)
        assert ks == pytest.approx(0.5)

    def test_eigenvalues_at_atom_dropped(self):
        xs = np.array([0.0, 0.1, 1.0])
        cdf = np.array([0.5, 0.5, 1.0])
        eigs = np.array([0.0, 0.05, 0.55])
        assert _ks_against_law(eigs, xs, cdf, self.STATS) == pytest.approx(0.5)


class TestSpecValidation:
    def test_mp_needs_covariance_family(self):
        model = PopulationModel(family="sphere_elliptical", n=10, p=5)
        with pytest.raises(ValueError, match="law 'mp'"):
            ExperimentSpec(model=model, law="mp")

    def test_elliptical_needs_gram_family(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="law 'elliptical'"):
            ExperimentSpec(model=model, law="elliptical")

    def test_unknown_law(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="law must be"):
            ExperimentSpec(model=model, law="wigner")

    def test_grid_count_floor(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="grid_count"):
            ExperimentSpec(model=model, law="mp", grid_count=1)

    def test_replicates_floor(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="replicates"):
            ExperimentSpec(model=model, law="mp", replicates=0)

    def test_result_ks_range_checked(self):
        with pytest.raises(ValueError, match="ks_distance"):
            ComparisonResult(
                ks_distance=1.5,
                sample_count=10,
                support_empirical=(0.0, 1.0),
                support_theoretical=None,
            )


class TestCorrelationExperiment:
    def test_null_identity_close(self):
        model = PopulationModel(family="gaussian", n=300, p=150)
        spec = ExperimentSpec(model=model, law="mp", seed=0, grid_count=300)
        result = run_correlation_experiment(spec)
        assert result.ks_distance < 0.1
        assert result.sample_count == 150
        lo, hi = result.support_empirical
        assert lo <= hi
        assert result.support_theoretical is not None
        assert result.lemma5_stat is not None and result.lemma5_stat < 0.5

    def test_diagonal_rescaling_invariant(self):
        sigma = np.array(
            [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]
        )
        D = np.diag([0.2, 5.0, 1.7])
        rescaled = D @ sigma @ D
        base = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=40, p=3, shape=sigma),
            law="mp",
            seed=3,
            grid_count=100,
        )
        other = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=40, p=3, shape=rescaled),
            law="mp",
            seed=3,
            grid_count=100,
        )
        r1 = run_correlation_experiment(base)
        r2 = run_correlation_experiment(other)
        # equality up to the ulp-level rounding of corr_from_cov
        assert r1.ks_distance == pytest.approx(r2.ks_distance, rel=1e-12)
        assert r1.support_empirical == pytest.approx(r2.support_empirical, rel=1e-12)
        assert r1.lemma5_stat == pytest.approx(r2.lemma5_stat, rel=1e-12)

    def test_mean_shift_invariant(self):
        base = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=60, p=10),
            law="mp",
            seed=1,
            grid_count=100,
        )
        shifted = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=60, p=10, location=5.0),
            law="mp",
            seed=1,
            grid_count=100,
        )
        r1 = run_correlation_experiment(base)
        r2 = run_correlation_experiment(shifted)
        assert r1.ks_distance == r2.ks_distance

    def test_edge_prediction(self):
        model = PopulationModel(family="gaussian", n=300, p=150)
        spec = ExperimentSpec(
            model=model, law="mp", seed=0, check_edge=True, grid_count=300
        )
        result = run_correlation_experiment(spec)
        expected = solve_edge(delta(1.0), 2.0).mu
        assert result.mu_prediction == pytest.approx(expected, rel=1e-10)
        assert abs(result.largest_eigenvalue - expected) / expected < 0.15

    def test_replicates_average(self):
        model = PopulationModel(family="gaussian", n=100, p=50)
        spec = ExperimentSpec(
            model=model, law="mp", seed=0, replicates=3, grid_count=150
        )
        result = run_correlation_experiment(spec)
        ks_values = result.details["ks_values"]
        assert len(ks_values) == 3
        assert result.ks_distance == pytest.approx(np.mean(ks_values))
        assert len(result.details["lemma5_stats"]) == 3

    def test_h_override_matches_identity_default(self):
        model = PopulationModel(family="gaussian", n=100, p=50)
        plain = ExperimentSpec(model=model, law="mp", seed=0, grid_count=150)
        forced = ExperimentSpec(
            model=model, law="mp", seed=0, grid_count=150, h_override=delta(1.0)
        )
        r1 = run_correlation_experiment(plain)
        r2 = run_correlation_experiment(forced)
        assert r1.ks_distance == pytest.approx(r2.ks_distance, rel=1e-12)

    def test_convergence_direction(self):
        # KS shrinks (on average over seeds) as the dimensions double.
        def mean_ks(n, p):
            values = []
            for seed in range(5):
                spec = ExperimentSpec(
                    model=PopulationModel(family="gaussian", n=n, p=p),
                    law="mp",
                    seed=seed,
                    grid_count=150,
                )
                values.append(run_correlation_experiment(spec).ks_distance)
            return float(np.mean(values))

        assert mean_ks(320, 160) <= mean_ks(80, 40) + 0.02

    def test_law_routing_enforced(self):
        model = PopulationModel(family="sphere_elliptical", n=20, p=10)
        spec = ExperimentSpec(model=model, law="elliptical", grid_count=50)
        with pytest.raises(ValueError, match='law "mp"'):
            run_correlation_experiment(spec)


class TestEllipticalExperiment:
    def test_sphere_null_close(self):
        model = PopulationModel(family="sphere_elliptical", n=300, p=150)
        spec = ExperimentSpec(model=model, law="elliptical", seed=0, grid_count=300)
        result = run_elliptical_experiment(spec)
        assert result.ks_distance < 0.1
        assert result.details["theta"] == pytest.approx(1.0)
        assert result.details["rho"] == pytest.approx(0.5)
        assert result.details["xi"] == pytest.approx(0.5)

    def test_copula_family(self):
        model = PopulationModel(family="gaussian_copula", n=300, p=100)
        spec = ExperimentSpec(model=model, law="elliptical", seed=0, grid_count=300)
        result = run_elliptical_experiment(spec)
        assert result.ks_distance < 0.12
        assert result.sample_count == 100

    def test_projected_gram_dimensions(self):
        rng = np.random.Generator(np.random.Philox(5))
        gamma = rng.normal(size=(30, 20)) / np.sqrt(20)
        model = PopulationModel(
            family="sphere_elliptical", n=120, p=20, d=30, shape=gamma
        )
        spec = ExperimentSpec(model=model, law="elliptical", seed=0, grid_count=200)
        result = run_elliptical_experiment(spec)
        # B is d x d, so the compared spectrum has d eigenvalues
        assert result.sample_count == 30
        assert result.details["theta"] == pytest.approx(1.5)

    def test_law_routing_enforced(self):
        model = PopulationModel(family="gaussian", n=20, p=10)
        spec = ExperimentSpec(model=model, law="mp", grid_count=50)
        with pytest.raises(ValueError, match='law "elliptical"'):
            run_elliptical_experiment(spec)

    def test_eigenvalue_below_first_grid_point_above_atom_cutoff(self):
        # rho = 1.5 puts an atom at 0; the cutoff is 10 * v_eps = 0.03 and
        # the first grid point above it 0.04167, while replicate 0 has an
        # eigenvalue at 0.03108 between the two.
        mixing = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        model = PopulationModel(family="sphere_elliptical", n=40, p=60, mixing=mixing)
        spec = ExperimentSpec(
            model=model, law="elliptical", grid_count=200, replicates=2, seed=4
        )
        result = run_elliptical_experiment(spec)
        assert result.details["v_eps"] == 0.003
        assert result.details["ks_values"] == pytest.approx(
            [0.10854236515179702, 0.12380467518429569], abs=1e-12
        )


class TestComparisonJson:
    def test_keys_and_values(self):
        result = ComparisonResult(
            ks_distance=0.1,
            sample_count=5,
            support_empirical=(0.2, 2.0),
            support_theoretical=(0.1, 2.2),
            largest_eigenvalue=2.0,
            mu_prediction=2.1,
            lemma5_stat=0.05,
            details={"rho": 0.5},
        )
        out = comparison_to_json_dict(result)
        assert out["ks_distance"] == 0.1
        assert out["support_empirical"] == [0.2, 2.0]
        assert out["support_theoretical"] == [0.1, 2.2]
        assert out["details"]["rho"] == 0.5

    def test_none_support(self):
        result = ComparisonResult(
            ks_distance=0.1,
            sample_count=5,
            support_empirical=(0.0, 1.0),
            support_theoretical=None,
        )
        assert comparison_to_json_dict(result)["support_theoretical"] is None
