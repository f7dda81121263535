"""Simulate-solve-compare pipelines and the KS distance they report."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from rmtlaw._serialize import json_dumps
from rmtlaw.experiments import (
    _ks_against_law,
    ComparisonResult,
    ExperimentSpec,
    ks_distance,
    run_experiment,
)
from rmtlaw.elliptical_solver import scaled_gram
from rmtlaw.linalg import sym_eigenvalues
from rmtlaw.measures import DiscreteMeasure, delta
from rmtlaw.mp_solver import GRID_PAD, SUPPORT_THRESHOLD_V_EPS, solve_edge
from rmtlaw.samplers import PopulationModel, sample_model


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

    @pytest.mark.parametrize("name", ["eigs", "xs", "cdf"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_non_finite_rejected(self, name, index):
        # A nan in the CDF made the KS nan; a nan at the first grid point was skipped.
        arrays = {"eigs": [0.2, 0.5], "xs": [0.0, 0.5, 1.0], "cdf": [0.0, 0.5, 1.0]}
        arrays[name][index] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ks_distance(*(np.array(arrays[k]) for k in ("eigs", "xs", "cdf")))

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
        # lb_ball rows have no covariance or Gram law to compare with.
        model = PopulationModel(family="lb_ball", n=10, p=5, b_exponent=1.5)
        with pytest.raises(ValueError, match="no limit law for family 'lb_ball'"):
            ExperimentSpec(model=model)

    def test_elliptical_needs_gram_family(self):
        model = PopulationModel(family="bounded_iid", n=10, p=5, bound=1.0)
        with pytest.raises(ValueError, match="no limit law for family 'bounded_iid'"):
            ExperimentSpec(model=model)

    def test_unknown_law(self):
        # The family picks the law; there is no law to set.
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(TypeError, match="law"):
            ExperimentSpec(model=model, law="mp")

    @pytest.mark.parametrize("family", ["sphere_elliptical", "gaussian_copula"])
    def test_edge_needs_covariance_family(self, family):
        # The elliptical law has no edge prediction: check_edge would be ignored.
        model = PopulationModel(family=family, n=10, p=5)
        with pytest.raises(ValueError, match=f"family '{family}' does not read check_edge"):
            ExperimentSpec(model=model, check_edge=True)

    def test_grid_count_floor(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="grid_count"):
            ExperimentSpec(model=model, grid_count=1)

    def test_replicates_floor(self):
        model = PopulationModel(family="gaussian", n=10, p=5)
        with pytest.raises(ValueError, match="replicates"):
            ExperimentSpec(model=model, replicates=0)

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
        spec = ExperimentSpec(model=model, seed=0, grid_count=300)
        result = run_experiment(spec)
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
            seed=3,
            grid_count=100,
        )
        other = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=40, p=3, shape=rescaled),
            seed=3,
            grid_count=100,
        )
        r1 = run_experiment(base)
        r2 = run_experiment(other)
        # equality up to the ulp-level rounding of corr_from_cov
        assert r1.ks_distance == pytest.approx(r2.ks_distance, rel=1e-12)
        assert r1.support_empirical == pytest.approx(r2.support_empirical, rel=1e-12)
        assert r1.lemma5_stat == pytest.approx(r2.lemma5_stat, rel=1e-12)

    def test_mean_shift_invariant(self):
        # Centering cancels the shift mu exactly, but Y + mu rounds, so the KS
        # agrees only up to a bound of order eps * |mu|. fl(Y + mu) moves an
        # entry by at most eps/2 * (|mu| + max|Y|), and the column mean carries
        # that and its summation error, so a centered entry moves by delta <=
        # 8 eps (|mu| + max|Y|). A sample correlation is the cosine of two
        # centered columns of sample sd at least s, so it moves by at most
        # 4 delta / s, and by Weyl an eigenvalue by eta <= p * 4 delta / s. The
        # grid ends a pad above the largest eigenvalue, so it moves by eta too.
        # The KS is a maximum of CDF values at eigenvalues and of ECDF values
        # at grid points; the CDF's slope is below 1 (the law is MP at rho =
        # 1/6, whose density peaks at 0.94), so unless an eigenvalue crosses a
        # grid point the KS moves by at most 2 eta.
        n, p, mu = 60, 10, 5.0
        base = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=n, p=p),
            seed=1,
            grid_count=100,
        )
        shifted = ExperimentSpec(
            model=PopulationModel(family="gaussian", n=n, p=p, location=mu),
            seed=1,
            grid_count=100,
        )
        r1 = run_experiment(base)
        r2 = run_experiment(shifted)
        Y = sample_model(base.model, 1)
        y_max, s_min = 4.0, 0.7
        assert np.abs(Y).max() < y_max and Y.std(axis=0).min() > s_min
        delta = 8 * np.finfo(np.float64).eps * (mu + y_max)
        eta = p * 4 * delta / s_min
        assert abs(r1.ks_distance - r2.ks_distance) <= 2 * eta

    def test_edge_prediction(self):
        model = PopulationModel(family="gaussian", n=300, p=150)
        spec = ExperimentSpec(
            model=model, seed=0, check_edge=True, grid_count=300
        )
        result = run_experiment(spec)
        expected = solve_edge(delta(1.0), 2.0).mu
        assert result.mu_prediction == pytest.approx(expected, rel=1e-10)
        assert abs(result.largest_eigenvalue - expected) / expected < 0.15

    def test_edge_prediction_with_atom_at_zero(self):
        # solve_edge takes an atom at 0 when H has mass on (0, inf).
        H = DiscreteMeasure(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        model = PopulationModel(family="gaussian", n=400, p=200)
        spec = ExperimentSpec(model=model, check_edge=True, h_override=H)
        assert run_experiment(spec).mu_prediction == pytest.approx(4.5, rel=1e-10)

    def test_edge_prediction_needs_mass_off_zero(self):
        model = PopulationModel(family="gaussian", n=40, p=20)
        spec = ExperimentSpec(model=model, check_edge=True, h_override=delta(0.0))
        with pytest.raises(ValueError, match=r"mass on \(0, inf\)"):
            run_experiment(spec)

    def test_replicates_average(self):
        model = PopulationModel(family="gaussian", n=100, p=50)
        spec = ExperimentSpec(
            model=model, seed=0, replicates=3, grid_count=150
        )
        result = run_experiment(spec)
        ks_values = result.details["ks_values"]
        assert len(ks_values) == 3
        assert result.ks_distance == pytest.approx(np.mean(ks_values))
        assert len(result.details["lemma5_stats"]) == 3

    def test_h_override_matches_identity_default(self):
        model = PopulationModel(family="gaussian", n=100, p=50)
        plain = ExperimentSpec(model=model, seed=0, grid_count=150)
        forced = ExperimentSpec(
            model=model, seed=0, grid_count=150, h_override=delta(1.0)
        )
        r1 = run_experiment(plain)
        r2 = run_experiment(forced)
        assert r1.ks_distance == pytest.approx(r2.ks_distance, rel=1e-12)

    def test_convergence_direction(self):
        # KS shrinks (on average over seeds) as the dimensions double.
        def mean_ks(n, p):
            values = []
            for seed in range(5):
                spec = ExperimentSpec(
                    model=PopulationModel(family="gaussian", n=n, p=p),
                    seed=seed,
                    grid_count=150,
                )
                values.append(run_experiment(spec).ks_distance)
            return float(np.mean(values))

        assert mean_ks(320, 160) <= mean_ks(80, 40) + 0.02

    def test_law_routing_enforced(self):
        # A gaussian model is compared with the covariance law, which
        # reports Lemma 5's statistic and no elliptical parameters.
        model = PopulationModel(family="gaussian", n=20, p=10)
        result = run_experiment(ExperimentSpec(model=model, grid_count=50))
        assert result.lemma5_stat is not None
        assert result.details["rho"] == 0.5
        assert "theta" not in result.details and "xi" not in result.details


class TestEllipticalExperiment:
    def test_sphere_null_close(self):
        model = PopulationModel(family="sphere_elliptical", n=300, p=150)
        spec = ExperimentSpec(model=model, seed=0, grid_count=300)
        result = run_experiment(spec)
        assert result.ks_distance < 0.1
        assert result.details["theta"] == pytest.approx(1.0)
        assert result.details["rho"] == pytest.approx(0.5)
        assert result.details["xi"] == pytest.approx(0.5)

    def test_copula_family(self):
        model = PopulationModel(family="gaussian_copula", n=300, p=100)
        spec = ExperimentSpec(model=model, seed=0, grid_count=300)
        result = run_experiment(spec)
        assert result.ks_distance < 0.12
        assert result.sample_count == 100

    def test_projected_gram_dimensions(self):
        rng = np.random.Generator(np.random.Philox(5))
        gamma = rng.normal(size=(30, 20)) / np.sqrt(20)
        model = PopulationModel(family="sphere_elliptical", n=120, p=20, shape=gamma)
        spec = ExperimentSpec(model=model, seed=0, grid_count=200)
        result = run_experiment(spec)
        # B is d x d, so the compared spectrum has d eigenvalues
        assert result.sample_count == 30
        assert result.details["theta"] == pytest.approx(1.5)

    def test_law_routing_enforced(self):
        # Both Gram families are compared with the elliptical law, which
        # reports theta, rho and xi and no Lemma 5 statistic.
        for family in ("sphere_elliptical", "gaussian_copula"):
            model = PopulationModel(family=family, n=20, p=10)
            result = run_experiment(ExperimentSpec(model=model, grid_count=50))
            assert result.lemma5_stat is None
            assert result.details["theta"] == 1.0
            assert result.details["xi"] == 0.5

    def test_h_override_replaces_population_spectrum(self):
        model = PopulationModel(family="sphere_elliptical", n=200, p=100)
        plain = run_experiment(ExperimentSpec(model=model, grid_count=200))
        same = run_experiment(
            ExperimentSpec(model=model, grid_count=200, h_override=delta(1.0))
        )
        scaled = run_experiment(
            ExperimentSpec(model=model, grid_count=200, h_override=delta(4.0))
        )
        assert same.ks_distance == pytest.approx(plain.ks_distance, rel=1e-12)
        # The data keep H = delta(1), so a law four times wider misses them.
        assert scaled.ks_distance > 0.3

    def test_eigenvalue_below_first_grid_point_above_atom_cutoff(self):
        # rho = 1.5 puts an atom at 0; the cutoff is 10 * v_eps = 0.03 and
        # the first grid point above it 0.03967, while replicate 1 has
        # eigenvalues at 0.03384 and 0.03444 between the two.
        mixing = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        model = PopulationModel(family="sphere_elliptical", n=40, p=60, mixing=mixing)
        spec = ExperimentSpec(model=model, grid_count=200, replicates=2, seed=4)
        result = run_experiment(spec)
        assert result.details["v_eps"] == 0.003
        # The case itself, rebuilt as run_experiment builds it, so that new
        # draws cannot drop it silently.
        eigs = [
            sym_eigenvalues(scaled_gram(sample_model(model, 4, replicate), model.p))
            for replicate in range(2)
        ]
        lo, top = min(0.0, eigs[0][0], eigs[1][0]), max(eigs[0][-1], eigs[1][-1])
        xs = np.linspace(lo, top + GRID_PAD, 200)
        cutoff = SUPPORT_THRESHOLD_V_EPS * 0.003
        first = xs[xs > cutoff][0]
        assert np.any((eigs[1] > cutoff) & (eigs[1] < first))
        assert result.details["ks_values"] == pytest.approx(
            [0.1404910904956055, 0.11698918061599134], abs=1e-12
        )


class TestComparisonJson:
    def test_keys_and_values(self):
        # json_dumps writes each support pair as an array.
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
        assert json.loads(json_dumps(asdict(result))) == {
            "ks_distance": 0.1,
            "sample_count": 5,
            "support_empirical": [0.2, 2.0],
            "support_theoretical": [0.1, 2.2],
            "largest_eigenvalue": 2.0,
            "mu_prediction": 2.1,
            "lemma5_stat": 0.05,
            "details": {"rho": 0.5},
        }

    def test_none_support(self):
        # A missing theoretical support is written as null.
        result = ComparisonResult(
            ks_distance=0.1,
            sample_count=5,
            support_empirical=(0.0, 1.0),
            support_theoretical=None,
        )
        out = json.loads(json_dumps(asdict(result)))
        assert out["support_theoretical"] is None
        assert out["support_empirical"] == [0.0, 1.0]
