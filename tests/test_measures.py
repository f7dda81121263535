"""Discrete spectral measures: construction, integration, CDF, JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlaw._serialize import json_dumps
from rmtlaw.measures import (
    DiscreteMeasure,
    delta,
    load_measure_json,
    measure_from_eigenvalues,
    measure_from_json_dict,
)


class TestConstruction:
    def test_basic(self):
        m = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
        assert m.n_atoms == 2
        assert m.support_min == 1.0
        assert m.support_max == 2.0
        assert m.mean == pytest.approx(1.75)

    def test_delta(self):
        m = delta(3.5)
        assert m.n_atoms == 1
        assert m.values[0] == 3.5
        assert m.weights[0] == 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure(np.array([1.0]), np.array([0.5]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_values_must_ascend(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([2.0, 1.0]), np.array([0.5, 0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty spectrum"):
            DiscreteMeasure(np.array([]), np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([np.inf]), np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.0, 2.0]), np.array([1.0]))


class TestFromEigenvalues:
    def test_equal_weights(self):
        m = measure_from_eigenvalues([3.0, 1.0, 2.0])
        assert np.allclose(m.values, [1.0, 2.0, 3.0])
        assert np.allclose(m.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_duplicates_merged(self):
        m = measure_from_eigenvalues([1.0, 1.0, 2.0, 2.0])
        assert m.n_atoms == 2
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_near_duplicates_merged(self):
        m = measure_from_eigenvalues([1.0, 1.0 + 1e-15, 2.0])
        assert m.n_atoms == 2

    def test_empty_spectrum(self):
        with pytest.raises(ValueError, match="empty spectrum"):
            measure_from_eigenvalues([])


class TestIntegrate:
    def test_polynomial(self):
        m = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        assert m.integrate(lambda x: x**2) == pytest.approx(5.0)

    def test_complex_integrand(self):
        m = delta(2.0)
        val = m.integrate(lambda lam: 1.0 / (lam - 1j))
        assert val == pytest.approx(1.0 / (2.0 - 1j))

    def test_singular_integrand_raises(self):
        m = delta(1.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="singular"):
                m.integrate(lambda lam: 1.0 / (lam - 1.0))


class TestCdf:
    def test_right_continuous(self):
        m = DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
        assert m.cdf(0.999) == 0.0
        assert m.cdf(1.0) == 0.25
        assert m.cdf(1.5) == 0.25
        assert m.cdf(2.0) == 1.0
        assert m.cdf(3.0) == 1.0

    def test_array_argument(self):
        m = delta(1.0)
        out = m.cdf(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 1.0])


class TestJson:
    def test_round_trip(self, tmp_path):
        m = DiscreteMeasure(np.array([1.0, 2.5]), np.array([0.3, 0.7]))
        path = tmp_path / "m.json"
        atoms = [{"value": v, "weight": w} for v, w in zip(m.values, m.weights)]
        path.write_text(json_dumps({"atoms": atoms}) + "\n")
        m2 = load_measure_json(path)
        assert np.array_equal(m.values, m2.values)
        assert np.array_equal(m.weights, m2.weights)

    def test_schema(self):
        m = measure_from_json_dict({"atoms": [{"value": 1.0, "weight": 1.0}]})
        assert m.values.tolist() == [1.0] and m.weights.tolist() == [1.0]

    def test_missing_atoms_key(self):
        with pytest.raises(ValueError):
            measure_from_json_dict({"values": [1.0]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ValueError):
            load_measure_json(path)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"atoms": [{"value": "1.0", "weight": 1.0}]}, 'atom JSON "value" must be a number'),
            ({"atoms": [{"value": 1.0, "weight": True}]}, 'atom JSON "weight" must be a number'),
            ({"atoms": [{"value": 1.0, "wieght": 1.0}]}, 'unknown key "wieght"'),
            ({"atoms": [{"value": 1.0, "weight": 1.0}], "atom": []}, 'unknown key "atom"'),
            ([{"value": 1.0, "weight": 1.0}], "measure JSON must be an object"),
        ],
    )
    def test_values_read_as_written(self, obj, message):
        with pytest.raises(ValueError, match=message):
            measure_from_json_dict(obj)

    def test_integer_values_accepted(self):
        m = measure_from_json_dict({"atoms": [{"value": 2, "weight": 1}]})
        assert m.values.tolist() == [2.0] and m.weights.tolist() == [1.0]

    def test_atom_entries_validated(self):
        with pytest.raises(ValueError):
            measure_from_json_dict({"atoms": [{"value": 1.0}]})


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_eigenvalue_measure_properties(eigs):
    m = measure_from_eigenvalues(eigs)
    assert np.all(np.diff(m.values) > 0)
    assert np.all(m.weights > 0)
    assert np.isclose(m.weights.sum(), 1.0, atol=1e-9)
    assert m.support_min == pytest.approx(min(eigs), abs=1e-9)
    assert m.support_max == pytest.approx(max(eigs), abs=1e-9)
    assert m.mean == pytest.approx(float(np.mean(eigs)), abs=1e-7)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_cdf_is_indicator_for_delta(x):
    m = delta(1.0)
    assert m.cdf(x) == (1.0 if x >= 1.0 else 0.0)
