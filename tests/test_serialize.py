"""Deterministic text output: 17-digit floats, sorted keys, stable bytes."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rmtlaw._serialize import (
    fmt,
    json_dumps,
    write_density_csv,
    write_matrix_csv,
    write_spectrum_csv,
)


class TestFmt:
    def test_exact_values(self):
        assert fmt(1.0) == "1"
        assert fmt(0.5) == "0.5"
        assert fmt(-2.25) == "-2.25"

    def test_seventeen_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert fmt(np.pi) == "3.1415926535897931"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact(self, x):
        # 17 significant digits reproduce any float64 bit pattern.
        assert float(fmt(x)) == x


class TestJsonDumps:
    def test_sorted_keys(self):
        assert json_dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_none_and_bools(self):
        assert json_dumps(None) == "null"
        assert json_dumps(True) == "true"
        assert json_dumps(False) == "false"
        assert json_dumps(np.bool_(True)) == "true"

    def test_numpy_scalars(self):
        assert json_dumps(np.int64(3)) == "3"
        assert json_dumps(np.float64(0.25)) == "0.25"

    def test_complex_as_object(self):
        assert json_dumps(1.5 - 2.0j) == '{"im": -2, "re": 1.5}'

    def test_ndarray_as_list(self):
        assert json_dumps(np.array([1.0, 2.0])) == "[1, 2]"

    def test_nested(self):
        text = json_dumps({"xs": [0.5, 1.0], "meta": {"n": 10, "ok": True}})
        assert text == '{"meta": {"n": 10, "ok": true}, "xs": [0.5, 1]}'

    def test_string_escaping(self):
        assert json_dumps('a"b\\c\nd') == '"a\\"b\\\\c\\u000ad"'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps(float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps({"v": float("inf")})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_dumps(object())

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**53), max_value=2**53),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=8), inner, max_size=4),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_stdlib_parses_output(self, obj):
        parsed = json.loads(json_dumps(obj))

        def normalize(v):
            if isinstance(v, list):
                return [normalize(u) for u in v]
            if isinstance(v, dict):
                return {k: normalize(u) for k, u in v.items()}
            if isinstance(v, bool) or v is None:
                return v
            if isinstance(v, (int, float)):
                return float(v)
            return v

        assert normalize(parsed) == normalize(obj)


def _reference_dump(obj) -> str:
    """The per-element JSON writer that json_dumps must reproduce."""
    if isinstance(obj, list):
        return "[" + ", ".join(_reference_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f'"{k}": {_reference_dump(v)}' for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        return _reference_dump(obj.tolist())
    x = float(obj)
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized to JSON")
    return "%.17g" % x


EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 3.0, 2.0**60]


class TestFloatArrays:
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.float32]),
            shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
            elements={"allow_nan": False, "allow_infinity": False},
        )
    )
    @example(np.array(EDGE_VALUES))
    @example(np.array([-0.0, 0.0, 1e-45, 3.4e38, -3.4e38, 3.0], dtype=np.float32))
    @example(np.array([[-0.0, 0.0], [0.0, -0.0]]))
    @example(np.arange(-3.0, 4.0))
    @example(np.zeros(0))
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    @example(np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4))
    @example(np.array(-0.0))
    @example(np.array(2.5))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_per_element_writer(self, a):
        assert json_dumps(a) == _reference_dump(a)
        nested = {"b": [a, {"m": a.T}], "a": a}
        assert json_dumps(nested) == _reference_dump(nested)

    def test_non_float_arrays_unchanged(self):
        assert json_dumps(np.array([[1, 2], [3, 4]])) == "[[1, 2], [3, 4]]"
        assert json_dumps(np.array([True, False])) == "[true, false]"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_in_c_order_named(self, bad):
        other = np.inf if np.isnan(bad) else np.nan
        a = np.array([[1.0, 2.0, other], [bad, 3.0, 4.0]])
        # Column-major order would reach `bad` first.
        a = np.asfortranarray(a)
        with pytest.raises(ValueError) as exc:
            json_dumps({"x": a})
        assert str(exc.value) == f"non-finite value {other!r} cannot be serialized to JSON"
        with pytest.raises(ValueError) as exc:
            json_dumps({"x": a[:, :2]})
        assert str(exc.value) == f"non-finite value {bad!r} cannot be serialized to JSON"

    def test_csv_writers_match_per_element_format(self, tmp_path):
        values = np.array(EDGE_VALUES)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values.reshape(2, 4))
        rows = ["%.17g" % v for v in EDGE_VALUES]
        assert path.read_text() == ",".join(rows[:4]) + "\n" + ",".join(rows[4:]) + "\n"
        write_spectrum_csv(path, np.sort(values))
        assert path.read_text() == "".join("%.17g\n" % v for v in np.sort(values))
        write_density_csv(path, values[:2], values[2:4], values[4:6])
        assert path.read_text().splitlines()[1:] == [
            ",".join(rows[0::2][:3]),
            ",".join(rows[1::2][:3]),
        ]

    def test_csv_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite value nan cannot be serialized to CSV"):
            write_matrix_csv(tmp_path / "m.csv", np.array([[1.0, np.nan]]))


class TestCsvWriters:
    def test_density_header_and_newline(self, tmp_path):
        path = tmp_path / "d.csv"
        write_density_csv(path, [0.0, 1.0], [0.1, 0.2], [0.0, 0.5])
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "x,density,cdf"
        assert lines[1] == "0,0.10000000000000001,0"
        assert text.endswith("\n")

    def test_spectrum_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        eigs = np.array([0.1, 1.0 / 3.0, 2.0])
        write_spectrum_csv(path, eigs)
        back = np.array([float(s) for s in path.read_text().split()])
        assert np.array_equal(back, eigs)

    def test_spectrum_rejects_descending(self, tmp_path):
        with pytest.raises(ValueError, match="ascending"):
            write_spectrum_csv(tmp_path / "s.csv", [2.0, 1.0])

    def test_matrix_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = path.read_text().splitlines()
        assert lines == ["1,2", "3,4"]

    def test_matrix_rejects_1d(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_matrix_csv(tmp_path / "m.csv", np.array([1.0]))

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        xs = np.linspace(0, 3, 50)
        f = np.exp(-xs)
        F = 1 - np.exp(-xs)
        write_density_csv(a, xs, f, F)
        write_density_csv(b, xs, f, F)
        assert a.read_bytes() == b.read_bytes()
