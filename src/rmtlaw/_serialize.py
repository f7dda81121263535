"""Deterministic text serialization: 17-significant-digit numbers everywhere.

All CLI-visible numeric output flows through these helpers so reruns are
byte-identical. JSON objects are emitted with sorted keys and floats printed
with %.17g (json.dumps would use shortest-repr floats, which is also
deterministic but not 17 significant digits). CSV tables are printed a row
at a time with the same %.17g.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "fmt",
    "json_dumps",
    "load_json",
    "write_density_csv",
    "write_spectrum_csv",
    "write_matrix_csv",
]


def fmt(x: float) -> str:
    """Format a finite float with 17 significant digits."""
    return "%.17g" % float(x)


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def _dump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"non-finite value {x!r} cannot be serialized to JSON")
        return fmt(x)
    if isinstance(obj, complex):
        return _dump({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ", ".join(f'"{_escape(str(k))}": {_dump(v)}' for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _dump(obj)


def load_json(path, what: str):
    """Parse a JSON file; malformed JSON raises ValueError naming what and path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid {what} JSON in {path}: {exc}") from exc


def check_keys(obj, what: str, required: tuple, optional: tuple) -> None:
    """Raise ValueError unless obj is a JSON object that holds no key outside
    required and optional and every key of required, naming the key; an
    unknown key is named first, as a misspelt key is also a missing one."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f'{what} JSON has unknown key "{key}"')
    for key in required:
        if key not in obj:
            raise ValueError(f'{what} JSON needs "{key}"')


# The Python types json.load gives for each kind of JSON value a reader
# asks for. type() tells true and false (bool) apart from int, so a JSON
# boolean is no number.
_JSON_KINDS = {
    "a number": (int, float),
    "an integer": (int,),
    "a boolean": (bool,),
    "a string": (str,),
    "an object": (dict,),
}


def _json_typed(obj: dict, what: str, key: str, kind: str, default=None):
    """obj[key], or default when the key is absent, which must be of kind
    (a key of _JSON_KINDS); raise ValueError naming what and key."""
    if key not in obj:
        return default
    value = obj[key]
    if type(value) not in _JSON_KINDS[kind]:
        raise ValueError(f'{what} JSON "{key}" must be {kind}, got {value!r}')
    return value


def _json_numbers(obj: dict, what: str, key: str) -> np.ndarray:
    """obj[key], a JSON number or nested arrays of numbers, as float64."""

    def numbers(value) -> bool:
        if type(value) is list:
            return all(map(numbers, value))
        return type(value) in _JSON_KINDS["a number"]

    if not numbers(obj[key]):
        raise ValueError(f'{what} JSON "{key}" must be a number or an array of numbers')
    return np.asarray(obj[key], dtype=np.float64)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _table_lines(table) -> list[str]:
    """CSV lines of a 1-d array, one value a line, or of a 2-d array, one row
    a line, each value as fmt writes it; a non-finite entry raises, naming
    the first one in C order."""
    table = np.asarray(table, dtype=np.float64)
    finite = np.isfinite(table)
    if not finite.all():
        x = float(table.flat[np.argmin(finite)])
        raise ValueError(f"non-finite value {x!r} cannot be serialized to CSV")
    if table.ndim == 1:
        return list(map("%.17g".__mod__, table.tolist()))
    row = ",".join(["%.17g"] * table.shape[1])
    return list(map(row.__mod__, map(tuple, table.tolist())))


def write_density_csv(path, xs, density, cdf) -> None:
    _write_lines(path, ["x,density,cdf", *_table_lines(np.column_stack([xs, density, cdf]))])


def write_spectrum_csv(path, eigs) -> None:
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.ndim != 1:
        raise ValueError("spectrum must be 1-d")
    if eigs.size and np.any(np.diff(eigs) < 0):
        raise ValueError("spectrum must be sorted ascending")
    _write_lines(path, _table_lines(eigs))


def write_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    _write_lines(path, _table_lines(M))
