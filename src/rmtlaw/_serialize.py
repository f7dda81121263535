"""Deterministic text serialization: 17-significant-digit numbers everywhere.

All CLI-visible numeric output flows through these helpers so reruns are
byte-identical. JSON objects are emitted with sorted keys and floats printed
with %.17g (json.dumps would use shortest-repr floats, which is also
deterministic but not 17 significant digits). Float arrays are formatted
in bulk, each distinct value once, with the same bytes as one by one.
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


def _format_floats(a, target: str) -> np.ndarray:
    """``fmt`` of every entry, as an object array of str with a's shape.

    Each distinct bit pattern is formatted once. Distinctness is decided
    on the uint64 view, not the float values, so -0.0 ("-0") stays apart
    from 0.0 ("0"). A non-finite entry raises, naming the first one in C
    order.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        x = float(a.flat[np.argmin(finite)])
        raise ValueError(f"non-finite value {x!r} cannot be serialized to {target}")
    bits, inv = np.unique(a.view(np.uint64).ravel(), return_inverse=True)
    strs = np.array(list(map("%.17g".__mod__, bits.view(np.float64).tolist())), dtype=object)
    return strs[inv].reshape(a.shape)


def _nest(rows: list, ndim: int) -> str:
    """JSON text of the nested lists of formatted numbers that tolist() gives."""
    if ndim == 1:
        return "[" + ", ".join(rows) + "]"
    return "[" + ", ".join(_nest(r, ndim - 1) for r in rows) + "]"


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
        if obj.dtype.kind == "f" and obj.ndim >= 1:
            return _nest(_format_floats(obj, "JSON").tolist(), obj.ndim)
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


def write_density_csv(path, xs, density, cdf) -> None:
    table = _format_floats(np.column_stack([xs, density, cdf]), "CSV").tolist()
    _write_lines(path, ["x,density,cdf", *map(",".join, table)])


def write_spectrum_csv(path, eigs) -> None:
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.ndim != 1:
        raise ValueError("spectrum must be 1-d")
    if eigs.size and np.any(np.diff(eigs) < 0):
        raise ValueError("spectrum must be sorted ascending")
    _write_lines(path, _format_floats(eigs, "CSV").tolist())


def write_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    _write_lines(path, map(",".join, _format_floats(M, "CSV").tolist()))
