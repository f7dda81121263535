"""Deterministic text serialization: 17-significant-digit numbers everywhere.

All CLI-visible numeric output flows through these helpers so reruns are
byte-identical. JSON objects are emitted with sorted keys and floats printed
with %.17g (json.dumps would use shortest-repr floats, which is also
deterministic but not 17 significant digits).
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


def write_density_csv(path, xs, density, cdf) -> None:
    lines = ["x,density,cdf"]
    for x, f, F in zip(xs, density, cdf):
        lines.append(f"{fmt(x)},{fmt(f)},{fmt(F)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_spectrum_csv(path, eigs) -> None:
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.size and np.any(np.diff(eigs) < 0):
        raise ValueError("spectrum must be sorted ascending")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lam in eigs:
            fh.write(fmt(lam))
            fh.write("\n")


def write_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in M:
            fh.write(",".join(fmt(v) for v in row))
            fh.write("\n")
