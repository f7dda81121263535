"""Finite atomic probability measures.

Spectral-distribution inputs (population spectra, mixing laws) and outputs
(empirical spectra) are all represented as finite lists of weighted atoms, so
every integral the solvers need is an exact weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from ._serialize import json_dumps, load_json

__all__ = [
    "DiscreteMeasure",
    "measure_from_eigenvalues",
    "delta",
    "from_quantiles",
    "load_measure_json",
    "save_measure_json",
    "measure_from_json_dict",
    "measure_to_json_dict",
]

# Atoms whose values coincide within this relative tolerance are merged;
# eigensolvers routinely emit near-duplicates.
MERGE_RTOL = 1e-12
WEIGHT_ATOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms.

    values are sorted ascending, weights are positive and sum to 1 within
    1e-12. Instances are immutable; arrays must not be modified after
    construction.
    """

    values: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.ndim != 1 or weights.ndim != 1 or values.size != weights.size:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValueError("empty spectrum: a measure needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise ValueError("atom values must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("atom weights must be finite and > 0")
        if np.any(np.diff(values) <= 0):
            raise ValueError("atom values must be strictly ascending (merge duplicates first)")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"atom weights must sum to 1 within {WEIGHT_ATOL:g} (got {total!r})")

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    @property
    def support_min(self) -> float:
        return float(self.values[0])

    @property
    def support_max(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        """First moment of the measure."""
        return float(np.dot(self.weights, self.values))

    def integrate(self, f: Callable[[NDArray[np.float64]], np.ndarray]):
        """Integrate f against the measure: sum of weight_j * f(value_j).

        f is applied to the vector of atom values and may return real or
        complex results. Non-finite values of f at an atom indicate an
        integrand singularity and raise.
        """
        fx = np.asarray(f(self.values))
        if fx.shape != self.values.shape:
            fx = np.broadcast_to(fx, self.values.shape)
        if not np.all(np.isfinite(fx)):
            raise ValueError("singular integrand: f is not finite at an atom")
        result = np.sum(self.weights * fx)
        return complex(result) if np.iscomplexobj(fx) else float(result)

    def cdf(self, x):
        """Right-continuous CDF: total weight of atoms with value <= x."""
        x_arr = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.values, x_arr, side="right")
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        out = cum[idx]
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def _merge_close_atoms(
    values: NDArray[np.float64], weights: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Merge sorted atoms whose values coincide within MERGE_RTOL (relative).

    Merged atoms take the weight-averaged value so total mass and first
    moment are preserved.
    """
    merged_v: list[float] = []
    merged_w: list[float] = []
    for v, w in zip(values, weights):
        if merged_v and (v - merged_v[-1]) <= MERGE_RTOL * max(1.0, abs(v), abs(merged_v[-1])):
            tot = merged_w[-1] + w
            merged_v[-1] = (merged_v[-1] * merged_w[-1] + v * w) / tot
            merged_w[-1] = tot
        else:
            merged_v.append(float(v))
            merged_w.append(float(w))
    return np.array(merged_v), np.array(merged_w)


def _build(values, weights) -> DiscreteMeasure:
    # Checked before merging, which subtracts values (inf - inf warns) and
    # sums weights (a bad weight would vanish); DiscreteMeasure checks the rest.
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("atom values must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValueError("atom weights must be finite and > 0")
    order = np.argsort(values, kind="stable")
    v, w = _merge_close_atoms(values[order], weights[order])
    return DiscreteMeasure(v, w)


def measure_from_eigenvalues(eigs) -> DiscreteMeasure:
    """Empirical spectral distribution: weight 1/count at each eigenvalue."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.size == 0:
        raise ValueError("empty spectrum")
    return _build(eigs, np.full(eigs.size, 1.0 / eigs.size))


def delta(value: float) -> DiscreteMeasure:
    """Point mass at value."""
    return DiscreteMeasure(np.array([float(value)]), np.array([1.0]))


def from_quantiles(quantile: Callable[[np.ndarray], np.ndarray], count: int = 512) -> DiscreteMeasure:
    """Atomic approximation of a continuous law by equal-weight quantile atoms.

    Places weight 1/count at quantile((j - 1/2)/count) for j = 1..count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    probs = (np.arange(count) + 0.5) / count
    values = np.asarray(quantile(probs), dtype=np.float64)
    if values.shape != probs.shape:
        raise ValueError("quantile function must return one value per probability")
    return _build(values, np.full(count, 1.0 / count))


def measure_from_json_dict(obj) -> DiscreteMeasure:
    """Parse {"atoms": [{"value": v, "weight": w}, ...]} and validate."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValueError('measure JSON must be an object with an "atoms" list')
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError('measure JSON "atoms" must be a nonempty list')
    values = []
    weights = []
    for atom in atoms:
        if not isinstance(atom, dict) or "value" not in atom or "weight" not in atom:
            raise ValueError('each atom must be an object with "value" and "weight"')
        values.append(float(atom["value"]))
        weights.append(float(atom["weight"]))
    return _build(values, weights)


def measure_to_json_dict(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [
            {"value": float(v), "weight": float(w)} for v, w in zip(mu.values, mu.weights)
        ]
    }


def load_measure_json(path) -> DiscreteMeasure:
    return measure_from_json_dict(load_json(path, "measure"))


def save_measure_json(path, mu: DiscreteMeasure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(measure_to_json_dict(mu)))
        fh.write("\n")
