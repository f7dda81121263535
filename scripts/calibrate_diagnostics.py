"""Regenerate the row-geometry regression fixtures.

Measures the diagnostic maxima (norm deviation and pairwise angle) for the
null Gaussian identity model at n = p = 400 across 50 fixed seeds and
stores them, together with the configured thresholds and the fraction of
seeds passing each, in tests/data/diagnostic_fixtures.json. Rerunning the
script reproduces the file byte for byte.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rmtlaw._serialize import json_dumps
from rmtlaw.concentration import ANGLE_THRESHOLD, NORM_THRESHOLD, angle_diagnostic, norm_diagnostic
from rmtlaw.samplers import PopulationModel, sample_model

DIM = 400
SEEDS = list(range(50))


def main() -> int:
    model = PopulationModel(family="gaussian", n=DIM, p=DIM)
    norm_max, angle_max = [], []
    for seed in SEEDS:
        Y = sample_model(model, seed, 0)
        _, nmax = norm_diagnostic(Y, 1.0)
        amax, _ = angle_diagnostic(Y)
        norm_max.append(nmax)
        angle_max.append(amax)

    fixtures = {
        "model": {"family": "gaussian", "n": DIM, "p": DIM},
        "seeds": SEEDS,
        "norm_max": norm_max,
        "angle_max": angle_max,
        "norm_threshold": NORM_THRESHOLD,
        "angle_threshold": ANGLE_THRESHOLD,
        "norm_pass_fraction": float(np.mean(np.array(norm_max) <= NORM_THRESHOLD)),
        "angle_pass_fraction": float(np.mean(np.array(angle_max) <= ANGLE_THRESHOLD)),
    }
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "diagnostic_fixtures.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_dumps(fixtures) + "\n")
    print(f"wrote {path}")
    print(f"norm:  max {max(norm_max):.4f}  pass {fixtures['norm_pass_fraction']:.2f}")
    print(f"angle: max {max(angle_max):.4f}  pass {fixtures['angle_pass_fraction']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
