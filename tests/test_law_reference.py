"""Solved laws against a frozen reference of the per-point fixed-point solver.

tests/data/law_reference.json holds the x, density and cdf columns that
`solve-mp` and `solve-elliptical` wrote on their default grids before the
grid solve became one array-valued Newton kernel: the three golden laws of
test_golden_outputs.py, a 200-atom Toeplitz spectrum (r = 0.5) at rho = 0.5
and a law with three mixing atoms. Each law is re-solved on its recorded
grid and must stay within 1e-9 of it. The x and density columns are never
regenerated. The cdf column was re-pinned once, when the CDF began to come
pointwise from each law's log-potential (the law convolved with the Cauchy
kernel of width v_eps, its atom at 0 an exact step) in place of a trapezoid
sum of the density; it moved by up to 4.5e-3.
"""

from pathlib import Path

import numpy as np
import pytest

from rmtlaw._serialize import load_json
from rmtlaw.elliptical_solver import elliptical_density_grid_detailed, params_from_json_dict
from rmtlaw.measures import measure_from_json_dict
from rmtlaw.mp_solver import density_grid_detailed

REFERENCE = load_json(Path(__file__).parent / "data" / "law_reference.json", "reference")
TOLERANCE = 1e-9


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_law_matches_reference(name):
    case = REFERENCE[name]
    xs = np.array(case["x"])
    if case["command"] == "solve-mp":
        H = measure_from_json_dict(case["input"])
        _, density, cdf, _ = density_grid_detailed(H, case["rho"], xs)
    else:
        params = params_from_json_dict(case["input"])
        _, density, cdf, _ = elliptical_density_grid_detailed(params, xs)
    assert np.max(np.abs(density - np.array(case["density"]))) <= TOLERANCE
    assert np.max(np.abs(cdf - np.array(case["cdf"]))) <= TOLERANCE
