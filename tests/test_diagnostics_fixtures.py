"""Regression guard: stored diagnostic fixtures reproduce exactly."""

import json
import pathlib

import numpy as np
import pytest

from rmtlaw import cli
from rmtlaw.concentration import angle_diagnostic, norm_diagnostic
from rmtlaw.samplers import PopulationModel, sample_model

FIXTURE_PATH = pathlib.Path(__file__).parent / "data" / "diagnostic_fixtures.json"


@pytest.fixture(scope="module")
def fixtures():
    with open(FIXTURE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_shape(fixtures):
    assert fixtures["seeds"] == list(range(50))
    assert len(fixtures["norm_max"]) == 50
    assert len(fixtures["angle_max"]) == 50
    assert fixtures["model"] == {"family": "gaussian", "n": 400, "p": 400}


def test_pass_fractions_consistent(fixtures):
    norm = np.array(fixtures["norm_max"])
    angle = np.array(fixtures["angle_max"])
    assert fixtures["norm_pass_fraction"] == pytest.approx(
        np.mean(norm <= fixtures["norm_threshold"])
    )
    assert fixtures["angle_pass_fraction"] == pytest.approx(
        np.mean(angle <= fixtures["angle_threshold"])
    )


def test_diagnose_defaults_are_fixture_thresholds(fixtures):
    args = cli.build_parser().parse_args(["diagnose"])
    assert args.norm_threshold == fixtures["norm_threshold"]
    assert args.angle_threshold == fixtures["angle_threshold"]


@pytest.mark.parametrize("index", [0, 17, 49])
def test_values_reproduce_exactly(fixtures, index):
    seed = fixtures["seeds"][index]
    spec = fixtures["model"]
    model = PopulationModel(family=spec["family"], n=spec["n"], p=spec["p"])
    Y = sample_model(model, seed, 0)
    _, nmax = norm_diagnostic(Y, 1.0)
    amax, _ = angle_diagnostic(Y)
    assert nmax == fixtures["norm_max"][index]
    assert amax == fixtures["angle_max"][index]
