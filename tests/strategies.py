"""Hypothesis strategies shared by the solver tests."""

import numpy as np
from hypothesis import strategies as st

from rmtlaw.measures import DiscreteMeasure


@st.composite
def populations(draw, max_atoms: int = 6) -> DiscreteMeasure:
    """H with 1 to max_atoms atoms in [0.1, 10], at least 1e-3 apart, and random weights."""
    k = draw(st.integers(1, max_atoms))
    values = draw(
        st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k, unique=True).filter(
            lambda v: k == 1 or np.min(np.diff(np.sort(v))) > 1e-3
        )
    )
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    weights = weights / weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return DiscreteMeasure(np.sort(values), weights)
