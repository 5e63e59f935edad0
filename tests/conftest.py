from __future__ import annotations

import numpy as np
import pytest

from hhcert.search import ATOM_KINDS, _draw_candidate


def atom_combination(rng: np.random.Generator, budget: int = 3):
    """Positive linear combination of simple convex atoms.

    The stress module's candidate generator without its certification
    step, so tests can feed both passing and failing candidates to the
    checkers.
    """
    return _draw_candidate(rng, ATOM_KINDS, budget, False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
