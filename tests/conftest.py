from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hhcert.expr import (Abs, Add, Const, Div, Exp, Log, Mul, Pow, Sqrt, Sub, X,
                         compose_affine)
from hhcert.search import ATOM_KINDS, _draw_candidate

# ten times the default profile's examples, for the proof-soundness, grid dedup
# and mirror tests of test_convexity.py, the prefetch tests of test_quadrature.py
# and the walk tests of test_walks.py, which scale their example counts by it;
# CI runs them as:
#   pytest tests/test_convexity.py tests/test_quadrature.py tests/test_walks.py
#       -k "proved or proof or prefetch or dedup or mirror or walks"
#       --hypothesis-profile proof-soundness
settings.register_profile("proof-soundness", max_examples=10 * settings.default.max_examples)

SPECIAL = [0.0, -0.0, 1.0, -2.5, 0.5, 710.0, -746.0, 1e308, -1e308, 1e-308,
           5e-324, math.inf, -math.inf, math.nan]


def atom_combination(rng: np.random.Generator, budget: int = 3):
    """Positive linear combination of simple convex atoms.

    The stress module's candidate generator without its certification
    step, so tests can feed both passing and failing candidates to the
    checkers.
    """
    return _draw_candidate(rng, ATOM_KINDS, budget, False)


def any_tree():
    """Trees over every node type, with constants and parameters that
    overflow, underflow, or are not finite."""
    leaf = st.one_of(st.just(X), st.builds(Const, st.sampled_from(SPECIAL)))

    def extend(kids):
        return st.one_of(
            *(st.builds(t, kids, kids) for t in (Add, Sub, Mul, Div)),
            *(st.builds(t, kids) for t in (Exp, Log, Sqrt, Abs)),
            st.builds(Pow, kids, st.sampled_from([0.0, -1.0, -2.0, 1.0, 2.0, 3.0,
                                                  0.5, -0.5, 1.5])),
            st.builds(compose_affine, kids, st.sampled_from([1e308, -1.0, 0.5, 2.0, 1e-300]),
                      st.sampled_from([0.0, 1.0, -3.0, 1e308])))

    return st.recursive(leaf, extend, max_leaves=10)


def shape_trees():
    """Trees over every node kind, with moderate constants."""
    leaf = st.one_of(st.just(X), st.builds(Const, st.sampled_from(
        [0.0, 0.5, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, 0.1, 1.7])))

    def extend(kids):
        return st.one_of(
            *(st.builds(t, kids, kids) for t in (Add, Sub, Div)),
            st.builds(Mul, leaf, kids), st.builds(Mul, kids, kids), st.builds(Div, leaf, kids),
            *(st.builds(t, kids) for t in (Exp, Log, Sqrt, Abs)),
            st.builds(Pow, kids, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, -1.0, -2.0])))

    return st.recursive(leaf, extend, max_leaves=6)


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
