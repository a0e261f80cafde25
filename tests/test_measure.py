"""Rational measures and their inverse transforms on grid cells."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monosync.errors import DomainMismatch, GridMismatch, InvalidMeasure
from monosync.generate import random_class_w, random_measure
from monosync.measure import rational_measure
from monosync.poset import LinearExtension, default_root, root_tree
from monosync.synchronize import cell_states, common_grid

seeds = st.integers(0, 2**32 - 1)


def test_measure_basics(p1):
    assert p1.of("x") == Fraction(1, 5) and p1.of("tau") == Fraction(1, 15)
    assert p1.of_set({"x", "y"}) == Fraction(1, 3)
    assert p1.support() == ("x", "y", "z", "v", "w", "tau")
    assert set(p1.denominators()) == {5, 15}
    zeroed = rational_measure(("a", "b"), {"a": 1})
    assert zeroed.of("b") == 0 and zeroed.support() == ("a",)


def test_measure_rejections():
    with pytest.raises(InvalidMeasure):
        rational_measure(("a", "b"), {"a": "1/2", "b": "1/3"})
    with pytest.raises(InvalidMeasure):
        rational_measure(("a", "b"), {"a": "3/2", "b": "-1/2"})
    with pytest.raises(DomainMismatch):
        rational_measure(("a",), {"a": "1/2", "q": "1/2"})


def test_inverse_transform_w6(p2, psi):
    cells = cell_states(p2, psi, 15)
    assert cells == (
        "x", "y", "z", "z", "z", "z", "z", "z",
        "v", "v", "v", "w", "w", "tau", "tau")
    assert cell_states(p2, psi, 30) == tuple(s for s in cells for _ in "ab")
    with pytest.raises(GridMismatch):
        cell_states(p2, psi, 5)


def test_inverse_transform_skips_zero_mass():
    ext = LinearExtension(("a", "b", "c"))
    m = rational_measure(("a", "b", "c"), {"a": "1/2", "c": "1/2"})
    assert cell_states(m, ext, 2) == ("a", "c")


@given(seeds)
def test_inverse_transform_pushforward_roundtrip(seed):
    # the cell view pushes the uniform law on the L cells forward to the
    # measure, and visits the states in extension order
    rng = random.Random(seed)
    poset = random_class_w(rng, rng.randrange(4, 8))
    measure = random_measure(rng, poset, rng.randrange(1, 13))
    _, ext = root_tree(poset, default_root(poset))
    L = common_grid(measure) * rng.randrange(1, 4)
    cells = cell_states(measure, ext, L)
    counts = Counter(cells)
    for s in poset.elements:
        assert counts[s] == measure.of(s) * L
        assert (s in counts) == (measure.of(s) > 0)
    ranks = [ext.rank(s) for s in cells]
    assert ranks == sorted(ranks)
