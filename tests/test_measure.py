"""Rational measures and their inverse transforms on grid cells."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monosync.errors import DomainMismatch, GridMismatch, InvalidMeasure
from monosync.generate import random_class_w, random_measure
from monosync.linprog import integral
from monosync.measure import RationalMeasure, rational_measure, shown
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


def reference_measure(elements, masses):
    """The measure check on ``Fraction`` sums, as it was before the
    integer view: every mass converted, signs checked while summing."""
    elements = tuple(elements)
    known = set(elements)
    for x in masses:
        if x not in known:
            raise DomainMismatch(f"mass given for unknown element {x!r}")
    mass = {x: Fraction(masses.get(x, 0)) for x in elements}
    total = Fraction(0)
    for x, m in mass.items():
        if m < 0:
            raise InvalidMeasure(f"negative mass {m} at {x!r}")
        total += m
    if total != 1:
        raise InvalidMeasure(f"masses sum to {shown(total)}, not 1")
    return mass


def outcome(build, *args):
    try:
        return "ok", build(*args)
    except (InvalidMeasure, DomainMismatch, ValueError,
            ZeroDivisionError) as e:
        return type(e), str(e)


def random_masses(rng, elements):
    """Masses on a random subset of ``elements``, some given for unknown
    names: sums of one, off by a little, all zero, with negative entries,
    over small or huge denominators, as ``Fraction``, ``int`` or ``str``."""
    kind = rng.choice(("valid", "valid", "off", "zero", "negative", "huge"))
    names = [x for x in elements if rng.random() < 0.7]
    if rng.random() < 0.05:
        names.append("stranger")
    if kind == "huge":
        dens = [10**rng.randrange(20, 60) + rng.randrange(1, 99)
                for _ in names]
    else:
        dens = [rng.randrange(1, 13) for _ in names]
    if not names or kind == "zero":
        values = [Fraction(0)] * len(names)
    else:
        weights = [rng.randrange(0, 9) for _ in names]
        weights[-1] += 1
        total = sum(weights)
        values = [Fraction(w, total) for w in weights]
        if kind == "off":
            values[0] += Fraction(rng.choice((-1, 1)), rng.randrange(2, 40))
        elif kind == "negative":
            i = rng.randrange(len(values))
            values[i] = -values[i] - Fraction(1, dens[i])
        elif kind == "huge":  # move mass between two huge grids
            shift = Fraction(1, dens[0]) - Fraction(1, dens[-1])
            values[0] += shift
            values[-1] -= shift
    masses = {}
    for x, v in zip(names, values):
        form = rng.choice(("fraction", "str", "int"))
        if form == "int" and v.denominator == 1:
            masses[x] = int(v)
        elif form == "str":
            masses[x] = str(v)
        else:
            masses[x] = v
    if masses and rng.random() < 0.03:
        masses[next(iter(masses))] = rng.choice(("one", "1/0"))
    return masses


def test_integer_check_matches_fraction_sums():
    """On random masses of every kind the measure gives the reference's
    verdict, exception type and message; a valid one keeps the same
    ``Fraction`` masses, and its integer view is ``linprog.integral`` of
    them, in domain order."""
    rng = random.Random(18)
    seen = Counter()
    for _ in range(3000):
        elements = [f"s{i}" for i in range(rng.randrange(0, 9))]
        masses = random_masses(rng, elements)
        want = outcome(reference_measure, elements, masses)
        got = outcome(rational_measure, elements, masses)
        seen[want[0] if want[0] == "ok" else want[0].__name__] += 1
        if want[0] != "ok":
            assert got == want
            continue
        assert got[0] == "ok"
        measure = got[1]
        assert measure.mass == want[1]
        assert all(type(m) is Fraction for m in measure.mass.values())
        assert measure.domain() == tuple(elements)
        scale, numerators = integral(list(measure.mass.values()))
        assert measure.integral == (scale, tuple(numerators))
        # built straight from the same masses, with no conversion
        assert RationalMeasure(dict(measure.mass)).integral == (
            measure.integral)
    assert min(seen.values()) >= 10, seen
    assert set(seen) == {"ok", "InvalidMeasure", "DomainMismatch",
                         "ValueError", "ZeroDivisionError"}


def test_measure_keeps_given_fractions():
    half = Fraction(1, 2)
    measure = rational_measure(("a", "b", "c"), {"a": half, "b": "1/2"})
    assert measure.of("a") is half
    assert measure.integral == (2, (1, 1, 0))
    with pytest.raises(InvalidMeasure, match="masses sum to 0, not 1"):
        rational_measure((), {})
