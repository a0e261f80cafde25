"""The fraction-free simplex against the rational one it replaces.

``fraction_bland`` is the phase-one Bland simplex on ``Fraction``
arithmetic, kept as the oracle: the integer solver must take the same
pivots, so it must return exactly the same point or Farkas vector.
Columns are 0/1, given as the rows that hold a 1.
"""

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from bench_lp import farkas_mixture, lp_of, pair11
from monosync import linprog
from monosync.linprog import (
    FarkasVector,
    FeasiblePoint,
    SparseColumn,
    solve_feasibility,
)

F0 = Fraction(0)
F1 = Fraction(1)


def fraction_bland(columns: Sequence[SparseColumn],
                   b: Sequence[Fraction],
                   ) -> FeasiblePoint | FarkasVector:
    m = len(b)
    n = len(columns)
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")

    binv = [[F0] * m for _ in range(m)]
    for i in range(m):
        binv[i][i] = F1
    xb = [Fraction(v) for v in b]
    basis = list(range(n, n + m))  # artificial j sits in column n + j

    def dual() -> list[Fraction]:
        # y = c_B B^{-1}; phase-one cost is 1 on artificials, 0 elsewhere
        y = [F0] * m
        for i, col in enumerate(basis):
            if col >= n:
                row = binv[i]
                for k in range(m):
                    if row[k]:
                        y[k] += row[k]
        return y

    while True:
        y = dual()
        in_basis = set(basis)
        entering = -1
        for j in range(n + m):
            if j in in_basis:
                continue
            if j < n:
                reduced = -sum((y[r] for r in columns[j]), F0)
            else:
                reduced = F1 - y[j - n]
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            break

        if entering < n:
            d = [F0] * m
            for r in columns[entering]:
                for i in range(m):
                    if binv[i][r]:
                        d[i] += binv[i][r]
        else:
            k = entering - n
            d = [binv[i][k] for i in range(m)]

        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:  # pragma: no cover - phase-one objective is bounded
            raise ArithmeticError("unbounded phase-one direction")

        piv = d[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        xb[leave] /= piv
        for i in range(m):
            if i != leave and d[i]:
                f = d[i]
                row_l = binv[leave]
                row_i = binv[i]
                for k in range(m):
                    if row_l[k]:
                        row_i[k] -= f * row_l[k]
                xb[i] -= f * xb[leave]
        basis[leave] = entering

    gap = sum((xb[i] for i, col in enumerate(basis) if col >= n), F0)
    if gap == 0:
        point = {
            col: xb[i]
            for i, col in enumerate(basis)
            if col < n and xb[i] != 0
        }
        return FeasiblePoint(point)
    return FarkasVector(tuple(dual()), gap)


def holds(columns, b, result) -> bool:
    """An independent check: ``A x = b`` with ``x > 0``, or ``y.a_j <= 0``
    for every column with ``y.b == gap > 0``."""
    if isinstance(result, FeasiblePoint):
        lhs = [F0] * len(b)
        for j, w in result.x.items():
            if not w > 0:
                return False
            for r in columns[j]:
                lhs[r] += w
        return lhs == [Fraction(v) for v in b]
    y = result.y
    return (all(sum((y[r] for r in col), F0) <= 0 for col in columns)
            and sum((v * w for v, w in zip(y, b)), F0) == result.gap > 0)


@st.composite
def systems(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 8))
    columns = [draw(st.lists(st.integers(0, m - 1), unique=True)) if m else []
               for _ in range(n)]
    b = draw(st.lists(st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)),
                      min_size=m, max_size=m))
    return columns, b


@given(systems())
def test_matches_rational_bland(system):
    columns, b = system
    got = solve_feasibility(columns, b)
    assert got == fraction_bland(columns, b)
    assert holds(columns, b, got)


def test_no_rows():
    assert solve_feasibility([], []) == FeasiblePoint({})
    assert solve_feasibility([[], []], []) == FeasiblePoint({})


def test_no_columns():
    assert solve_feasibility([], [F0, F0]) == FeasiblePoint({})
    got = solve_feasibility([], [Fraction(1, 2), F0, Fraction(1, 3)])
    assert got == FarkasVector((F1, F1, F1), Fraction(5, 6))


def test_zero_right_hand_side():
    columns = [[0, 1], [1]]
    assert solve_feasibility(columns, [F0, F0]) == FeasiblePoint({})


def test_negative_right_hand_side():
    with pytest.raises(ValueError):
        solve_feasibility([[0]], [Fraction(-1, 2)])


@pytest.mark.parametrize("column", [[-1], [0, 2], [1, 1], [0, 1, 0]])
def test_columns_name_distinct_rows_in_range(column):
    with pytest.raises(ValueError, match="column 1 must name distinct rows"):
        solve_feasibility([[0], column], [F1, F0])


@st.composite
def dense_systems(draw):
    """Every column holds at least half the rows: determinants above 1,
    so pivots that divide, and duals that outgrow the first lanes."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(0, 40))
    columns = [sorted(draw(st.sets(st.integers(0, m - 1),
                                   min_size=(m + 1) // 2)))
               for _ in range(n)]
    b = draw(st.lists(st.builds(Fraction, st.integers(0, 12),
                                st.integers(1, 12)),
                      min_size=m, max_size=m))
    return columns, b


@given(dense_systems())
@settings(max_examples=60)
def test_dense_systems_match_rational_bland(system):
    columns, b = system
    got = solve_feasibility(columns, b)
    assert got == fraction_bland(columns, b)
    assert holds(columns, b, got)


def test_dense_systems_regrow_lanes_and_divide(monkeypatch):
    """A seeded batch of dense systems takes the paths the strategy above
    is for: lanes rebuilt wider, and a final determinant above 1."""
    built = []

    class Counted(linprog._Lanes):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.width)

    monkeypatch.setattr(linprog, "_Lanes", Counted)
    regrown = divided = 0
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randrange(6, 11)
        columns = [sorted(rng.sample(range(m), rng.randrange(m // 2, m + 1)))
                   for _ in range(rng.randrange(20, 41))]
        b = [Fraction(rng.randrange(13), rng.randrange(1, 13))
             for _ in range(m)]
        built.clear()
        got = solve_feasibility(columns, b)
        assert got == fraction_bland(columns, b)
        regrown += len(built) > 1
        # a Farkas vector is over the final determinant, and a point over
        # it times a divisor of lcm(1, ..., 12)
        if isinstance(got, FarkasVector):
            divided += any(v.denominator > 1 for v in got.y)
        else:
            divided += any(27720 % v.denominator for v in got.x.values())
    assert regrown and divided


def realize_shaped_systems():
    for seed in range(8):
        yield farkas_mixture(seed, on_kite=seed % 2 == 1)
    for seed in range(8):
        yield pair11(random.Random(seed), dominated=seed % 2 == 0)


def test_realize_shaped_systems_match_rational_bland():
    kinds = set()
    for system in realize_shaped_systems():
        columns, b = lp_of(system)
        got = solve_feasibility(columns, b)
        assert got == fraction_bland(columns, b)
        assert holds(columns, b, got)
        kinds.add(type(got))
    assert kinds == {FeasiblePoint, FarkasVector}
