"""The fraction-free simplex against the rational one it replaces.

``fraction_bland`` is the phase-one Bland simplex on ``Fraction``
arithmetic, kept as the oracle: the integer solver must take the same
pivots, so it must return exactly the same point or Farkas vector.
Columns are 0/1, given as the rows that hold a 1.
"""

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

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
