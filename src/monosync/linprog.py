"""Exact rational feasibility solver: fraction-free phase-one simplex.

Decides whether ``A x = b`` admits ``x >= 0``, for a 0/1 matrix given
column by column as the rows that hold a 1, and a rational ``b >= 0``.
Runs the revised simplex on ``min sum(artificials)`` with Bland's
pivoting rule, which terminates without any tolerance.  On success returns the basic feasible point; on
failure returns a Farkas vector ``y`` with ``y.A <= 0`` componentwise and
``y.b > 0``, an exact certificate that no solution exists.

All arithmetic is on integers (Edmonds 1967; Bareiss 1968).  ``b`` is put
over the lcm of its denominators, and the basis matrix ``B`` is a 0/1
matrix.  The solver keeps its adjugate ``T = det(B) B^-1`` and
``det(B) > 0`` instead of ``B^-1``: on a pivot every row of ``T`` other
than the pivot row is updated with one exact integer division by the old
determinant, and the new determinant is the pivot element.  Scaling the
right-hand side by a positive factor does not change the order of the
ratios, so every pivot is the one the rational simplex takes.
``Fraction`` appears only at the boundary: in the input and in the
returned point or certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

SparseColumn = Sequence[int]  # the rows that hold a 1


@dataclass(frozen=True)
class FeasiblePoint:
    x: dict[int, Fraction]  # nonzero structural coordinates


@dataclass(frozen=True)
class FarkasVector:
    y: tuple[Fraction, ...]
    gap: Fraction  # y.b, strictly positive


def integral(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and the values times it."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def solve_feasibility(columns: Sequence[SparseColumn],
                      b: Sequence[Fraction | int],
                      ) -> FeasiblePoint | FarkasVector:
    m = len(b)
    n = len(columns)
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")

    bscale, xb = integral(b)  # xb = T (bscale b)

    adj = [[0] * m for _ in range(m)]  # T = det(B) B^-1
    for i in range(m):
        adj[i][i] = 1
    det = 1
    basis = list(range(n, n + m))  # artificial j sits in column n + j

    def dual() -> list[int]:
        # det(B) y, where y = c_B B^-1 and the phase-one cost is 1 on
        # artificials, 0 elsewhere
        y = [0] * m
        for i, col in enumerate(basis):
            if col >= n:
                y = list(map(add, y, adj[i]))
        return y

    while True:
        y = dual()
        in_basis = set(basis)
        entering = -1
        for j in range(n):
            if j not in in_basis and sum(map(y.__getitem__, columns[j])) > 0:
                entering = j
                break
        else:
            for k in range(m):
                if n + k not in in_basis and y[k] > det:
                    entering = n + k
                    break
        if entering < 0:
            break

        if entering < n:
            ent = columns[entering]
            d = [sum(map(row.__getitem__, ent)) for row in adj]
        else:
            k = entering - n
            d = [row[k] for row in adj]

        # min xb[i] / d[i] over d[i] > 0, ties to the smallest basis index
        leave = -1
        for i in range(m):
            if d[i] > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = xb[i] * d[leave], xb[leave] * d[i]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:  # pragma: no cover - phase-one objective is bounded
            raise ArithmeticError("unbounded phase-one direction")

        piv = d[leave]
        row_l, x_l = adj[leave], xb[leave]
        for i in range(m):
            if i == leave:
                continue
            f = d[i]
            if f:
                adj[i] = [(piv * a - f * c) // det
                          for a, c in zip(adj[i], row_l)]
                xb[i] = (piv * xb[i] - f * x_l) // det
            elif piv != det:
                adj[i] = [piv * a // det for a in adj[i]]
                xb[i] = piv * xb[i] // det
        det = piv
        basis[leave] = entering

    denom = det * bscale
    gap = Fraction(sum(xb[i] for i, col in enumerate(basis) if col >= n),
                   denom)
    if gap == 0:
        point = {
            col: Fraction(xb[i], denom)
            for i, col in enumerate(basis)
            if col < n and xb[i] != 0
        }
        return FeasiblePoint(point)
    return FarkasVector(tuple(Fraction(v, det) for v in dual()), gap)
