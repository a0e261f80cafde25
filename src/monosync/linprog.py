"""Exact rational feasibility solver: fraction-free phase-one simplex.

Decides whether ``A x = b`` admits ``x >= 0``, for a 0/1 matrix given
column by column as the distinct rows that hold a 1, and a rational
``b >= 0``.  Runs the revised simplex on ``min sum(artificials)`` with
Bland's pivoting rule, which terminates without any tolerance.  On
success returns the basic feasible point; on failure returns a Farkas
vector ``y`` with ``y.A <= 0`` componentwise and ``y.b > 0``, an exact
certificate that no solution exists.

All arithmetic is on integers (Edmonds 1967; Bareiss 1968).  ``b`` is put
over the lcm of its denominators, and the basis matrix ``B`` is a 0/1
matrix.  The solver keeps its adjugate ``T = det(B) B^-1`` and
``det(B) > 0`` instead of ``B^-1``: on a pivot every row of ``T`` other
than the pivot row is updated with one exact integer division by the old
determinant, and the new determinant is the pivot element.  When both
are 1, as on every pivot of a transportation problem between two
measures, the division is skipped.  Scaling the right-hand side by a
positive factor does not change the order of the ratios, so every pivot
is the one the rational simplex takes.

The phase-one dual ``y = c_B B^-1`` is carried as one more tableau row,
``det(B) y``, whose right-hand side is the phase-one objective times
``det(B)``.  The row's entry in the entering column is the column's
price ``D``: ``y.a_j``, or ``y[k] - det`` for an artificial ``k``.  So a
pivot updates it as any other row, ``(piv y - D T[leave]) // det``, and
the objective ends as the gap of a Farkas vector.  Pricing reads every
structural column at once: lane ``j`` of a Python integer of ``w``-bit
lanes stands for column ``j``, each row has a mask with a 1 in the lanes
of the columns that hold it, and ``sum(y[r] * mask[r])`` holds ``y.a_j``
in lane ``j``.  That sum is linear in ``y``, so it takes the dual row's
update, with ``T[leave]`` packed the same way; exact division by ``det``
divides every lane.  A bias of ``2**(w-1) - 1`` in every lane leaves the
top bit of lane ``j`` set exactly when ``y.a_j > 0``, and the lowest
such bit is Bland's entering column; a basic column prices to 0 and is
never taken.  ``w`` bounds ``max|y|`` times the longest column, and the
masks are rebuilt wider when ``y`` outgrows it.  ``Fraction`` appears
only at the boundary: in the input and in the returned point or
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

SparseColumn = Sequence[int]  # the distinct rows that hold a 1


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


class _Lanes:
    """The structural columns packed into ``width``-bit lanes, ``width`` a
    multiple of 8 so that a lane starts on a byte."""

    def __init__(self, columns: Sequence[SparseColumn], m: int,
                 bound: int):
        n = len(columns)
        lane = (bound.bit_length() + 8) // 8  # bytes; bound < 2**(w - 1)
        self.width = w = 8 * lane
        self.bound = (1 << (w - 1)) - 1
        buffers = [bytearray(n * lane) for _ in range(m)]
        for j, col in enumerate(columns):
            for r in col:
                buffers[r][j * lane] = 1
        self.masks = [int.from_bytes(buf, "little") for buf in buffers]
        ones = int.from_bytes(b"\1".ljust(lane, b"\0") * n, "little")
        self.bias = self.bound * ones
        self.high = ones << (w - 1)

    def pack(self, y: Sequence[int]) -> int:
        """``y.a_j`` in lane ``j``, for every structural column."""
        return sum(v * mask for v, mask in zip(y, self.masks) if v)

    def entering(self, packed: int) -> int:
        """The smallest ``j`` whose lane in ``packed`` is positive, or -1;
        every lane must lie within ``bound``."""
        hits = (packed + self.bias) & self.high
        return (hits & -hits).bit_length() // self.width - 1 if hits else -1


def solve_feasibility(columns: Sequence[SparseColumn],
                      b: Sequence[Fraction | int],
                      ) -> FeasiblePoint | FarkasVector:
    m = len(b)
    n = len(columns)
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")
    rows = set(range(m))
    for j, col in enumerate(columns):
        held = set(col)
        if len(held) != len(col) or not held <= rows:
            raise ValueError(f"column {j} must name distinct rows in "
                             f"range({m}): {tuple(col)}")

    # rows 0..m-1 of the tableau: T = det(B) B^-1, with xb = T (bscale b);
    # row m: det(B) y for the phase-one cost (1 on artificials, 0
    # elsewhere), with det(B) times the objective
    bscale, xb = integral(b)
    xb.append(sum(xb))
    adj = [[0] * m for _ in range(m)]
    for i in range(m):
        adj[i][i] = 1
    adj.append([1] * m)
    dual = adj[m]
    det = 1
    basis = list(range(n, n + m))  # artificial j sits in column n + j
    longest = max(map(len, columns), default=0)
    lanes = _Lanes(columns, m, longest)
    prices = lanes.pack(dual)  # y.a_j in lane j

    while True:
        top = max(map(abs, dual), default=0) * longest
        if top > lanes.bound:
            lanes = _Lanes(columns, m, 2 * top)
            prices = lanes.pack(dual)
        entering = lanes.entering(prices)
        if entering >= 0:
            ent = columns[entering]
            d = [sum(map(row.__getitem__, ent)) for row in adj]
        else:
            for k in range(m):
                if dual[k] > det:
                    entering = n + k
                    break
            else:
                break
            d = [row[k] for row in adj]
            d[m] -= det  # the artificial's cost
        priced = d[m]

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
        unit = piv == det == 1  # every transport LP pivot: nothing to scale
        for i, f in enumerate(d):
            if i == leave or f == 0 and piv == det:
                continue
            if unit:
                adj[i] = [a - f * c for a, c in zip(adj[i], row_l)]
                xb[i] -= f * x_l
            else:
                adj[i] = [(piv * a - f * c) // det
                          for a, c in zip(adj[i], row_l)]
                xb[i] = (piv * xb[i] - f * x_l) // det
        dual = adj[m]
        if unit:
            prices -= priced * lanes.pack(row_l)
        else:
            prices = (piv * prices - priced * lanes.pack(row_l)) // det
        det = piv
        basis[leave] = entering

    denom = det * bscale
    gap = Fraction(xb[m], denom)
    if gap == 0:
        point = {
            col: Fraction(xb[i], denom)
            for i, col in enumerate(basis)
            if col < n and xb[i] != 0
        }
        return FeasiblePoint(point)
    return FarkasVector(tuple(Fraction(v, det) for v in dual), gap)
