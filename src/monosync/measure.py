"""Exact rational probability measures.

A measure assigns a nonnegative ``Fraction`` to every element and sums to
exactly one.  All arithmetic is exact; nothing is ever rounded.  Each
measure also keeps its masses as integers over one common denominator
(:attr:`RationalMeasure.integral`), which the dominance flows and the
grid cells read; the sum is checked on those integers.  The
inverse probability transform of a measure along a linear extension is
represented on a grid of equal cells by
:func:`monosync.synchronize.cell_states`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping

from .errors import DomainMismatch, InvalidMeasure

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class RationalMeasure:
    """Probability masses over a fixed ground set, zeros stored explicitly."""

    mass: Mapping[str, Fraction]

    def __post_init__(self):
        scale, numerators = self.integral
        if min(numerators, default=0) < 0:
            x, m = next((x, m) for x, m in self.mass.items() if m < 0)
            raise InvalidMeasure(f"negative mass {m} at {x!r}")
        total = sum(numerators)
        if total != scale:
            raise InvalidMeasure(
                f"masses sum to {shown(Fraction(total, scale))}, not 1")

    @cached_property
    def integral(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, numerators)``: the lcm of the masses' denominators,
        and each mass times it, in domain order.  Built once, by the sum
        check, and read as is: sums of numerators compare as the masses
        do, with no ``Fraction`` arithmetic."""
        ratios = [m.as_integer_ratio() for m in self.mass.values()]
        scale = lcm(*[q for _, q in ratios])
        return scale, tuple([p * (scale // q) for p, q in ratios])

    def domain(self) -> tuple[str, ...]:
        return tuple(self.mass)

    def of(self, x: str) -> Fraction:
        return self.mass[x]

    def of_set(self, subset) -> Fraction:
        return sum((self.mass[x] for x in subset), F0)

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, m in self.mass.items() if m > 0)

    def denominators(self) -> tuple[int, ...]:
        return tuple(m.denominator for m in self.mass.values())


def shown(value: Fraction) -> str:
    """``value`` for an error message.  A sum of parsed masses can have
    more digits than ``str`` converts, and the message must not fail."""
    try:
        return str(value)
    except ValueError:
        return "a rational too long to print"


def rational_measure(elements, masses: Mapping[str, Fraction | int | str],
                     ) -> RationalMeasure:
    """Build a measure on ``elements``; names missing from ``masses`` get
    zero.  A ``Fraction`` is kept as given; other values are converted."""
    elements = tuple(elements)
    known = set(elements)
    for x in masses:
        if x not in known:
            raise DomainMismatch(f"mass given for unknown element {x!r}")
    get = masses.get
    return RationalMeasure({
        x: m if isinstance(m := get(x, F0), Fraction) else Fraction(m)
        for x in elements})
