"""Exact rational probability measures.

A measure assigns a nonnegative rational to every element and sums to
exactly one.  All arithmetic is exact; nothing is ever rounded.  A
measure is stored as its domain and its integer view
(:attr:`RationalMeasure.integral`): the masses as integers over their
least common denominator, which the dominance flows and the grid cells
read, and on which the sign and sum rules are checked.  The map of
``Fraction`` masses (:attr:`RationalMeasure.mass`) is a view built on
first read, for :meth:`~RationalMeasure.of` and the serializers; the
parsers build measures from integers and never make it.  The
inverse probability transform of a measure along a linear extension is
represented on a grid of equal cells by
:func:`monosync.synchronize.cell_states`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import DomainMismatch, InvalidMeasure

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True, init=False, eq=False)
class RationalMeasure:
    """Probability masses over a fixed ground set, zeros stored explicitly.

    ``RationalMeasure(mass)`` takes a map from each element to its mass;
    :meth:`from_integers` takes numerators over a common denominator.
    Either way the measure keeps ``integral``, ``(scale, numerators)``:
    the least common denominator of the masses and each mass times it,
    in domain order.  Sums of numerators compare as the masses do, with
    no ``Fraction`` arithmetic.  Two measures are equal when they give
    every element the same mass.
    """

    _domain: tuple[str, ...]
    integral: tuple[int, tuple[int, ...]]

    __hash__ = None  # equal measures may list their domain in other orders

    def __init__(self, mass: Mapping[str, Fraction]):
        ratios = [m.as_integer_ratio() for m in mass.values()]
        scale = lcm(*[q for _, q in ratios])
        self._set(tuple(mass), scale,
                  tuple([p * (scale // q) for p, q in ratios]))
        self.__dict__["mass"] = mass

    @classmethod
    def from_integers(cls, domain: Sequence[str], scale: int,
                      numerators: Sequence[int]) -> RationalMeasure:
        """The measure giving ``domain[i]`` mass ``numerators[i] / scale``;
        ``scale`` is any positive common denominator, reduced here to the
        least one."""
        g = gcd(scale, *numerators)
        measure = object.__new__(cls)
        measure._set(tuple(domain), scale // g,
                     tuple([n // g for n in numerators]))
        return measure

    def _set(self, domain: tuple[str, ...], scale: int,
             numerators: tuple[int, ...]) -> None:
        if min(numerators, default=0) < 0:
            i = next(i for i, n in enumerate(numerators) if n < 0)
            raise InvalidMeasure(f"negative mass "
                                 f"{shown(Fraction(numerators[i], scale))} "
                                 f"at {domain[i]!r}")
        total = sum(numerators)
        if total != scale:
            raise InvalidMeasure(
                f"masses sum to {shown(Fraction(total, scale))}, not 1")
        self.__dict__.update(_domain=domain, integral=(scale, numerators))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._domain == other._domain:
            return self.integral == other.integral
        (s1, n1), (s2, n2) = self.integral, other.integral
        return (s1 == s2 and dict(zip(self._domain, n1))
                == dict(zip(other._domain, n2)))

    def __repr__(self) -> str:
        return f"RationalMeasure(mass={self.mass!r})"

    @cached_property
    def mass(self) -> Mapping[str, Fraction]:
        """Each element's mass as a ``Fraction``, in domain order; the
        zero masses share ``F0``."""
        scale, numerators = self.integral
        return {x: Fraction(n, scale) if n else F0
                for x, n in zip(self._domain, numerators)}

    def domain(self) -> tuple[str, ...]:
        return self._domain

    def of(self, x: str) -> Fraction:
        return self.mass[x]

    def of_set(self, subset) -> Fraction:
        return sum((self.mass[x] for x in subset), F0)

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, n in zip(self._domain, self.integral[1]) if n)

    def denominators(self) -> tuple[int, ...]:
        scale, numerators = self.integral
        return tuple(scale // gcd(n, scale) for n in numerators)


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
