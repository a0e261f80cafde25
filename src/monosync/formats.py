"""Line-based text formats for every structure that crosses a file boundary.

All formats share the same skeleton: UTF-8, one directive per line,
``#`` starts a comment, blank lines ignored.  Rationals are serialized
``p/q`` and parsed from ``p/q`` or an integer, either optionally signed.
Serializers emit a canonical form (stable element order, sorted covers
and atoms) so outputs are byte-diffable.  Parsers raise only
:class:`MonosyncError`: a :class:`ParseError` naming the path and line
for text that breaks a format, including bytes that are not UTF-8,
and for a measure, a name or an assignment that its file gets wrong.

System and kernel files reference their poset and measure files by
path, resolved relative to the referencing file.
"""

from __future__ import annotations

import os
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from pathlib import Path
from stat import S_ISREG
from typing import Mapping, Sequence

from .cftp import Kernel, kernel
from .coupling import (
    Coupling,
    InfeasibilityCertificate,
    MeasureSystem,
    measure_system,
)
from .errors import (CycleError, DuplicateElement, InvalidMeasure,
                     ParseError, SizeLimit, UnknownElement)
from .measure import RationalMeasure, shown
from .poset import Poset, covers, validate_poset
from .synchronize import CellPermutation

# A format is a table: each directive with its argument count and how
# often it appears, "*" any number of times, "+" at least once, "1" once.
_POSET = {"element": (1, "*"), "cover": (2, "*"), "leq": (2, "*")}
_MEASURES = {"measure": (1, "*"), "mass": (2, "*")}
_SYSTEM = {"index": (1, "1"), "states": (1, "1"), "measures": (1, "+"),
           "assign": (2, "*")}
_KERNEL = {k: v for k, v in _SYSTEM.items() if k != "index"}
_COUPLING = {"atom": (2, "*")}
_PHI = {"cells": (1, "1"), "map": (2, "*")}
_CERTIFICATE = {"dual": (3, "*"), "gap": (1, "1")}


# a FIFO put in a file's place after its stat must not block the open
_O_READ = (os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)
           | getattr(os, "O_BINARY", 0))


def _read(name: str) -> bytes:
    """The bytes of the regular file ``name``, from one ``stat`` and, at
    the size it gives, one ``read``; anything else is refused before it
    is opened, since a FIFO blocks the read and a device need never end."""
    st = os.stat(name)
    if not S_ISREG(st.st_mode):
        raise ParseError(name, 0, "not a regular file")
    size = st.st_size
    fd = os.open(name, _O_READ)
    try:
        chunks = [os.read(fd, size + 1)]
        # the file changed after its stat, or its size is not stored (a
        # file under /proc): read on to the end
        if len(chunks[0]) != size:
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _path(path: str | Path) -> Path:
    """``path`` as a ``Path``, not wrapped again when it is one."""
    return path if isinstance(path, Path) else Path(path)


def _directives(path: Path, table: Mapping[str, tuple[int, str]]):
    """Each directive of ``path`` as ``(line, directive, args)``, in order,
    checked against ``table`` at its line, or after the last for one that
    is missing; lazily, so a caller's error at an earlier line comes first."""
    try:
        data = _read(str(path))
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise ParseError(str(path), 0, f"cannot read file: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = len((data[:e.start].decode("utf-8") + "x").splitlines())
        raise ParseError(str(path), lineno,
                         f"not UTF-8: byte {data[e.start]:#04x}") from e
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        directive = parts.pop(0)
        try:
            n, times = table[directive]
        except KeyError:
            raise ParseError(str(path), lineno,
                             f"unknown directive {directive!r}") from None
        if len(parts) != n:
            raise ParseError(str(path), lineno, f"{directive} takes {n} "
                             f"argument(s), got {len(parts)}")
        if times == "1" and directive in seen:
            raise ParseError(str(path), lineno, f"duplicate {directive} line")
        if times != "*":
            seen.add(directive)
        yield lineno, directive, parts
    for directive, (_, times) in table.items():
        if times != "*" and directive not in seen:
            raise ParseError(str(path), 0, f"missing {directive} line")


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_NATURAL = re.compile(r"[0-9]+")


def _ratio(path: Path, lineno: int, token: str) -> tuple[int, int]:
    """An optionally signed integer or ``p/q``, the form serializers emit,
    as ``(p, q)`` with ``q > 0``, not reduced; no decimals or exponents,
    whose expansion can be unboundedly large."""
    if m := _RATIONAL.fullmatch(token):
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:  # too many digits
            pass
        else:
            if q:
                return p, q
    raise ParseError(str(path), lineno, f"bad rational {token!r}")


def _fraction(path: Path, lineno: int, token: str) -> Fraction:
    return Fraction(*_ratio(path, lineno, token))


def _natural(path: Path, lineno: int, token: str, message: str) -> int:
    if _NATURAL.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # too many digits
            pass
    raise ParseError(str(path), lineno, message)


def frac_str(value: Fraction) -> str:
    """``value`` as ``p/q``, the form :func:`_fraction` reads back.

    Raises :class:`SizeLimit` when ``p`` or ``q`` has more digits than the
    interpreter converts to text (4,300 unless configured otherwise): the
    parsers could not read such a number back either.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as e:  # the int-to-str digit limit
        raise SizeLimit(
            f"a result has a number of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print"
        ) from e


def parse_poset(path: str | Path) -> Poset:
    """The poset of ``path``; :func:`validate_poset`'s errors are refused at
    the second ``element`` line of a name or the first order line at which
    the pairs so far fail."""
    path = _path(path)
    elements: list[str] = []
    element_lines: list[int] = []
    pairs: list[list[str]] = []
    pair_lines: list[int] = []
    for lineno, directive, args in _directives(path, _POSET):
        if directive == "element":
            (name,) = args
            if "," in name:  # joins the states of atoms and up-sets
                raise ParseError(str(path), lineno,
                                 f"element name {name!r} contains ','")
            elements.append(name)
            element_lines.append(lineno)
        else:
            pairs.append(args)
            pair_lines.append(lineno)
    try:
        return validate_poset(elements, pairs)
    except DuplicateElement as e:
        i = next(i for i, x in enumerate(elements) if elements.index(x) < i)
        raise ParseError(str(path), element_lines[i], str(e)) from e
    except (UnknownElement, CycleError) as e:
        # unknown names are sought first, so the failing prefixes only grow
        def fails(k: int) -> bool:
            try:
                validate_poset(elements, pairs[:k + 1])
            except (UnknownElement, CycleError) as early:
                return type(early) is type(e)
            return False
        k = bisect_left(range(len(pairs)), True, key=fails)
        raise ParseError(str(path), pair_lines[k], str(e)) from e


def serialize_poset(poset: Poset) -> str:
    lines = [f"element {x}" for x in poset.elements]
    lines += [f"cover {a} {b}" for a, b in covers(poset)]
    return "\n".join(lines) + "\n"


def parse_measures(path: str | Path, poset: Poset,
                   ) -> dict[str, RationalMeasure]:
    """Labeled measures over the poset's ground set; absent masses are zero.

    Each mass is read as integers and each measure built from its
    numerators over the lcm of its denominators, with no ``Fraction``.
    A mass for an unknown element is refused at its line, and masses
    that are negative or do not sum to one at their measure's header.
    """
    path = _path(path)
    elements = poset.elements
    index = {x: i for i, x in enumerate(elements)}
    # per label, each element's mass as (p, q), None where none is given
    raw: dict[str, list[tuple[int, int] | None]] = {}
    headers: dict[str, int] = {}
    ratios: dict[str, tuple[int, int]] = {}
    label: str | None = None
    for lineno, directive, args in _directives(path, _MEASURES):
        if directive == "measure":
            (label,) = args
            if label in raw:
                raise ParseError(str(path), lineno,
                                 f"duplicate measure label {label!r}")
            raw[label] = [None] * len(elements)
            headers[label] = lineno
        else:
            el, frac = args
            if label is None:
                raise ParseError(str(path), lineno,
                                 "mass line before any measure header")
            i = index.get(el)
            if i is None:
                raise ParseError(str(path), lineno,
                                 f"mass given for unknown element {el!r}")
            if raw[label][i] is not None:
                raise ParseError(str(path), lineno,
                                 f"duplicate mass for {el!r} in {label!r}")
            # masses on a grid recur (in a pair file of eighths about two
            # tokens in three repeat one read before): read each once
            ratio = ratios.get(frac)
            if ratio is None:
                ratio = ratios[frac] = _ratio(path, lineno, frac)
            raw[label][i] = ratio
    measures: dict[str, RationalMeasure] = {}
    for lbl, masses in raw.items():
        scale = lcm(*[r[1] for r in masses if r is not None])
        numerators = [0 if r is None else r[0] * (scale // r[1])
                      for r in masses]
        try:
            measures[lbl] = RationalMeasure.from_integers(
                elements, scale, numerators)
        except InvalidMeasure as e:  # a negative mass or a wrong sum
            raise ParseError(str(path), headers[lbl], str(e)) from e
    return measures


def serialize_measures(measures: Mapping[str, RationalMeasure]) -> str:
    """Canonical form: support masses only, in domain order."""
    lines: list[str] = []
    for label, measure in measures.items():
        lines.append(f"measure {label}")
        for x in measure.domain():
            if measure.of(x) > 0:
                lines.append(f"mass {x} {frac_str(measure.of(x))}")
    return "\n".join(lines) + "\n"


def _parse_bindings(path: Path, table: Mapping[str, tuple[int, str]]):
    refs: dict[str, tuple[int, str]] = {}  # index and states: line, path
    measure_refs: list[tuple[int, str]] = []
    assigns: list[tuple[int, str, str]] = []
    for lineno, directive, args in _directives(path, table):
        if directive == "assign":
            assigns.append((lineno, *args))
        elif directive == "measures":
            measure_refs.append((lineno, args[0]))
        else:
            refs[directive] = (lineno, args[0])

    base = path.parent
    state_poset = parse_poset(base / refs["states"][1])
    labeled: dict[str, RationalMeasure] = {}
    for lineno, ref in measure_refs:
        batch = parse_measures(base / ref, state_poset)
        dup = set(batch) & set(labeled)
        if dup:
            raise ParseError(str(path), lineno,
                             f"measure labels defined twice: {sorted(dup)}")
        labeled.update(batch)

    bound: dict[str, RationalMeasure] = {}
    for lineno, alpha, label in assigns:
        if label not in labeled:
            raise ParseError(str(path), lineno,
                             f"assign references unknown measure {label!r}")
        if alpha in bound:
            raise ParseError(str(path), lineno,
                             f"duplicate assign for {alpha!r}")
        bound[alpha] = labeled[label]

    kind = "index" if "index" in refs else "state"
    index_line, index_ref = refs.get("index", refs["states"])
    index_poset = (state_poset if kind == "state"
                   else parse_poset(base / index_ref))
    if not index_poset.elements:
        raise ParseError(str(path), index_line, f"{kind} poset has no elements")
    indices = set(index_poset.elements)
    for lineno, alpha, _ in assigns:
        if alpha not in indices:
            raise ParseError(str(path), lineno,
                             f"assign for unknown index {alpha!r}")
    for alpha in index_poset.elements:
        if alpha not in bound:
            raise ParseError(str(path), index_line,
                             f"no measure assigned to index {alpha!r}")
    return index_poset, state_poset, bound


def parse_system(path: str | Path) -> MeasureSystem:
    index_poset, state_poset, bound = _parse_bindings(_path(path), _SYSTEM)
    return measure_system(index_poset, state_poset, bound)


def serialize_system(index_ref: str, states_ref: str,
                     measure_refs: Sequence[str],
                     assigns: Mapping[str, str]) -> str:
    return f"index {index_ref}\n" + serialize_kernel(states_ref, measure_refs,
                                                     assigns)


def parse_kernel(path: str | Path) -> Kernel:
    """Kernel files are system files without an index line: the rows are
    indexed by the state poset itself."""
    _, state_poset, bound = _parse_bindings(_path(path), _KERNEL)
    return kernel(state_poset, bound)


def serialize_kernel(states_ref: str, measure_refs: Sequence[str],
                     assigns: Mapping[str, str]) -> str:
    lines = [f"states {states_ref}"]
    lines += [f"measures {ref}" for ref in measure_refs]
    lines += [f"assign {x} {lbl}" for x, lbl in assigns.items()]
    return "\n".join(lines) + "\n"


def parse_coupling(path: str | Path,
                   index_order: Sequence[str]) -> Coupling:
    path = _path(path)
    atoms: dict[tuple[str, ...], Fraction] = {}
    for lineno, _, (tup_str, frac) in _directives(path, _COUPLING):
        tup = tuple(tup_str.split(","))
        if len(tup) != len(index_order):
            raise ParseError(str(path), lineno,
                             f"atom has {len(tup)} states, "
                             f"expected {len(index_order)}")
        if tup in atoms:
            raise ParseError(str(path), lineno, f"duplicate atom {tup_str!r}")
        atoms[tup] = _fraction(path, lineno, frac)
    total = sum(atoms.values(), Fraction(0))
    if total != 1:
        raise ParseError(str(path), 0,
                         f"atom weights sum to {shown(total)}, not 1")
    return Coupling(tuple(index_order), atoms)


def serialize_coupling(coupling: Coupling) -> str:
    lines = [
        f"atom {','.join(tup)} {frac_str(w)}"
        for tup, w in sorted(coupling.atoms.items())
    ]
    return "\n".join(lines) + "\n"


def parse_phi(path: str | Path) -> CellPermutation:
    path = _path(path)
    images: dict[int, int] = {}
    for lineno, directive, args in _directives(path, _PHI):
        if directive == "cells":
            (tok,) = args
            L = _natural(path, lineno, tok, f"bad grid size {tok!r}")
            if L == 0:
                raise ParseError(str(path), lineno, f"bad grid size {tok!r}")
        else:
            i, j = (_natural(path, lineno, tok, "map arguments must be cells")
                    for tok in args)
            if i in images:
                raise ParseError(str(path), lineno, f"duplicate map for cell {i}")
            images[i] = j
    # L is bound by the one cells line; the keys are distinct naturals, so
    # this is ``set(images) == range(L)`` without building a huge range
    if len(images) != L or any(i >= L for i in images):
        raise ParseError(str(path), 0, "map lines do not cover every cell once")
    return CellPermutation(L, tuple(images[i] for i in range(L)))


def serialize_phi(phi: CellPermutation) -> str:
    lines = [f"cells {phi.L}"]
    lines += [f"map {i} {phi.perm[i]}" for i in range(phi.L)]
    return "\n".join(lines) + "\n"


def parse_certificate(path: str | Path) -> InfeasibilityCertificate:
    path = _path(path)
    dual: dict[tuple[str, str], Fraction] = {}
    for lineno, directive, args in _directives(path, _CERTIFICATE):
        if directive == "dual":
            alpha, state, frac = args
            if (alpha, state) in dual:
                raise ParseError(str(path), lineno,
                                 f"duplicate dual entry {alpha} {state}")
            dual[(alpha, state)] = _fraction(path, lineno, frac)
        else:  # the reader refuses a file without one gap line
            gap = _fraction(path, lineno, args[0])
    return InfeasibilityCertificate(dual, gap)


def serialize_certificate(certificate: InfeasibilityCertificate) -> str:
    lines = [
        f"dual {alpha} {state} {frac_str(w)}"
        for (alpha, state), w in sorted(certificate.dual.items())
    ]
    lines.append(f"gap {frac_str(certificate.gap)}")
    return "\n".join(lines) + "\n"
