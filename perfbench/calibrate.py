"""A fixed reference workload that tells how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts: other tenants
slow every process by tens of percent, in stretches from seconds to
minutes.  Every run times the probe often between its items, and reports
each op and build time scaled by ``REF_S / probe``, with ``probe`` the
median of the probes run just before and just after it (see worker.py):
seconds on a machine on which the probe takes ``REF_S`` at that moment.
The set-up time is scaled by a reference set-up instead (refsetup.py);
its set-ups run in other processes, at other times than the probe.

The probe is the benchmark's own exact checkers (``checks.py``) applied to
fixed objects built once from the data/ fixtures, plus an exact rational
Gauss-Jordan elimination of a fixed matrix: code of the same kind as the
package (Fraction arithmetic with growing denominators, dict, set and
tuple work, enumeration), which therefore slows down with the machine in
about the same proportion, but which no change to the package can speed
up or slow down.  The objects are plain copies, so the probe calls no
package code at all.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import random
from fractions import Fraction

import checks

REF_S = 0.005  # probe seconds on the reference machine (2-vCPU VM, quiet)
DATA = Path(__file__).resolve().parent.parent / "data"


class _Measure:
    __slots__ = ("mass",)

    def __init__(self, measure):
        self.mass = {x: measure.of(x) for x in measure.domain()}

    def of(self, x):
        return self.mass[x]

    def domain(self):
        return tuple(self.mass)


def _poset(p):
    return SimpleNamespace(elements=tuple(p.elements),
                           relation=frozenset(p.relation))


class _System:
    def __init__(self, s):
        self.index_poset = _poset(s.index_poset)
        self.state_poset = _poset(s.state_poset)
        self.measures = {a: _Measure(s.measure_of(a))
                         for a in s.index_poset.elements}

    def measure_of(self, a):
        return self.measures[a]


class _Cells:
    """A precomputed cell stream standing in for the package's sampler."""

    def __init__(self, cells):
        self.cells = cells

    def cell_at(self, t):
        return self.cells[t]


def _eliminate(matrix) -> int:
    """Rank by exact Gauss-Jordan elimination, as a simplex pivots."""
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class Probe:
    """Built once per run from the data/ fixtures with the package; timed
    many times without it."""

    ROUNDS = 2

    def __init__(self):
        from monosync import coupling, formats, poset, synchronize
        from monosync.cftp import build_grand_coupling
        from monosync.rng import CellSampler

        w6 = formats.parse_system(DATA / "w6.system")
        c = coupling.realize(w6)
        _, ext = poset.root_tree(w6.state_poset, "tau",
                                 {"w": ("z", "v"), "z": ("x", "y")})
        phis = synchronize.synchronize_from_coupling(w6, c, ext)
        diamond = formats.parse_system(DATA / "diamond_infeasible.system")
        cert = checks.parse_certificate(
            (DATA / "diamond_infeasible.cert").read_text())
        kern = formats.parse_kernel(DATA / "chain2.kernel")
        gc = build_grand_coupling(kern)
        sampler = CellSampler(gc.L, 1, 0)

        self.w6 = _System(w6)
        self.index_order = tuple(c.index_order)
        self.atoms = dict(c.atoms)
        self.perms = {a: tuple(phi.perm) for a, phi in phis.items()}
        self.order = tuple(ext.order)
        self.diamond = _System(diamond)
        self.cert = cert
        self.update = {x: tuple(row) for x, row in gc.update.items()}
        self.states = tuple(kern.state_poset.elements)
        self.cells = _Cells([None] + [sampler.cell_at(t)
                                      for t in range(1, 65)])
        rng = random.Random(0)
        self.matrix = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                        for _ in range(7)] for _ in range(7)]
        if self._work() is not None:
            raise RuntimeError("calibration objects fail their own checks")

    def _work(self):
        bad = (checks.check_coupling(self.w6, self.index_order, self.atoms)
               or checks.check_phis(self.w6, self.perms, self.order)
               or checks.check_certificate(self.diamond, *self.cert))
        if bad:
            return bad
        checks.cftp_replay(self.update, self.states, self.cells, 64)
        _eliminate(self.matrix)
        return None

    def time(self) -> float:
        t0 = perf_counter()
        for _ in range(self.ROUNDS):
            self._work()
        return perf_counter() - t0
