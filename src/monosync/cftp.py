"""Perfect sampling from a monotone Markov kernel on a poset.

The kernel's rows, read as a measure system indexed by the state poset
itself, get a grand coupling: one update table driven by a single
uniform cell per step, applied simultaneously from every state without
breaking the order.  Coupling from the past then walks epochs of doubled
length into history, reusing the randomness already drawn, until every
start state has funneled into one value; that value has exactly the
stationary law, which a rational linear solve cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Mapping

from .coupling import (
    DEFAULT_TUPLE_CAP,
    InfeasibilityCertificate,
    MeasureSystem,
    Verdict,
    is_stoch_monotone,
    measure_system,
    realize,
)
from .errors import (
    BudgetExceeded,
    ContractViolation,
    GridMismatch,
    NotErgodic,
    NotStochMonotone,
)
from .measure import F0, F1, RationalMeasure, rational_measure
from .poset import (
    LinearExtension,
    Poset,
    PosetClass,
    classify,
    default_root,
    root_tree,
)
from .rng import CellSampler
from .synchronize import (
    check_cell_tables,
    composed_tables,
    glued_tables,
    identity_synchronization,
    synchronize_from_coupling,
)

DEFAULT_MAX_EPOCH = 2**30


@dataclass(frozen=True)
class Kernel:
    """Markov transition matrix: one probability row per state."""

    state_poset: Poset
    rows: Mapping[str, RationalMeasure]

    def row(self, x: str) -> RationalMeasure:
        return self.rows[x]

    def to_system(self) -> MeasureSystem:
        """The rows as a measure system indexed by the state poset itself."""
        return measure_system(self.state_poset, self.state_poset, self.rows)


def kernel(state_poset: Poset, rows: Mapping[str, RationalMeasure]) -> Kernel:
    kern = Kernel(state_poset, dict(rows))
    kern.to_system()  # validates row domains against the poset
    return kern


@dataclass(frozen=True)
class GrandCoupling:
    """Simultaneous update table: state x, uniform cell i -> next state.

    Row x lists the next state per cell; cell counts reproduce the kernel
    row at x exactly, and rows respect the order cell by cell.  The
    table is read-only once built: the sampler's integer columns and the
    ergodicity verdict are derived from it once and cached.
    """

    L: int
    state_poset: Poset
    update: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        states = set(self.state_poset.elements)
        if set(self.update) != states:
            raise GridMismatch("update rows do not cover the state poset")
        for x, row in self.update.items():
            if len(row) != self.L:
                raise GridMismatch(
                    f"row at {x!r} has {len(row)} cells, expected {self.L}")
            stray = set(row) - states
            if stray:
                raise GridMismatch(
                    f"row at {x!r} names unknown states {sorted(stray)}")

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Cell-major view by state index: ``_columns[c][i]`` is the
        index of the next state from state ``i`` under cell ``c``."""
        pos = self.state_poset.index
        rows = (self.update[x] for x in self.state_poset.elements)
        return tuple(tuple(map(pos, col)) for col in zip(*rows))

    @cached_property
    def _extremals(self) -> tuple[int, ...]:
        """Indices of the minimal, then the maximal states."""
        poset = self.state_poset
        return tuple(map(poset.index, dict.fromkeys(
            poset.minimal() + poset.maximal())))

    @cached_property
    def _ergodic(self) -> Verdict:
        support = {x: frozenset(row) for x, row in self.update.items()}
        return _ergodicity(support, self.state_poset.elements)


def check_grand_coupling(kern: Kernel, gc: GrandCoupling) -> Verdict:
    """Independent re-check of both table invariants: the kernel rows,
    read as a measure system, against :func:`check_cell_tables`."""
    return check_cell_tables(kern.to_system(), gc.L, gc.update)


def build_grand_coupling(kern: Kernel,
                         cap: int = DEFAULT_TUPLE_CAP,
                         ) -> GrandCoupling | InfeasibilityCertificate:
    """Construct a monotone update table for a stochastically monotone kernel.

    The rows, read as a measure system, are indexed by the state poset
    itself, and its cover graph picks one of three routes:

    * a path (class Z): the raw inverse transforms along the rooted
      extension are already ordered (identity synchronization);
    * any other tree (classes W and BY): the rows are glued along the
      rooted cover tree by integer transports of cell counts
      (:func:`glued_tables`), with no tuple enumeration and no LP;
    * a cycle or several components: the realization oracle's coupling
      is turned into cells along the poset's own linear order; the
      oracle returns an exact infeasibility certificate when no monotone
      table exists, and ``cap`` bounds its tuple enumeration.

    A kernel that is not stochastically monotone raises
    :class:`NotStochMonotone` with the witness of
    :func:`is_stoch_monotone`; a grid beyond ``MAX_GRID_CELLS`` raises
    :class:`SizeLimit`.  The table is re-checked before it is returned.
    """
    system = kern.to_system()
    poset = kern.state_poset
    shape = classify(poset)
    if shape is PosetClass.NON_ACYCLIC_OR_DISCONNECTED:
        _require_stoch_monotone(system)
        extension = LinearExtension(poset.linear_order())
        result = realize(system, cap)
        if isinstance(result, InfeasibilityCertificate):
            return result
        phis = synchronize_from_coupling(system, result, extension)
        L, update = composed_tables(system, phis, extension)
    else:
        tree, extension = root_tree(poset, default_root(poset))
        if shape is PosetClass.Z:
            _require_stoch_monotone(system)
            phis = identity_synchronization(system)
            L, update = composed_tables(system, phis, extension)
        else:
            glued = glued_tables(system, tree, extension)
            if glued is None:  # some cover pair is not dominated
                _require_stoch_monotone(system)
                raise ContractViolation(
                    "gluing failed on a monotone kernel", "glue")
            L, update = glued

    gc = GrandCoupling(L, poset, update)
    checked = check_grand_coupling(kern, gc)
    if not checked:
        raise ContractViolation("update table breaks its contract",
                                checked.witness)
    return gc


def _require_stoch_monotone(system: MeasureSystem) -> None:
    verdict = is_stoch_monotone(system)
    if not verdict:
        alpha, beta, upset = verdict.witness
        raise NotStochMonotone(
            f"row at {alpha!r} is not dominated by row at {beta!r}",
            alpha, beta, upset)


def _reachable(support: Mapping[str, frozenset[str]], start: str,
               forward: bool) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        if forward:
            targets: set[str] | frozenset[str] = support[u]
        else:
            targets = {x for x, nxt in support.items() if u in nxt}
        for v in targets:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _is_irreducible(support: Mapping[str, frozenset[str]],
                    elements: tuple[str, ...]) -> bool:
    start = elements[0]
    if len(_reachable(support, start, forward=True)) != len(elements):
        return False
    return len(_reachable(support, start, forward=False)) == len(elements)


def _period(support: Mapping[str, frozenset[str]],
            elements: tuple[str, ...]) -> int:
    level = {elements[0]: 0}
    frontier = [elements[0]]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for v in support[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in elements:
        for v in support[u]:
            g = gcd(g, level[u] + 1 - level[v])
    return abs(g)


def _ergodicity(support: Mapping[str, frozenset[str]],
                elements: tuple[str, ...]) -> Verdict:
    """Irreducible and aperiodic, decided on a support digraph."""
    if not _is_irreducible(support, elements):
        return Verdict(False, "reducible")
    p = _period(support, elements)
    if p != 1:
        return Verdict(False, ("periodic", p))
    return Verdict(True)


def is_ergodic(kern: Kernel) -> Verdict:
    """Irreducible and aperiodic, decided on the support digraph."""
    return _ergodicity({x: frozenset(kern.rows[x].support())
                        for x in kern.state_poset.elements},
                       kern.state_poset.elements)


def _require_ergodic_table(gc: GrandCoupling) -> None:
    """Raise :class:`NotErgodic` unless the table's support digraph is
    ergodic; the verdict is computed once per table."""
    verdict = gc._ergodic
    if not verdict:
        if verdict.witness == "reducible":
            raise NotErgodic("update table is reducible")
        raise NotErgodic(f"update table has period {verdict.witness[1]}")


def cftp_sample(gc: GrandCoupling, seed: int, stream: int = 0,
                max_epoch: int = DEFAULT_MAX_EPOCH,
                check_ergodic: bool = True) -> str:
    """One draw with exactly the stationary law.

    Doubling epochs reach into the past; the cell at time -t is reused
    bit for bit across epochs (counter-based draws, one keyed hash per
    sampler), and the composed map from each epoch start extends the
    stored one instead of being replayed.  States are tracked as indices
    through the table's integer columns, built once per table; the
    states, cells and draws are those of the string table, for the same
    ``(seed, stream)``.  Full-state tracking decides coalescence; the
    extremal shortcut is recomputed on every epoch and must agree, a
    guarantee the monotone update table enforces rather than a hope.
    """
    if check_ergodic:
        _require_ergodic_table(gc)
    sampler = CellSampler(gc.L, seed, stream)
    cols = gc._columns
    extremals = gc._extremals
    identity = tuple(range(len(gc.state_poset)))
    comp = identity  # composed map over times -covered..-1
    covered = 0
    T = 1
    while True:
        seg = identity
        for t in range(T, covered, -1):
            seg = tuple(map(cols[sampler.cell_at(t)].__getitem__, seg))
        comp = tuple(map(comp.__getitem__, seg))
        covered = T
        full = set(comp)
        ext = {comp[i] for i in extremals}
        if (len(full) == 1) != (len(ext) == 1):
            raise ContractViolation("trackers disagree", T)
        if len(full) == 1:
            return gc.state_poset.elements[comp[0]]
        if T >= max_epoch:
            raise BudgetExceeded(f"no coalescence by epoch {T}")
        T *= 2


def sample_many(gc: GrandCoupling, seed: int, n: int,
                max_epoch: int = DEFAULT_MAX_EPOCH) -> tuple[str, ...]:
    """n independent perfect draws, one stream per sample index."""
    _require_ergodic_table(gc)
    return tuple(
        cftp_sample(gc, seed, stream=k, max_epoch=max_epoch,
                    check_ergodic=False)
        for k in range(n))


def stationary_exact(kern: Kernel) -> RationalMeasure:
    """The unique stationary row, by rational Gaussian elimination."""
    support = {x: frozenset(kern.rows[x].support())
               for x in kern.state_poset.elements}
    if not _is_irreducible(support, kern.state_poset.elements):
        raise NotErgodic("kernel is reducible")
    els = kern.state_poset.elements
    n = len(els)
    # balance equations for all but one state, then normalization
    rows = [
        [kern.rows[u].of(v) - (F1 if u == v else F0) for u in els]
        for v in els[:-1]
    ]
    rows.append([F1] * n)
    rhs = [F0] * (n - 1) + [F1]

    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [a * inv for a in rows[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return rational_measure(els, {x: rhs[i] for i, x in enumerate(els)})


def chi_square_fit(counts: Mapping[str, int],
                   target: RationalMeasure) -> tuple[float, float]:
    """(statistic, p-value) of observed counts against a target law.

    The only floating point in the package.  The p-value is the
    chi-square upper tail of Pearson's statistic, with one degree of
    freedom fewer than the target's support states (:func:`_chi2_sf`).
    """
    n = sum(counts.values())
    stat = 0.0
    df = -1
    for s in target.domain():
        p = target.of(s)
        if p == 0:
            continue
        expected = n * float(p)
        stat += (counts.get(s, 0) - expected) ** 2 / expected
        df += 1
    if df <= 0:
        return 0.0, 1.0
    return stat, _chi2_sf(stat, df)


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _log_poisson_term(a: float, h: float) -> float:
    """``log(h**a * exp(-h) / Gamma(a + 1))`` for ``a >= 0`` and ``h > 0``.

    The plain form subtracts logs of size ``a log a``, whose rounding
    alone exceeds 1e-12 in a tail near ``h = a`` with ``a`` in the
    thousands.  So from ``a = 30`` on, and for ``h >= a/2``, the form of
    Loader (2000) is used: ``a log(h/a)`` through ``log1p`` and Stirling's
    series for ``log Gamma(a + 1)``.  Below ``h = a/2`` the term is under
    ``exp(-a/6)``, too small for that rounding to show.
    """
    if a < 30 or 2 * h < a:
        return a * math.log(h) - h - math.lgamma(a + 1)
    d = h - a
    s = 1 / a
    s2 = s * s
    stirling = s * (1 / 12 - s2 * (1 / 360 - s2 * (1 / 1260 - s2 / 1680)))
    return (a * math.log1p(d / a) - d - stirling
            - _HALF_LOG_2PI - 0.5 * math.log(a))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail ``P(chi2_df > x)`` for an integer ``df >= 1``.

    Abramowitz & Stegun (1964), 26.4.4-5, with ``h = x/2``: a sum of the
    terms ``h**a e**-h / Gamma(a + 1)`` over ``a = 0, 1, ..., df/2 - 1``
    for even ``df``, and ``erfc(sqrt h)`` plus the terms over
    ``a = 1/2, 3/2, ..., df/2 - 1`` for odd ``df``.  Each term is built
    in log space, so none overflows or underflows before it is summed.
    """
    h = x / 2
    if h <= 0:  # also an x so small that x/2 rounds to zero
        return 1.0
    odd = df % 2
    terms = [math.erfc(math.sqrt(h)) if odd else 0.0]
    terms += (math.exp(_log_poisson_term(odd / 2 + k, h))
              for k in range(df // 2))
    return min(math.fsum(terms), 1.0)
