"""Perfect sampling from a monotone Markov kernel on a poset.

The kernel's rows, read as a measure system indexed by the state poset
itself, get a grand coupling: one update table driven by a single
uniform cell per step, applied simultaneously from every state without
breaking the order.  Coupling from the past then reaches one step further
into history at a time, composing each older cell in front of the map
already built, and stops as soon as every start state has funneled into
one value; that value has exactly the stationary law, which a rational
linear solve cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

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
    NotCoalescing,
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
from .rng import COUNTER, CellSampler, acceptance_bound, keyed_hash
from .synchronize import (
    check_cell_tables,
    coupling_tables,
    glued_tables,
    raw_tables,
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
    table is read-only once built and turned from names into indices
    once (``_columns``); the sampler's one move table (``_steps``: an
    ``itemgetter`` per cell, ``None`` for a cell whose column is the
    identity), its identity map and acceptance bound, the extremal
    indices and the ergodicity and coalescence verdicts are derived once
    and cached.
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
        """Cell-major index view: ``_columns[c][i]`` is the index of the
        next state from state ``i`` under cell ``c``."""
        pos = self.state_poset.index
        rows = (self.update[x] for x in self.state_poset.elements)
        return tuple(tuple(map(pos, col)) for col in zip(*rows))

    @cached_property
    def _steps(self) -> tuple[itemgetter | None, ...]:
        """The move of each cell: ``None`` where ``_columns[c]`` is the
        identity, which changes no map, else an ``itemgetter`` with
        ``_steps[c](comp)[i] == comp[_columns[c][i]]``.  On one state
        every column is the identity, so no getter returns a scalar."""
        identity = self._identity
        return tuple(None if col == identity else itemgetter(*col)
                     for col in self._columns)

    @cached_property
    def _identity(self) -> tuple[int, ...]:
        """The map from every state to itself, ``(0, ..., n - 1)``."""
        return tuple(range(len(self.state_poset)))

    @cached_property
    def _bound(self) -> int:
        """The acceptance bound of a cell draw on this grid
        (:func:`acceptance_bound`); a ``ValueError`` for ``L > 2**64``."""
        return acceptance_bound(self.L)

    @cached_property
    def _extremals(self) -> tuple[int, ...]:
        """Indices of the minimal, then the maximal states."""
        poset = self.state_poset
        return tuple(map(poset.index, dict.fromkeys(
            poset.minimal() + poset.maximal())))

    @cached_property
    def _ergodic(self) -> Verdict:
        """Ergodicity of the support digraph, then coalescence: whether
        coupling from the past can run on the table at all.  Both read
        only the distinct columns."""
        cols = set(self._columns)
        verdict = _ergodicity([{col[i] for col in cols}
                               for i in range(len(self.state_poset))])
        return self._coalescing if verdict else verdict

    @cached_property
    def _coalescing(self) -> Verdict:
        """Whether some cell sequence maps every state to one: iff each
        pair of states is merged by some sequence, so the pairs are
        searched back from the diagonal along the moves ``(i, j) ->
        (col[i], col[j])``, in O(n^2) times the distinct columns.  The
        witness names the first pair no sequence merges."""
        els = self.state_poset.elements
        cols = set(self._columns)
        pairs = list(combinations(range(len(els)), 2))
        into: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for i, j in pairs:
            for q in {tuple(sorted((col[i], col[j]))) for col in cols}:
                into.setdefault(q, []).append((i, j))
        stack = [(k, k) for k in range(len(els))]  # the merged pairs
        seen = set(stack)
        while stack:
            for p in into.get(stack.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        lost = [("apart", els[i], els[j])
                for i, j in pairs if (i, j) not in seen]
        return Verdict(not lost, lost[0] if lost else None)


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
      extension are already ordered (:func:`raw_tables`) when the
      kernel is stochastically monotone, so the table is built first and
      monotonicity is decided only when its check fails;
    * any other tree (classes W and BY): the rows are glued along the
      rooted cover tree by integer transports of cell counts
      (:func:`glued_tables`), with no tuple enumeration and no LP;
    * a cycle or several components: the realization oracle's coupling
      is laid out on cells along the poset's own linear order
      (:func:`coupling_tables`); the oracle returns an exact
      infeasibility certificate when no monotone table exists, and
      ``cap`` bounds its tuple enumeration.

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
        L, update = coupling_tables(system, result, extension)
    else:
        tree, extension = root_tree(poset, default_root(poset))
        if shape is PosetClass.Z:
            L, update = raw_tables(system, extension)
        else:
            glued = glued_tables(system, tree, extension)
            if glued is None:  # some cover pair is not dominated
                _require_stoch_monotone(system)
                raise ContractViolation(
                    "gluing failed on a monotone kernel", "glue")
            L, update = glued

    gc = GrandCoupling(L, poset, update)
    checked = check_grand_coupling(kern, gc)
    if not checked:  # every route falls back on the same verdict
        _require_stoch_monotone(system)
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


def _ergodicity(succ: Sequence[Iterable[int]]) -> Verdict:
    """Irreducible and aperiodic, decided on the support digraph with
    arcs ``u -> v`` for ``v`` in ``succ[u]``: breadth-first levels from
    state 0, one search back to it, and the period as the gcd of
    ``level[u] + 1 - level[v]`` over the arcs."""
    level = {0: 0}
    order = [0]
    for u in order:  # grows as it is read: breadth first
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                order.append(v)
    pred: list[list[int]] = [[] for _ in succ]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    back = {0}
    stack = [0]
    while stack:
        for u in pred[stack.pop()]:
            if u not in back:
                back.add(u)
                stack.append(u)
    if len(level) < len(succ) or len(back) < len(succ):
        return Verdict(False, "reducible")
    g = 0
    for u, vs in enumerate(succ):
        for v in vs:
            g = gcd(g, level[u] + 1 - level[v])
    return Verdict(True) if g == 1 else Verdict(False, ("periodic", g))


def is_ergodic(kern: Kernel) -> Verdict:
    """Irreducible and aperiodic, decided on the support digraph."""
    pos = kern.state_poset.index
    return _ergodicity([tuple(map(pos, kern.rows[x].support()))
                        for x in kern.state_poset.elements])


def _require_ergodic_table(gc: GrandCoupling) -> None:
    """Raise :class:`NotErgodic` unless the table's support digraph is
    ergodic, then :class:`NotCoalescing` unless coupling from the past
    can stop (Propp and Wilson, 1996); both are decided once per table."""
    verdict = gc._ergodic
    if not verdict.ok:  # not bool(verdict): this runs once per draw
        if verdict.witness == "reducible":
            raise NotErgodic("update table is reducible")
        kind, *rest = verdict.witness
        if kind == "periodic":
            raise NotErgodic(f"update table has period {rest[0]}")
        raise NotCoalescing("no cell sequence merges {!r} and {!r}".format(
            *rest))


def cftp_sample(gc: GrandCoupling, seed: int, stream: int = 0,
                max_epoch: int = DEFAULT_MAX_EPOCH) -> str:
    """One draw with exactly the stationary law.

    ``comp[i]`` is the state index at time 0 reached from state ``i`` at
    time ``-t``; each step back puts the cell at time ``-(t + 1)`` in front
    (``comp = _steps[cell](comp)``), so every time's cell is drawn once.
    The cells are those of ``CellSampler(gc.L, seed, stream)``: the
    attempt-0 word of time ``t`` is hashed here, from the one keyed hash
    of the draw, and a rejected word (rarer than ``L / 2**64``) is handed
    to ``cell_at``, the one definition of rejection.  An identity cell is
    hashed, so the stream does not move, and then skipped: it leaves
    ``comp`` as it was.  Full-state tracking decides: the draw is
    returned as soon as ``comp`` is constant, tested after every move
    (two entries first, then all ``n``), which it then stays for every
    earlier start (Propp and Wilson, 1996), so it is the value that
    epochs of doubled length would return at the first power of two at
    or beyond that time.  At each such epoch boundary ``T`` the extremal
    shortcut must agree (the monotone update table guarantees it), and
    ``max_epoch`` bounds the last epoch tried.  A table that is not
    ergodic or never coalesces is refused first, by its cached verdict.
    """
    _require_ergodic_table(gc)
    L = gc.L
    bound = gc._bound
    copy = keyed_hash(seed, stream).copy
    pack = COUNTER.pack
    from_bytes = int.from_bytes
    steps = gc._steps
    comp = gc._identity  # composed map over times -t..-1
    n = len(comp)
    t = 0
    T = 1
    while n > 1:  # the identity on one state is already constant
        for t in range(t + 1, T + 1):
            h = copy()
            h.update(pack(t, 0))  # t, not t mod 2**64: no draw gets there
            word = from_bytes(h.digest(), "big")
            step = steps[word % L if word < bound
                         else CellSampler(L, seed, stream).cell_at(t)]
            if step is not None:
                comp = step(comp)
                if comp[0] == comp[-1] and comp.count(comp[0]) == n:
                    return gc.state_poset.elements[comp[0]]
        if len({comp[i] for i in gc._extremals}) == 1:
            raise ContractViolation("trackers disagree", T)
        if T >= max_epoch:
            raise BudgetExceeded(f"no coalescence by epoch {T}")
        T *= 2
    return gc.state_poset.elements[comp[0]]


def sample_many(gc: GrandCoupling, seed: int, n: int,
                max_epoch: int = DEFAULT_MAX_EPOCH) -> tuple[str, ...]:
    """n independent perfect draws, one stream per sample index."""
    return tuple(cftp_sample(gc, seed, stream=k, max_epoch=max_epoch)
                 for k in range(n))


def stationary_exact(kern: Kernel) -> RationalMeasure:
    """The unique stationary row, by rational Gaussian elimination.

    The law is re-checked exactly before it is returned: it must sum to
    1 and satisfy ``pi P = pi`` at every state, or
    :class:`ContractViolation` names the first failure.
    """
    if is_ergodic(kern).witness == "reducible":
        raise NotErgodic("kernel is reducible")
    els = kern.state_poset.elements
    n = len(els)
    rows = [kern.rows[u] for u in els]
    # balance equations for all but one state, then normalization
    pi = _solve([[r.of(v) - (F1 if u == v else F0) for u, r in zip(els, rows)]
                 for v in els[:-1]] + [[F1] * n],
                [F0] * (n - 1) + [F1])
    total = sum(pi)
    if total != 1:
        raise ContractViolation("stationary law does not sum to 1",
                                ("total", total))
    for v, x in zip(els, pi):
        if sum(p * r.of(v) for p, r in zip(pi, rows)) != x:
            raise ContractViolation(
                f"stationary law is not invariant at {v!r}", ("balance", v))
    return rational_measure(els, dict(zip(els, pi)))


def _solve(rows: list[list[Fraction]],
           rhs: list[Fraction]) -> list[Fraction]:
    """``x`` with ``rows x = rhs`` for a nonsingular square system, by
    Gauss-Jordan elimination in place."""
    n = len(rows)
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
    return rhs


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
