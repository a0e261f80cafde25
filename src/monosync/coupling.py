"""Stochastic-order decisions and monotone-coupling construction.

Three layers, all exact:

* pairwise dominance, decided by enumerating up-sets or, independently,
  by an integer max-flow (Strassen's characterization: dominance holds
  iff a coupling concentrated on ordered pairs exists);
* systems of measures over an index poset, with a witness-producing
  monotonicity check;
* the ground-truth oracle ``realize``: a feasibility LP over all
  order-preserving assignments, returning either an exact coupling or a
  Farkas certificate that no monotone realization exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ContractViolation, DomainMismatch, SizeLimit
from .linprog import FarkasVector, integral, solve_feasibility
from .measure import F0, RationalMeasure
from .poset import DEFAULT_UPSET_CAP, Poset, chain, covers, up_sets

DEFAULT_TUPLE_CAP = 10**6

PAIR_INDICES = ("1", "2")


@dataclass(frozen=True)
class MeasureSystem:
    """Measures on a common state poset, one per index element."""

    index_poset: Poset
    state_poset: Poset
    measures: Mapping[str, RationalMeasure]

    def measure_of(self, alpha: str) -> RationalMeasure:
        return self.measures[alpha]

    def denominators(self) -> tuple[int, ...]:
        out: list[int] = []
        for m in self.measures.values():
            out.extend(m.denominators())
        return tuple(out)


def measure_system(index_poset: Poset, state_poset: Poset,
                   measures: Mapping[str, RationalMeasure]) -> MeasureSystem:
    for alpha in index_poset.elements:
        if alpha not in measures:
            raise DomainMismatch(f"no measure assigned to index {alpha!r}")
        if set(measures[alpha].mass) != set(state_poset.elements):
            raise DomainMismatch(
                f"measure for {alpha!r} not on the state poset's ground set")
    extra = set(measures) - set(index_poset.elements)
    if extra:
        raise DomainMismatch(f"measures for unknown indices {sorted(extra)}")
    return MeasureSystem(index_poset, state_poset,
                         {a: measures[a] for a in index_poset.elements})


@dataclass(frozen=True)
class Coupling:
    """Joint law over order-preserving assignments.

    Keys of ``atoms`` are state tuples aligned with ``index_order``;
    weights are positive rationals summing to one.
    """

    index_order: tuple[str, ...]
    atoms: Mapping[tuple[str, ...], Fraction]

    def marginal(self, alpha: str) -> dict[str, Fraction]:
        pos = self.index_order.index(alpha)
        out: dict[str, Fraction] = {}
        for tup, w in self.atoms.items():
            s = tup[pos]
            out[s] = out.get(s, F0) + w
        return out

    def total(self) -> Fraction:
        return sum(self.atoms.values(), F0)

    def denominators(self) -> tuple[int, ...]:
        return tuple(w.denominator for w in self.atoms.values())


@dataclass(frozen=True)
class Verdict:
    """Boolean result carrying a witness for the failing case."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _numerators(measures) -> list[dict[str, int]]:
    """The masses of every measure as integer numerators over one common
    denominator, the lcm of them all: sums of them compare as the masses do."""
    _, ints = integral([m for p in measures for m in p.mass.values()])
    it = iter(ints)
    return [{x: next(it) for x in p.mass} for p in measures]


def dominance_violation(p1: RationalMeasure, p2: RationalMeasure,
                        poset: Poset, cap: int = DEFAULT_UPSET_CAP,
                        ) -> frozenset[str] | None:
    """An up-set with ``p1(U) > p2(U)``, or None when ``p1`` is dominated."""
    n1, n2 = _numerators((p1, p2))
    for u in up_sets(poset, cap):
        if sum(map(n1.__getitem__, u)) > sum(map(n2.__getitem__, u)):
            return u
    return None


def stochastically_leq(p1: RationalMeasure, p2: RationalMeasure,
                       poset: Poset, cap: int = DEFAULT_UPSET_CAP) -> bool:
    """True iff ``p1(U) <= p2(U)`` for every up-set ``U``."""
    return dominance_violation(p1, p2, poset, cap) is None


def integer_transport(supply: Sequence[int], demand: Sequence[int],
                      arcs: Sequence[tuple[int, int]],
                      ) -> dict[tuple[int, int], int] | None:
    """Move integer ``supply[i]`` onto ``demand[j]`` along the allowed
    ``arcs`` ``(i, j)``; None when not every unit can be moved.

    Bipartite max-flow: source -> i at capacity ``supply[i]``, j -> sink
    at ``demand[j]``, and an arc i -> j for every allowed pair whose
    capacity, the total supply, never binds.  Breadth-first augmentation
    on integers, so the flow is exact and the run terminates.  Returns the
    positive flow of each arc, in the order of ``arcs``.
    """
    n = len(supply)
    source, sink = n + len(demand), n + len(demand) + 1
    total = sum(supply)
    cap: dict[tuple[int, int], int] = {}
    for i, c in enumerate(supply):
        if c > 0:
            cap[(source, i)] = c
    for j, c in enumerate(demand):
        if c > 0:
            cap[(n + j, sink)] = c
    for i, j in arcs:
        cap[(i, n + j)] = total
    adj: dict[int, list[int]] = {}
    for (u, v) in cap:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    flow: dict[tuple[int, int], int] = dict.fromkeys(cap, 0)

    def residual(u: int, v: int) -> int:
        if (u, v) in cap:
            return cap[(u, v)] - flow[(u, v)]
        return flow.get((v, u), 0)

    value = 0
    while True:
        prev: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in prev and residual(u, v) > 0:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            break
        path = [sink]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        bottleneck = min(
            residual(path[k], path[k + 1]) for k in range(len(path) - 1))
        for k in range(len(path) - 1):
            u, v = path[k], path[k + 1]
            if (u, v) in cap:
                flow[(u, v)] += bottleneck
            else:
                flow[(v, u)] -= bottleneck
        value += bottleneck

    if value != total or total != sum(demand):
        return None
    return {(i, j): f for (i, j) in arcs if (f := flow[(i, n + j)]) > 0}


def strassen_coupling(p1: RationalMeasure, p2: RationalMeasure,
                      poset: Poset) -> Coupling | None:
    """A coupling supported on ``{(a, b): a <= b}``, or None if not dominated.

    The masses of both measures are put over one common denominator and
    moved by :func:`integer_transport` along every ordered pair; the
    flow value reaches the whole supply exactly when dominance holds.
    """
    els = poset.elements
    n = len(els)
    scale, ints = integral([p.of(x) for p in (p1, p2) for x in els])
    arcs = [(i, j) for i, a in enumerate(els) for j, b in enumerate(els)
            if poset.leq(a, b)]
    flow = integer_transport(ints[:n], ints[n:], arcs)
    if flow is None:
        return None
    return Coupling(PAIR_INDICES, {
        (els[i], els[j]): Fraction(f, scale) for (i, j), f in flow.items()})


def is_stoch_monotone(system: MeasureSystem,
                      cap: int = DEFAULT_UPSET_CAP) -> Verdict:
    """Check every comparable index pair for stochastic dominance.

    The verdict is decided on the cover pairs of the index poset, which
    is exact because dominance is transitive.  The witness on failure is
    ``(alpha, beta, up_set)`` with ``alpha < beta`` but
    ``P_alpha(U) > P_beta(U)``: the first one in pair order, then up-set
    order, over every comparable pair.  Each ``P_alpha(U)`` is summed
    once, on first use, as an integer numerator over the lcm of all the
    system's masses, and shared by every pair that contains ``alpha``.
    """
    upsets = up_sets(system.state_poset, cap)
    indices = system.index_poset.elements
    numer = dict(zip(indices, _numerators(
        [system.measure_of(a) for a in indices])))
    masses: dict[str, list[int | None]] = {
        a: [None] * len(upsets) for a in indices}

    def violations(pairs):
        for alpha, beta in pairs:
            na, nb = numer[alpha].__getitem__, numer[beta].__getitem__
            ma, mb = masses[alpha], masses[beta]
            for k, u in enumerate(upsets):
                a = ma[k]
                if a is None:
                    a = ma[k] = sum(map(na, u))
                b = mb[k]
                if b is None:
                    b = mb[k] = sum(map(nb, u))
                if a > b:
                    yield alpha, beta, u
                    break

    if next(violations(covers(system.index_poset)), None) is None:
        return Verdict(True)
    return Verdict(False, next(violations(system.index_poset.strict_pairs())))


def monotone_tuples(index_poset: Poset, state_poset: Poset,
                    cap: int = DEFAULT_TUPLE_CAP,
                    ) -> tuple[tuple[str, ...], ...]:
    """All order-preserving maps from the index poset to the state poset.

    Tuples align with ``index_poset.elements`` and come back sorted
    lexicographically by state index, so downstream pivoting and file
    output are deterministic.  Indices are assigned along a minimal-first
    linear extension by a depth-first search on an explicit stack, not by
    recursion: an index may take the states at or above those of its
    lower covers, which are all assigned before it.  Raises
    :class:`SizeLimit` beyond ``cap``.
    """
    states = state_poset.elements
    above = [
        tuple(j for j, t in enumerate(states) if state_poset.leq(s, t))
        for s in states
    ]
    above_sets = [frozenset(a) for a in above]
    every = tuple(range(len(states)))
    topo = index_poset.linear_order()
    n = len(topo)
    # the lower covers of each index, as earlier positions in ``topo``
    lower = []
    for k, alpha in enumerate(topo):
        below = [j for j in range(k) if index_poset.lt(topo[j], alpha)]
        lower.append(tuple(
            j for j in below
            if not any(index_poset.lt(topo[j], topo[i]) for i in below)))
    place = tuple(map(topo.index, index_poset.elements))

    found: list[tuple[int, ...]] = []
    assign = [0] * n
    stack: list = []  # stack[k] iterates the states left for position k
    while True:
        k = len(stack)
        if k < n:
            cover = lower[k]
            if not cover:
                cands = every
            else:
                cands = above[assign[cover[0]]]
                if len(cover) > 1:
                    rest = [above_sets[assign[j]] for j in cover[1:]]
                    cands = [t for t in cands if all(t in r for r in rest)]
            stack.append(iter(cands))
        else:
            found.append(tuple(map(assign.__getitem__, place)))
            if len(found) > cap:
                raise SizeLimit(f"more than {cap} monotone tuples")
        while stack:
            t = next(stack[-1], None)
            if t is not None:
                assign[len(stack) - 1] = t
                break
            stack.pop()
        else:
            break
    found.sort()
    return tuple(tuple(map(states.__getitem__, f)) for f in found)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas witness: ``dual`` contracted with the marginal constraints
    is nonpositive on every monotone tuple yet has a strictly positive
    inner product with the right-hand side."""

    dual: Mapping[tuple[str, str], Fraction]  # (index, state) -> weight
    gap: Fraction


def realize(system: MeasureSystem,
            cap: int = DEFAULT_TUPLE_CAP) -> Coupling | InfeasibilityCertificate:
    """Ground-truth realizability oracle.

    Solves the exact feasibility LP over weights ``q(tuple) >= 0`` with
    one equation per (index, state): the weights of tuples assigning
    ``s`` to ``alpha`` must add up to ``P_alpha(s)``.  Feasible systems
    yield a coupling whose marginals match exactly; infeasible ones
    yield a certificate that :func:`verify_certificate` re-checks.  Both
    are checked before they are returned: the coupling by
    :func:`check_coupling`, the certificate against the tuples already
    enumerated here (nonpositive on each, ``y.b`` equal to its positive
    gap); either failure raises :class:`ContractViolation`.
    """
    tuples = monotone_tuples(system.index_poset, system.state_poset, cap)
    indices = system.index_poset.elements
    states = system.state_poset.elements
    row_of = {
        (a, s): i * len(states) + j
        for i, a in enumerate(indices)
        for j, s in enumerate(states)
    }
    columns = [
        tuple((row_of[(a, tup[i])], 1) for i, a in enumerate(indices))
        for tup in tuples
    ]
    b = [F0] * len(row_of)
    for (a, s), r in row_of.items():
        b[r] = system.measure_of(a).of(s)

    result = solve_feasibility(columns, b)
    if isinstance(result, FarkasVector):
        dual = {
            key: result.y[r]
            for key, r in sorted(row_of.items(),
                                 key=lambda kv: kv[1])
            if result.y[r] != 0
        }
        bad = _positive_tuple(system, dual, tuples)
        rhs = _dual_rhs(system, dual)
        if bad is not None or not rhs == result.gap > 0:
            witness = ("tuple", bad) if bad is not None else ("gap", rhs)
            raise ContractViolation(
                f"certificate fails its check: {witness}", witness)
        return InfeasibilityCertificate(dual, result.gap)
    atoms = {tuples[j]: w for j, w in sorted(result.x.items())}
    coupling = Coupling(indices, atoms)
    check_coupling(system, coupling)
    return coupling


def _positive_tuple(system: MeasureSystem,
                    dual: Mapping[tuple[str, str], Fraction],
                    tuples) -> tuple[str, ...] | None:
    """The first tuple on which ``dual`` contracts to a positive value."""
    _, ints = integral(list(dual.values()))
    weights: dict[str, dict[str, int]] = {}
    for (a, s), w in zip(dual, ints):
        weights.setdefault(a, {})[s] = w
    getters = [weights.get(a, {}).get for a in system.index_poset.elements]
    for tup in tuples:
        if sum(get(s, 0) for get, s in zip(getters, tup)) > 0:
            return tup
    return None


def _dual_rhs(system: MeasureSystem,
              dual: Mapping[tuple[str, str], Fraction]) -> Fraction:
    """``y.b``: the dual contracted with the system's masses."""
    return sum(
        (w * system.measure_of(a).of(s) for (a, s), w in dual.items()), F0)


def verify_certificate(system: MeasureSystem,
                       certificate: InfeasibilityCertificate,
                       cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """Exact re-check of a Farkas certificate against the constraint system."""
    tuples = monotone_tuples(system.index_poset, system.state_poset, cap)
    return (_positive_tuple(system, certificate.dual, tuples) is None
            and _dual_rhs(system, certificate.dual) > 0)


def check_coupling(system: MeasureSystem, coupling: Coupling) -> None:
    """Check exact marginals, weight normalization, and tuple monotonicity.

    Raises :class:`ContractViolation` on the first violation; its witness
    is ``("index_order", order)``, ``("total", total)``, ``("weight",
    tuple)``, ``("order", tuple, a, b)`` or ``("marginal", alpha, state)``.
    """
    def fail(*witness):
        raise ContractViolation(f"coupling fails its check: {witness}",
                                witness)

    if coupling.index_order != system.index_poset.elements:
        fail("index_order", coupling.index_order)
    if coupling.total() != 1:
        fail("total", coupling.total())
    A, S = system.index_poset, system.state_poset
    for tup, w in coupling.atoms.items():
        if not w > 0:
            fail("weight", tup)
        for i, a in enumerate(A.elements):
            for j, b in enumerate(A.elements):
                if A.leq(a, b) and not S.leq(tup[i], tup[j]):
                    fail("order", tup, a, b)
    for alpha in A.elements:
        marg = coupling.marginal(alpha)
        want = system.measure_of(alpha)
        for s in S.elements:
            if marg.get(s, F0) != want.of(s):
                fail("marginal", alpha, s)


def pair_system(p1: RationalMeasure, p2: RationalMeasure,
                state_poset: Poset) -> MeasureSystem:
    """Two measures over the canonical two-chain index poset."""
    return measure_system(chain(PAIR_INDICES), state_poset,
                          {PAIR_INDICES[0]: p1, PAIR_INDICES[1]: p2})
