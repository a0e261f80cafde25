"""Stochastic-order decisions and monotone-coupling construction.

Three layers, all exact:

* pairwise dominance, decided by one integer max-flow (Strassen's
  characterization: dominance holds iff a coupling concentrated on
  ordered pairs exists), whose minimum cut is the violating up-set when
  it fails, and whose flow is the Strassen coupling when it holds;
* systems of measures over an index poset, with a witness-producing
  monotonicity check, one max-flow per cover pair;
* the ground-truth oracle ``realize``: a feasibility LP over all
  order-preserving assignments, returning either an exact coupling or a
  Farkas certificate that no monotone realization exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Mapping, Sequence

from .errors import ContractViolation, DomainMismatch, SizeLimit
from .linprog import FarkasVector, integral, solve_feasibility
from .measure import F0, RationalMeasure
from .poset import Poset, chain, cover_graph, covers

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
        """The common denominator of each measure, the scale of its
        integer view; their lcm is that of every mass."""
        return tuple(m.integral[0] for m in self.measures.values())


def measure_system(index_poset: Poset, state_poset: Poset,
                   measures: Mapping[str, RationalMeasure]) -> MeasureSystem:
    if not index_poset.elements:
        raise DomainMismatch("index poset has no elements")
    for alpha in index_poset.elements:
        if alpha not in measures:
            raise DomainMismatch(f"no measure assigned to index {alpha!r}")
        domain = measures[alpha].domain()
        if (domain != state_poset.elements
                and set(domain) != set(state_poset.elements)):
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


def _numerators(measures: Sequence[RationalMeasure],
                elements: Sequence[str]) -> tuple[int, list[list[int]]]:
    """The masses of every measure on ``elements``, in that order, as
    integer numerators over one common denominator, the lcm of them all,
    which is returned first: sums of them compare as the masses do.  Read
    off each measure's integer view, by name where its domain order is
    not ``elements``."""
    views = [p.integral for p in measures]
    scale = lcm(*[s for s, _ in views])
    elements = tuple(elements)
    rows = []
    for p, (s, numerators) in zip(measures, views):
        if p.domain() != elements:
            by_name = dict(zip(p.domain(), numerators))
            numerators = [by_name[x] for x in elements]
        k = scale // s
        rows.append([n * k for n in numerators])
    return scale, rows


def _augment(supply: Sequence[int], demand: Sequence[int],
             arcs: Sequence[tuple[int, int]],
             ) -> tuple[list[int], list[int]]:
    """Maximum flow of integer ``supply[i]`` onto ``demand[j]`` along the
    distinct ``arcs`` ``(i, j)``, by breadth-first augmenting paths.

    Source -> i has capacity ``supply[i]``, j -> sink ``demand[j]``, and
    every arc the total supply.  A residual search starts from the supply
    nodes left with residual supply, in index order; from a supply node
    it follows its arcs in the order of ``arcs``, and from a demand node
    first the sink and then, backwards, the arcs into it in the order of
    ``arcs``.  Returns the flow of each arc, aligned with ``arcs``, and
    the supply nodes, ascending, that the last residual search reached:
    none exactly when the whole supply moved.
    """
    n, total = len(supply), sum(supply)
    tail = [i for i, _ in arcs]
    head = [j for _, j in arcs]
    out: list[list[int]] = [[] for _ in supply]  # arcs leaving each i
    into: list[list[int]] = [[] for _ in demand]  # arcs entering each j
    for k, (i, j) in enumerate(arcs):
        out[i].append(k)
        into[j].append(k)
    flow = [0] * len(arcs)
    sent = [0] * n  # source -> i
    met = [0] * len(demand)  # j -> sink
    while True:
        # the arc each node was reached by, -1 for the source, -2 unreached
        via_i = [-2] * n
        via_j = [-2] * len(demand)
        queue = [i for i in range(n) if sent[i] < supply[i]]
        for i in queue:
            via_i[i] = -1
        end = -1
        for u in queue:  # grows as it is read; demand node j is n + j
            if u < n:
                for k in out[u]:
                    j = head[k]
                    if via_j[j] == -2 and flow[k] < total:
                        via_j[j] = k
                        queue.append(n + j)
                continue
            j = u - n
            if met[j] < demand[j]:
                end = j
                break
            for k in into[j]:
                i = tail[k]
                if via_i[i] == -2 and flow[k] > 0:
                    via_i[i] = k
                    queue.append(i)
        if end < 0:
            return flow, [i for i in range(n) if via_i[i] != -2]

        j = end
        bottleneck = demand[j] - met[j]
        while True:
            k = via_j[j]
            bottleneck = min(bottleneck, total - flow[k])
            i = tail[k]
            k = via_i[i]
            if k < 0:
                bottleneck = min(bottleneck, supply[i] - sent[i])
                break
            bottleneck = min(bottleneck, flow[k])
            j = head[k]
        j = end
        met[j] += bottleneck
        while True:
            k = via_j[j]
            flow[k] += bottleneck
            i = tail[k]
            k = via_i[i]
            if k < 0:
                sent[i] += bottleneck
                break
            flow[k] -= bottleneck
            j = head[k]


def _up_closure(poset: Poset, reached: Sequence[int]) -> frozenset[str]:
    """The up-set generated by the elements at positions ``reached``: the
    union of their closure rows."""
    mask = 0
    for i in reached:
        mask |= poset.up[i]
    return frozenset([x for j, x in enumerate(poset.elements)
                      if mask >> j & 1])


def dominance_violation(p1: RationalMeasure, p2: RationalMeasure,
                        poset: Poset) -> frozenset[str] | None:
    """The smallest up-set ``U`` maximizing ``p1(U) - p2(U)`` when that
    maximum is positive, or None when ``p1`` is dominated.

    One integer transport of ``p1`` onto ``p2`` up the order decides it
    (Strassen 1965); ``U`` is the min cut that :func:`is_stoch_monotone`
    describes.
    """
    _, (n1, n2) = _numerators((p1, p2), poset.elements)
    reached = _augment(n1, n2, poset.arcs)[1]
    return _up_closure(poset, reached) if reached else None


def stochastically_leq(p1: RationalMeasure, p2: RationalMeasure,
                       poset: Poset) -> bool:
    """True iff ``p1(U) <= p2(U)`` for every up-set ``U``."""
    return dominance_violation(p1, p2, poset) is None


def integer_transport(supply: Sequence[int], demand: Sequence[int],
                      arcs: Sequence[tuple[int, int]],
                      ) -> dict[tuple[int, int], int] | None:
    """Move integer ``supply[i]`` onto ``demand[j]`` along the allowed,
    distinct ``arcs`` ``(i, j)``; None when not every unit can be moved.

    A bipartite max-flow by breadth-first augmentation on integers
    (:func:`_augment`), so the flow is exact and the run terminates.
    Returns the positive flow of each arc, in the order of ``arcs``.
    """
    flow, short = _augment(supply, demand, arcs)
    if short or sum(supply) != sum(demand):
        return None
    return {arc: f for arc, f in zip(arcs, flow) if f > 0}


def strassen_coupling(p1: RationalMeasure, p2: RationalMeasure,
                      poset: Poset) -> Coupling | None:
    """A coupling supported on ``{(a, b): a <= b}``, or None if not dominated.

    The masses of both measures are put over one common denominator and
    moved by :func:`integer_transport` along every ordered pair; the
    flow value reaches the whole supply exactly when dominance holds.
    """
    els = poset.elements
    scale, (n1, n2) = _numerators((p1, p2), els)
    flow = integer_transport(n1, n2, poset.arcs)
    if flow is None:
        return None
    return Coupling(PAIR_INDICES, {
        (els[i], els[j]): Fraction(f, scale) for (i, j), f in flow.items()})


def is_stoch_monotone(system: MeasureSystem) -> Verdict:
    """Check every comparable index pair for stochastic dominance.

    ``P_alpha <= P_beta`` holds iff an integer transport of ``P_alpha``
    onto ``P_beta`` along ``a <= b`` moves all the mass (Strassen 1965),
    both over the lcm of all the system's masses.  The verdict takes one
    transport per cover pair of the index poset, which is exact because
    dominance is transitive.  On failure the witness is
    ``(alpha, beta, U)`` for the first pair ``alpha < beta`` in
    ``strict_pairs`` order whose transport falls short, each pair's
    transport run once.  ``U`` is the up-closure of the supply states
    that the last residual search reached: by the max-flow min-cut
    theorem it is the unique smallest up-set maximizing
    ``P_alpha(U) - P_beta(U)``, and that maximum is the positive
    shortfall.  This is the canonical witness.
    """
    S = system.state_poset
    indices = system.index_poset.elements
    numer = dict(zip(indices, _numerators(
        [system.measure_of(a) for a in indices], S.elements)[1]))
    reached: dict[tuple[str, str], list[int]] = {}

    def short(pair: tuple[str, str]) -> list[int]:
        if pair not in reached:
            alpha, beta = pair
            reached[pair] = _augment(numer[alpha], numer[beta], S.arcs)[1]
        return reached[pair]

    if not any(map(short, covers(system.index_poset))):
        return Verdict(True)
    # a failing cover pair is a strict pair, so one is found
    alpha, beta = next(filter(short, system.index_poset.strict_pairs()))
    return Verdict(False, (alpha, beta, _up_closure(S, short((alpha, beta)))))


def monotone_tuples(index_poset: Poset, state_poset: Poset,
                    cap: int = DEFAULT_TUPLE_CAP,
                    ) -> tuple[tuple[str, ...], ...]:
    """All order-preserving maps from the index poset to the state poset.

    Tuples align with ``index_poset.elements`` and come back sorted
    lexicographically by state index, so downstream pivoting and file
    output are deterministic.  Raises :class:`SizeLimit` beyond ``cap``.
    """
    states = state_poset.elements
    return tuple(tuple(map(states.__getitem__, f))
                 for f in _index_tuples(index_poset, state_poset, cap))


def _index_tuples(index_poset: Poset, state_poset: Poset,
                  cap: int) -> list[tuple[int, ...]]:
    """The maps of :func:`monotone_tuples` as state indices, sorted.

    Indices are assigned along a minimal-first linear extension by a
    depth-first search on an explicit stack, not by recursion: an index
    may take the states at or above those of its lower covers, which are
    all assigned before it.
    """
    states = state_poset.elements
    above: list[list[int]] = [[] for _ in states]
    for i, j in state_poset.arcs:
        above[i].append(j)
    above_sets = [frozenset(a) for a in above]
    every = tuple(range(len(states)))
    topo = index_poset.linear_order()
    n = len(topo)
    at = {alpha: k for k, alpha in enumerate(topo)}
    # the lower covers of each index, as earlier positions in ``topo``:
    # its cover neighbours that the extension puts before it
    graph = cover_graph(index_poset)
    lower = [tuple(sorted(at[y] for y in graph.neighbors(alpha) if at[y] < k))
             for k, alpha in enumerate(topo)]
    place = tuple(map(at.__getitem__, index_poset.elements))

    # the states above every one of a tuple of states, ascending
    meets: dict[tuple[int, ...], list[int]] = {}
    found: list[tuple[int, ...]] = []
    assign = [0] * n
    stack: list = []  # stack[k] iterates the states left for position k
    while True:
        k = len(stack)
        if k < n:
            cover = lower[k]
            if not cover:
                cands = every
            elif len(cover) == 1:
                cands = above[assign[cover[0]]]
            else:
                below = tuple(map(assign.__getitem__, cover))
                cands = meets.get(below)
                if cands is None:
                    rest = [above_sets[s] for s in below[1:]]
                    cands = meets[below] = [
                        t for t in above[below[0]]
                        if all(t in r for r in rest)]
            if k < n - 1:
                stack.append(iter(cands))
            else:  # the last position completes a tuple per candidate
                for assign[k] in cands:
                    found.append(tuple(map(assign.__getitem__, place)))
        else:  # no index at all: one empty tuple
            found.append(())
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
    return found


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
    yield a certificate that :func:`verify_certificate` re-checks.  The
    LP is built on state indices, a tuple's column being its rows
    ``i * len(states) + state index``, and names are made only for the
    returned atoms or dual.  Both are checked before they are returned:
    the coupling by :func:`check_coupling`, the certificate against the
    columns already built here (nonpositive on each, ``y.b`` equal to its
    positive gap); either failure raises :class:`ContractViolation`.
    """
    indices = system.index_poset.elements
    states = system.state_poset.elements
    ns = len(states)
    tuples = _index_tuples(system.index_poset, system.state_poset, cap)
    # row i * ns + j is the equation of (indices[i], states[j])
    offsets = range(0, len(indices) * ns, ns)
    columns = [tuple(map(add, offsets, tup)) for tup in tuples]
    b = [system.measure_of(a).of(s) for a in indices for s in states]

    result = solve_feasibility(columns, b)
    if isinstance(result, FarkasVector):
        yscale, ys = integral(result.y)
        bad = next((tup for tup, col in zip(tuples, columns)
                    if sum(map(ys.__getitem__, col)) > 0), None)
        bscale, bs = integral(b)
        rhs = Fraction(sum(map(mul, ys, bs)), yscale * bscale)
        if bad is not None or not rhs == result.gap > 0:
            witness = (("tuple", tuple(map(states.__getitem__, bad)))
                       if bad is not None else ("gap", rhs))
            raise ContractViolation(
                f"certificate fails its check: {witness}", witness)
        dual = {(indices[r // ns], states[r % ns]): v
                for r, v in enumerate(result.y) if v}
        return InfeasibilityCertificate(dual, result.gap)
    atoms = {tuple(map(states.__getitem__, tuples[j])): w
             for j, w in sorted(result.x.items())}
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

    Raises :class:`ContractViolation` on the first violation, witness
    ``("index_order", order)``, ``("total", total)``, ``("length", tup)``,
    ``("weight", tup)``, ``("order", tup, a, b)`` or ``("marginal", a, x)``.
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
        if len(tup) != len(A):
            fail("length", tup)
        if not w > 0:
            fail("weight", tup)
        for i, j in A.arcs:
            if not S.leq(tup[i], tup[j]):
                fail("order", tup, A.elements[i], A.elements[j])
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
