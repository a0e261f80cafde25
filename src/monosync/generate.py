"""Random combinatorial structures for property tests and experiments.

Posets arrive as random orientations of random trees (any orientation of
a tree is a poset whose cover graph is exactly that tree), as random
relation subsets, or with bounds adjoined.  Measures are exact-uniform
compositions of a denominator.  Systems are stochastically monotone, so
downstream realizability stays a genuine question: each index takes a
candidate pushed up from a lower index's measure and keeps the first one
that dominates every lower index, by one integer flow per pair
(:func:`monosync.coupling.stochastically_leq`); when the candidates run
out, a chain of upward moves gives a system monotone by construction.

The module also hosts the randomized search for a stochastically
monotone but unrealizable system on the diamond, the smallest poset
whose cover graph has a cycle.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coupling import (
    InfeasibilityCertificate,
    MeasureSystem,
    measure_system,
    realize,
    stochastically_leq,
    verify_certificate,
)
from .errors import ContractViolation
from .measure import F0, RationalMeasure, rational_measure
from .poset import Poset, chain, covers, validate_poset
from .synchronize import is_synchronizable


def element_labels(n: int, prefix: str = "") -> tuple[str, ...]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if not prefix and n <= len(alphabet):
        return tuple(alphabet[:n])
    return tuple(f"{prefix or 'e'}{i}" for i in range(n))


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniform random recursive tree on vertices 0..n-1."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def _orient_tree(rng: random.Random, labels: tuple[str, ...],
                 edges: list[tuple[int, int]],
                 force_extremal_branching: bool) -> Poset:
    n = len(labels)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parity = {0: 0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in parity:
                parity[v] = parity[u] ^ 1
                frontier.append(v)
    flip = rng.random() < 0.5
    branching = {v for v in range(n) if len(adj[v]) >= 3}

    def is_source(v: int) -> bool:
        return bool(parity[v] ^ flip)

    pairs: list[tuple[str, str]] = []
    for u, v in edges:
        if force_extremal_branching and u in branching:
            arc = (u, v) if is_source(u) else (v, u)
        elif force_extremal_branching and v in branching:
            arc = (v, u) if is_source(v) else (u, v)
        else:
            arc = (u, v) if rng.random() < 0.5 else (v, u)
        pairs.append((labels[arc[0]], labels[arc[1]]))
    return validate_poset(labels, pairs)


def random_class_z(rng: random.Random, n: int) -> Poset:
    """A poset whose cover graph is a path: a randomly oriented path."""
    labels = element_labels(n)
    path = rng.sample(range(n), n)
    edges = [tuple(sorted((path[i], path[i + 1]))) for i in range(n - 1)]
    return _orient_tree(rng, labels, edges, force_extremal_branching=False)


def random_class_w(rng: random.Random, n: int) -> Poset:
    """A tree-shaped poset with every branching element extremal.

    Needs n >= 4 to have a branching vertex at all; trees are resampled
    until one appears, then branching vertices get source or sink
    polarity by depth parity (adjacent ones are never forced to clash).
    """
    if n < 4:
        raise ValueError("class W needs at least 4 elements")
    labels = element_labels(n)
    while True:
        edges = random_tree_edges(rng, n)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if max(degree) >= 3:
            return _orient_tree(rng, labels, edges,
                                force_extremal_branching=True)


def random_poset(rng: random.Random, n: int,
                 density: float | None = None) -> Poset:
    """Transitive closure of a random relation over a shuffled order."""
    labels = element_labels(n)
    if density is None:
        density = rng.random()
    perm = rng.sample(labels, n)
    pairs = [
        (perm[i], perm[j])
        for i in range(n) for j in range(i + 1, n)
        if rng.random() < density
    ]
    return validate_poset(labels, pairs)


def random_bounded_poset(rng: random.Random, inner: int,
                         density: float | None = None) -> Poset:
    """A random poset with a fresh minimum and maximum adjoined."""
    core = random_poset(rng, inner, density)
    bot, top = "bot", "top"
    pairs = [(a, b) for (a, b) in core.relation if a != b]
    pairs += [(bot, x) for x in core.elements]
    pairs += [(x, top) for x in core.elements]
    pairs.append((bot, top))
    return validate_poset((bot, *core.elements, top), pairs)


def random_synchronizable_poset(rng: random.Random, n: int,
                                tries: int = 200) -> Poset:
    """Rejection-sample a synchronizable poset; fall back to a chain
    (one minimal and one maximal element make the witnesses trivial)."""
    for _ in range(tries):
        poset = random_poset(rng, n)
        if is_synchronizable(poset):
            return poset
    return chain(element_labels(n))


def random_measure(rng: random.Random, poset: Poset,
                   denominator: int) -> RationalMeasure:
    """Exact-uniform composition: D unit quanta dropped into the elements."""
    k = len(poset.elements)
    d = denominator
    if k == 1:
        return rational_measure(poset.elements, {poset.elements[0]: Fraction(1)})
    cut = sorted(rng.sample(range(d + k - 1), k - 1))
    borders = [-1, *cut, d + k - 1]
    masses = {
        x: Fraction(borders[i + 1] - borders[i] - 1, d)
        for i, x in enumerate(poset.elements)
    }
    return rational_measure(poset.elements, masses)


def up_moves(rng: random.Random, measure: RationalMeasure, poset: Poset,
             steps: int, denominator: int) -> RationalMeasure:
    """Push ``steps`` quanta of 1/denominator upward along cover pairs.

    Every move raises the measure in the stochastic order, so the result
    dominates the input; masses must already be multiples of the quantum.
    """
    unit = Fraction(1, denominator)
    mass = dict(measure.mass)
    pairs = covers(poset)
    for _ in range(steps):
        options = [(x, y) for (x, y) in pairs if mass.get(x, F0) >= unit]
        if not options:
            break
        x, y = options[rng.randrange(len(options))]
        mass[x] -= unit
        mass[y] = mass.get(y, F0) + unit
    return rational_measure(poset.elements, mass)


def random_monotone_system_chain(rng: random.Random, index_poset: Poset,
                                 state_poset: Poset,
                                 denominator: int) -> MeasureSystem:
    """Monotone by construction: a chain of upward moves indexed through
    a monotone level function, so comparable indices get comparable
    measures without any feasibility search."""
    levels = len(index_poset.elements)
    ladder = [random_measure(rng, state_poset, denominator)]
    for _ in range(levels):
        ladder.append(up_moves(rng, ladder[-1], state_poset,
                               rng.randrange(0, denominator), denominator))
    g = {a: rng.randrange(levels + 1) for a in index_poset.elements}
    measures = {
        a: ladder[max(g[b] for b in index_poset.elements
                      if index_poset.leq(b, a))]
        for a in index_poset.elements
    }
    return measure_system(index_poset, state_poset, measures)


def random_monotone_system(rng: random.Random, index_poset: Poset,
                           state_poset: Poset, denominator: int,
                           tries: int = 8) -> MeasureSystem:
    """Per-index upward moves with a dominance check against all lower
    indices; incomparable indices get genuinely incomparable measures
    this way.  Falls back to the chain construction when the local
    search stalls, so it always returns a valid system."""
    order = index_poset.linear_order()
    chosen: dict[str, RationalMeasure] = {}
    for alpha in order:
        preds = [b for b in order if b in chosen and index_poset.lt(b, alpha)]
        got = None
        for _ in range(tries):
            if preds:
                base = chosen[preds[rng.randrange(len(preds))]]
                cand = up_moves(rng, base, state_poset,
                                rng.randrange(0, denominator), denominator)
            else:
                cand = random_measure(rng, state_poset, denominator)
            if all(stochastically_leq(chosen[b], cand, state_poset)
                   for b in preds):
                got = cand
                break
        if got is None:
            return random_monotone_system_chain(
                rng, index_poset, state_poset, denominator)
        chosen[alpha] = got
    return measure_system(index_poset, state_poset, chosen)


def diamond() -> Poset:
    """Four elements, two incomparable middles: the smallest poset whose
    cover graph has a cycle."""
    return validate_poset(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])


def search_infeasible_diamond(seed: int, max_trials: int = 10**5,
                              max_denominator: int = 16,
                              ):
    """Randomized hunt for a monotone-but-unrealizable diamond system.

    Each trial grows the two middle measures independently upward from a
    common bottom and keeps a common top above both, so the system is
    stochastically monotone by construction.  Trials whose middles are
    comparable are skipped: a system whose measures form a chain can be
    realized by gluing pairwise couplings, so only incomparable middles
    can defeat the oracle.  Returns (trial index, system, certificate)
    or None if the budget runs out.
    """
    poset = diamond()
    rng = random.Random(seed)
    for trial in range(max_trials):
        d = rng.randrange(2, max_denominator + 1)
        p_bot = random_measure(rng, poset, d)
        p_top = up_moves(rng, p_bot, poset, rng.randrange(1, 2 * d), d)
        p_a = up_moves(rng, p_bot, poset, rng.randrange(1, 2 * d), d)
        p_b = up_moves(rng, p_bot, poset, rng.randrange(1, 2 * d), d)
        if not (stochastically_leq(p_a, p_top, poset)
                and stochastically_leq(p_b, p_top, poset)):
            continue
        if (stochastically_leq(p_a, p_b, poset)
                or stochastically_leq(p_b, p_a, poset)):
            continue
        system = measure_system(poset, poset, {
            "bot": p_bot, "a": p_a, "b": p_b, "top": p_top})
        result = realize(system)
        if isinstance(result, InfeasibilityCertificate):
            if not verify_certificate(system, result):
                raise ContractViolation("certificate fails its re-check",
                                        trial)
            return trial, system, result
    return None
