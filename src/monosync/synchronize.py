"""Grid-cell synchronization of inverse transforms, and synchronizability.

A synchronizing family reorders the uniform seed ahead of each inverse
transform so that the composed maps are pointwise ordered.  With rational
masses everything lives on a common grid of L equal cells, and each
reordering is a cell permutation (hence preserves the uniform law).  When
the index poset's cover graph is a tree, the cell tables can instead be
glued edge by edge from integer transports of cell counts, with no
coupling at all.

The second half of the module decides whether an index poset admits the
construction at all: build the two interlacing graphs on its extremal
elements and search for locally connected spanning trees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .coupling import Coupling, MeasureSystem, Verdict, integer_transport
from .errors import (
    ContractViolation,
    DomainMismatch,
    GridMismatch,
    InfeasibleInput,
    SizeLimit,
)
from .linprog import integral
from .measure import RationalMeasure
from .poset import LinearExtension, Poset, RootedTree, covers

DEFAULT_TREE_CAP = 10**5
# far above the grids of the data/ fixtures, the tests and the benchmark
# inputs (at most 16 cells); a table holds one state per cell and index,
# so a larger grid is refused before any per-cell object is built
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class CellPermutation:
    """Piecewise translation of [0, 1) moving cell i onto cell perm[i].

    Bijectivity of ``perm`` is exactly preservation of the uniform law.
    """

    L: int
    perm: tuple[int, ...]

    def __post_init__(self):
        if len(self.perm) != self.L or sorted(self.perm) != list(range(self.L)):
            raise GridMismatch(f"perm is not a bijection on 0..{self.L - 1}")

    @classmethod
    def identity(cls, L: int) -> "CellPermutation":
        return cls(L, tuple(range(L)))

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def apply_cell(self, i: int) -> int:
        return self.perm[i]

    def apply(self, t: Fraction) -> Fraction:
        if not 0 <= t < 1:
            raise ValueError(f"t={t} outside [0, 1)")
        i = int(t * self.L)
        return (self.perm[i] + (t * self.L - i)) / self.L


def common_grid(*objects) -> int:
    """Least common multiple of every mass denominator found in the
    arguments (measures, systems, couplings)."""
    denoms = [d for obj in objects for d in obj.denominators()]
    return lcm(*denoms) if denoms else 1


def bounded_grid(L: int) -> int:
    """``L`` itself, or :class:`SizeLimit` when it has more than
    :data:`MAX_GRID_CELLS` cells; called before any per-cell object is
    built."""
    if L > MAX_GRID_CELLS:
        raise SizeLimit(f"grid of more than {MAX_GRID_CELLS} cells")
    return L


def cell_counts(measure: RationalMeasure, L: int) -> dict[str, int]:
    """The number of grid cells of each state, mass times ``L``, in
    integers; :class:`GridMismatch` when a mass is not a multiple of 1/L."""
    scale, ints = integral(list(measure.mass.values()))
    if L % scale:
        x = next(x for x, m in measure.mass.items() if L % m.denominator)
        raise GridMismatch(
            f"mass {measure.of(x)} of {x!r} is not a multiple of 1/{L}")
    k = L // scale
    return {x: n * k for x, n in zip(measure.mass, ints)}


def cell_states(measure: RationalMeasure, extension: LinearExtension,
                L: int) -> tuple[str, ...]:
    """The inverse transform evaluated on each of the L grid cells."""
    counts = cell_counts(measure, L)
    out: list[str] = []
    for x in extension.order:
        out.extend([x] * counts[x])
    return tuple(out)


def identity_synchronization(system: MeasureSystem,
                             L: int | None = None,
                             ) -> dict[str, CellPermutation]:
    """The trivial family: every index keeps the raw inverse transform."""
    L = bounded_grid(common_grid(system) if L is None else L)
    return {a: CellPermutation.identity(L) for a in system.index_poset.elements}


def glued_tables(system: MeasureSystem, tree: RootedTree,
                 extension: LinearExtension,
                 ) -> tuple[int, dict[str, tuple[str, ...]]] | None:
    """Cell tables glued along the cover tree of the index poset, or None
    when the measures of some cover pair are not ordered.

    The root's row is its inverse transform along ``extension``.  Each
    child's row comes from an integer transport of the parent's cell
    counts onto the child's (to states at or above, across an upward
    cover; at or below, across a downward one): the parent's cells of a
    state, in cell order, take the transport's targets of that state in
    its order.  So every cover pair is ordered on every cell and has the
    right counts, and, the order being transitive and every comparable
    pair joined by covers along the tree, so is every comparable pair
    (Strassen 1965; Fill & Machida 2001).  The grid is the common grid
    of the system.
    """
    L = bounded_grid(common_grid(system))
    A, S = system.index_poset, system.state_poset
    states = S.elements
    counts = {a: cell_counts(system.measure_of(a), L) for a in A.elements}
    pairs = [(i, j) for i in range(len(states)) for j in range(len(states))]
    up = [(i, j) for i, j in pairs if S.leq(states[i], states[j])]
    down = [(i, j) for i, j in pairs if S.leq(states[j], states[i])]
    tables = {tree.root: cell_states(system.measure_of(tree.root),
                                     extension, L)}
    stack = [tree.root]
    while stack:
        x = stack.pop()
        supply = [counts[x][s] for s in states]
        for c in tree.children[x]:
            flow = integer_transport(supply, [counts[c][s] for s in states],
                                     up if A.lt(x, c) else down)
            if flow is None:
                return None
            given: dict[str, list[str]] = {s: [] for s in states}
            for (i, j), f in flow.items():
                given[states[i]] += [states[j]] * f
            handout = {s: iter(t) for s, t in given.items()}
            tables[c] = tuple(next(handout[s]) for s in tables[x])
            stack.append(c)
    return L, tables


def synchronize_from_coupling(system: MeasureSystem, coupling: Coupling,
                              extension: LinearExtension,
                              L: int | None = None,
                              ) -> dict[str, CellPermutation]:
    """Turn a monotone coupling into one cell permutation per index.

    Expand the atoms into unit cells, sorted by the extension ranks of
    their tuples; each index in turn sends those cells into the interval
    its inverse transform dedicates to the atom's state there.  Counts
    match exactly because the coupling marginals do, which is checked
    rather than assumed (:class:`ContractViolation` otherwise).  Pointwise
    order of the composed maps is then inherited from atom monotonicity
    cell by cell, whatever the extension.
    """
    if coupling.index_order != system.index_poset.elements:
        raise DomainMismatch("coupling indices do not match the system")
    L = bounded_grid(common_grid(system, coupling) if L is None else L)
    for alpha in coupling.index_order:
        want = system.measure_of(alpha)
        got = coupling.marginal(alpha)
        for s in system.state_poset.elements:
            if got.get(s, Fraction(0)) != want.of(s):
                raise InfeasibleInput(
                    f"coupling marginal at {alpha!r} differs from the "
                    f"system measure at state {s!r}")

    pointer: dict[str, dict[str, int]] = {}
    fence: dict[str, dict[str, int]] = {}
    for alpha in coupling.index_order:
        counts = cell_counts(system.measure_of(alpha), L)
        acc = 0
        pointer[alpha], fence[alpha] = {}, {}
        for x in extension.order:
            pointer[alpha][x] = acc
            acc += counts[x]
            fence[alpha][x] = acc

    def rank_key(tup: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(extension.rank(s) for s in tup)

    perm = {alpha: [-1] * L for alpha in coupling.index_order}
    g = 0
    for tup, w in sorted(coupling.atoms.items(), key=lambda kv: rank_key(kv[0])):
        n = w * L
        if n.denominator != 1:
            raise GridMismatch(f"grid of {L} cells cannot carry weight {w}")
        n = int(n)
        for i, alpha in enumerate(coupling.index_order):
            p = pointer[alpha][tup[i]]
            if p + n > fence[alpha][tup[i]]:
                raise ContractViolation(
                    f"atoms overfill the cells of {tup[i]!r} at {alpha!r}",
                    (alpha, tup[i]))
            for k in range(n):
                perm[alpha][g + k] = p + k
            pointer[alpha][tup[i]] = p + n
        g += n
    if g != L:
        raise ContractViolation(f"atoms fill {g} of {L} cells", g)
    return {alpha: CellPermutation(L, tuple(cells))
            for alpha, cells in perm.items()}


@dataclass(frozen=True)
class Violation:
    """One grid cell where a comparable index pair maps out of order."""

    cell: int
    alpha: str
    beta: str
    state_alpha: str
    state_beta: str


def composed_tables(system: MeasureSystem,
                    phis: Mapping[str, CellPermutation],
                    extension: LinearExtension,
                    ) -> tuple[int, dict[str, tuple[str, ...]]]:
    """The grid size and, per index, the state each cell reaches through
    its permutation and then the inverse transform along ``extension``."""
    if set(phis) != set(system.index_poset.elements):
        raise DomainMismatch("permutation family does not cover the indices")
    grids = {phi.L for phi in phis.values()}
    if len(grids) != 1:
        raise GridMismatch(f"permutations on different grids: {sorted(grids)}")
    (L,) = grids
    tables = {}
    for alpha, phi in phis.items():
        raw = cell_states(system.measure_of(alpha), extension, L)
        tables[alpha] = tuple(raw[phi.apply_cell(i)] for i in range(L))
    return L, tables


def _violations(system: MeasureSystem, L: int,
                tables: Mapping[str, tuple[str, ...]]):
    """Cells on which a comparable index pair maps out of order, cell-major."""
    pairs = system.index_poset.strict_pairs()
    S = system.state_poset
    for i in range(L):
        for alpha, beta in pairs:
            sa, sb = tables[alpha][i], tables[beta][i]
            if not S.leq(sa, sb):
                yield Violation(i, alpha, beta, sa, sb)


def check_cell_tables(system: MeasureSystem, L: int,
                      tables: Mapping[str, tuple[str, ...]]) -> Verdict:
    """Full recomputation of the cell-table contract.

    Counts: the row of each index must give every state exactly mass
    times L cells; the witness is ``("counts", index, state)``.  Order:
    no cell may map a comparable index pair out of order.  That is
    decided on the cover pairs of the index poset, which is exact
    because the state order is transitive; the witness is the first
    :class:`Violation` over every comparable pair, scanned cell by cell.
    """
    for alpha in system.index_poset.elements:
        counts = Counter(tables[alpha])
        mass = system.measure_of(alpha).mass
        for s in system.state_poset.elements:
            m = mass[s]
            if counts[s] * m.denominator != m.numerator * L:
                return Verdict(False, ("counts", alpha, s))
    leq = system.state_poset.leq
    if all(all(map(leq, tables[a][:L], tables[b][:L]))
           for a, b in covers(system.index_poset)):
        return Verdict(True)
    return Verdict(False, next(_violations(system, L, tables)))


def synchronization_violations(system: MeasureSystem,
                               phis: Mapping[str, CellPermutation],
                               extension: LinearExtension,
                               ) -> tuple[Violation, ...]:
    """Every cell on which some comparable pair maps out of order,
    scanned cell by cell."""
    return tuple(_violations(system, *composed_tables(system, phis, extension)))


def verify_synchronized(system: MeasureSystem,
                        phis: Mapping[str, CellPermutation],
                        extension: LinearExtension) -> Verdict:
    """:func:`check_cell_tables` on the composed maps of the family."""
    return check_cell_tables(system, *composed_tables(system, phis, extension))


@dataclass(frozen=True)
class InterlacingGraph:
    """Extremal elements of an index poset, joined when a common element
    lies strictly beyond both."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def is_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            u = frontier.pop()
            for e in self.edges:
                if u in e:
                    (v,) = e - {u}
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return len(seen) == len(self.vertices)


def _interlacing(poset: Poset) -> InterlacingGraph:
    mins = poset.minimal()
    edges = set()
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            if any(poset.lt(a, c) and poset.lt(b, c) for c in poset.elements):
                edges.add(frozenset((a, b)))
    return InterlacingGraph(mins, frozenset(edges))


def interlacing_graphs(poset: Poset) -> tuple[InterlacingGraph, InterlacingGraph]:
    """The minimal-side and maximal-side interlacing graphs."""
    return _interlacing(poset), _interlacing(poset.dual())


@dataclass(frozen=True)
class SpanningTreeWitness:
    """A spanning tree of an interlacing graph whose induced subgraph on
    every principal extremal set is connected."""

    side: str  # "minimal" or "maximal"
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]


def locally_connected_spanning_tree(graph: InterlacingGraph, poset: Poset,
                                    side: str = "minimal",
                                    cap: int = DEFAULT_TREE_CAP,
                                    ) -> SpanningTreeWitness | None:
    """Search the spanning trees of ``graph`` for a locally connected one.

    Local connectivity: for every element of the poset, the tree edges
    among the extremal elements below it (above it, on the maximal side)
    must connect them.  Backtracking is exhaustive, so ``None`` is a
    proof of absence; the cap bounds the number of complete trees
    examined.
    """
    if side not in ("minimal", "maximal"):
        raise ValueError(f"unknown side {side!r}")
    if not graph.is_connected():
        return None
    vertices = graph.vertices
    n = len(vertices)
    if n <= 1:
        return SpanningTreeWitness(side, vertices, frozenset())

    below = poset.leq if side == "minimal" else (lambda a, b: poset.leq(b, a))
    # distinct principal sets with at least two vertices; a tree induces
    # a forest on each, so connectedness is a pure edge count
    principal = {
        frozenset(v for v in vertices if below(v, alpha))
        for alpha in poset.elements
    }
    principal = [d for d in principal if len(d) >= 2]

    vrank = {v: i for i, v in enumerate(vertices)}
    edge_list = sorted(
        (tuple(sorted(e, key=vrank.__getitem__)) for e in graph.edges),
        key=lambda e: (vrank[e[0]], vrank[e[1]]))
    examined = 0
    # depth-first over edge subsets in index order, on an explicit stack:
    # ``trail`` holds, per chosen edge, the next edge index to try and the
    # union-find forest from before the edge was added
    parent = {v: v for v in vertices}
    chosen: list[tuple[str, str]] = []
    trail: list[tuple[int, dict[str, str]]] = []
    k = 0
    while True:
        if len(chosen) == n - 1:
            examined += 1
            if examined > cap:
                raise SizeLimit(f"more than {cap} spanning trees examined")
            if all(sum(1 for (u, v) in chosen if u in d and v in d)
                   == len(d) - 1 for d in principal):
                return SpanningTreeWitness(
                    side, vertices,
                    frozenset(frozenset(e) for e in chosen))
        elif len(chosen) + (len(edge_list) - k) >= n - 1:
            u, v = edge_list[k]
            k += 1
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                trail.append((k, dict(parent)))
                parent[rv] = ru
                chosen.append((u, v))
            continue
        if not trail:
            return None
        k, parent = trail.pop()
        chosen.pop()


def _find(parent: dict[str, str], x: str) -> str:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_synchronizable(poset: Poset, cap: int = DEFAULT_TREE_CAP) -> bool:
    """True iff both interlacing graphs admit locally connected spanning
    trees; a sufficient condition for every stochastically monotone
    system over this index poset to be realizable when the state poset
    has all branching elements extremal."""
    gmin, gmax = interlacing_graphs(poset)
    if locally_connected_spanning_tree(gmin, poset, "minimal", cap) is None:
        return False
    return locally_connected_spanning_tree(gmax, poset, "maximal", cap) is not None
