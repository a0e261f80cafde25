"""Grid-cell synchronization of inverse transforms, and synchronizability.

A synchronizing family reorders the uniform seed ahead of each inverse
transform so that the composed maps are pointwise ordered.  With rational
masses everything lives on a common grid of L equal cells: a monotone
coupling becomes a cell table, one row of states per index, and a row
written against the raw inverse transform is a cell permutation (hence
preserves the uniform law).  When the index poset's cover graph is a
tree, the tables can instead be glued edge by edge from integer
transports of cell counts, with no coupling at all.

The second half of the module decides whether an index poset admits the
construction at all: build the two interlacing graphs on its extremal
elements and look for locally connected spanning trees, each decided by
one maximum-weight spanning tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping

from .coupling import Coupling, MeasureSystem, Verdict, integer_transport
from .errors import (
    DomainMismatch,
    GridMismatch,
    InfeasibleInput,
    SizeLimit,
)
from .measure import RationalMeasure
from .poset import LinearExtension, Poset, RootedTree, covers

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
    scale, ints = measure.integral
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
                             ) -> dict[str, CellPermutation]:
    """The trivial family: every index keeps the raw inverse transform."""
    L = bounded_grid(common_grid(system))
    return {a: CellPermutation.identity(L) for a in system.index_poset.elements}


def raw_tables(system: MeasureSystem, extension: LinearExtension,
               ) -> tuple[int, dict[str, tuple[str, ...]]]:
    """The common grid and, per index, the raw inverse transform along
    ``extension``: the table that the identity family composes to."""
    L = bounded_grid(common_grid(system))
    return L, {a: cell_states(system.measure_of(a), extension, L)
               for a in system.index_poset.elements}


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
    up, down = S.arcs, S.dual().arcs
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


def coupling_tables(system: MeasureSystem, coupling: Coupling,
                    extension: LinearExtension,
                    ) -> tuple[int, dict[str, tuple[str, ...]]]:
    """The grid size and the cell table of a coupling: its atoms, sorted
    by the extension ranks of their tuples, take weight times L
    consecutive cells each, so a monotone coupling gives a table ordered
    on every cell, whatever the extension.  The rows have the system's
    counts because the marginals, checked here, match it; an atom with
    more or fewer states than indices is refused before them."""
    if coupling.index_order != system.index_poset.elements:
        raise DomainMismatch("coupling indices do not match the system")
    width = len(coupling.index_order)
    for tup in coupling.atoms:
        if len(tup) != width:
            raise DomainMismatch(
                f"atom {tup!r} has {len(tup)} states, expected {width}")
    L = bounded_grid(common_grid(system, coupling))
    for alpha in coupling.index_order:
        want = system.measure_of(alpha)
        got = coupling.marginal(alpha)
        for s in system.state_poset.elements:
            if got.get(s, Fraction(0)) != want.of(s):
                raise InfeasibleInput(
                    f"coupling marginal at {alpha!r} differs from the "
                    f"system measure at state {s!r}")

    rank = extension.rank
    rows: list[list[str]] = [[] for _ in coupling.index_order]
    for tup, w in sorted(coupling.atoms.items(),
                         key=lambda kv: tuple(map(rank, kv[0]))):
        n = w * L
        if n.denominator != 1:
            raise GridMismatch(f"grid of {L} cells cannot carry weight {w}")
        for row, s in zip(rows, tup):
            row += [s] * n.numerator
    return L, dict(zip(coupling.index_order, map(tuple, rows)))


def synchronize_from_coupling(system: MeasureSystem, coupling: Coupling,
                              extension: LinearExtension,
                              ) -> dict[str, CellPermutation]:
    """The cell table of a monotone coupling (:func:`coupling_tables`),
    written as one cell permutation per index: the raw inverse transform
    is the row stably sorted by extension rank, and ``phi_alpha`` sends
    cell ``i`` to the place that sort gives it."""
    L, tables = coupling_tables(system, coupling, extension)
    phis = {}
    for alpha, row in tables.items():
        ranks = list(map(extension.rank, row))
        perm = [0] * L
        for j, i in enumerate(sorted(range(L), key=ranks.__getitem__)):
            perm[i] = j
        phis[alpha] = CellPermutation(L, tuple(perm))
    return phis


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
        tables[alpha] = tuple(map(raw.__getitem__, phi.perm))
    return L, tables


def table_violations(system: MeasureSystem, L: int,
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

    Counts: each index's row must hold L cells (else the witness is
    ``("cells", index)``), mass times L for each state (else ``("counts",
    index, state)``).  Order: no cell may map a comparable index pair out
    of order, decided on the cover pairs of the index poset, exact as the
    state order is transitive; the witness is the first
    :class:`Violation` over every comparable pair, scanned cell by cell.
    """
    for alpha in system.index_poset.elements:
        if len(tables[alpha]) != L:
            return Verdict(False, ("cells", alpha))
        counts = Counter(tables[alpha])
        mass = system.measure_of(alpha).mass
        for s in system.state_poset.elements:
            m = mass[s]
            if counts[s] * m.denominator != m.numerator * L:
                return Verdict(False, ("counts", alpha, s))
    leq = system.state_poset.leq
    if all(all(map(leq, tables[a], tables[b]))
           for a, b in covers(system.index_poset)):
        return Verdict(True)
    return Verdict(False, next(table_violations(system, L, tables)))


def synchronization_violations(system: MeasureSystem,
                               phis: Mapping[str, CellPermutation],
                               extension: LinearExtension,
                               ) -> tuple[Violation, ...]:
    """Every cell on which some comparable pair maps out of order,
    scanned cell by cell."""
    return tuple(table_violations(
        system, *composed_tables(system, phis, extension)))


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


def _interlacing(poset: Poset) -> InterlacingGraph:
    """Pairs of minimal elements strictly below a common element, found
    in one pass over the relation."""
    mins = poset.minimal()
    is_min = set(mins)
    below: dict[str, list[str]] = {}
    for a, c in poset.relation:
        if a in is_min:  # a minimal c lists only itself: no pair
            below.setdefault(c, []).append(a)
    return InterlacingGraph(mins, frozenset(
        frozenset(pair) for d in below.values()
        for pair in combinations(d, 2)))


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
                                    ) -> SpanningTreeWitness | None:
    """A locally connected spanning tree of ``graph``, or None when there
    is none.

    Local connectivity: for every element of the poset, the tree edges
    among the extremal elements below it (above it, on the maximal side)
    must connect them.  Weigh each edge by the number of distinct such
    principal sets ``D`` (``|D| >= 2``) holding both its ends.  A
    spanning tree induces a forest on each ``D``, so its weight is at
    most the sum of ``|D| - 1``, with equality exactly when every ``D``
    is connected.  A maximum-weight spanning tree (Kruskal, heaviest
    edge first, ties in vertex-rank order) therefore decides the
    question: it is the witness when it spans and reaches the bound,
    and otherwise no witness exists.
    """
    if side not in ("minimal", "maximal"):
        raise ValueError(f"unknown side {side!r}")
    vertices = graph.vertices
    n = len(vertices)
    if n <= 1:
        return SpanningTreeWitness(side, vertices, frozenset())
    if len(graph.edges) < n - 1:  # too few edges to span the graph
        return None

    vrank = {v: i for i, v in enumerate(vertices)}
    # the vertices at or below (above) each element; a vertex heads only
    # its own one-vertex set
    beyond: dict[str, list[str]] = {}
    for a, b in poset.relation:
        if side == "maximal":
            a, b = b, a
        if a in vrank:
            beyond.setdefault(b, []).append(a)
    principal = {tuple(sorted(d, key=vrank.__getitem__))
                 for d in beyond.values() if len(d) >= 2}
    # each principal set is a clique of the graph (its vertices lie below
    # a common element), so its pairs are its edges
    weight = Counter(pair for d in principal for pair in combinations(d, 2))
    edge_list = sorted(
        (tuple(sorted(e, key=vrank.__getitem__)) for e in graph.edges),
        key=lambda e: (-weight[e], vrank[e[0]], vrank[e[1]]))

    parent = {v: v for v in vertices}
    chosen: list[tuple[str, str]] = []
    total = 0
    for u, v in edge_list:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
            chosen.append((u, v))
            total += weight[u, v]
    if len(chosen) < n - 1 or total < sum(len(d) - 1 for d in principal):
        return None
    return SpanningTreeWitness(side, vertices,
                               frozenset(frozenset(e) for e in chosen))


def _find(parent: dict[str, str], x: str) -> str:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_synchronizable(poset: Poset) -> bool:
    """True iff both interlacing graphs admit locally connected spanning
    trees, each decided by one maximum-weight spanning tree
    (:func:`locally_connected_spanning_tree`); a sufficient condition
    for every stochastically monotone system over this index poset to
    be realizable when the state poset has all branching elements
    extremal."""
    gmin, gmax = interlacing_graphs(poset)
    if locally_connected_spanning_tree(gmin, poset, "minimal") is None:
        return False
    return locally_connected_spanning_tree(gmax, poset, "maximal") is not None
