"""Finite posets, cover graphs, up-sets, rooted trees and linear extensions.

Everything downstream (measures, couplings, the sampler) works over the
two structures built here: a validated finite poset, and, when the cover
graph is a tree, a rooted orientation of it together with a linear
extension obtained by ordering each children set.

A poset is stored as its elements and one integer bitmask per element,
the row of its up-closure (:attr:`Poset.up`).  Every answer is read off
those rows by bit operations and built once, on first read: the index
arcs, the strict pairs, the extremal elements, the cover graph and its
cover pairs, and a linear extension.  The relation as a set of name
pairs, which :meth:`Poset.leq` reads, is such a view too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleError,
    DuplicateElement,
    NotALeaf,
    NotATree,
    SizeLimit,
    UnknownElement,
)

DEFAULT_UPSET_CAP = 2**20


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class Poset:
    """A finite partially ordered set.

    ``Poset(elements, relation)`` takes every pair ``(a, b)`` with
    ``a <= b``, reflexive pairs included.  Construct via
    :func:`validate_poset` (or the :func:`chain` / :func:`antichain`
    helpers), which take the reflexive-transitive closure, reject cycles
    and hand over the closure rows without making the pairs.

    ``up[i]`` has bit ``j`` set iff ``elements[i] <= elements[j]``.  Two
    posets are equal when their elements, in order, and rows are.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __init__(self, elements: tuple[str, ...],
                 relation: frozenset[tuple[str, str]]):
        idx = {x: i for i, x in enumerate(elements)}
        up = [0] * len(idx)
        for a, b in relation:
            up[idx[a]] |= 1 << idx[b]
        self.__dict__.update(elements=elements, up=tuple(up),
                             relation=relation, _index=idx)

    @classmethod
    def _of_rows(cls, elements: tuple[str, ...],
                 up: tuple[int, ...]) -> Poset:
        poset = object.__new__(cls)
        poset.__dict__.update(elements=elements, up=up)
        return poset

    def __repr__(self) -> str:
        return f"Poset(elements={self.elements!r}, relation={self.relation!r})"

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        """Every pair ``(a, b)`` with ``a <= b``, as names."""
        els = self.elements
        return frozenset([(a, els[j]) for a, row in zip(els, self.up)
                          for j in set_bits(row)])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def index(self, x: str) -> int:
        """Position of ``x`` in the declared element order."""
        return self._index[x]

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.relation

    @cached_property
    def _above(self) -> tuple[int, ...]:
        """The strict rows: ``up[i]`` without bit ``i``."""
        return tuple([row & ~(1 << i) for i, row in enumerate(self.up)])

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every ``(i, j)`` with ``elements[i] <= elements[j]``, sorted:
        the order as index pairs, built once and read by every question
        that walks it."""
        return tuple([(i, j) for i, row in enumerate(self.up)
                      for j in set_bits(row)])

    def strict_pairs(self) -> tuple[tuple[str, str], ...]:
        """All pairs ``(a, b)`` with ``a < b``, in element-index order."""
        return self._strict_pairs

    @cached_property
    def _strict_pairs(self) -> tuple[tuple[str, str], ...]:
        els = self.elements
        return tuple([(a, els[j]) for a, row in zip(els, self._above)
                      for j in set_bits(row)])

    @cached_property
    def _cover_rows(self) -> tuple[int, ...]:
        """Bit ``j`` of row ``i`` is set iff ``elements[j]`` covers
        ``elements[i]``: it lies strictly above ``i`` and strictly above
        nothing strictly above ``i``."""
        above = self._above
        rows = []
        for row in above:
            beyond = 0
            for k in set_bits(row):
                beyond |= above[k]
            rows.append(row & ~beyond)
        return tuple(rows)

    @cached_property
    def _covers(self) -> tuple[tuple[str, str], ...]:
        els = self.elements
        return tuple(sorted([(a, els[j]) for a, row
                             in zip(els, self._cover_rows)
                             for j in set_bits(row)]))

    @cached_property
    def _cover_graph(self) -> CoverGraph:
        els = self.elements
        edges = [(els[min(i, j)], els[max(i, j)])
                 for i, row in enumerate(self._cover_rows)
                 for j in set_bits(row)]
        return CoverGraph(els, frozenset(edges))

    def minimal(self) -> tuple[str, ...]:
        return self._minimal

    def maximal(self) -> tuple[str, ...]:
        return self._maximal

    @cached_property
    def _minimal(self) -> tuple[str, ...]:
        above = 0  # every element strictly above another
        for row in self._above:
            above |= row
        return tuple([x for j, x in enumerate(self.elements)
                      if not above >> j & 1])

    @cached_property
    def _maximal(self) -> tuple[str, ...]:
        return tuple([x for x, row in zip(self.elements, self._above)
                      if not row])

    def dual(self) -> "Poset":
        """The same ground set with the order reversed; built once."""
        return self._dual

    @cached_property
    def _dual(self) -> Poset:
        down = [0] * len(self.up)
        for i, row in enumerate(self.up):
            for j in set_bits(row):
                down[j] |= 1 << i
        return Poset._of_rows(self.elements, tuple(down))

    def linear_order(self) -> tuple[str, ...]:
        """A deterministic linear extension: minimal-first, ties by input order."""
        return self._linear_order

    @cached_property
    def _linear_order(self) -> tuple[str, ...]:
        # each step places the first element, in input order, all of
        # whose lower elements are placed: the lowest bit of ``ready``
        above, below = self._above, self._dual._above
        ready = sum(1 << i for i, row in enumerate(below) if not row)
        placed = 0
        out: list[str] = []
        while ready:
            low = ready & -ready
            i = low.bit_length() - 1
            out.append(self.elements[i])
            placed |= low
            ready ^= low
            for j in set_bits(above[i]):
                if not below[j] & ~placed:
                    ready |= 1 << j
        if len(out) < len(self.elements):  # pragma: no cover
            # validate_poset forbids cycles; a relation given whole may not
            raise CycleError("relation is not acyclic")
        return tuple(out)


def validate_poset(elements: Sequence[str],
                   pairs: Iterable[tuple[str, str]]) -> Poset:
    """Close ``pairs`` reflexively and transitively and check antisymmetry.

    ``pairs`` may mix cover pairs and arbitrary order pairs; each ``(a, b)``
    asserts ``a <= b``.  A repeated element is refused first, then the
    first unknown name in pair order, then the cycle through the first
    ``(i, j)``, ``i < j``, in index order.

    The order is closed on one integer bitmask per element: bit ``j`` of
    ``up[i]`` is set iff ``elements[i] <= elements[j]``.  Row ``i`` grows
    by a search over its set bits that takes each earlier row whole, as
    that row is closed already.  The poset keeps the rows.
    """
    elements = tuple(elements)
    idx = {x: i for i, x in enumerate(elements)}
    if len(idx) != len(elements):
        seen: set[str] = set()
        for x in elements:
            if x in seen:
                raise DuplicateElement(f"element {x!r} declared twice")
            seen.add(x)
    n = len(elements)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in idx:
            raise UnknownElement(f"unknown element {a!r}")
        if b not in idx:
            raise UnknownElement(f"unknown element {b!r}")
        up[idx[a]] |= 1 << idx[b]
    for i in range(n):
        reach = up[i]
        todo = reach ^ (1 << i)
        while todo:
            low = todo & -todo
            new = up[low.bit_length() - 1] & ~reach
            reach |= new
            todo = (todo ^ low) | new
        up[i] = reach
    # distinct elements reach the same set exactly when they share a cycle
    if len(set(up)) < n:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if (up[i] >> j) & (up[j] >> i) & 1)
        raise CycleError(
            f"{elements[i]!r} and {elements[j]!r} are in a cycle")
    return Poset._of_rows(elements, tuple(up))


def chain(elements: Sequence[str]) -> Poset:
    """Total order with ``elements[0]`` at the bottom."""
    els = tuple(elements)
    return validate_poset(els, [(els[i], els[i + 1])
                                for i in range(len(els) - 1)])


def antichain(elements: Sequence[str]) -> Poset:
    return validate_poset(tuple(elements), [])


@dataclass(frozen=True)
class CoverGraph:
    """Undirected graph of cover relations.

    Edges are stored as pairs ordered by vertex index, so serialization
    and iteration are deterministic.  Connectivity, which the tree and
    path tests read, is searched once per graph.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def _adj(self) -> dict[str, tuple[str, ...]]:
        idx = {v: i for i, v in enumerate(self.vertices)}
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {v: tuple(sorted(ns, key=idx.__getitem__))
                for v, ns in nbrs.items()}

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) <= 1)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in self.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1

    def is_path(self) -> bool:
        return self.is_tree() and all(self.degree(v) <= 2 for v in self.vertices)


def cover_graph(poset: Poset) -> CoverGraph:
    """Edge ``{x, y}`` present iff one covers the other (nothing strictly
    between).  Computed once per poset and cached on it."""
    return poset._cover_graph


def covers(poset: Poset) -> tuple[tuple[str, str], ...]:
    """Cover pairs ``(lower, upper)``, sorted lexicographically by name;
    computed once per poset and cached on it."""
    return poset._covers


def default_root(poset: Poset) -> str:
    """A deterministic cover-graph leaf to root at: the first maximal leaf
    in element order when one exists (a chain is then rooted at its top,
    reproducing the classical transform), else the first leaf.  Raises
    :class:`NotATree` when the cover graph has no leaf."""
    leaves = cover_graph(poset).leaves()
    if not leaves:
        raise NotATree("cover graph has no leaf to root at")
    maximal = set(poset.maximal())
    for x in leaves:
        if x in maximal:
            return x
    return leaves[0]


def up_sets(poset: Poset, cap: int = DEFAULT_UPSET_CAP) -> tuple[frozenset[str], ...]:
    """All up-sets of the poset, the empty set and the full set included.

    No code of the package calls this: dominance is decided by one
    integer flow (:func:`monosync.coupling.stochastically_leq`).  It is
    the tests' oracle, an exhaustive scan to check those verdicts
    against, and it is exponential in the width of the poset.

    Elements are decided from the top of a linear extension downward; an
    element may join only if everything covering it is already in, so each
    up-set is produced exactly once.  The sets are built level by level
    on integer bitmasks, one level per decided element, without recursion:
    each partial set is followed by itself without the element and then,
    when allowed, with it, which is the order a depth-first search that
    tries "exclude" before "include" would give.  Raises
    :class:`SizeLimit` beyond ``cap``; excluding every remaining element
    always completes a partial set, so no level is larger than the final
    count and a level beyond ``cap`` already proves the count is.
    """
    order = poset.linear_order()
    graph = cover_graph(poset)
    bit = {x: 1 << i for i, x in enumerate(order)}
    level = [0]
    for x in reversed(order):
        if len(level) > cap:
            break
        need = 0
        for y in graph.neighbors(x):
            if poset.lt(x, y):
                need |= bit[y]
        own = bit[x]
        nxt: list[int] = []
        for s in level:
            nxt.append(s)
            if s & need == need:
                nxt.append(s | own)
        level = nxt
    if len(level) > cap:
        raise SizeLimit(f"more than {cap} up-sets")
    # each set is the union of its two halves, each half decoded once
    h = len(order) // 2
    low = (1 << h) - 1
    lows: dict[int, frozenset[str]] = {}
    highs: dict[int, frozenset[str]] = {}
    out: list[frozenset[str]] = []
    for s in level:
        lo, hi = s & low, s >> h
        a = lows.get(lo)
        if a is None:
            a = lows[lo] = _members(order, lo)
        b = highs.get(hi)
        if b is None:
            b = highs[hi] = _members(order[h:], hi)
        out.append(a | b)
    return tuple(out)


def _members(names: Sequence[str], mask: int) -> frozenset[str]:
    return frozenset(x for i, x in enumerate(names) if mask >> i & 1)


class PosetClass(enum.Enum):
    """Classification of a finite poset by the shape of its cover graph."""

    Z = "Z"
    W = "W"
    BY = "BY"
    NON_ACYCLIC_OR_DISCONNECTED = "NonAcyclicOrDisconnected"


def branching_elements(poset: Poset) -> frozenset[str]:
    """Elements whose children set has two or more members under some leaf
    rooting: on a tree, exactly the elements of cover degree >= 3."""
    graph = cover_graph(poset)
    if not graph.is_tree():
        raise NotATree("cover graph is not a tree")
    return frozenset(x for x in poset.elements if graph.degree(x) >= 3)


def classify(poset: Poset) -> PosetClass:
    """Z: cover graph is a path.  W: every branching element is extremal.

    BY covers the remaining tree-shaped posets (some branching element is
    interior to the order); cyclic or disconnected cover graphs get the
    last tag.
    """
    graph = cover_graph(poset)
    if not graph.is_tree():
        return PosetClass.NON_ACYCLIC_OR_DISCONNECTED
    if graph.is_path():
        return PosetClass.Z
    maximal = set(poset.maximal())
    minimal = set(poset.minimal())
    for x in branching_elements(poset):
        if x not in maximal and x not in minimal:
            return PosetClass.BY
    return PosetClass.W


@dataclass(frozen=True)
class RootedTree:
    """Orientation of a tree cover graph toward a leaf root.

    ``x <= y`` in the rooted order iff ``y`` lies on the path from the
    root to ``x``; the root is the maximum.  ``children[x]`` carries the
    chosen linear order on each children set.
    """

    root: str
    parent: Mapping[str, str]
    children: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class LinearExtension:
    """Total order on the ground set, smallest first."""

    order: tuple[str, ...]

    @cached_property
    def _rank_of(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.order)}

    def rank(self, x: str) -> int:
        return self._rank_of[x]


def root_tree(poset: Poset, root: str,
              child_orderings: Mapping[str, Sequence[str]] | None = None,
              ) -> tuple[RootedTree, LinearExtension]:
    """Root the cover graph at leaf ``root`` and build the induced extension.

    The extension is the post-order traversal that visits each children
    set in its chosen order: descendants precede ancestors, and the whole
    subtree of an earlier child precedes the subtree of a later one.
    Default child order is the input element order.
    """
    if root not in poset._index:
        raise UnknownElement(f"unknown element {root!r}")
    graph = cover_graph(poset)
    if not graph.is_tree():
        raise NotATree("cover graph is not a tree")
    if graph.degree(root) > 1:
        raise NotALeaf(f"{root!r} has cover degree {graph.degree(root)}")
    child_orderings = dict(child_orderings or {})

    parent: dict[str, str] = {}
    children: dict[str, tuple[str, ...]] = {}
    stack = [root]
    seen = {root}
    while stack:
        x = stack.pop()
        kids = [y for y in graph.neighbors(x) if y not in seen]
        if x in child_orderings:
            chosen = tuple(child_orderings.pop(x))
            if sorted(chosen) != sorted(kids):
                raise UnknownElement(
                    f"child ordering for {x!r} must be a permutation of {sorted(kids)}")
            kids = list(chosen)
        children[x] = tuple(kids)
        for y in kids:
            parent[y] = x
            seen.add(y)
            stack.append(y)
    if child_orderings:
        stray = next(iter(child_orderings))
        raise UnknownElement(f"child ordering given for non-branching {stray!r}")

    # post-order is the reverse of the pre-order that visits each
    # children set last to first
    order: list[str] = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(children[x])
    order.reverse()
    return RootedTree(root, parent, children), LinearExtension(tuple(order))
