"""Cell permutations, greedy synchronization, and synchronizability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IDENTITY_15, PHI2_15
from monosync.coupling import (
    Coupling,
    is_stoch_monotone,
    measure_system,
    realize,
    strassen_coupling,
)
from monosync.errors import (
    ContractViolation,
    DomainMismatch,
    GridMismatch,
    InfeasibleInput,
    SizeLimit,
)
from monosync.generate import (
    diamond,
    element_labels,
    random_bounded_poset,
    random_class_w,
    random_measure,
    random_monotone_system,
    random_poset,
    random_tree_edges,
)
from monosync.measure import rational_measure
from monosync.poset import (
    LinearExtension,
    PosetClass,
    chain,
    classify,
    default_root,
    root_tree,
    validate_poset,
)
from monosync.synchronize import (
    CellPermutation,
    InterlacingGraph,
    SpanningTreeWitness,
    Violation,
    bounded_grid,
    cell_counts,
    cell_states,
    check_cell_tables,
    common_grid,
    composed_tables,
    coupling_tables,
    glued_tables,
    identity_synchronization,
    interlacing_graphs,
    is_synchronizable,
    _find,
    locally_connected_spanning_tree,
    synchronization_violations,
    synchronize_from_coupling,
    verify_synchronized,
)

seeds = st.integers(0, 2**32 - 1)


def test_cell_permutation_contract():
    phi = CellPermutation(3, (2, 0, 1))
    assert phi.perm[0] == 2 and not phi.is_identity()
    assert CellPermutation.identity(3).is_identity()
    with pytest.raises(GridMismatch):
        CellPermutation(3, (0, 0, 2))
    with pytest.raises(GridMismatch):
        CellPermutation(2, (0, 1, 1))


def test_common_grid(p1, p2, w6_system, showcase_coupling):
    assert common_grid(p1) == 15
    assert common_grid(w6_system, showcase_coupling) == 15
    third = rational_measure(("lo", "hi"), {"lo": "1/3", "hi": "2/3"})
    quarter = rational_measure(("lo", "hi"), {"lo": "1/4", "hi": "3/4"})
    assert common_grid(third, quarter) == 12
    assert common_grid() == 1


def test_cell_states_w6(p1, psi):
    assert cell_states(p1, psi, 15) == (
        "x", "x", "x", "y", "y", "z", "v",
        "w", "w", "w", "w", "w", "w", "w", "tau")
    with pytest.raises(GridMismatch):
        cell_states(p1, psi, 10)


def test_identity_family(w6_system):
    phis = identity_synchronization(w6_system)
    assert set(phis) == {"1", "2"}
    assert all(phi.L == 15 and phi.is_identity() for phi in phis.values())


def test_naive_family_violations(w6_system, psi):
    naive = identity_synchronization(w6_system)
    assert synchronization_violations(w6_system, naive, psi) == (
        Violation(1, "1", "2", "x", "y"),
        Violation(6, "1", "2", "v", "z"),
    )
    verdict = verify_synchronized(w6_system, naive, psi)
    assert not verdict and verdict.witness == Violation(1, "1", "2", "x", "y")


def test_synchronize_showcase(w6_system, showcase_coupling, psi):
    phis = synchronize_from_coupling(w6_system, showcase_coupling, psi)
    assert phis["1"].perm == IDENTITY_15
    assert phis["2"].perm == PHI2_15
    assert verify_synchronized(w6_system, phis, psi)
    assert synchronization_violations(w6_system, phis, psi) == ()


def test_check_cell_tables_counts_cells(w6_system, showcase_coupling, psi):
    L, tables = coupling_tables(w6_system, showcase_coupling, psi)
    assert L == 15 and check_cell_tables(w6_system, L, tables)
    # one more cell, naming no state
    longer = {**tables, "1": tables["1"] + ("bogus",)}
    assert check_cell_tables(w6_system, L, longer).witness == ("cells", "1")


def pointer_synchronize_from_coupling(system, coupling, extension):
    """The pointer-and-fence construction that ``coupling_tables`` and
    the stable sort on rank replaced, kept verbatim as the oracle."""
    if coupling.index_order != system.index_poset.elements:
        raise DomainMismatch("coupling indices do not match the system")
    L = bounded_grid(common_grid(system, coupling))
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


def kite():
    """The diamond with one more element above its top."""
    return validate_poset(
        ("bot", "a", "b", "top", "peak"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"),
         ("top", "peak")])


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_coupling_tables_match_the_pointer_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    A = (chain(element_labels(n, "a")) if rng.random() < 0.5
         else random_poset(rng, n))
    kind = rng.randrange(4)
    S = (random_poset(rng, rng.randrange(1, 6)) if kind == 0
         else random_class_w(rng, rng.randrange(4, 7)) if kind == 1
         else diamond() if kind == 2 else kite())
    system = random_monotone_system(rng, A, S, rng.randrange(1, 6))
    coupling = realize(system)
    if not isinstance(coupling, Coupling):  # a cyclic S need not realize
        return
    extensions = [LinearExtension(S.linear_order())]
    if classify(S) is not PosetClass.NON_ACYCLIC_OR_DISCONNECTED:
        extensions.append(root_tree(S, default_root(S))[1])
    for ext in extensions:
        phis = synchronize_from_coupling(system, coupling, ext)
        oracle = pointer_synchronize_from_coupling(system, coupling, ext)
        assert phis == oracle
        assert coupling_tables(system, coupling, ext) == composed_tables(
            system, oracle, ext)


def test_synchronize_rejects_marginal_mismatch(w6_system, p1, psi):
    diagonal = Coupling(("1", "2"), {(s, s): p1.of(s) for s in p1.support()})
    with pytest.raises(InfeasibleInput):
        synchronize_from_coupling(w6_system, diagonal, psi)


@pytest.mark.parametrize("length", [1, 3])
def test_coupling_tables_refuse_atoms_of_the_wrong_length(w6_system, p1, psi,
                                                          length):
    # too short once failed inside the marginals; too long was cut by zip
    atoms = {(s,) * length: p1.of(s) for s in p1.support()}
    coupling = Coupling(("1", "2"), atoms)
    first = next(iter(atoms))
    message = f"atom {first!r} has {length} states, expected 2"
    for build in (coupling_tables, synchronize_from_coupling):
        with pytest.raises(DomainMismatch) as err:
            build(w6_system, coupling, psi)
        assert str(err.value) == message


def test_verify_needs_matching_family(w6_system, psi):
    phis = identity_synchronization(w6_system)
    with pytest.raises(DomainMismatch):
        verify_synchronized(w6_system, {"1": phis["1"]}, psi)
    mixed = {"1": phis["1"], "2": CellPermutation.identity(30)}
    with pytest.raises(GridMismatch):
        verify_synchronized(w6_system, mixed, psi)


def test_interlacing_w6(w6):
    gmin, gmax = interlacing_graphs(w6)
    assert gmin.vertices == ("x", "y", "w")
    assert gmin.edges == frozenset({
        frozenset({"x", "y"}), frozenset({"x", "w"}), frozenset({"y", "w"})})
    assert gmax.vertices == ("z", "v", "tau")
    assert gmax.edges == frozenset({
        frozenset({"z", "v"}), frozenset({"z", "tau"}),
        frozenset({"v", "tau"})})
    assert sum("x" in e for e in gmin.edges) == 2 and graph_is_connected(gmin)


def test_witness_tree_forced_edge():
    # g sees only a1 and a3 from below, so any witness must join them
    poset = validate_poset(
        ("a1", "a2", "a3", "g", "b"),
        [("a1", "g"), ("a3", "g"), ("g", "b"), ("a2", "b")])
    gmin, _ = interlacing_graphs(poset)
    assert gmin.edges == frozenset({
        frozenset({"a1", "a2"}), frozenset({"a1", "a3"}),
        frozenset({"a2", "a3"})})
    witness = locally_connected_spanning_tree(gmin, poset, "minimal")
    assert witness is not None
    assert frozenset({"a1", "a3"}) in witness.edges
    assert len(witness.edges) == 2
    assert is_synchronizable(poset)


def crown_poset():
    # four minimals whose principal sets force all four cycle edges
    els = ("m1", "m2", "m3", "m4", "b12", "b23", "b34", "b41")
    pairs = [("m1", "b12"), ("m2", "b12"), ("m2", "b23"), ("m3", "b23"),
             ("m3", "b34"), ("m4", "b34"), ("m4", "b41"), ("m1", "b41")]
    return validate_poset(els, pairs)


def test_no_witness_on_crown():
    poset = crown_poset()
    gmin, _ = interlacing_graphs(poset)
    assert len(gmin.edges) == 4  # the 4-cycle
    assert locally_connected_spanning_tree(gmin, poset, "minimal") is None
    assert not is_synchronizable(poset)


def test_witness_search_cap():
    poset = crown_poset()
    gmin, _ = interlacing_graphs(poset)
    with pytest.raises(ValueError):
        locally_connected_spanning_tree(gmin, poset, "sideways")


def test_synchronizable_trivia(w6):
    assert is_synchronizable(w6)
    assert is_synchronizable(chain(("a", "b", "c")))
    assert is_synchronizable(diamond())  # single minimum, single maximum


def graph_is_connected(graph):
    """The connectivity test the interlacing graph used to carry."""
    if len(graph.vertices) <= 1:
        return True
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        u = frontier.pop()
        for e in graph.edges:
            if u in e:
                (v,) = e - {u}
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return len(seen) == len(graph.vertices)


def backtracking_spanning_tree(graph, poset, side="minimal", cap=10**5):
    """The exhaustive backtracking search that the maximum-weight
    spanning tree replaced, kept verbatim as the oracle for its verdict
    (``graph_is_connected`` stands in for the removed method)."""
    if side not in ("minimal", "maximal"):
        raise ValueError(f"unknown side {side!r}")
    if not graph_is_connected(graph):
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


def is_locally_connected(witness, graph, poset, side):
    """The witness is a spanning tree of ``graph`` that connects the
    extremal elements below (above) every element of the poset."""
    edges = witness.edges
    if witness.vertices != graph.vertices or not edges <= graph.edges:
        return False
    if len(edges) != max(len(graph.vertices) - 1, 0):
        return False
    for alpha in poset.elements:
        d = tuple(v for v in graph.vertices if (
            poset.leq(v, alpha) if side == "minimal"
            else poset.leq(alpha, v)))
        inside = frozenset(e for e in edges if e <= set(d))
        if not graph_is_connected(InterlacingGraph(d, inside)):
            return False
    return True


def crown_with_top(k):
    """A k-crown (``m_i``, ``m_{i+1}`` below ``b_i``) with one element
    above every ``b_i``."""
    m = [f"m{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    pairs = [(m[i], b[i]) for i in range(k)]
    pairs += [(m[(i + 1) % k], b[i]) for i in range(k)]
    pairs += [(x, "top") for x in b]
    return validate_poset(m + b + ["top"], pairs)


def test_crown_with_top_is_not_synchronizable():
    poset = crown_with_top(8)
    gmin, gmax = interlacing_graphs(poset)
    assert len(gmin.vertices) == 8 and len(gmin.edges) == 28
    assert locally_connected_spanning_tree(gmin, poset, "minimal") is None
    assert locally_connected_spanning_tree(gmax, poset, "maximal")
    assert not is_synchronizable(poset)


def random_crown_like(rng):
    """Two to four minimals, one to four elements each above two of them,
    and maybe one element above some of those: at most 9 elements, often
    with a connected interlacing graph that has no locally connected
    spanning tree (rare among ``random_poset`` draws)."""
    m = [f"m{i}" for i in range(rng.randrange(2, 5))]
    b = [f"b{i}" for i in range(rng.randrange(1, 5))]
    pairs = [(x, y) for y in b for x in rng.sample(m, 2)]
    if rng.random() < 0.5:
        tops = rng.sample(b, rng.randrange(1, len(b) + 1))
        pairs += [(y, "top") for y in tops]
        return validate_poset(m + b + ["top"], pairs)
    return validate_poset(m + b, pairs)


@given(seeds)
@settings(max_examples=300)
def test_spanning_tree_matches_backtracking_oracle(seed):
    rng = random.Random(seed)
    poset = (random_poset(rng, rng.randrange(0, 10)) if rng.random() < 0.5
             else random_crown_like(rng))
    verdicts = []
    for graph, side in zip(interlacing_graphs(poset), ("minimal", "maximal")):
        witness = locally_connected_spanning_tree(graph, poset, side)
        oracle = backtracking_spanning_tree(graph, poset, side)
        assert (witness is None) == (oracle is None)
        if witness is not None:
            assert witness.side == side
            assert is_locally_connected(witness, graph, poset, side)
        verdicts.append(witness is not None)
    assert is_synchronizable(poset) == all(verdicts)


def pairwise_interlacing(poset):
    """The interlacing graph by its definition: each pair of minimal
    elements tested against every element with ``lt``."""
    mins = poset.minimal()
    edges = set()
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            if any(poset.lt(a, c) and poset.lt(b, c) for c in poset.elements):
                edges.add(frozenset((a, b)))
    return InterlacingGraph(mins, frozenset(edges))


@given(seeds)
@settings(max_examples=300)
def test_interlacing_matches_pairwise_definition(seed):
    rng = random.Random(seed)
    poset = (random_poset(rng, rng.randrange(0, 12)) if rng.random() < 0.5
             else random_crown_like(rng))
    assert interlacing_graphs(poset) == (pairwise_interlacing(poset),
                                         pairwise_interlacing(poset.dual()))


@given(seeds)
@settings(max_examples=30)
def test_synchronize_after_realize_verifies(seed):
    rng = random.Random(seed)
    S = random_class_w(rng, rng.randrange(4, 7))
    A = random_bounded_poset(rng, rng.randrange(0, 3))
    system = random_monotone_system(rng, A, S, rng.randrange(2, 6))
    coupling = realize(system)
    assert isinstance(coupling, Coupling)
    _, ext = root_tree(S, default_root(S))
    phis = synchronize_from_coupling(system, coupling, ext)
    assert verify_synchronized(system, phis, ext)


def test_synchronize_from_strassen(p1, p2, w6, psi, pair_poset):
    from monosync.coupling import pair_system
    system = pair_system(p1, p2, w6)
    coupling = strassen_coupling(p1, p2, w6)
    phis = synchronize_from_coupling(system, coupling, psi)
    assert verify_synchronized(system, phis, psi)


def random_tree_poset(rng, n):
    """A random orientation of a random tree on n elements."""
    labels = element_labels(n, "i")
    return validate_poset(labels, [
        (labels[u], labels[v]) if rng.random() < 0.5
        else (labels[v], labels[u])
        for u, v in random_tree_edges(rng, n)])


def random_states(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return diamond()
    if kind == 1:
        return random_class_w(rng, rng.randrange(4, 7))
    return random_poset(rng, rng.randrange(1, 6))


@given(seeds)
@settings(max_examples=120)
def test_glued_tables_on_tree_index_posets(seed):
    rng = random.Random(seed)
    A = random_tree_poset(rng, rng.randrange(1, 7))
    S = random_states(rng)
    system = random_monotone_system(rng, A, S, rng.randrange(1, 7))
    if rng.random() < 0.3:  # often no longer monotone
        measures = dict(system.measures)
        alpha = rng.choice(A.elements)
        measures[alpha] = random_measure(rng, S, rng.randrange(1, 7))
        system = measure_system(A, S, measures)
    tree, _ = root_tree(A, default_root(A))
    got = glued_tables(system, tree, LinearExtension(S.linear_order()))
    if not is_stoch_monotone(system):
        assert got is None
        return
    L, tables = got
    assert L == common_grid(system)
    assert check_cell_tables(system, L, tables)


def all_pairs_verdict(system, L, tables):
    """check_cell_tables' contract, by a scan of every index pair."""
    A, S = system.index_poset, system.state_poset
    for alpha in A.elements:
        for s in S.elements:
            if (sum(1 for t in tables[alpha] if t == s)
                    != system.measure_of(alpha).of(s) * L):
                return ("counts", alpha, s)
    for i in range(L):
        for alpha in A.elements:
            for beta in A.elements:
                a, b = tables[alpha][i], tables[beta][i]
                if A.lt(alpha, beta) and not S.leq(a, b):
                    return Violation(i, alpha, beta, a, b)
    return None


@given(seeds)
@settings(max_examples=120)
def test_check_cell_tables_matches_all_pairs_scan(seed):
    rng = random.Random(seed)
    kind = rng.randrange(4)
    A = (diamond() if kind == 0 else random_tree_poset(rng, 5) if kind == 1
         else random_poset(rng, rng.randrange(1, 5)))
    S = random_states(rng)
    system = random_monotone_system(rng, A, S, rng.randrange(1, 7))
    L = common_grid(system)
    if kind == 1 and rng.random() < 0.7:
        tree, _ = root_tree(A, default_root(A))
        _, tables = glued_tables(system, tree, LinearExtension(S.linear_order()))
    else:  # raw inverse transforms: often out of order
        ext = LinearExtension(S.linear_order())
        tables = {a: cell_states(system.measure_of(a), ext, L)
                  for a in A.elements}
    tables = {a: list(row) for a, row in tables.items()}
    for _ in range(rng.randrange(3)):  # corrupt: swap two cells of a row
        row = tables[rng.choice(A.elements)]
        i, j = rng.randrange(L), rng.randrange(L)
        row[i], row[j] = row[j], row[i]
    if rng.random() < 0.2:  # or break the counts
        tables[rng.choice(A.elements)][rng.randrange(L)] = rng.choice(
            S.elements)
    tables = {a: tuple(row) for a, row in tables.items()}
    verdict = check_cell_tables(system, L, tables)
    want = all_pairs_verdict(system, L, tables)
    assert bool(verdict) == (want is None)
    assert verdict.witness == want
