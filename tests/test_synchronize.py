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
    chain,
    default_root,
    root_tree,
    validate_poset,
)
from monosync.synchronize import (
    CellPermutation,
    Violation,
    cell_states,
    check_cell_tables,
    common_grid,
    glued_tables,
    identity_synchronization,
    interlacing_graphs,
    is_synchronizable,
    locally_connected_spanning_tree,
    synchronization_violations,
    synchronize_from_coupling,
    verify_synchronized,
)

seeds = st.integers(0, 2**32 - 1)


def test_cell_permutation_contract():
    phi = CellPermutation(3, (2, 0, 1))
    assert phi.apply_cell(0) == 2 and not phi.is_identity()
    assert CellPermutation.identity(3).is_identity()
    assert phi.apply(Fraction(0)) == Fraction(2, 3)
    assert phi.apply(Fraction(1, 2)) == Fraction(1, 6)
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


def test_synchronize_rejects_marginal_mismatch(w6_system, p1, psi):
    diagonal = Coupling(("1", "2"), {(s, s): p1.of(s) for s in p1.support()})
    with pytest.raises(InfeasibleInput):
        synchronize_from_coupling(w6_system, diagonal, psi)


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
    assert gmin.degree("x") == 2 and gmin.is_connected()


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
    with pytest.raises(SizeLimit):
        locally_connected_spanning_tree(gmin, poset, "minimal", cap=0)
    with pytest.raises(ValueError):
        locally_connected_spanning_tree(gmin, poset, "sideways")


def test_synchronizable_trivia(w6):
    assert is_synchronizable(w6)
    assert is_synchronizable(chain(("a", "b", "c")))
    assert is_synchronizable(diamond())  # single minimum, single maximum


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
