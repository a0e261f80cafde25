"""Order closure, cover graphs, classification, rooting, up-sets."""

import itertools
from collections import Counter
import random

import pytest
from hypothesis import given, strategies as st

from monosync.errors import (
    CycleError,
    DuplicateElement,
    NotALeaf,
    NotATree,
    SizeLimit,
    UnknownElement,
)
from monosync.generate import diamond, random_class_w, random_class_z, random_poset
from monosync.poset import (
    DEFAULT_UPSET_CAP,
    Poset,
    PosetClass,
    antichain,
    branching_elements,
    chain,
    classify,
    cover_graph,
    covers,
    default_root,
    root_tree,
    up_sets,
    validate_poset,
)

seeds = st.integers(0, 2**32 - 1)


def brute_up_sets(poset):
    out = set()
    for bits in itertools.product((0, 1), repeat=len(poset.elements)):
        sub = {x for x, b in zip(poset.elements, bits) if b}
        if all(y in sub for x in sub for y in poset.elements if poset.leq(x, y)):
            out.add(frozenset(sub))
    return out


def test_closure_and_queries():
    p = validate_poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert p.leq("a", "c") and p.lt("a", "c") and not p.lt("a", "a")
    assert p.leq("a", "a") and not p.leq("c", "a")
    assert p.minimal() == ("a",) and p.maximal() == ("c",)
    assert all(p.leq(a, b) or p.leq(b, a)  # a chain
               for a in p.elements for b in p.elements)
    assert p.linear_order() == ("a", "b", "c")


def test_validate_rejects_cycles_and_bad_labels():
    with pytest.raises(CycleError):
        validate_poset(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(DuplicateElement):
        validate_poset(("a", "a"), [])
    with pytest.raises(UnknownElement):
        validate_poset(("a",), [("a", "q")])


def reference_validate_poset(elements, pairs):
    """The closure on an n x n boolean matrix (Warshall 1962), as it was
    before the bitsets: the oracle for :func:`validate_poset`."""
    elements = tuple(elements)
    seen = set()
    for x in elements:
        if x in seen:
            raise DuplicateElement(f"element {x!r} declared twice")
        seen.add(x)
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        if a not in idx:
            raise UnknownElement(f"unknown element {a!r}")
        if b not in idx:
            raise UnknownElement(f"unknown element {b!r}")
        leq[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleError(
                    f"{elements[i]!r} and {elements[j]!r} are in a cycle")
    return Poset(elements, frozenset(
        (elements[i], elements[j])
        for i in range(n) for j in range(n) if leq[i][j]))


def poset_outcome(elements, pairs, validate):
    try:
        return validate(elements, pairs)
    except (CycleError, DuplicateElement, UnknownElement) as e:
        return type(e), str(e)


def test_bitset_closure_matches_boolean_matrix():
    """On random element and pair lists, with repeated elements, unknown
    names and cycles, ``validate_poset`` raises what the boolean-matrix
    closure raises, with the same message, or returns the same elements
    and ``relation``."""
    rng = random.Random(18)
    seen = Counter()
    for _ in range(3000):
        n = rng.randrange(0, 12)
        elements = rng.sample([f"e{i}" for i in range(16)], n)
        if elements and rng.random() < 0.05:
            elements.insert(rng.randrange(n + 1), rng.choice(elements))
        # pairs up a random order, some reversed to close cycles, some
        # naming an unknown element
        rank = {x: rng.random() for x in elements}
        pool = elements + ["stranger"] * (rng.random() < 0.1)
        pairs = []
        for _ in range(rng.randrange(0, 2 * n + 2) if pool else 0):
            a, b = sorted((rng.choice(pool), rng.choice(pool)),
                          key=lambda x: rank.get(x, 1))
            pairs.append((b, a) if rng.random() < 0.05 else (a, b))
        want = poset_outcome(elements, pairs, reference_validate_poset)
        got = poset_outcome(elements, pairs, validate_poset)
        assert got == want
        if isinstance(want, Poset):
            assert got.elements == want.elements
            assert got.relation == want.relation
            seen["poset"] += 1
        else:
            seen[want[0].__name__] += 1
    assert min(seen.values()) >= 30, seen
    assert len(seen) == 4, seen


def test_w6_shape(w6):
    assert w6.minimal() == ("x", "y", "w")
    assert w6.maximal() == ("z", "v", "tau")
    assert w6.lt("w", "z") and w6.lt("x", "z")
    for a, b in (("x", "y"), ("v", "z")):  # incomparable pairs
        assert not w6.leq(a, b) and not w6.leq(b, a)
    assert covers(w6) == (("w", "tau"), ("w", "v"), ("w", "z"),
                          ("x", "z"), ("y", "z"))
    assert branching_elements(w6) == frozenset({"z", "w"})
    assert classify(w6) is PosetClass.W


def test_classify_small_shapes():
    assert classify(chain(("a", "b", "c"))) is PosetClass.Z
    assert classify(diamond()) is PosetClass.NON_ACYCLIC_OR_DISCONNECTED
    assert classify(antichain(("a", "b"))) is PosetClass.NON_ACYCLIC_OR_DISCONNECTED
    # interior branching element: neither minimal nor maximal
    by = validate_poset(("a", "m", "b", "c"), [("a", "m"), ("m", "b"), ("m", "c")])
    assert classify(by) is PosetClass.BY


@given(seeds)
def test_random_generators_hit_their_class(seed):
    rng = random.Random(seed)
    assert classify(random_class_z(rng, rng.randrange(1, 9))) is PosetClass.Z
    assert classify(random_class_w(rng, rng.randrange(4, 9))) is PosetClass.W


def test_cover_graph_w6(w6):
    g = cover_graph(w6)
    assert g.neighbors("w") == ("z", "v", "tau")
    assert g.degree("z") == 3 and g.degree("x") == 1
    assert set(g.leaves()) == {"x", "y", "v", "tau"}
    assert g.is_connected() and g.is_tree() and not g.is_path()
    assert cover_graph(w6) is g  # computed once per poset


def test_root_tree_w6(w6):
    tree, psi = root_tree(w6, "tau", {"w": ("z", "v"), "z": ("x", "y")})
    assert psi.order == ("x", "y", "z", "v", "w", "tau")
    assert tree.root == "tau"
    assert tree.parent["w"] == "tau" and tree.parent["z"] == "w"
    assert tree.children["z"] == ("x", "y")
    assert tree.children["x"] == tree.children["y"] == ()
    assert psi.rank("x") == 0 and psi.rank("tau") == 5
    assert psi.rank("z") < psi.rank("v")


def test_root_tree_default_child_order(w6):
    # element order puts z before v, so the same extension falls out
    _, psi = root_tree(w6, "tau")
    assert psi.order == ("x", "y", "z", "v", "w", "tau")


def test_root_tree_rejections(w6):
    with pytest.raises(NotALeaf):
        root_tree(w6, "w")
    with pytest.raises(UnknownElement):
        root_tree(w6, "q")
    with pytest.raises(UnknownElement):
        root_tree(w6, "tau", {"w": ("z", "x")})
    with pytest.raises(UnknownElement):
        root_tree(w6, "tau", {"q": ("x",)})
    with pytest.raises(NotATree):
        root_tree(diamond(), "bot")


def test_extension_refines_tree_order(w6):
    tree, psi = root_tree(w6, "tau")
    # each element precedes its parent, hence, by transitivity, every
    # ancestor
    assert set(tree.parent) == set(w6.elements) - {"tau"}
    for x, parent in tree.parent.items():
        assert psi.rank(x) < psi.rank(parent)


def test_default_root_prefers_maximal_leaf():
    assert default_root(chain(("a", "b", "c"))) == "c"
    # both path ends minimal: fall back to the first leaf
    vee = validate_poset(("a", "b", "c"), [("a", "b"), ("c", "b")])
    assert default_root(vee) == "a"


@given(seeds)
def test_up_sets_match_bruteforce(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(1, 7))
    got = up_sets(p)
    assert len(got) == len(set(got))
    assert set(got) == brute_up_sets(p)


def test_default_root_needs_a_leaf():
    with pytest.raises(NotATree, match="no leaf"):
        default_root(diamond())


def test_up_sets_cap():
    with pytest.raises(SizeLimit):
        up_sets(antichain(tuple("abcdefgh")), cap=10)


def recursive_up_sets(poset, cap=DEFAULT_UPSET_CAP):
    """The recursive enumeration that ``up_sets`` replaced, kept verbatim
    as the oracle for its order and its cap."""
    order = poset.linear_order()
    graph = cover_graph(poset)
    above = {
        x: tuple(y for y in graph.neighbors(x) if poset.lt(x, y))
        for x in poset.elements
    }
    found: list[frozenset[str]] = []

    def extend(pos: int, current: set[str]) -> None:
        if pos < 0:
            if len(found) >= cap:
                raise SizeLimit(f"more than {cap} up-sets")
            found.append(frozenset(current))
            return
        x = order[pos]
        extend(pos - 1, current)
        if all(y in current for y in above[x]):
            current.add(x)
            extend(pos - 1, current)
            current.remove(x)

    extend(len(order) - 1, set())
    return tuple(found)


@given(seeds)
def test_up_sets_order_matches_recursive_oracle(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(0, 10))
    assert up_sets(p) == recursive_up_sets(p)


@pytest.mark.parametrize("poset", [
    antichain(()), chain(("a",)), chain(tuple("abc")),
    antichain(tuple("abcd")), diamond(), random_class_w(random.Random(5), 7)])
def test_up_sets_cap_boundary(poset):
    count = len(recursive_up_sets(poset))
    assert len(up_sets(poset, cap=count)) == count
    with pytest.raises(SizeLimit, match=f"more than {count - 1} up-sets"):
        up_sets(poset, cap=count - 1)


@given(seeds)
def test_extremals_match_definition(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(1, 7))
    els = p.elements
    assert p.minimal() == tuple(
        x for x in els if not any(p.lt(z, x) for z in els))
    assert p.maximal() == tuple(
        x for x in els if not any(p.lt(x, z) for z in els))
    assert p.minimal() is p.minimal()  # computed once per poset


@given(seeds)
def test_strict_pairs_match_definition(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(1, 7))
    els = p.elements
    assert p.strict_pairs() == tuple(
        (a, b) for a in els for b in els if p.lt(a, b))
    assert p.strict_pairs() is p.strict_pairs()  # computed once per poset


def scanned_covers(poset):
    """Cover pairs by a scan of the relation, the former ``covers``."""
    return tuple(sorted(
        (a, b) for a, b in poset.relation
        if a != b and not any(poset.lt(a, z) and poset.lt(z, b)
                              for z in poset.elements)))


@given(seeds)
def test_covers_match_relation_scan(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(0, 9))
    assert covers(p) == scanned_covers(p)


@given(seeds)
def test_dual_involution(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(1, 7))
    assert p.dual().dual() == p
    for a in p.elements:
        for b in p.elements:
            assert p.leq(a, b) == p.dual().leq(b, a)


@given(seeds)
def test_linear_order_is_a_linear_extension(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randrange(1, 8))
    order = p.linear_order()
    pos = {x: i for i, x in enumerate(order)}
    assert sorted(order) == sorted(p.elements)
    for a in p.elements:
        for b in p.elements:
            if p.lt(a, b):
                assert pos[a] < pos[b]
