"""Stochastic order, Strassen couplings, and the realizability oracle."""

import hashlib
import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bench_lp import farkas_mixture, pair11
from conftest import SHOWCASE_ATOMS, kite
from monosync import coupling
from monosync.coupling import (
    DEFAULT_TUPLE_CAP,
    PAIR_INDICES,
    Coupling,
    InfeasibilityCertificate,
    check_coupling,
    dominance_violation,
    integer_transport,
    is_stoch_monotone,
    measure_system,
    monotone_tuples,
    pair_system,
    realize,
    stochastically_leq,
    strassen_coupling,
    verify_certificate,
)
from monosync.errors import ContractViolation, DomainMismatch, SizeLimit
from monosync.formats import (
    parse_certificate,
    parse_system,
    serialize_certificate,
    serialize_coupling,
)
from monosync.generate import (
    diamond,
    random_bounded_poset,
    random_class_w,
    random_measure,
    random_monotone_system,
    random_poset,
    up_moves,
)
from monosync.linprog import (
    FarkasVector,
    FeasiblePoint,
    integral,
    solve_feasibility,
)
from monosync.measure import F0, F1, RationalMeasure, rational_measure
from monosync.poset import antichain, chain, up_sets, validate_poset

seeds = st.integers(0, 2**32 - 1)


def brute_monotone_tuples(index_poset, state_poset):
    A, S = index_poset.elements, state_poset.elements
    out = set()
    for tup in itertools.product(S, repeat=len(A)):
        if all(state_poset.leq(tup[i], tup[j])
               for i in range(len(A)) for j in range(len(A))
               if index_poset.leq(A[i], A[j])):
            out.add(tup)
    return out


def test_measure_system_validation(w6, p1, p2, pair_poset):
    with pytest.raises(DomainMismatch):
        measure_system(pair_poset, w6, {"1": p1})
    other = rational_measure(("q",), {"q": 1})
    with pytest.raises(DomainMismatch):
        measure_system(pair_poset, w6, {"1": p1, "2": other})
    with pytest.raises(DomainMismatch, match="no elements"):
        measure_system(antichain(()), w6, {})


def test_showcase_dominance(p1, p2, w6):
    assert stochastically_leq(p1, p2, w6)
    bad = dominance_violation(p2, p1, w6)
    assert bad is not None and p2.of_set(bad) > p1.of_set(bad)


def test_strassen_showcase(p1, p2, w6):
    got = strassen_coupling(p1, p2, w6)
    assert got is not None
    check_coupling(pair_system(p1, p2, w6), got)
    assert strassen_coupling(p2, p1, w6) is None


def test_strassen_diagonal(p1, w6):
    got = strassen_coupling(p1, p1, w6)
    assert got is not None
    assert got.atoms == {(s, s): p1.of(s) for s in p1.support()}


def fraction_strassen_coupling(p1, p2, poset):
    """The rational max-flow that strassen_coupling once ran, verbatim."""
    els = poset.elements
    n = len(els)
    source, sink = 2 * n, 2 * n + 1
    cap: dict[tuple[int, int], Fraction] = {}
    for i, a in enumerate(els):
        if p1.of(a) > 0:
            cap[(source, i)] = p1.of(a)
    for j, b in enumerate(els):
        if p2.of(b) > 0:
            cap[(n + j, sink)] = p2.of(b)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            if poset.leq(a, b):
                cap[(i, n + j)] = F1  # never binding: total supply is 1
    adj: dict[int, list[int]] = {}
    for (u, v) in cap:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    flow: dict[tuple[int, int], Fraction] = {e: F0 for e in cap}

    def residual(u: int, v: int) -> Fraction:
        if (u, v) in cap:
            return cap[(u, v)] - flow[(u, v)]
        return flow.get((v, u), F0)

    value = F0
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

    if value != 1:
        return None
    atoms = {
        (els[i], els[j - n]): f
        for (i, j), f in flow.items()
        if i < n and n <= j < 2 * n and f > 0
    }
    return Coupling(PAIR_INDICES, atoms)


@given(seeds)
@settings(max_examples=120)
def test_strassen_matches_the_fraction_flow(seed):
    rng = random.Random(seed)
    poset = random_poset(rng, rng.randrange(1, 8))
    p = random_measure(rng, poset, rng.randrange(1, 13))
    q = random_measure(rng, poset, rng.randrange(1, 13))
    if rng.random() < 0.5:  # a dominated pair, often on two grids
        D = 12 * rng.randrange(1, 4)
        q = up_moves(rng, p, poset, rng.randrange(0, 20), D)
    got = strassen_coupling(p, q, poset)
    want = fraction_strassen_coupling(p, q, poset)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.index_order == want.index_order
        assert list(got.atoms.items()) == list(want.atoms.items())


@given(seeds)
@settings(max_examples=120)
def test_strassen_iff_upset_dominance(seed):
    rng = random.Random(seed)
    poset = random_poset(rng, rng.randrange(1, 8))
    p = random_measure(rng, poset, rng.randrange(1, 13))
    q = random_measure(rng, poset, rng.randrange(1, 13))
    got = strassen_coupling(p, q, poset)
    violated = any(p.of_set(u) > q.of_set(u) for u in up_sets(poset))
    assert (dominance_violation(p, q, poset) is not None) == violated
    if not violated:
        assert got is not None
        check_coupling(pair_system(p, q, poset), got)
    else:
        assert got is None


def oracle_integer_transport(supply, demand, arcs):
    """The dict-keyed max-flow that ``integer_transport`` ran before its
    augmenting routine moved onto index lists, kept verbatim."""
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


@given(seeds)
@settings(max_examples=150)
def test_integer_transport_matches_the_dict_flow(seed):
    rng = random.Random(seed)
    shape = rng.randrange(4)
    poset = (diamond() if shape == 0 else kite() if shape == 1 else
             random_class_w(rng, rng.randrange(4, 13)) if shape == 2 else
             random_poset(rng, rng.randrange(1, 9)))
    downward = rng.random() < 0.5
    order = poset.dual() if downward else poset
    p = random_measure(rng, poset, rng.randrange(1, 13))
    if rng.random() < 0.5:  # a dominated pair, on another grid
        D = 12 * rng.randrange(1, 4)
        q = up_moves(rng, p, order, rng.randrange(0, 20), D)
    else:
        q = random_measure(rng, poset, rng.randrange(1, 13))
    els = poset.elements
    n = len(els)
    _, ints = integral([m.of(x) for m in (p, q) for x in els])
    supply, demand = ints[:n], ints[n:]
    arcs = [(i, j) for i, a in enumerate(els) for j, b in enumerate(els)
            if order.leq(a, b)]
    got = integer_transport(supply, demand, arcs)
    want = oracle_integer_transport(supply, demand, arcs)
    assert got == want and (got is None or list(got) == list(want))
    _, reached = coupling._augment(supply, demand, arcs)
    assert (got is None) == bool(reached)
    if reached:  # the closure along the arcs carries more supply than demand
        closure = {j for i, j in arcs if i in reached}
        assert sum(supply[i] for i in closure) > sum(demand[j] for j in closure)
        assert (dominance_violation(p, q, order)
                == frozenset(els[j] for j in closure))


def test_is_stoch_monotone_witness(chain2):
    top = rational_measure(chain2.elements, {"hi": 1})
    bot = rational_measure(chain2.elements, {"lo": 1})
    verdict = is_stoch_monotone(measure_system(chain2, chain2,
                                               {"lo": top, "hi": bot}))
    assert not verdict
    alpha, beta, upset = verdict.witness
    assert (alpha, beta) == ("lo", "hi") and upset == frozenset({"hi"})


def brute_stoch_monotone_witness(system):
    """First pair alpha < beta, in element order, with P_alpha(U) > P_beta(U)
    for some up-set U, and the smallest up-set maximizing the difference,
    over ``up_sets``: the min-cut witness, found by enumeration."""
    idx = system.index_poset
    upsets = up_sets(system.state_poset)
    for alpha in idx.elements:
        for beta in idx.elements:
            if not idx.lt(alpha, beta):
                continue
            pa, pb = system.measure_of(alpha), system.measure_of(beta)
            _, ints = integral([pa.of(x) - pb.of(x)
                                for x in system.state_poset.elements])
            diff = dict(zip(system.state_poset.elements, ints))
            gaps = [(sum(map(diff.__getitem__, u)), u) for u in upsets]
            best = max(g for g, _ in gaps)
            if best > 0:
                top = [u for g, u in gaps if g == best]
                smallest = min(top, key=len)
                assert all(smallest <= u for u in top)
                return (alpha, beta, smallest)
    return None


@given(seeds)
@settings(max_examples=60)
def test_is_stoch_monotone_matches_bruteforce(seed):
    rng = random.Random(seed)
    shape = rng.randrange(4)  # cyclic cover graphs next to random ones
    index = (diamond() if shape == 0 else kite() if shape == 1 else
             random_poset(rng, rng.randrange(2, 5), rng.uniform(0.4, 1)))
    if rng.random() < 0.25:
        # wide class-W states: each index pushes up the measure of one
        # lower index, unchecked against the others, so some pairs fail
        # even before the breaks below
        states = random_class_w(rng, rng.randrange(12, 17))
        measures = {}
        for alpha in index.linear_order():
            below = [b for b in measures if index.lt(b, alpha)]
            measures[alpha] = (
                up_moves(rng, measures[rng.choice(below)], states,
                         rng.randrange(0, 20), 12)
                if below else random_measure(rng, states, 12))
    else:
        states = random_poset(rng, rng.randrange(2, 5))
        D = rng.randrange(1, 6)
        measures = dict(random_monotone_system(rng, index, states, D).measures)
    for alpha in index.elements:  # break monotonicity here and there,
        if rng.random() < 0.3:    # on a grid of another denominator
            measures[alpha] = random_measure(rng, states, rng.randrange(1, 8))
    system = measure_system(index, states, measures)
    verdict = is_stoch_monotone(system)
    want = brute_stoch_monotone_witness(system)
    assert bool(verdict) == (want is None)
    assert verdict.witness == want



def test_numerators_read_the_views_by_name():
    """The dominance flows read each measure's integer view, by name when
    its domain order is not the state poset's: on measures whose masses
    are listed in a shuffled order, ``_numerators`` equals the lcm of
    every mass at ``S.elements`` and the masses over it, and the
    verdicts, witnesses and Strassen couplings equal those on the same
    measures in poset order."""
    rng = random.Random(18)
    for _ in range(200):
        S = random_poset(rng, rng.randrange(1, 12), 0.12)
        pair = [random_measure(rng, S, rng.randrange(1, 9)) for _ in "12"]
        shuffled = []
        for p in pair:
            items = list(p.mass.items())
            rng.shuffle(items)
            shuffled.append(RationalMeasure(dict(items)))
        scale, flat = integral([p.of(x) for p in pair for x in S.elements])
        n = len(S)
        assert coupling._numerators(shuffled, S.elements) == (
            scale, [flat[:n], flat[n:]])
        assert dominance_violation(*shuffled, S) == dominance_violation(
            *pair, S)
        assert strassen_coupling(*shuffled, S) == strassen_coupling(*pair, S)
        system = pair_system(*shuffled, S)
        assert is_stoch_monotone(system) == is_stoch_monotone(
            pair_system(*pair, S))


def test_monotone_tuples_showcase(pair_poset, w6):
    tuples = monotone_tuples(pair_poset, w6)
    assert len(tuples) == 11
    assert set(tuples) == brute_monotone_tuples(pair_poset, w6)


@given(seeds)
def test_monotone_tuples_match_bruteforce(seed):
    rng = random.Random(seed)
    A = random_poset(rng, rng.randrange(1, 4))
    S = random_poset(rng, rng.randrange(1, 5))
    got = monotone_tuples(A, S)
    assert len(got) == len(set(got))
    assert set(got) == brute_monotone_tuples(A, S)


def test_monotone_tuples_cap(pair_poset, w6):
    with pytest.raises(SizeLimit):
        monotone_tuples(pair_poset, w6, cap=3)


def recursive_monotone_tuples(index_poset, state_poset,
                              cap=DEFAULT_TUPLE_CAP):
    """The recursive enumeration that ``monotone_tuples`` replaced, kept
    verbatim as the oracle for its order and its cap."""
    idx_order = index_poset.elements
    topo = index_poset.linear_order()
    pos = {a: idx_order.index(a) for a in topo}
    states = state_poset.elements
    found: list[tuple[str, ...]] = []
    assignment: dict[str, str] = {}

    def extend(k: int) -> None:
        if k == len(topo):
            if len(found) >= cap:
                raise SizeLimit(f"more than {cap} monotone tuples")
            found.append(tuple(assignment[a] for a in idx_order))
            return
        alpha = topo[k]
        for s in states:
            ok = True
            for beta in topo[:k]:
                t = assignment[beta]
                if index_poset.leq(beta, alpha) and not state_poset.leq(t, s):
                    ok = False
                    break
                if index_poset.leq(alpha, beta) and not state_poset.leq(s, t):
                    ok = False
                    break
            if ok:
                assignment[alpha] = s
                extend(k + 1)
                del assignment[alpha]

    extend(0)
    rank = {s: i for i, s in enumerate(states)}
    found.sort(key=lambda tup: tuple(rank[s] for s in tup))
    return tuple(found)


@given(seeds)
def test_monotone_tuples_order_matches_recursive_oracle(seed):
    rng = random.Random(seed)
    A = random_poset(rng, rng.randrange(0, 5))
    if rng.random() < 0.5:
        S = random_poset(rng, rng.randrange(1, 7))
    else:
        S = random_bounded_poset(rng, rng.randrange(0, 4))
    assert monotone_tuples(A, S) == recursive_monotone_tuples(A, S)


@pytest.mark.parametrize("A, S", [
    (antichain(()), chain(("a",))),
    (chain(("1", "2")), chain(("a", "b", "c"))),
    (antichain(("1", "2")), validate_poset(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])),
    (random_bounded_poset(random.Random(2), 2), random_class_w(
        random.Random(7), 6)),
])
def test_monotone_tuples_cap_boundary(A, S):
    count = len(recursive_monotone_tuples(A, S))
    assert len(monotone_tuples(A, S, cap=count)) == count
    with pytest.raises(SizeLimit, match=f"more than {count - 1} monotone"):
        monotone_tuples(A, S, cap=count - 1)


def test_realize_showcase_exact(w6_system):
    got = realize(w6_system)
    assert isinstance(got, Coupling)
    assert got.atoms == SHOWCASE_ATOMS
    check_coupling(w6_system, got)


def test_realize_infeasible_diamond(data_dir):
    system = parse_system(data_dir / "diamond_infeasible.system")
    assert is_stoch_monotone(system)
    got = realize(system)
    assert isinstance(got, InfeasibilityCertificate)
    assert got.gap > 0
    assert verify_certificate(system, got)
    # a gutted dual is no certificate
    assert not verify_certificate(
        system, InfeasibilityCertificate({}, Fraction(0)))


@given(seeds)
@settings(max_examples=30)
def test_realize_feasible_on_bounded_index(seed):
    rng = random.Random(seed)
    S = random_class_w(rng, rng.randrange(4, 7))
    A = random_bounded_poset(rng, rng.randrange(0, 3))
    system = random_monotone_system(rng, A, S, rng.randrange(2, 6))
    got = realize(system)
    assert isinstance(got, Coupling)
    check_coupling(system, got)


def test_realize_checks_a_wrong_point(monkeypatch, w6_system):
    def off_by_one_weight(columns, b):
        got = solve_feasibility(columns, b)
        j = min(got.x)
        return FeasiblePoint({**got.x, j: got.x[j] + Fraction(1, 15)})

    monkeypatch.setattr(coupling, "solve_feasibility", off_by_one_weight)
    with pytest.raises(ContractViolation) as err:
        realize(w6_system)
    assert err.value.witness == ("total", Fraction(16, 15))


def test_realize_checks_a_wrong_certificate(monkeypatch, data_dir):
    system = parse_system(data_dir / "diamond_infeasible.system")

    def raised_first_entry(columns, b):
        got = solve_feasibility(columns, b)
        return FarkasVector((got.y[0] + 1,) + got.y[1:], got.gap)

    monkeypatch.setattr(coupling, "solve_feasibility", raised_first_entry)
    with pytest.raises(ContractViolation) as err:
        realize(system)
    kind, tup = err.value.witness
    assert kind == "tuple"
    assert tup[0] == "bot"  # row 0 is (index bot, state bot)

    def wrong_gap(columns, b):
        got = solve_feasibility(columns, b)
        return FarkasVector(got.y, got.gap + 1)

    monkeypatch.setattr(coupling, "solve_feasibility", wrong_gap)
    with pytest.raises(ContractViolation) as err:
        realize(system)
    cert = parse_certificate(data_dir / "diamond_infeasible.cert")
    assert err.value.witness == ("gap", cert.gap)


def test_coupling_marginal_and_total(showcase_coupling, p1, p2):
    assert showcase_coupling.total() == 1
    marg1 = showcase_coupling.marginal("1")
    marg2 = showcase_coupling.marginal("2")
    for s in p1.domain():
        assert marg1.get(s, Fraction(0)) == p1.of(s)
        assert marg2.get(s, Fraction(0)) == p2.of(s)


def test_check_coupling_rejects_bad_marginal(w6_system, showcase_coupling):
    atoms = dict(showcase_coupling.atoms)
    moved = atoms.pop(("x", "x"))
    atoms[("y", "y")] += moved
    with pytest.raises(ContractViolation) as err:
        check_coupling(w6_system, Coupling(("1", "2"), atoms))
    assert err.value.witness == ("marginal", "1", "x")


def test_check_coupling_rejects_short_atom(w6_system):
    with pytest.raises(ContractViolation) as err:
        check_coupling(w6_system, Coupling(("1", "2"), {("x",): Fraction(1)}))
    assert err.value.witness == ("length", ("x",))


def test_pair_system_shape(p1, p2, w6):
    system = pair_system(p1, p2, w6)
    assert system.index_poset.elements == ("1", "2")
    assert system.measure_of("1") is p1 and system.measure_of("2") is p2


def w6_diagonal_mixture(w6):
    """1/12 everywhere plus 1/2 on the diagonal: 560 monotone tuples."""
    return measure_system(w6, w6, {
        s: rational_measure(w6.elements, {
            t: Fraction(1, 12) + (Fraction(1, 2) if t == s else 0)
            for t in w6.elements})
        for s in w6.elements})


def class_w_pair(seed):
    rng = random.Random(seed)
    S = random_class_w(rng, 5 + seed % 3)
    p1 = random_measure(rng, S, 12)
    return pair_system(p1, up_moves(rng, p1, S, 24, 12), S)


def pinned_systems(data_dir, w6):
    yield parse_system(data_dir / "w6.system")
    yield parse_system(data_dir / "diamond_infeasible.system")
    yield w6_diagonal_mixture(w6)
    for seed in range(6):
        yield class_w_pair(seed)
    for seed in range(4):
        yield farkas_mixture(seed, on_kite=seed % 2 == 1)


# digest of every realize output as first recorded; the LP's pivot path,
# and so every coupling and certificate, must not move
REALIZE_DIGEST = (
    "3c261b2c308b91d49e1e89c79f8dfdd2cddf33e4fd826e6a7e6ff11dfbc3f6af")


def test_realize_outputs_pinned(data_dir, w6):
    h = hashlib.sha256()
    for system in pinned_systems(data_dir, w6):
        got = realize(system)
        if isinstance(got, Coupling):
            h.update(serialize_coupling(got).encode())
        else:
            h.update(serialize_certificate(got).encode())
    assert h.hexdigest() == REALIZE_DIGEST


def seeded_realize_systems():
    """Seeded systems of every shape ``realize`` meets: random index and
    state posets with monotone or arbitrary measures (feasible and
    infeasible LPs, non-unit pivots), and 11-state pair systems of the
    benchmark's cli-mixed size, dominated and drawn apart."""
    for seed in range(60):
        rng = random.Random(seed)
        A = (random_poset(rng, rng.randrange(1, 4)) if seed % 3 else
             random_bounded_poset(rng, rng.randrange(0, 2)))
        S = (random_class_w(rng, rng.randrange(4, 7)) if seed % 2 else
             random_poset(rng, rng.randrange(2, 6)))
        if seed % 4 == 3:
            yield measure_system(A, S, {
                a: random_measure(rng, S, rng.randrange(2, 13))
                for a in A.elements})
        else:
            yield random_monotone_system(rng, A, S, rng.randrange(2, 13))
    for seed in range(16):
        yield pair11(random.Random(100 + seed), dominated=seed % 2 == 0)


# digest of the serialized realize outputs on seeded_realize_systems, as
# first recorded
REALIZE_SEEDED_DIGEST = (
    "c2aecb95947268b63a1e304f50198ec248f4463806de8c2700ac9974efd82a4e")


def test_realize_seeded_outputs_pinned():
    h = hashlib.sha256()
    for system in seeded_realize_systems():
        got = realize(system)
        if isinstance(got, Coupling):
            h.update(serialize_coupling(got).encode())
        else:
            h.update(serialize_certificate(got).encode())
    assert h.hexdigest() == REALIZE_SEEDED_DIGEST
