"""Stochastic order, Strassen couplings, and the realizability oracle."""

import hashlib
import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SHOWCASE_ATOMS
from monosync import coupling
from monosync.coupling import (
    DEFAULT_TUPLE_CAP,
    PAIR_INDICES,
    Coupling,
    InfeasibilityCertificate,
    check_coupling,
    dominance_violation,
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
from monosync.linprog import FarkasVector, FeasiblePoint, solve_feasibility
from monosync.measure import F0, F1, rational_measure
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
    if dominance_violation(p, q, poset) is None:
        assert got is not None
        check_coupling(pair_system(p, q, poset), got)
    else:
        assert got is None


def test_is_stoch_monotone_witness(chain2):
    top = rational_measure(chain2.elements, {"hi": 1})
    bot = rational_measure(chain2.elements, {"lo": 1})
    verdict = is_stoch_monotone(measure_system(chain2, chain2,
                                               {"lo": top, "hi": bot}))
    assert not verdict
    alpha, beta, upset = verdict.witness
    assert (alpha, beta) == ("lo", "hi") and upset == frozenset({"hi"})


def brute_stoch_monotone_witness(system):
    """First (alpha, beta, U) with alpha < beta and P_alpha(U) > P_beta(U),
    pairs in element order, then up-sets in ``up_sets`` order."""
    idx = system.index_poset
    for alpha in idx.elements:
        for beta in idx.elements:
            if not idx.lt(alpha, beta):
                continue
            for u in up_sets(system.state_poset):
                if (system.measure_of(alpha).of_set(u)
                        > system.measure_of(beta).of_set(u)):
                    return (alpha, beta, u)
    return None


def kite():
    """The diamond with a peak above its top: its cover graph has a cycle."""
    return validate_poset(
        ("bot", "a", "b", "top", "peak"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"),
         ("top", "peak")])


@given(seeds)
@settings(max_examples=60)
def test_is_stoch_monotone_matches_bruteforce(seed):
    rng = random.Random(seed)
    shape = rng.randrange(4)  # cyclic cover graphs next to random ones
    index = (diamond() if shape == 0 else kite() if shape == 1 else
             random_poset(rng, rng.randrange(2, 5), rng.uniform(0.4, 1)))
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


def farkas_mixture(data_dir, seed, on_kite):
    """(1 - e) P + e Q for the infeasible diamond system P and a seeded
    monotone Q, with the largest e in a fixed list that keeps the data/
    certificate's gap positive; on the kite the top state gets no mass."""
    base = parse_system(data_dir / "diamond_infeasible.system")
    cert = parse_certificate(data_dir / "diamond_infeasible.cert")
    D = base.index_poset
    Q = random_monotone_system(random.Random(seed), D, D, 5)
    yq = sum((w * Q.measure_of(a).of(s)
              for (a, s), w in cert.dual.items()), Fraction(0))
    e = max(x for x in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5),
                        Fraction(1, 3)) if (1 - x) * cert.gap + x * yq > 0)
    states = kite() if on_kite else D
    return measure_system(D, states, {
        a: rational_measure(states.elements, {
            s: (1 - e) * base.measure_of(a).of(s) + e * Q.measure_of(a).of(s)
            for s in D.elements})
        for a in D.elements})


def pinned_systems(data_dir, w6):
    yield parse_system(data_dir / "w6.system")
    yield parse_system(data_dir / "diamond_infeasible.system")
    yield w6_diagonal_mixture(w6)
    for seed in range(6):
        yield class_w_pair(seed)
    for seed in range(4):
        yield farkas_mixture(data_dir, seed, on_kite=seed % 2 == 1)


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
