"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines with timings.  Criteria with runtime bounds assert them.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from monosync.cftp import (
    build_grand_coupling,
    chi_square_fit,
    sample_many,
    stationary_exact,
)
from monosync.coupling import (
    Coupling,
    InfeasibilityCertificate,
    check_coupling,
    is_stoch_monotone,
    pair_system,
    realize,
    stochastically_leq,
    strassen_coupling,
    verify_certificate,
)
from monosync.formats import parse_certificate, parse_kernel, parse_measures
from monosync.generate import (
    random_bounded_poset,
    random_class_w,
    random_class_z,
    random_measure,
    random_monotone_system,
    random_poset,
    random_synchronizable_poset,
    search_infeasible_diamond,
)
from monosync.poset import default_root, root_tree, up_sets
from monosync.synchronize import (
    Violation,
    cell_states,
    identity_synchronization,
    interlacing_graphs,
    locally_connected_spanning_tree,
    synchronization_violations,
    synchronize_from_coupling,
    verify_synchronized,
)

from conftest import IDENTITY_15, PHI2_15

SEED = 20260818


def report(n: int, dt: float, detail: str) -> None:
    print(f"criterion {n}: PASS {detail} ({dt:.2f}s)")


def test_criterion_1_showcase_reproduction(w6_system, psi):
    t0 = time.perf_counter()
    p1 = w6_system.measure_of("1")
    p2 = w6_system.measure_of("2")
    assert stochastically_leq(p1, p2, w6_system.state_poset)

    naive = identity_synchronization(w6_system)
    violations = synchronization_violations(w6_system, naive, psi)
    # cells 1 and 6 of the 15-cell grid are [1/15,2/15) and [6/15,7/15)
    assert violations == (Violation(1, "1", "2", "x", "y"),
                          Violation(6, "1", "2", "v", "z"))

    coupling = realize(w6_system)
    assert isinstance(coupling, Coupling)
    phis = synchronize_from_coupling(w6_system, coupling, psi)
    assert phis["1"].perm == IDENTITY_15 and phis["2"].perm == PHI2_15
    assert verify_synchronized(w6_system, phis, psi)
    assert synchronization_violations(w6_system, phis, psi) == ()

    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, dt, "dominance, both naive defects, synchronized on all cells")


def test_criterion_2_path_states_identity_synchronizes():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    trials = 500
    for _ in range(trials):
        states = random_class_z(rng, rng.randrange(2, 9))
        index = random_poset(rng, rng.randrange(1, 6))
        system = random_monotone_system(rng, index, states,
                                        rng.randrange(2, 9))
        assert is_stoch_monotone(system)
        _, extension = root_tree(states, default_root(states))
        phis = identity_synchronization(system)
        assert verify_synchronized(system, phis, extension)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(2, dt, f"{trials} path-shaped state spaces, zero failures")


def test_criterion_3_dominance_flow_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    pairs = 1000
    feasible = 0
    for _ in range(pairs):
        states = random_poset(rng, rng.randrange(1, 9))
        p = random_measure(rng, states, rng.randrange(1, 13))
        q = random_measure(rng, states, rng.randrange(1, 13))
        dominated = stochastically_leq(p, q, states)
        coupling = strassen_coupling(p, q, states)
        # the definition, read off every up-set, against the flow
        by_upsets = all(p.of_set(u) <= q.of_set(u) for u in up_sets(states))
        assert dominated == by_upsets == (coupling is not None)
        if coupling is not None:
            check_coupling(pair_system(p, q, states), coupling)
            feasible += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(3, dt, f"{pairs} pairs, {feasible} feasible, zero disagreements")


def test_criterion_4_branching_states_end_to_end():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    trials = 200
    for _ in range(trials):
        states = random_class_w(rng, rng.randrange(4, 8))
        index = random_bounded_poset(rng, rng.randrange(0, 4))
        system = random_monotone_system(rng, index, states,
                                        rng.randrange(2, 7))
        coupling = realize(system)
        assert isinstance(coupling, Coupling)
        check_coupling(system, coupling)
        _, extension = root_tree(states, default_root(states))
        phis = synchronize_from_coupling(system, coupling, extension)
        assert verify_synchronized(system, phis, extension)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(4, dt, f"{trials} realize+synchronize runs, zero failures")


def test_criterion_5_synchronizable_index_always_feasible():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    trials = 100
    for _ in range(trials):
        index = random_synchronizable_poset(rng, rng.randrange(2, 6))
        gmin, gmax = interlacing_graphs(index)
        assert locally_connected_spanning_tree(gmin, index, "minimal")
        assert locally_connected_spanning_tree(gmax, index, "maximal")
        states = random_class_w(rng, rng.randrange(4, 8))
        system = random_monotone_system(rng, index, states,
                                        rng.randrange(2, 7))
        coupling = realize(system)
        assert isinstance(coupling, Coupling)
        check_coupling(system, coupling)
    dt = time.perf_counter() - t0
    report(5, dt, f"{trials} witnessed index posets, zero infeasibilities")


def test_criterion_6_cyclic_cover_graph_counterexample(data_dir):
    t0 = time.perf_counter()
    found = search_infeasible_diamond(seed=2, max_trials=10**5)
    assert found is not None
    trial, system, cert = found
    assert trial == 129
    assert is_stoch_monotone(system)

    fixture = parse_measures(data_dir / "diamond_infeasible.measures",
                             system.state_poset)
    for alpha in system.index_poset.elements:
        assert system.measure_of(alpha) == fixture[f"q_{alpha}"]
    assert cert == parse_certificate(data_dir / "diamond_infeasible.cert")
    assert cert.gap == Fraction(2, 5)
    assert verify_certificate(system, cert)
    assert isinstance(realize(system), InfeasibilityCertificate)
    dt = time.perf_counter() - t0
    report(6, dt, f"found at trial {trial}, certificate gap {cert.gap}")


def test_criterion_7_perfect_sampler_fit(data_dir):
    t0 = time.perf_counter()
    kern = parse_kernel(data_dir / "chain2.kernel")
    gc = build_grand_coupling(kern)
    pi = stationary_exact(kern)
    assert pi.of("lo") == Fraction(1, 2) and pi.of("hi") == Fraction(1, 2)

    n = 100_000
    # every draw asserts extremal tracking against full-set coalescence
    draws = sample_many(gc, seed=SEED, n=n)
    assert sample_many(gc, seed=SEED, n=n) == draws
    counts = Counter(draws)
    stat, p = chi_square_fit(counts, pi)
    assert p > 0.001
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(7, dt, f"{n} draws, chi2 {stat:.4f}, p {p:.4f}, reruns identical")


def test_criterion_8_exact_marginals_everywhere(w6_system, psi,
                                                showcase_coupling):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    cases = 0

    check_coupling(w6_system, showcase_coupling)
    phis = synchronize_from_coupling(w6_system, showcase_coupling, psi)
    systems = [(w6_system, psi, showcase_coupling, phis)]

    for _ in range(20):
        states = random_poset(rng, rng.randrange(1, 7))
        p = random_measure(rng, states, rng.randrange(1, 10))
        q = random_measure(rng, states, rng.randrange(1, 10))
        coupling = strassen_coupling(p, q, states)
        if coupling is None:
            continue
        check_coupling(pair_system(p, q, states), coupling)
        cases += 1

    for _ in range(20):
        states = random_class_w(rng, rng.randrange(4, 8))
        index = random_bounded_poset(rng, rng.randrange(0, 3))
        system = random_monotone_system(rng, index, states,
                                        rng.randrange(2, 7))
        coupling = realize(system)
        assert isinstance(coupling, Coupling)
        check_coupling(system, coupling)
        _, extension = root_tree(states, default_root(states))
        systems.append((system, extension,
                        coupling,
                        synchronize_from_coupling(system, coupling,
                                                  extension)))
        cases += 1

    # composed maps: cell counts of u -> P_alpha^{-1}(phi_alpha(u)) must
    # equal mass * L exactly for every state
    for system, extension, _, phis in systems:
        for alpha, phi in phis.items():
            mu = system.measure_of(alpha)
            raw = cell_states(mu, extension, phi.L)
            composed = Counter(raw[phi.perm[i]] for i in range(phi.L))
            for s in system.state_poset.elements:
                assert composed.get(s, 0) == mu.of(s) * phi.L
        cases += 1

    dt = time.perf_counter() - t0
    report(8, dt, f"{cases} exact-equality cases, all marginals reproduced")
