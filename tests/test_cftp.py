"""Grand couplings, perfect sampling, and the exact stationary law."""

import hashlib
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monosync.cftp import (
    GrandCoupling,
    _chi2_sf,
    build_grand_coupling,
    check_grand_coupling,
    cftp_sample,
    chi_square_fit,
    is_ergodic,
    kernel,
    sample_many,
    stationary_exact,
)
from monosync import coupling
from monosync.coupling import (
    InfeasibilityCertificate,
    is_stoch_monotone,
    realize,
    verify_certificate,
)
from monosync.errors import (
    BudgetExceeded,
    ContractViolation,
    DomainMismatch,
    GridMismatch,
    NotErgodic,
    NotStochMonotone,
    SizeLimit,
)
from monosync.formats import parse_system
from monosync.generate import (
    diamond,
    element_labels,
    random_class_w,
    random_measure,
    random_monotone_system,
    random_tree_edges,
)
from monosync.measure import rational_measure
from monosync.poset import (
    PosetClass,
    chain,
    classify,
    default_root,
    root_tree,
    validate_poset,
)
from monosync.rng import CellSampler
from monosync.synchronize import (
    MAX_GRID_CELLS,
    Violation,
    cell_states,
    common_grid,
)

from conftest import package_env

seeds = st.integers(0, 2**32 - 1)

W6_ELEMENTS = ("x", "y", "z", "v", "w", "tau")


def two_state(lo, hi):
    return rational_measure(("lo", "hi"), {"lo": lo, "hi": hi})


def test_kernel_validation(chain2):
    with pytest.raises(DomainMismatch):
        kernel(chain2, {"lo": two_state("1/2", "1/2")})
    stray = rational_measure(("q",), {"q": 1})
    with pytest.raises(DomainMismatch):
        kernel(chain2, {"lo": two_state("1/2", "1/2"), "hi": stray})


def test_chain2_grand_coupling(chain2_kernel):
    gc = build_grand_coupling(chain2_kernel)
    assert isinstance(gc, GrandCoupling)
    assert gc.L == 3
    assert gc.update == {"lo": ("lo", "lo", "hi"), "hi": ("lo", "hi", "hi")}
    assert check_grand_coupling(chain2_kernel, gc)


def test_three_chain_grand_coupling_via_raw_transforms():
    c3 = chain(("a", "b", "c"))
    kern = kernel(c3, {
        "a": rational_measure(c3.elements, {"a": "1/2", "b": "1/2"}),
        "b": rational_measure(c3.elements, {"a": "1/4", "b": "1/2", "c": "1/4"}),
        "c": rational_measure(c3.elements, {"b": "1/2", "c": "1/2"}),
    })
    gc = build_grand_coupling(kern)
    assert gc.update == {"a": ("a", "a", "b", "b"),
                         "b": ("a", "b", "b", "c"),
                         "c": ("b", "b", "c", "c")}
    pi = stationary_exact(kern)
    assert [pi.of(s) for s in c3.elements] == [
        Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    counts = Counter(sample_many(gc, seed=5, n=800))
    _, p = chi_square_fit(counts, pi)
    assert p > 0.001


def test_check_grand_coupling_witnesses(chain2_kernel, chain2):
    swapped = GrandCoupling(3, chain2, {"lo": ("hi", "lo", "lo"),
                                        "hi": ("lo", "hi", "hi")})
    verdict = check_grand_coupling(chain2_kernel, swapped)
    assert not verdict
    assert verdict.witness == Violation(0, "lo", "hi", "hi", "lo")
    wrong_counts = GrandCoupling(3, chain2, {"lo": ("lo", "lo", "lo"),
                                             "hi": ("lo", "hi", "hi")})
    verdict = check_grand_coupling(chain2_kernel, wrong_counts)
    assert not verdict and verdict.witness == ("counts", "lo", "lo")
    with pytest.raises(GridMismatch):
        GrandCoupling(3, chain2, {"lo": ("lo", "lo", "hi")})
    with pytest.raises(GridMismatch):
        GrandCoupling(2, chain2, {"lo": ("lo",), "hi": ("hi",)})


def test_grand_coupling_rejects_unknown_states(chain2):
    with pytest.raises(GridMismatch, match="unknown states"):
        GrandCoupling(3, chain2, {"lo": ("lo", "zz", "hi"),
                                  "hi": ("lo", "hi", "hi")})


def test_not_stoch_monotone_kernel(chain2):
    kern = kernel(chain2, {"lo": two_state(0, 1), "hi": two_state(1, 0)})
    with pytest.raises(NotStochMonotone) as err:
        build_grand_coupling(kern)
    _, alpha, beta, upset = err.value.args
    assert (alpha, beta) == ("lo", "hi") and upset == frozenset({"hi"})


def test_monotone_kernel_without_monotone_table(data_dir):
    system = parse_system(data_dir / "diamond_infeasible.system")
    kern = kernel(system.state_poset,
                  {a: system.measure_of(a) for a in system.index_poset.elements})
    got = build_grand_coupling(kern)
    assert isinstance(got, InfeasibilityCertificate)
    assert verify_certificate(kern.to_system(), got)


def refuse(*args, **kwargs):
    raise AssertionError("the LP route ran")


def test_w6_mixture_kernel_routes_through_gluing(w6, monkeypatch):
    # half stay put, half jump uniformly: monotone and ergodic
    rows = {
        s: rational_measure(
            W6_ELEMENTS,
            {t: Fraction(1, 12) + (Fraction(1, 2) if t == s else 0)
             for t in W6_ELEMENTS})
        for s in W6_ELEMENTS
    }
    kern = kernel(w6, rows)
    monkeypatch.setattr(coupling, "monotone_tuples", refuse)
    monkeypatch.setattr(coupling, "solve_feasibility", refuse)
    gc = build_grand_coupling(kern, cap=1)
    assert isinstance(gc, GrandCoupling) and gc.L == 12
    assert check_grand_coupling(kern, gc)
    pi = stationary_exact(kern)
    assert all(pi.of(s) == Fraction(1, 6) for s in W6_ELEMENTS)
    counts = Counter(sample_many(gc, seed=11, n=600))
    _, p = chi_square_fit(counts, pi)
    assert p > 0.001


def half_stay_half_uniform(poset):
    # rows 1/2 delta_s + 1/2 uniform: monotone, full support, ergodic
    els = poset.elements
    u = Fraction(1, len(els))
    return kernel(poset, {
        s: rational_measure(els, {
            t: u / 2 + (Fraction(1, 2) if t == s else 0) for t in els})
        for s in els})


@pytest.mark.parametrize("poset, L", [
    (diamond(), 8),  # cover graph with a cycle
    (validate_poset(("x1", "x2", "m", "t1", "t2"),  # class BY
                    [("x1", "m"), ("x2", "m"), ("m", "t1"), ("m", "t2")]),
     10),
])
def test_grand_coupling_beyond_class_w(poset, L):
    kern = half_stay_half_uniform(poset)
    gc = build_grand_coupling(kern)
    assert isinstance(gc, GrandCoupling) and gc.L == L
    assert check_grand_coupling(kern, gc)
    draws = sample_many(gc, seed=2, n=40)
    assert len(draws) == 40 and set(draws) <= set(poset.elements)


def random_class_by(rng, n):
    """A random orientation of a random tree whose cover graph has an
    interior branching element (class BY)."""
    labels = element_labels(n)
    while True:
        poset = validate_poset(labels, [
            (labels[u], labels[v]) if rng.random() < 0.5
            else (labels[v], labels[u])
            for u, v in random_tree_edges(rng, n)])
        if classify(poset) is PosetClass.BY:
            return poset


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("shape", ["W", "BY"])
@pytest.mark.parametrize("rows", ["mixture", "random"])
def test_glued_tables_against_the_lp(monkeypatch, n, shape, rows):
    rng = random.Random(f"{shape}-{n}-{rows}")
    S = random_class_w(rng, n) if shape == "W" else random_class_by(rng, n)
    assert classify(S).value == shape
    kern = (half_stay_half_uniform(S) if rows == "mixture" else kernel(
        S, random_monotone_system(rng, S, S, rng.randrange(2, 7)).measures))
    system = kern.to_system()
    with monkeypatch.context() as m:
        m.setattr(coupling, "monotone_tuples", refuse)
        gc = build_grand_coupling(kern)
    assert isinstance(gc, GrandCoupling)
    assert gc.L == common_grid(system)
    assert check_grand_coupling(kern, gc)
    if n <= 7:  # at n = 8 the LP takes up to half a minute
        assert not isinstance(realize(system), InfeasibilityCertificate)


def test_glued_route_refuses_a_non_monotone_kernel(w6):
    # z covers w, but the row at w sits on tau, which is not below z,
    # where the row at z sits: gluing fails on that cover, and the
    # witness is the one the scan of every pair gives
    rows = {s: rational_measure(W6_ELEMENTS, {s: 1}) for s in W6_ELEMENTS}
    rows["w"] = rational_measure(W6_ELEMENTS, {"tau": 1})
    kern = kernel(w6, rows)
    with pytest.raises(NotStochMonotone) as err:
        build_grand_coupling(kern)
    verdict = is_stoch_monotone(kern.to_system())
    assert not verdict and err.value.args[1:] == verdict.witness


def test_grid_bound_comes_before_the_cells(w6):
    # a W kernel whose common grid has one cell too many
    L = MAX_GRID_CELLS + 1
    row = rational_measure(W6_ELEMENTS, {"x": Fraction(1, L),
                                         "tau": 1 - Fraction(1, L)})
    kern = kernel(w6, {s: row for s in W6_ELEMENTS})
    with pytest.raises(SizeLimit, match="grid of more than"):
        build_grand_coupling(kern)


def test_identical_rows_coalesce_in_one_step(chain2):
    mu = two_state("1/4", "3/4")
    kern = kernel(chain2, {"lo": mu, "hi": mu})
    gc = build_grand_coupling(kern)
    _, ext = root_tree(chain2, default_root(chain2))
    raw = cell_states(mu, ext, gc.L)
    draws = sample_many(gc, seed=3, n=200)
    expected = tuple(raw[CellSampler(gc.L, 3, k).cell_at(1)]
                     for k in range(200))
    assert draws == expected


def test_cftp_determinism(chain2_kernel):
    gc = build_grand_coupling(chain2_kernel)
    assert cftp_sample(gc, seed=9, stream=4) == cftp_sample(gc, seed=9, stream=4)
    assert sample_many(gc, seed=9, n=50) == sample_many(gc, seed=9, n=50)


def test_cftp_epoch_budget(chain2_kernel):
    gc = build_grand_coupling(chain2_kernel)
    # seed 1 drew the one non-coalescing cell at time -1
    assert CellSampler(3, 1, 0).cell_at(1) == 1
    with pytest.raises(BudgetExceeded):
        cftp_sample(gc, seed=1, max_epoch=1)


def test_trackers_disagree_on_a_non_monotone_table():
    # cell 0 sends a->b, b->a, c->b: the extremals a and c meet at b
    # while b goes to a, so only full-state tracking sees no coalescence
    c3 = chain(("a", "b", "c"))
    gc = GrandCoupling(2, c3, {"a": ("b", "b"), "b": ("a", "c"),
                               "c": ("b", "c")})
    assert CellSampler(2, 0, 0).cell_at(1) == 0
    with pytest.raises(ContractViolation, match="trackers disagree") as err:
        cftp_sample(gc, seed=0)
    assert err.value.witness == 1


def lazy_walk_16():
    # up 4/16 or 5/16, down 5/16 or 4/16, holding the rest: monotone
    els = tuple(f"s{i}" for i in range(16))
    rows = {}
    for i, x in enumerate(els):
        m = {x: Fraction(1)}
        if i < 15:
            m[els[i + 1]] = Fraction(4 + i % 2, 16)
        if i > 0:
            m[els[i - 1]] = Fraction(5 - i % 2, 16)
        m[x] -= sum(m.values()) - 1
        rows[x] = rational_measure(els, m)
    return kernel(chain(els), rows)


def w6_shifted_mixture(w6):
    # 1/2 delta_f(s) + 1/2 uniform for an order-preserving f: monotone
    f = {"x": "z", "y": "y", "z": "z", "v": "tau", "w": "w", "tau": "tau"}
    return kernel(w6, {
        s: rational_measure(W6_ELEMENTS, {
            t: Fraction(1, 12) + (Fraction(1, 2) if t == f[s] else 0)
            for t in W6_ELEMENTS})
        for s in W6_ELEMENTS})


# digests of the draws as first recorded; the stream must not move.  The
# w6 digest is that of the table glued along the cover tree.
@pytest.mark.parametrize("name, seed, n, digest", [
    ("walk16", 17, 400,
     "fd9766e50bb53591769132e81d3a553d5dedd85cc8473ba81104e4750a94e615"),
    ("w6", 23, 600,
     "6d7fa2241d4021c843998a723230bb12d16e716d7a94279aad5e76c26c9c68ce"),
])
def test_sample_many_stream_pinned(w6, name, seed, n, digest):
    kern = lazy_walk_16() if name == "walk16" else w6_shifted_mixture(w6)
    gc = build_grand_coupling(kern)
    assert check_grand_coupling(kern, gc)
    draws = sample_many(gc, seed=seed, n=n)
    assert hashlib.sha256(" ".join(draws).encode()).hexdigest() == digest
    _, p = chi_square_fit(Counter(draws), stationary_exact(kern))
    assert p > 0.001


def test_ergodicity_verdicts(chain2):
    ident = kernel(chain2, {"lo": two_state(1, 0), "hi": two_state(0, 1)})
    verdict = is_ergodic(ident)
    assert not verdict and verdict.witness == "reducible"
    swap = kernel(chain2, {"lo": two_state(0, 1), "hi": two_state(1, 0)})
    verdict = is_ergodic(swap)
    assert not verdict and verdict.witness == ("periodic", 2)
    with pytest.raises(NotErgodic):
        gc = GrandCoupling(1, chain2, {"lo": ("lo",), "hi": ("hi",)})
        cftp_sample(gc, seed=0)
    flip = GrandCoupling(1, chain2, {"lo": ("hi",), "hi": ("lo",)})
    for _ in range(2):  # the cached verdict still refuses every batch
        with pytest.raises(NotErgodic, match="period 2"):
            sample_many(flip, seed=0, n=1)
    with pytest.raises(NotErgodic):
        stationary_exact(ident)


def test_chain2_stationary_and_fit(chain2_kernel):
    pi = stationary_exact(chain2_kernel)
    assert pi.of("lo") == Fraction(1, 2) and pi.of("hi") == Fraction(1, 2)
    stat, p = chi_square_fit({"lo": 500, "hi": 500}, pi)
    assert stat == 0.0 and p == 1.0


def test_package_import_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, monosync; print(sorted(m for m in sys.modules "
         "if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=package_env(), timeout=60,
        check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("x", [1e-300, 1e-9, 0.25, 1.0, 3.5, 20.0, 150.0,
                               1500.0])
def test_chi2_sf_closed_forms(x):
    assert _chi2_sf(x, 2) == math.exp(-x / 2)
    assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))


@pytest.mark.parametrize("df", [1, 2, 3, 60, 5000])
def test_chi2_sf_at_and_below_zero(df):
    assert _chi2_sf(0.0, df) == 1.0
    assert _chi2_sf(-3.0, df) == 1.0


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(20261018)
    grid = [(df, x) for df in range(1, 61)
            for x in [0.0, 1e-12, 1e-3, *(rng.uniform(0, 4 * df + 60)
                                          for _ in range(30)),
                      *(math.exp(rng.uniform(-25, 7)) for _ in range(10))]]
    for df in [61, 99, 100, 999, 1000, 4999, 5000,
               *(rng.randrange(61, 5001) for _ in range(40))]:
        # near the mean, where the tail is neither 0 nor 1
        grid += [(df, max(0.0, df + z * math.sqrt(2 * df)))
                 for z in (-8, -3, -1, -0.1, 0, 0.1, 1, 3, 8)]
    worst = max(abs(_chi2_sf(x, df) - float(stats.chi2.sf(x, df)))
                for df, x in grid)
    assert worst <= 1e-12


@given(seeds)
@settings(max_examples=40)
def test_stationary_solves_balance_exactly(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    c = chain(tuple(f"s{i}" for i in range(n)))
    rows = {}
    for x in c.elements:
        # mix with uniform mass so the chain is irreducible
        raw = random_measure(rng, c, rng.randrange(1, 9))
        rows[x] = rational_measure(
            c.elements,
            {t: Fraction(raw.of(t), 2) + Fraction(1, 2 * n) for t in c.elements})
    kern = kernel(c, rows)
    pi = stationary_exact(kern)
    assert sum(pi.of(s) for s in c.elements) == 1
    for t in c.elements:
        assert sum(pi.of(s) * rows[s].of(t) for s in c.elements) == pi.of(t)
