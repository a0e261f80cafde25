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

from monosync import cftp
from monosync.cftp import (
    DEFAULT_MAX_EPOCH,
    GrandCoupling,
    _chi2_sf,
    _ergodicity,
    _require_ergodic_table,
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
    Verdict,
    is_stoch_monotone,
    realize,
    verify_certificate,
)
from monosync.errors import (
    BudgetExceeded,
    ContractViolation,
    DomainMismatch,
    GridMismatch,
    MonosyncError,
    NotCoalescing,
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
    random_poset,
    random_tree_edges,
)
from monosync.measure import rational_measure
from monosync.poset import (
    PosetClass,
    antichain,
    chain,
    classify,
    default_root,
    root_tree,
    validate_poset,
)
from monosync.rng import CellSampler, acceptance_bound
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


def fence(n):
    """The zigzag path f0 < f1 > f2 < f3 ... on n states (class Z)."""
    f = element_labels(n, "f")
    return validate_poset(f, [(f[i], f[i + 1]) if i % 2 == 0
                              else (f[i + 1], f[i]) for i in range(n - 1)])


def test_fence_kernel_builds_without_the_up_sets():
    # a 30-state fence has more up-sets than DEFAULT_UPSET_CAP; neither
    # the build nor the monotonicity verdict enumerates them
    S = fence(30)
    assert classify(S) is PosetClass.Z
    kern = half_stay_half_uniform(S)
    gc = build_grand_coupling(kern)
    assert isinstance(gc, GrandCoupling) and gc.L == 60
    assert check_grand_coupling(kern, gc)
    assert is_stoch_monotone(kern.to_system())


def test_non_monotone_fence_kernel_gives_the_scan_witness():
    S = fence(8)
    kern = half_stay_half_uniform(S)
    rows = dict(kern.rows)
    rows["f0"] = rational_measure(S.elements, {"f1": 1})  # above row f1
    kern = kernel(S, rows)
    with pytest.raises(NotStochMonotone) as err:
        build_grand_coupling(kern)
    verdict = is_stoch_monotone(kern.to_system())
    assert not verdict and err.value.args[1:] == verdict.witness


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


def test_one_state_kernel_draws_its_only_state():
    # the one-state table's only column is the identity, so it has no
    # step getter (one would return a scalar, not a tuple); the draw needs
    # no step at all
    only = chain(("only",))
    kern = kernel(only, {"only": rational_measure(("only",), {"only": 1})})
    gc = build_grand_coupling(kern)
    assert isinstance(gc, GrandCoupling) and gc.L == 1
    assert gc._steps == (None,)
    assert sample_many(gc, seed=4, n=3) == ("only",) * 3
    assert cftp_sample(gc, seed=4, max_epoch=0) == "only"
    assert doubling_cftp_sample(gc, seed=4) == "only"


def test_sample_many_calls_the_module_level_sampler(monkeypatch,
                                                     chain2_kernel):
    # the benchmark times each draw through this name
    gc = build_grand_coupling(chain2_kernel)
    calls = []
    inner = cftp.cftp_sample

    def counted(*args, **kwargs):
        calls.append(kwargs["stream"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(cftp, "cftp_sample", counted)
    draws = sample_many(gc, seed=6, n=7)
    assert calls == list(range(7))
    assert draws == tuple(inner(gc, seed=6, stream=k) for k in range(7))


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


@pytest.mark.parametrize("name", ["walk16", "w6"])
def test_rejected_words_take_the_cell_sampler(monkeypatch, w6, name):
    # with the table's bound at 2**63 about half of the words count as
    # rejected and are handed to cell_at, which must give the same cells
    kern = lazy_walk_16() if name == "walk16" else w6_shifted_mixture(w6)
    gc = build_grand_coupling(kern)
    unpatched = sample_many(gc, seed=31, n=40)
    assert gc._bound == CellSampler(gc.L, 31, 0)._bound > 2**63
    calls = []
    cell_at = CellSampler.cell_at

    def counted(self, t):
        calls.append(t)
        return cell_at(self, t)

    monkeypatch.setattr(CellSampler, "cell_at", counted)
    monkeypatch.setitem(gc.__dict__, "_bound", 2**63)
    patched = sample_many(gc, seed=31, n=40)
    assert calls and patched == unpatched
    assert patched == tuple(doubling_cftp_sample(gc, 31, stream=k)
                            for k in range(40))


def test_grid_beyond_two_to_the_64_is_refused(chain2_kernel):
    # no word could be accepted on such a grid; the bound refuses it as
    # the sampler's constructor does, after the ergodicity verdict
    gc = build_grand_coupling(chain2_kernel)
    object.__setattr__(gc, "L", 2**64 + 1)
    with pytest.raises(ValueError, match="exceeds 2\\*\\*64"):
        cftp_sample(gc, seed=1)
    for L in (2**64 + 1, 2**200):
        with pytest.raises(ValueError, match="exceeds"):
            acceptance_bound(L)
    assert acceptance_bound(2**64) == 2**64
    assert acceptance_bound(3) == 2**64 - 1


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


def test_stationary_law_is_checked(monkeypatch, w6):
    kern = w6_shifted_mixture(w6)
    solve = cftp._solve

    def doubled(rows, rhs):
        return [2 * x for x in solve(rows, rhs)]

    monkeypatch.setattr(cftp, "_solve", doubled)
    with pytest.raises(ContractViolation) as err:
        stationary_exact(kern)
    assert err.value.witness == ("total", 2)

    def swapped(rows, rhs):  # sums to 1, but pi P = pi fails at x first
        x, y, *rest = solve(rows, rhs)
        return [y, x, *rest]

    monkeypatch.setattr(cftp, "_solve", swapped)
    with pytest.raises(ContractViolation,
                       match="not invariant at 'x'") as err:
        stationary_exact(kern)
    assert err.value.witness == ("balance", "x")


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


def doubling_columns(gc):
    """Cell-major view by state index: ``cols[c][i]`` is the index of the
    next state from state ``i`` under cell ``c``."""
    pos = gc.state_poset.index
    rows = (gc.update[x] for x in gc.state_poset.elements)
    return tuple(tuple(map(pos, col)) for col in zip(*rows))


def doubling_cftp_sample(gc, seed, stream=0, max_epoch=DEFAULT_MAX_EPOCH):
    """The former sampler, kept as the oracle: epochs of doubled length,
    each epoch's new cells composed forward and the stored map extended
    by them, coalescence looked at only at epoch boundaries."""
    _require_ergodic_table(gc)
    sampler = CellSampler(gc.L, seed, stream)
    cols = doubling_columns(gc)
    extremals = gc._extremals
    identity = tuple(range(len(gc.state_poset)))
    comp = identity  # composed map over times -covered..-1
    covered = 0
    T = 1
    while True:
        seg = identity
        for t in range(T, covered, -1):
            seg = tuple(map(cols[sampler.cell_at(t)].__getitem__, seg))
        comp = tuple(map(comp.__getitem__, seg))
        covered = T
        full = set(comp)
        ext = {comp[i] for i in extremals}
        if (len(full) == 1) != (len(ext) == 1):
            raise ContractViolation("trackers disagree", T)
        if len(full) == 1:
            return gc.state_poset.elements[comp[0]]
        if T >= max_epoch:
            raise BudgetExceeded(f"no coalescence by epoch {T}")
        T *= 2


def random_monotone_table(rng):
    """The built table of a monotone kernel on a chain (1-7 states) or a
    class-W or class-BY poset (4-7), with the kernel: rows from
    ``random_monotone_system``, half of them mixed 1/2 with the uniform
    row (then ergodic)."""
    shape = rng.choice(["Z", "W", "BY"])
    if shape == "Z":
        S = chain(element_labels(rng.randrange(1, 8), "s"))
    elif shape == "W":
        S = random_class_w(rng, rng.randrange(4, 8))
    else:
        S = random_class_by(rng, rng.randrange(4, 8))
    els = S.elements
    rows = random_monotone_system(rng, S, S, rng.randrange(1, 7)).measures
    mixed = rng.random() < 0.5
    if mixed:
        u = Fraction(1, 2 * len(els))
        rows = {s: rational_measure(els, {t: row.of(t) / 2 + u for t in els})
                for s, row in rows.items()}
    kern = kernel(S, rows)
    gc = build_grand_coupling(kern)
    assert isinstance(gc, GrandCoupling)
    return gc, kern, mixed


def random_table(rng):
    """An arbitrary table on a chain or a random poset (1-5 states, 1-4
    cells): each column a random map, or a random permutation, which
    never coalesces; most such tables are not monotone.  In half of them
    some columns, up to all, are then made the identity."""
    n = rng.randrange(1, 6)
    S = (chain(element_labels(n)) if rng.random() < 0.5
         else random_poset(rng, n))
    els = S.elements
    L = rng.randrange(1, 5)
    if rng.random() < 0.25:
        cols = [rng.sample(els, n) for _ in range(L)]
    else:
        cols = [[rng.choice(els) for _ in els] for _ in range(L)]
    if rng.random() < 0.5:
        for c in rng.sample(range(L), rng.randrange(1, L + 1)):
            cols[c] = els
    return GrandCoupling(L, S, {x: tuple(col[i] for col in cols)
                                for i, x in enumerate(els)})


def outcome(sample, *args, **kwargs):
    """The draw, or the exception's type, message and witness."""
    try:
        return sample(*args, **kwargs)
    except MonosyncError as err:
        return type(err), err.args, getattr(err, "witness", None)


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_step_back_sampler_matches_doubling_oracle(seed):
    rng = random.Random(seed)
    epochs = [0, 1, 2, 3, 5, 6, 7, 12, 33, 64, 100]
    if rng.random() < 0.5:
        gc, _, mixed = random_monotone_table(rng)
        if mixed:  # ergodic and monotone: coalesces with probability 1
            epochs.append(DEFAULT_MAX_EPOCH)
    else:
        gc = random_table(rng)
    max_epoch = rng.choice(epochs)
    for stream in range(3):
        kwargs = dict(stream=stream, max_epoch=max_epoch)
        got = outcome(cftp_sample, gc, seed, **kwargs)
        assert got == outcome(doubling_cftp_sample, gc, seed, **kwargs)
    # a cell has a step exactly when its column moves some state
    assert [step is None for step in gc._steps] == [
        col == gc._identity for col in gc._columns]
    assert [step(gc._identity) for step in gc._steps if step] == [
        col for col in gc._columns if col != gc._identity]


def identity_heavy(L, cols):
    """A table on the chain ``a < b < c`` with ``L`` cells: the first
    ones have the given columns (state names by state), the rest are the
    identity."""
    els = ("a", "b", "c")
    cols = list(cols) + [els] * (L - len(cols))
    return GrandCoupling(L, chain(els), {
        x: tuple(col[i] for col in cols) for i, x in enumerate(els)})


def cells_of(gc, seed, stream, times):
    return [CellSampler(gc.L, seed, stream).cell_at(t) for t in times]


def coalescence_time(gc, seed, stream):
    """The first ``t`` at which the map from time ``-t`` is constant."""
    cols = doubling_columns(gc)
    comp = gc._identity
    t = 0
    while len(set(comp)) > 1:
        t += 1
        comp = tuple(map(comp.__getitem__, cols[cells_of(
            gc, seed, stream, [t])[0]]))
    return t


def test_identity_cells_at_epoch_boundaries():
    # cell 0 moves every state down one, cell 1 up one, and the other six
    # are the identity: most streams draw an identity cell at some epoch
    # boundary T before they coalesce, and some at every boundary
    gc = identity_heavy(8, [("a", "a", "b"), ("b", "c", "c")])
    assert [step is None for step in gc._steps] == [False] * 2 + [True] * 6
    at_some = at_every = 0
    for stream in range(200):
        got = outcome(cftp_sample, gc, 5, stream=stream)
        assert got == outcome(doubling_cftp_sample, gc, 5, stream=stream)
        tau = coalescence_time(gc, 5, stream)
        boundaries = [2**e for e in range((tau - 1).bit_length())]
        lazy = [cell >= 2 for cell in cells_of(gc, 5, stream, boundaries)]
        at_some += any(lazy)
        at_every += tau > 1 and all(lazy)
    assert at_some >= 150 and at_every >= 50


@pytest.mark.parametrize("max_epoch, last", [(0, 1), (1, 1), (2, 2), (3, 4)])
def test_epoch_budget_on_an_identity_heavy_table(max_epoch, last):
    # constant columns make the table coalesce in one move, but on the
    # streams kept here cells 1 to the last boundary are the identity
    gc = identity_heavy(64, [("a",) * 3, ("b",) * 3, ("c",) * 3])
    kept = [k for k in range(100)
            if min(cells_of(gc, 2, k, range(1, last + 1))) >= 3]
    assert len(kept) >= 50
    for stream in kept:
        kwargs = dict(stream=stream, max_epoch=max_epoch)
        got = outcome(cftp_sample, gc, 2, **kwargs)
        assert got == outcome(doubling_cftp_sample, gc, 2, **kwargs)
        assert got == (BudgetExceeded, (f"no coalescence by epoch {last}",),
                       None)


def test_trackers_disagree_after_identity_cells():
    # the table of test_trackers_disagree_on_a_non_monotone_table with
    # two identity cells: a draw whose extremals meet while b stays apart
    # fails at the next boundary, as the oracle does, across the
    # boundaries 1, 2 and 4 and whatever identity cells fall between
    gc = identity_heavy(4, [("b", "a", "b"), ("b", "c", "c")])
    witnesses = set()
    for stream in range(100):
        got = outcome(cftp_sample, gc, 0, stream=stream)
        assert got == outcome(doubling_cftp_sample, gc, 0, stream=stream)
        if got[0] is ContractViolation:
            assert got[1] == ("trackers disagree",)
            witnesses.add(got[2])
    assert {1, 2, 4} <= witnesses


def merged_by_some_sequence(gc, states):
    """Whether some cell sequence maps every state of ``states`` to one,
    by a search over the images of that set (exponential; small tables)."""
    cols = doubling_columns(gc)
    start = frozenset(map(gc.state_poset.index, states))
    seen = {start}
    frontier = [start]
    while frontier:
        image = frontier.pop()
        if len(image) <= 1:
            return True
        for col in cols:
            after = frozenset(col[i] for i in image)
            if after not in seen:
                seen.add(after)
                frontier.append(after)
    return False


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_coalescence_verdict_matches_image_search(seed):
    rng = random.Random(seed)
    gc = (random_table(rng) if rng.random() < 0.7
          else random_monotone_table(rng)[0])
    verdict = gc._coalescing
    assert bool(verdict) == merged_by_some_sequence(
        gc, gc.state_poset.elements)
    if not verdict:  # the witness pair itself can never be merged
        kind, *pair = verdict.witness
        assert kind == "apart" and not merged_by_some_sequence(gc, pair)


def test_table_that_never_coalesces_is_refused():
    # two incomparable states with uniform rows: the LP route swaps them
    # on one cell, so every map over any number of steps is a bijection
    S = antichain(("a", "b"))
    half = rational_measure(S.elements, {"a": "1/2", "b": "1/2"})
    gc = build_grand_coupling(kernel(S, {"a": half, "b": half}))
    assert isinstance(gc, GrandCoupling)
    assert gc.update == {"a": ("a", "b"), "b": ("b", "a")}
    apart = ("apart", "a", "b")  # ergodic, but no sequence merges a and b
    assert gc._ergodic.witness == gc._coalescing.witness == apart
    for sample in (cftp_sample, doubling_cftp_sample):
        with pytest.raises(NotCoalescing) as err:
            sample(gc, seed=1)
        assert str(err.value) == "no cell sequence merges 'a' and 'b'"
    with pytest.raises(NotCoalescing):
        sample_many(gc, seed=1, n=2)


def reachable(support, start, forward):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        if forward:
            targets = support[u]
        else:
            targets = {x for x, nxt in support.items() if u in nxt}
        for v in targets:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def is_irreducible(support, elements):
    start = elements[0]
    if len(reachable(support, start, forward=True)) != len(elements):
        return False
    return len(reachable(support, start, forward=False)) == len(elements)


def period(support, elements):
    level = {elements[0]: 0}
    frontier = [elements[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in support[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in elements:
        for v in support[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def name_keyed_ergodicity(support, elements):
    """The former verdict on name-keyed successor sets, kept as the
    oracle: two reachability searches (the backward one rescans every
    row per step), then the period from breadth-first levels."""
    if not is_irreducible(support, elements):
        return Verdict(False, "reducible")
    p = period(support, elements)
    if p != 1:
        return Verdict(False, ("periodic", p))
    return Verdict(True)


def random_support(rng):
    """A support digraph on 1-8 states, every state with a successor:
    arbitrary arcs, arcs from each class of a cycle of classes to the
    next (periodic unless self loops or a short cycle break it), or arcs
    that never leave the first states (reducible)."""
    els = element_labels(rng.randrange(1, 9))
    n = len(els)
    kind = rng.choice(["any", "cyclic", "closed"])
    k = rng.randrange(1, n + 1)
    cls = [rng.randrange(k) for _ in els]
    closed = rng.randrange(1, n + 1)
    density = rng.random()
    loops = rng.random() < 0.3
    support = {}
    for i, x in enumerate(els):
        if kind == "cyclic":
            targets = [y for j, y in enumerate(els)
                       if cls[j] == (cls[i] + 1) % k] or list(els)
        elif kind == "closed" and i < closed:
            targets = list(els[:closed])
        else:
            targets = list(els)
        nxt = {y for y in targets if rng.random() < density}
        if loops and rng.random() < 0.3:
            nxt.add(x)
        support[x] = frozenset(nxt or {rng.choice(targets)})
    return els, support


@given(seeds)
@settings(max_examples=500)
def test_ergodicity_matches_name_keyed_oracle(seed):
    els, support = random_support(random.Random(seed))
    pos = {x: i for i, x in enumerate(els)}
    succ = [[pos[y] for y in support[x]] for x in els]
    assert _ergodicity(succ) == name_keyed_ergodicity(support, els)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_table_verdict_reads_the_kernel_ergodicity(seed):
    # the table's support digraph is the kernel's: each row's cells
    # reproduce its masses, so they hit exactly its support
    gc, kern, _ = random_monotone_table(random.Random(seed))
    verdict = is_ergodic(kern)
    assert gc._ergodic == (gc._coalescing if verdict else verdict)
