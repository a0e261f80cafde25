"""Each benchmark checker rejects a corrupted object, without ``assert``.

    python3 -m pytest perfbench/test_checks.py -q
    python3 -O -m pytest perfbench/test_checks.py -q

The tests use ``expect`` instead of ``assert`` so that they keep
checking under ``python -O`` too, where the package's own ``assert``
based checkers are switched off.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from monosync import (  # noqa: E402
    cftp, cli, coupling, formats, poset, synchronize)
from monosync.measure import rational_measure  # noqa: E402
from monosync.rng import CellSampler  # noqa: E402

DATA = ROOT / "data"


def expect(condition, message="") -> None:
    if not condition:
        raise AssertionError(message)


@pytest.fixture(scope="module")
def w6():
    return formats.parse_system(DATA / "w6.system")


@pytest.fixture(scope="module")
def diamond():
    system = formats.parse_system(DATA / "diamond_infeasible.system")
    cert = checks.parse_certificate(
        (DATA / "diamond_infeasible.cert").read_text())
    return system, cert


def test_coupling_checker(w6):
    c = coupling.realize(w6)
    atoms = dict(c.atoms)
    expect(checks.check_coupling(w6, c.index_order, atoms) is None)
    (t1, w1), (t2, w2) = list(atoms.items())[:2]
    moved = dict(atoms)
    moved[t1], moved[t2] = w1 + Fraction(1, 60), w2 - Fraction(1, 60)
    expect(checks.check_coupling(w6, c.index_order, moved), "marginal")
    backwards = dict(atoms)
    w = backwards.pop(("x", "z"))
    backwards[("z", "x")] = w
    expect(checks.check_coupling(w6, c.index_order, backwards), "order")
    light = dict(atoms)
    light[t1] = w1 / 2
    expect(checks.check_coupling(w6, c.index_order, light), "total")


def test_certificate_checker(diamond):
    system, (dual, gap) = diamond
    expect(checks.check_certificate(system, dual, gap) is None)
    flipped = {k: -v for k, v in dual.items()}
    expect(checks.check_certificate(system, flipped, gap), "sign")
    expect(checks.check_certificate(system, dual, gap + 1), "gap")


def test_cell_table_checkers(w6, chain2_table):
    kern, gc = chain2_table
    expect(checks.check_update_table(kern, gc.L, gc.update) is None)
    swapped = dict(gc.update)
    row = list(swapped["hi"])
    row[0], row[-1] = row[-1], row[0]
    swapped["hi"] = tuple(row)
    expect(checks.check_update_table(kern, gc.L, swapped), "order")
    _, ext = poset.root_tree(w6.state_poset, "tau",
                             {"w": ("z", "v"), "z": ("x", "y")})
    phis = synchronize.synchronize_from_coupling(w6, coupling.realize(w6), ext)
    perms = {a: phi.perm for a, phi in phis.items()}
    expect(checks.check_phis(w6, perms, ext.order) is None)
    naive = {a: tuple(range(len(p))) for a, p in perms.items()}
    expect(checks.check_phis(w6, naive, ext.order), "naive transforms")
    expect(checks.count_naive_violations(w6, ext.order, 15) == 2)


@pytest.fixture(scope="module")
def chain2_table():
    kern = formats.parse_kernel(DATA / "chain2.kernel")
    return kern, cftp.build_grand_coupling(kern)


def test_dominance_cross_check(w6):
    S = w6.state_poset
    p1, p2 = w6.measure_of("1"), w6.measure_of("2")
    flow = coupling.strassen_coupling(p1, p2, S)
    expect(checks.check_pair_dominance(w6, True, None, flow) is None)
    expect(checks.check_pair_dominance(w6, False, frozenset({"tau"}), flow),
           "verdict against the flow")
    swapped = coupling.pair_system(p2, p1, S)
    none = coupling.strassen_coupling(p2, p1, S)
    expect(none is None)
    witness = coupling.dominance_violation(p2, p1, S)
    expect(checks.check_pair_dominance(swapped, False, witness, none) is None)
    expect(checks.check_pair_dominance(swapped, False, frozenset({"w"}),
                                       none), "not an up-set")


def test_draw_replay_and_chi_square(chain2_table):
    kern, gc = chain2_table
    draws = cftp.sample_many(gc, 5, 40)
    for s, d in enumerate(draws):
        want = checks.cftp_replay(gc.update, kern.state_poset.elements,
                                  CellSampler(gc.L, 5, s))
        expect(want == d)
        other = "lo" if d == "hi" else "hi"
        expect(want != other, "a changed draw must not match the replay")
    law = cftp.stationary_exact(kern)
    expect(workloads.stationary_reason(kern, law) is None)
    bad_law = rational_measure(("lo", "hi"), {"lo": Fraction(1, 3),
                                              "hi": Fraction(2, 3)})
    expect(workloads.stationary_reason(kern, bad_law), "not stationary")
    fair = Counter(cftp.sample_many(gc, 7, 400))
    expect(checks.chi_square_pooled([(fair, law)])[2] >= 1e-6)
    skewed = Counter({"lo": 390, "hi": 10})
    expect(checks.chi_square_pooled([(skewed, law)])[2] < 1e-6)


def test_classify_checks():
    diamond = formats.parse_poset(DATA / "diamond.poset")
    expect(checks.poset_class(diamond) == "NonAcyclicOrDisconnected")
    w6 = formats.parse_poset(DATA / "w6.poset")
    expect(checks.poset_class(w6) == "W")
    expect(checks.synchronizable(w6) is True)
    text = "elements 6\n" + "".join(
        f"cover {a} {b}\n" for a, b in poset.covers(w6)) + \
        "class W\nsynchronizable true\n"
    expect(workloads.classify_reason(w6, text) is None)
    expect(workloads.classify_reason(w6, text.replace("class W", "class Z")))


class SmallCli(workloads.CliMixed):
    VARIANTS = 2


def test_corrupted_coupling_is_a_failed_op(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    wl = SmallCli(3, tmp_path / "a")
    i = next(i for i, item in enumerate(wl.items) if item[0] == "wide_dom")
    expect(all(ok for _, _, ok in wl.step(i)))
    real = cli.realize

    def corrupted(system, *args, **kwargs):
        c = real(system, *args, **kwargs)
        atoms = dict(c.atoms)
        first = next(iter(atoms))
        atoms[first] /= 2  # weights no longer sum to one
        return coupling.Coupling(c.index_order, atoms)

    monkeypatch.setattr(cli, "realize", corrupted)
    wl2 = SmallCli(3, tmp_path / "b")
    expect(not any(ok for _, _, ok in wl2.step(i)))


def test_golden_mismatch_is_a_failed_op(tmp_path):
    wl = SmallCli(1, tmp_path)
    golden = [i for i, item in enumerate(wl.items) if item[0] == "golden"]
    expect(all(ok for _, _, ok in wl.step(golden[0])))
    case = wl.items[golden[1]][1]
    wl.golden[case]["stdout"] += "extra line\n"
    expect(not any(ok for _, _, ok in wl.step(golden[1])))
    expect(wl.golden_mismatch == 1)


def test_every_seeded_cli_command_checks_out(tmp_path):
    wl = SmallCli(2, tmp_path)
    for i in range(wl.n_items):
        expect(all(ok for _, _, ok in wl.step(i)), wl.items[i][0])


def test_same_seed_same_inputs(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = SmallCli(4, tmp_path / "a")
    b = SmallCli(4, tmp_path / "b")
    c = SmallCli(5, tmp_path / "c")
    expect(a.digest == b.digest)
    expect(a.digest != c.digest)
