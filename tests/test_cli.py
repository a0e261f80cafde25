"""End-to-end command-line runs, in process, against the shipped fixtures."""

import gc
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from monosync import cli
from monosync.cli import build_parser, main
from monosync.coupling import check_coupling, pair_system
from monosync.formats import (
    parse_certificate,
    parse_coupling,
    parse_phi,
    serialize_measures,
    serialize_poset,
    serialize_system,
)
from monosync.generate import random_class_w, random_measure, up_moves
from monosync.measure import rational_measure
from monosync.poset import chain

from conftest import IDENTITY_15, PHI2_15, SHOWCASE_ATOMS, package_env

SVG = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def test_classify_w6(capsys, data_dir):
    rc, out, _ = run(capsys, "classify", "--poset", str(data_dir / "w6.poset"))
    assert rc == 0
    assert out[0] == "elements 6"
    assert "cover w tau" in out and "cover x z" in out
    assert "class W" in out
    assert out[-1] == "synchronizable true"


def test_classify_chain_and_diamond(capsys, data_dir, tmp_path):
    rc, out, _ = run(capsys, "classify",
                     "--poset", str(data_dir / "chain2.poset"))
    assert rc == 0 and "class Z" in out
    rc, out, _ = run(capsys, "classify",
                     "--poset", str(data_dir / "diamond.poset"))
    assert rc == 0 and "class NonAcyclicOrDisconnected" in out


def test_classify_crown_with_top(capsys, tmp_path):
    # an 8-crown (m_i and m_{i+1} below b_i) with one top above every b_i:
    # the minimal side's interlacing graph is K8, with no locally
    # connected spanning tree among its 8^6 spanning trees
    lines = [f"element {x}{i}" for x in "mb" for i in range(8)]
    lines.append("element top")
    for i in range(8):
        lines += [f"cover m{i} b{i}", f"cover m{(i + 1) % 8} b{i}",
                  f"cover b{i} top"]
    path = tmp_path / "crown_top.poset"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "classify", "--poset", str(path))
    assert rc == 0 and err == ""
    assert out[0] == "elements 17" and "class NonAcyclicOrDisconnected" in out
    assert out[-1] == "synchronizable false"


def test_check_showcase(capsys, data_dir, tmp_path):
    rc, out, _ = run(capsys, "check",
                     "--system", str(data_dir / "w6.system"),
                     "--out", str(tmp_path))
    assert rc == 0
    assert out[0] == "stochastically monotone"
    assert "realizable" in out and "atoms 11" in out
    (path,) = [ln.split(" ", 1)[1] for ln in out if ln.startswith("coupling ")]
    assert parse_coupling(path, ("1", "2")).atoms == dict(SHOWCASE_ATOMS)


def test_check_infeasible(capsys, data_dir, tmp_path):
    rc, out, _ = run(capsys, "check",
                     "--system", str(data_dir / "diamond_infeasible.system"),
                     "--out", str(tmp_path))
    assert rc == 1
    assert "not realizable" in out
    (path,) = [ln.split(" ", 1)[1] for ln in out
               if ln.startswith("certificate ")]
    fixture = parse_certificate(data_dir / "diamond_infeasible.cert")
    assert parse_certificate(path) == fixture


def test_check_not_monotone(capsys, data_dir, tmp_path):
    # assign the dominating row to the smaller index: a clean violation
    sys_file = tmp_path / "bad.system"
    sys_file.write_text(
        f"index {data_dir / 'pair.poset'}\n"
        f"states {data_dir / 'chain2.poset'}\n"
        f"measures {data_dir / 'chain2.measures'}\n"
        "assign 1 down\n"
        "assign 2 up\n")
    rc, out, _ = run(capsys, "check", "--system", str(sys_file),
                     "--out", str(tmp_path))
    assert rc == 1
    assert out[0] == "not stochastically monotone"
    assert out[1] == "witness 1 2 hi"


def wide_pair_files(tmp_path, n, dominated):
    """The wide pair system on ``n`` class-W states: a measure and either
    an upward push of it or an independent draw."""
    rng = random.Random(3)
    S = random_class_w(rng, n)
    p = random_measure(rng, S, 64)
    q = up_moves(rng, p, S, 40, 64) if dominated else random_measure(rng, S, 64)
    (tmp_path / "pair.poset").write_text(serialize_poset(chain(("1", "2"))))
    (tmp_path / "states.poset").write_text(serialize_poset(S))
    (tmp_path / "pq.measures").write_text(serialize_measures({"p": p, "q": q}))
    path = tmp_path / "wide.system"
    path.write_text(serialize_system("pair.poset", "states.poset",
                                     ["pq.measures"], {"1": "p", "2": "q"}))
    return pair_system(p, q, S), path


@pytest.mark.parametrize("dominated", [True, False])
def test_check_answers_on_a_wide_state_poset(capsys, tmp_path, dominated):
    # 28 class-W states have more up-sets than an enumeration could take;
    # the verdict is one max-flow
    system, path = wide_pair_files(tmp_path, 28, dominated)
    rc, out, err = run(capsys, "check", "--system", str(path),
                       "--out", str(tmp_path))
    assert err == ""
    if dominated:
        assert rc == 0 and out[:2] == ["stochastically monotone", "realizable"]
        check_coupling(system, parse_coupling(tmp_path / "coupling.txt",
                                              ("1", "2")))
    else:
        assert rc == 1 and out[0] == "not stochastically monotone"
        alpha, beta, names = out[1].split()[1:]
        upset = frozenset(names.split(","))
        S = system.state_poset
        assert (alpha, beta) == ("1", "2")
        assert all(b in upset for a in upset for b in S.elements
                   if S.leq(a, b))
        assert (system.measure_of("1").of_set(upset)
                > system.measure_of("2").of_set(upset))


def test_synchronize_showcase(capsys, data_dir, tmp_path):
    rc, out, _ = run(capsys, "synchronize",
                     "--system", str(data_dir / "w6.system"),
                     "--root", "tau",
                     "--child-order", "w=z,v",
                     "--child-order", "z=x,y",
                     "--out", str(tmp_path))
    assert rc == 0
    assert out[0] == "naive_violations 2"
    assert out[-1] == "verified true"
    assert parse_phi(tmp_path / "phi_1.txt").perm == IDENTITY_15
    assert parse_phi(tmp_path / "phi_2.txt").perm == PHI2_15
    for name in ("bands_naive.svg", "bands_synchronized.svg",
                 "phi_1.svg", "phi_2.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def write_pair_by_name(directory, index, states, masses):
    """A system file whose index and state posets are the chains
    ``index`` and ``states``, row k (masses in state order) assigned to
    the k-th index."""
    def chain_text(names):
        return "".join(f"element {x}\n" for x in names) + "".join(
            f"cover {a} {b}\n" for a, b in zip(names, names[1:]))

    (directory / "index.poset").write_text(chain_text(index))
    (directory / "states.poset").write_text(chain_text(states))
    (directory / "rows.measures").write_text("".join(
        f"measure r{k}\n" + "".join(f"mass {s} {m}\n"
                                    for s, m in zip(states, row))
        for k, row in enumerate(masses)))
    path = directory / "pair.system"
    path.write_text("index index.poset\nstates states.poset\n"
                    "measures rows.measures\n" + "".join(
                        f"assign {a} r{k}\n" for k, a in enumerate(index)))
    return path


def test_svg_names_are_escaped(capsys, tmp_path):
    # names holding XML's special characters stay well-formed, in text
    # and inside attributes, and read back as they were
    index, states = ('"1"', "2&"), ("a&b", "<c>")
    system = write_pair_by_name(tmp_path, index, states,
                                [("1/2", "1/2"), ("1/4", "3/4")])
    out = tmp_path / "out"
    rc, lines, _ = run(capsys, "synchronize", "--system", str(system),
                       "--out", str(out))
    assert rc == 0 and lines[-1] == "verified true"
    for name in ("bands_naive.svg", "bands_synchronized.svg"):
        bands = ET.parse(out / name).getroot().findall(SVG + "g")
        assert [g.get("data-index") for g in bands] == list(index)
        texts = {t.text for g in bands for t in g.iter(SVG + "text")}
        assert texts == set(states)
    for alpha in index:
        title = ET.parse(out / f"phi_{alpha}.svg").getroot().find(
            SVG + "title")
        assert title.text == alpha


@pytest.mark.parametrize("alpha", ["x/../../../escaped", "x\0y"])
def test_index_name_that_is_no_file_name_is_input_error(capsys, tmp_path,
                                                       alpha):
    inputs = tmp_path / "in"
    inputs.mkdir()
    system = write_pair_by_name(inputs, ("1", alpha), ("lo", "hi"),
                                [("1/2", "1/2"), ("1/4", "3/4")])
    before = set(tmp_path.rglob("*"))
    rc, out, err = run(capsys, "synchronize", "--system", str(system),
                       "--out", str(tmp_path / "a" / "b" / "out"))
    assert (rc, out) == (2, [])
    assert err == (f"error: index element {alpha!r} cannot be part of a "
                   "file name\n")
    assert set(tmp_path.rglob("*")) == before


def test_demo_refuses_an_index_name_that_is_no_file_name(tmp_path):
    alpha = "x/../../../escaped"
    inputs = tmp_path / "in"
    inputs.mkdir()
    system = write_pair_by_name(inputs, ("1", alpha), ("lo", "hi"),
                                [("1/2", "1/2"), ("1/4", "3/4")])
    before = set(tmp_path.rglob("*"))
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    done = subprocess.run(
        [sys.executable, str(scripts / "demo_synchronize.py"),
         "--system", str(system), "--out", str(tmp_path / "a" / "b" / "out")],
        capture_output=True, text=True, env=package_env(), timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: index element {alpha!r} cannot be part "
                           "of a file name\n")
    assert set(tmp_path.rglob("*")) == before


def test_demo_child_orders_are_the_cli_s(tmp_path):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    done = subprocess.run(
        [sys.executable, str(scripts / "demo_synchronize.py"),
         "--child-order", "w=z,v",
         "--child-order", "w=v,z", "--out", str(tmp_path)],
        capture_output=True, text=True, env=package_env(), timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: duplicate --child-order for 'w'\n"
    assert list(tmp_path.iterdir()) == []


def test_synchronize_without_leaf_is_input_error(capsys, data_dir, tmp_path):
    # the diamond's cover graph is a 4-cycle: no leaf to root at
    rc, out, err = run(capsys, "synchronize",
                       "--system", str(data_dir / "diamond_infeasible.system"),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err.startswith("error:") and "no leaf" in err
    assert "Traceback" not in err


def test_synchronize_cap_hits(capsys, data_dir, tmp_path):
    rc, _, err = run(capsys, "synchronize",
                     "--system", str(data_dir / "w6.system"),
                     "--cap-tuples", "1",
                     "--out", str(tmp_path))
    assert rc == 3 and err.startswith("resource cap:")


@pytest.mark.parametrize("command, printed", [
    ("check", ["stochastically monotone", "realizable", "atoms 11"]),
    ("synchronize", ["naive_violations 2"]),
])
@pytest.mark.parametrize("under", [False, True])
def test_unwritable_out_is_input_error(capsys, data_dir, tmp_path, command,
                                       printed, under):
    # --out names a regular file, or a directory under one: the first
    # write fails, which is exit 2 with the path, not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out_dir = blocker / "sub" if under else blocker
    rc, out, err = run(capsys, command,
                       "--system", str(data_dir / "w6.system"),
                       "--out", str(out_dir))
    assert rc == 2 and out == printed
    reason = "Not a directory" if under else "File exists"
    assert err == f"error: cannot write {out_dir}: {reason}\n"


def test_cftp_deterministic(capsys, data_dir, tmp_path):
    argv = ("cftp", "--kernel", str(data_dir / "chain2.kernel"),
            "--seed", "20260818", "--samples", "50", "--out", str(tmp_path))
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0 and out1 == out2
    assert "samples 50" in out1
    assert "stationary lo 1/2" in out1 and "stationary hi 1/2" in out1
    assert sum(ln.startswith("count ") for ln in out1) == 2
    assert out1[-2].startswith("chi_square ") and out1[-1].startswith("p_value ")


def test_cftp_not_ergodic(capsys, data_dir, tmp_path):
    (tmp_path / "rows.measures").write_text(
        serialize_measures({
            "stay_lo": rational_measure(("lo", "hi"), {"lo": 1}),
            "stay_hi": rational_measure(("lo", "hi"), {"hi": 1}),
        }))
    (tmp_path / "ident.kernel").write_text(
        f"states {data_dir / 'chain2.poset'}\n"
        "measures rows.measures\n"
        "assign lo stay_lo\n"
        "assign hi stay_hi\n")
    rc, out, _ = run(capsys, "cftp", "--kernel", str(tmp_path / "ident.kernel"),
                     "--out", str(tmp_path))
    assert rc == 1 and out[0].startswith("not ergodic:")


def test_cftp_table_that_never_coalesces_exits_false(tmp_path):
    # two incomparable states, both rows uniform: the LP route's table
    # swaps the states on one of its two cells, so no draw ever stops.  A
    # fresh process with a timeout: a hang fails here instead of hanging
    # the suite
    (tmp_path / "anti.poset").write_text("element a\nelement b\n")
    (tmp_path / "rows.measures").write_text(
        "measure u\nmass a 1/2\nmass b 1/2\n")
    kern = tmp_path / "anti.kernel"
    kern.write_text("states anti.poset\nmeasures rows.measures\n"
                    "assign a u\nassign b u\n")
    done = subprocess.run(
        [sys.executable, "-m", "monosync.cli", "cftp", "--kernel", str(kern),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=package_env(), timeout=60)
    assert done.returncode == 1 and done.stderr == ""
    assert done.stdout == (
        "not coalescing: no cell sequence merges 'a' and 'b'\n")


def test_cftp_not_monotone_kernel(capsys, data_dir, tmp_path):
    (tmp_path / "rows.measures").write_text(
        serialize_measures({
            "go_hi": rational_measure(("lo", "hi"), {"hi": 1}),
            "go_lo": rational_measure(("lo", "hi"), {"lo": 1}),
        }))
    (tmp_path / "swap.kernel").write_text(
        f"states {data_dir / 'chain2.poset'}\n"
        "measures rows.measures\n"
        "assign lo go_hi\n"
        "assign hi go_lo\n")
    rc, out, _ = run(capsys, "cftp", "--kernel", str(tmp_path / "swap.kernel"),
                     "--out", str(tmp_path))
    assert rc == 1
    assert out[0] == "not stochastically monotone"
    assert out[1].startswith("witness lo hi")


def test_cftp_infeasible_kernel(capsys, data_dir, tmp_path):
    (tmp_path / "bad.kernel").write_text(
        f"states {data_dir / 'diamond.poset'}\n"
        f"measures {data_dir / 'diamond_infeasible.measures'}\n"
        "assign bot q_bot\nassign a q_a\nassign b q_b\nassign top q_top\n")
    rc, out, _ = run(capsys, "cftp", "--kernel", str(tmp_path / "bad.kernel"),
                     "--out", str(tmp_path))
    assert rc == 1 and out[0] == "not realizable"
    assert (tmp_path / "certificate.txt").exists()


def test_input_errors(capsys, data_dir, tmp_path):
    rc, _, err = run(capsys, "classify", "--poset", str(tmp_path / "nope"))
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "cftp",
                     "--kernel", str(data_dir / "chain2.kernel"),
                     "--samples", "0")
    assert rc == 2 and "samples must be positive" in err
    rc, _, err = run(capsys, "synchronize",
                     "--system", str(data_dir / "w6.system"),
                     "--child-order", "w:z,v", "--out", str(tmp_path))
    assert rc == 2 and "bad --child-order" in err


def test_child_order_errors_come_first(capsys, data_dir, tmp_path):
    system = str(data_dir / "w6.system")
    rc, out, err = run(capsys, "synchronize", "--system", system,
                       "--child-order", "w=z,v", "--child-order", "w=v,z",
                       "--out", str(tmp_path))
    assert (rc, out) == (2, [])
    assert err == "error: duplicate --child-order for 'w'\n"
    assert list(tmp_path.iterdir()) == []
    # a bad spec is reported before a count that is not positive
    rc, _, err = run(capsys, "synchronize", "--system", system,
                     "--child-order", "w:z,v", "--cap-tuples", "0")
    assert rc == 2 and "bad --child-order" in err
    rc, _, err = run(capsys, "synchronize", "--system", system,
                     "--child-order", "w=z,v", "--cap-tuples", "0")
    assert err == "error: cap-tuples must be positive\n"


@pytest.mark.parametrize("command", ["check", "synchronize"])
def test_empty_index_poset_is_input_error(capsys, data_dir, tmp_path,
                                         command):
    (tmp_path / "empty.poset").write_text("")
    system = tmp_path / "empty.system"
    system.write_text(f"states {data_dir / 'chain2.poset'}\n"
                      f"measures {data_dir / 'chain2.measures'}\n"
                      "index empty.poset\n")
    rc, out, err = run(capsys, command, "--system", str(system),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err == f"error: {system}:3: index poset has no elements\n"
    assert list(tmp_path.glob("*.svg")) == []


def test_empty_kernel_is_input_error(capsys, tmp_path):
    (tmp_path / "empty.poset").write_text("")
    (tmp_path / "none.measures").write_text("")
    kern = tmp_path / "empty.kernel"
    kern.write_text("states empty.poset\nmeasures none.measures\n")
    rc, out, err = run(capsys, "cftp", "--kernel", str(kern),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err == f"error: {kern}:1: state poset has no elements\n"


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(b"element a\nelement \xff\xfe\n")
    rc, out, err = run(capsys, "classify", "--poset", str(bad))
    assert rc == 2 and out == []
    assert err == f"error: {bad}:2: not UTF-8: byte 0xff\n"


def test_comma_in_element_name_is_input_error(capsys, data_dir, tmp_path):
    # a coupling atom 'a,b,c' could not be read back as two states
    states = tmp_path / "comma.poset"
    states.write_text("element a,b\nelement c\ncover a,b c\n")
    (tmp_path / "m.measures").write_text(
        "measure lo\nmass a,b 1/2\nmass c 1/2\nmeasure hi\nmass c 1\n")
    system = tmp_path / "comma.system"
    system.write_text(f"index {data_dir / 'pair.poset'}\nstates comma.poset\n"
                      "measures m.measures\nassign 1 lo\nassign 2 hi\n")
    rc, out, err = run(capsys, "check", "--system", str(system),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err == f"error: {states}:1: element name 'a,b' contains ','\n"
    assert list(tmp_path.glob("*.coupling")) == []


@pytest.mark.parametrize("text, lineno, message", [
    ("element a\nelement a\n", 2, "element 'a' declared twice"),
    ("element a\nelement b\ncover a b\nleq b c\ncover c a\nelement d\n",
     4, "unknown element 'c'"),
    # unknown names are reported before cycles, wherever the cycle closes
    ("element a\nelement b\ncover a b\ncover b a\nleq a zz\n", 5,
     "unknown element 'zz'"),
    # the pairs read so far first hold a cycle at the leq line
    ("element a\nelement b\nelement c\ncover a b\nleq b c\n# c < a\n"
     "leq c a\ncover b a\n", 7, "'a' and 'b' are in a cycle"),
])
def test_bad_order_is_input_error_at_its_line(capsys, tmp_path, text, lineno,
                                              message):
    poset = tmp_path / "bad.poset"
    poset.write_text(text)
    rc, out, err = run(capsys, "classify", "--poset", str(poset))
    assert rc == 2 and out == []
    assert err == f"error: {poset}:{lineno}: {message}\n"


def test_duplicate_measure_labels_are_input_error_at_their_line(
        capsys, data_dir, tmp_path):
    system = tmp_path / "dup.system"
    system.write_text(f"index {data_dir / 'pair.poset'}\n"
                      f"states {data_dir / 'w6.poset'}\n"
                      f"measures {data_dir / 'w6.measures'}\n"
                      f"measures {data_dir / 'w6.measures'}\n"
                      "assign 1 p1\nassign 2 p2\n")
    rc, out, err = run(capsys, "check", "--system", str(system),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err == (f"error: {system}:4: "
                   "measure labels defined twice: ['p1', 'p2']\n")
    assert list(tmp_path.iterdir()) == [system]


def test_exponent_mass_is_input_error(capsys, data_dir, tmp_path):
    # a decimal exponent expands to 10**5000; only p/q and integers parse
    rows = tmp_path / "rows.measures"
    rows.write_text("measure up\nmass lo 1e5000\nmeasure down\nmass lo 1\n")
    (tmp_path / "big.system").write_text(
        f"index {data_dir / 'pair.poset'}\n"
        f"states {data_dir / 'chain2.poset'}\n"
        "measures rows.measures\n"
        "assign 1 down\n"
        "assign 2 up\n")
    rc, out, err = run(capsys, "check",
                       "--system", str(tmp_path / "big.system"),
                       "--out", str(tmp_path))
    assert rc == 2 and out == []
    assert err == f"error: {rows}:2: bad rational '1e5000'\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_is_input_error(tmp_path):
    # a fresh process with a timeout: a read that blocks fails here
    # instead of hanging the suite
    fifo = tmp_path / "pipe.poset"
    os.mkfifo(fifo)
    done = subprocess.run(
        [sys.executable, "-m", "monosync.cli", "classify", "--poset", str(fifo)],
        capture_output=True, text=True, env=package_env(), timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {fifo}:0: not a regular file\n"


def write_long_pair(data_dir, tmp_path):
    """A pair system and a kernel on chain2 whose rows are ordered and
    have 3,000-digit coprime denominators."""
    n1, n2 = 10**2999 + 1, 10**2999 + 3
    (tmp_path / "rows.measures").write_text(
        f"measure a\nmass lo {n1 - 1}/{n1}\nmass hi 1/{n1}\n"
        f"measure b\nmass lo 1/{n2}\nmass hi {n2 - 1}/{n2}\n")
    (tmp_path / "long.system").write_text(
        f"index {data_dir / 'pair.poset'}\n"
        f"states {data_dir / 'chain2.poset'}\n"
        "measures rows.measures\n"
        "assign 1 a\n"
        "assign 2 b\n")
    (tmp_path / "long.kernel").write_text(
        f"states {data_dir / 'chain2.poset'}\n"
        "measures rows.measures\n"
        "assign lo a\n"
        "assign hi b\n")


def test_result_too_long_to_print_is_cap(capsys, data_dir, tmp_path):
    # 3,000-digit masses parse, but the coupling's weights have about
    # 6,000 digits, more than int-to-str converts
    write_long_pair(data_dir, tmp_path)
    rc, out, err = run(capsys, "check",
                       "--system", str(tmp_path / "long.system"),
                       "--out", str(tmp_path))
    assert rc == 3
    assert out == ["stochastically monotone", "realizable", "atoms 3"]
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert "digits" in err
    assert not (tmp_path / "coupling.txt").exists()


@pytest.mark.parametrize("command, option, name", [
    ("synchronize", "--system", "long.system"),
    ("cftp", "--kernel", "long.kernel"),
])
def test_grid_too_large_is_cap(capsys, data_dir, tmp_path, command, option,
                               name):
    # the common grid has about 6,000 digits: refused before any cell
    write_long_pair(data_dir, tmp_path)
    rc, out, err = run(capsys, command, option, str(tmp_path / name),
                       "--out", str(tmp_path))
    assert rc == 3 and out == []
    assert err == "resource cap: grid of more than 1000000 cells\n"
    assert list(tmp_path.glob("*.svg")) == []


def test_parser_is_reused_without_leaking_options(capsys, monkeypatch,
                                                   data_dir):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "synchronize", seen.append)
    system = str(data_dir / "w6.system")
    main(["synchronize", "--system", system, "--child-order", "w=z,v"])
    main(["synchronize", "--system", system])
    assert [cfg.child_orders for cfg in seen] == [{"w": ("z", "v")}, {}]

    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["check", "--cap-tuples", "x"])
        assert stop.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and "invalid int value" in errs[0]
    assert build_parser() is not build_parser()


def gc_commands(data_dir, out):
    system = str(data_dir / "w6.system")
    return {
        "classify": ["classify", "--poset", str(data_dir / "w6.poset")],
        "check": ["check", "--system", system, "--out", out],
        "check-infeasible": [
            "check", "--system", str(data_dir / "diamond_infeasible.system"),
            "--out", out],
        "synchronize": ["synchronize", "--system", system, "--out", out],
        "cftp": ["cftp", "--kernel", str(data_dir / "chain2.kernel"),
                 "--samples", "20", "--out", out],
    }


@pytest.mark.parametrize("name", ["classify", "check", "check-infeasible",
                                  "synchronize", "cftp"])
def test_commands_leave_no_cyclic_garbage(capsys, data_dir, tmp_path, name):
    argv = gc_commands(data_dir, str(tmp_path))[name]
    rc = main(argv)  # first run: lazy imports and per-process caches
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == rc
        assert gc.collect() == 0
    finally:
        gc.enable()
