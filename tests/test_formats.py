"""Text formats: round trips against the shipped fixtures and error paths."""

import gc
import hashlib
import os
import random
import re
import shutil
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monosync.coupling import Coupling, InfeasibilityCertificate, realize
from monosync import formats
from monosync.cli import main
from monosync.errors import MonosyncError, ParseError
from monosync.formats import (
    parse_certificate,
    parse_coupling,
    parse_kernel,
    parse_measures,
    parse_phi,
    parse_poset,
    parse_system,
    serialize_certificate,
    serialize_coupling,
    serialize_kernel,
    serialize_measures,
    serialize_phi,
    serialize_poset,
    serialize_system,
)
from monosync.generate import (
    random_bounded_poset,
    random_class_w,
    random_monotone_system,
    random_poset,
)
from monosync.poset import covers, default_root, root_tree
from monosync.synchronize import CellPermutation, synchronize_from_coupling

from conftest import DATA_DIR, PHI2_15, SHOWCASE_ATOMS, W6_COVERS


def test_poset_roundtrip(data_dir, w6, tmp_path):
    assert covers(w6) == W6_COVERS
    out = tmp_path / "again.poset"
    out.write_text(serialize_poset(w6))
    again = parse_poset(out)
    assert again.elements == w6.elements and covers(again) == W6_COVERS


def test_measures_roundtrip(data_dir, w6, p1, p2, tmp_path):
    parsed = parse_measures(data_dir / "w6.measures", w6)
    assert set(parsed) == {"p1", "p2"}
    assert parsed["p1"] == p1 and parsed["p2"] == p2
    out = tmp_path / "again.measures"
    out.write_text(serialize_measures(parsed))
    assert parse_measures(out, w6) == parsed
    # canonical form drops zero masses
    assert "mass" not in [
        ln for ln in serialize_measures(parsed).splitlines()
        if ln.endswith(" 0/1")]


def test_system_fixture(data_dir, w6, p1, p2):
    system = parse_system(data_dir / "w6.system")
    assert system.index_poset.elements == ("1", "2")
    assert system.state_poset.elements == w6.elements
    assert system.measure_of("1") == p1 and system.measure_of("2") == p2


def test_system_serialize_parse(tmp_path, w6, p1, p2):
    (tmp_path / "s.poset").write_text(serialize_poset(w6))
    (tmp_path / "i.poset").write_text("element a\nelement b\ncover a b\n")
    (tmp_path / "m.measures").write_text(
        serialize_measures({"lo": p1, "hi": p2}))
    (tmp_path / "sys.system").write_text(serialize_system(
        "i.poset", "s.poset", ["m.measures"], {"a": "lo", "b": "hi"}))
    system = parse_system(tmp_path / "sys.system")
    assert system.measure_of("a") == p1 and system.measure_of("b") == p2


def test_kernel_fixture(data_dir, chain2_kernel, tmp_path):
    kern = parse_kernel(data_dir / "chain2.kernel")
    assert kern.state_poset.elements == ("lo", "hi")
    for x in ("lo", "hi"):
        assert kern.row(x) == chain2_kernel.row(x)
    (tmp_path / "chain2.poset").write_text(serialize_poset(kern.state_poset))
    (tmp_path / "rows.measures").write_text(
        serialize_measures({x: kern.row(x) for x in ("lo", "hi")}))
    (tmp_path / "k.kernel").write_text(serialize_kernel(
        "chain2.poset", ["rows.measures"], {"lo": "lo", "hi": "hi"}))
    again = parse_kernel(tmp_path / "k.kernel")
    assert all(again.row(x) == kern.row(x) for x in ("lo", "hi"))


def test_coupling_roundtrip(showcase_coupling, tmp_path):
    out = tmp_path / "pi.coupling"
    out.write_text(serialize_coupling(showcase_coupling))
    again = parse_coupling(out, ("1", "2"))
    assert again.atoms == dict(SHOWCASE_ATOMS)
    with pytest.raises(ParseError, match="expected 3"):
        parse_coupling(out, ("1", "2", "3"))


def test_phi_roundtrip(tmp_path):
    phi = CellPermutation(15, PHI2_15)
    out = tmp_path / "phi.phi"
    out.write_text(serialize_phi(phi))
    assert parse_phi(out) == phi


def test_certificate_fixture(data_dir, tmp_path):
    cert = parse_certificate(data_dir / "diamond_infeasible.cert")
    assert cert.gap == Fraction(2, 5)
    out = tmp_path / "again.cert"
    out.write_text(serialize_certificate(cert))
    assert parse_certificate(out) == cert
    assert isinstance(cert, InfeasibilityCertificate)


def test_comments_and_blank_lines(tmp_path):
    out = tmp_path / "c.poset"
    out.write_text("# header\n\nelement a  # trailing\nelement b\n\ncover a b\n")
    poset = parse_poset(out)
    assert poset.elements == ("a", "b") and poset.leq("a", "b")


def test_parse_errors(tmp_path, w6):
    missing = parse_poset
    with pytest.raises(ParseError) as err:
        missing(tmp_path / "nope.poset")
    assert err.value.lineno == 0

    bad = tmp_path / "bad.poset"
    bad.write_text("vertex a\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_poset(bad)
    bad.write_text("element a\ncover a\n")
    with pytest.raises(ParseError, match="takes 2"):
        parse_poset(bad)
    # ',' joins the states of coupling atoms and witness up-sets
    bad.write_text("element a,b\nelement c\ncover a,b c\n")
    with pytest.raises(ParseError, match="contains ','") as err:
        parse_poset(bad)
    assert err.value.lineno == 1

    m = tmp_path / "bad.measures"
    m.write_text("mass x 1/2\n")
    with pytest.raises(ParseError, match="before any measure"):
        parse_measures(m, w6)
    m.write_text("measure p\nmass x 1/0\n")
    with pytest.raises(ParseError, match="bad rational"):
        parse_measures(m, w6)
    m.write_text("measure p\nmass x 1/2\nmass x 1/2\n")
    with pytest.raises(ParseError, match="duplicate mass"):
        parse_measures(m, w6)
    m.write_text("measure p\nmass x 1/2\nmeasure p\n")
    with pytest.raises(ParseError, match="duplicate measure label"):
        parse_measures(m, w6)
    # a wrong sum or a negative mass at the measure's header line, an
    # unknown element at its mass line
    for text, message, lineno in (
            ("measure p\nmass x 1\nmeasure q\nmass x 1/2\n",
             "masses sum to 1/2, not 1", 3),
            ("measure p\nmass x 4/3\nmass y -1/3\n",
             "negative mass -1/3 at 'y'", 1),
            ("measure p\nmass x 1/2\nmass zz 1/2\n",
             "mass given for unknown element 'zz'", 3)):
        m.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            parse_measures(m, w6)
        assert (err.value.path, err.value.lineno) == (str(m), lineno)
    # each mass fits the int-to-str digit limit, their sum does not
    m.write_text("measure p\n" + "".join(
        f"mass {x} 1/{d}{'0' * 2998}1\n" for x, d in zip("xyz", (1, 3, 7))))
    with pytest.raises(ParseError, match="too long to print"):
        parse_measures(m, w6)

    c = tmp_path / "bad.coupling"
    c.write_text("atom x,x 1/2\n")
    with pytest.raises(ParseError, match="sum to 1/2"):
        parse_coupling(c, ("1", "2"))
    c.write_text("atom x,x 1/2\natom x,x 1/2\n")
    with pytest.raises(ParseError, match="duplicate atom"):
        parse_coupling(c, ("1", "2"))

    f = tmp_path / "bad.phi"
    f.write_text("cells 2\nmap 0 0\n")
    with pytest.raises(ParseError, match="every cell"):
        parse_phi(f)
    f.write_text("map 0 0\nmap 1 1\n")
    with pytest.raises(ParseError, match="missing cells"):
        parse_phi(f)
    f.write_text("cells 0\n")
    with pytest.raises(ParseError, match="bad grid size"):
        parse_phi(f)

    g = tmp_path / "bad.cert"
    g.write_text("dual a x 1/2\n")
    with pytest.raises(ParseError, match="missing gap"):
        parse_certificate(g)

    s = tmp_path / "bad.system"
    s.write_text("states nope.poset\nmeasures nope.measures\nassign a p\n")
    with pytest.raises(ParseError, match="missing index"):
        parse_system(s)

    # an index with no measure at the line naming the index poset, an
    # assignment to an unknown index at its own line
    for name in ("chain2.poset", "chain2.measures", "pair.poset"):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    k = tmp_path / "bad.kernel"
    for text, message, lineno in (
            ("states chain2.poset\nmeasures chain2.measures\nassign lo up\n",
             "no measure assigned to index 'hi'", 1),
            ("measures chain2.measures\nstates chain2.poset\nassign lo up\n"
             "assign hi down\nassign zz up\n",
             "assign for unknown index 'zz'", 5)):
        k.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            parse_kernel(k)
        assert (err.value.path, err.value.lineno) == (str(k), lineno)
    s.write_text("states chain2.poset\nmeasures chain2.measures\n"
                 "index pair.poset\nassign 1 up\n")
    with pytest.raises(ParseError, match="no measure assigned to index '2'"
                       ) as err:
        parse_system(s)
    assert err.value.lineno == 3


def test_duplicate_measure_labels_at_their_measures_line(tmp_path):
    """A label that a second ``measures`` file brings again is refused at
    the line naming that file, in a system or a kernel."""
    for name in ("w6.poset", "w6.measures", "chain2.poset",
                 "chain2.measures", "pair.poset"):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    (tmp_path / "other.measures").write_text(
        "measure q\nmass x 1\nmeasure p2\nmass x 1\n")
    (tmp_path / "fresh.measures").write_text("measure r\nmass x 1\n")
    system = tmp_path / "dup.system"
    system.write_text("index pair.poset\nmeasures w6.measures\n"
                      "# a comment\nmeasures fresh.measures\nstates w6.poset\n"
                      "measures other.measures\nassign 1 p1\nassign 2 p2\n")
    with pytest.raises(ParseError) as err:
        parse_system(system)
    assert (err.value.path, err.value.lineno) == (str(system), 6)
    assert str(err.value) == (
        f"{system}:6: measure labels defined twice: ['p2']")
    kern = tmp_path / "dup.kernel"
    kern.write_text("states chain2.poset\nmeasures chain2.measures\n"
                    "measures chain2.measures\nassign lo up\nassign hi up\n")
    with pytest.raises(ParseError) as err:
        parse_kernel(kern)
    assert str(err.value) == (
        f"{kern}:3: measure labels defined twice: ['down', 'up']")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count open descriptors")
def test_reader_leaks_no_file_descriptor(tmp_path):
    """Every error path of the one reader, 200 times over, leaves the
    count of open file descriptors where it was: a missing file, a
    directory, a FIFO (refused, not blocked on), a NUL in the path, bytes
    that are not UTF-8, and a reader abandoned after the caller's error
    at an early line."""
    fifo = tmp_path / "fifo.poset"
    os.mkfifo(fifo)
    latin = tmp_path / "latin.poset"
    latin.write_bytes(b"element a\nelement \xe9\n")
    early = tmp_path / "early.poset"
    early.write_text("element a,b\n" + "element c\n" * 100)
    cases = [(tmp_path / "missing.poset", "cannot read file"),
             (tmp_path, "not a regular file"),
             (fifo, "not a regular file"),
             (str(tmp_path / "nul\0.poset"), "embedded null byte"),
             (latin, "not UTF-8: byte 0xe9"),
             (early, "contains ','")]

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for _ in range(200):
        for path, message in cases:
            with pytest.raises(ParseError, match=message):
                parse_poset(path)
        reader = formats._directives(early, formats._POSET)
        next(reader)
        del reader
    gc.collect()
    assert open_fds() <= before


def test_readme_lists_every_directive():
    """The README's table of file formats names each directive with as
    many arguments as its parser reads."""
    readme = (DATA_DIR.parent / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| (\w+) \| (.*) \|$", section, re.M))
    tables = {"poset": formats._POSET, "measures": formats._MEASURES,
              "system": formats._SYSTEM, "coupling": formats._COUPLING,
              "phi": formats._PHI, "certificate": formats._CERTIFICATE}
    assert set(rows) == {"kind", "kernel", *tables}
    for kind, table in tables.items():
        listed = [code.split()
                  for code in re.findall(r"`([^`]+)`", rows[kind])]
        assert {d[0]: len(d) - 1 for d in listed} == {
            directive: n for directive, (n, _) in table.items()}, kind
    assert rows["kernel"].startswith("system without the `index` line")
    assert formats._KERNEL == {directive: spec for directive, spec
                               in formats._SYSTEM.items()
                               if directive != "index"}


def system_text(system):
    return (serialize_poset(system.index_poset)
            + serialize_poset(system.state_poset)
            + serialize_measures(system.measures))


def kernel_text(kern):
    return serialize_poset(kern.state_poset) + serialize_measures(kern.rows)


# per format: a canonical file to mutate, and its parser followed by its
# serializer, so that an outcome is text
FUZZ = {
    "poset": ((DATA_DIR / "w6.poset").read_text(),
              lambda path: serialize_poset(parse_poset(path))),
    "measures": ((DATA_DIR / "w6.measures").read_text(),
                 lambda path: serialize_measures(parse_measures(
                     path, parse_poset(DATA_DIR / "w6.poset")))),
    "system": ((DATA_DIR / "w6.system").read_text(),
               lambda path: system_text(parse_system(path))),
    "kernel": ((DATA_DIR / "chain2.kernel").read_text(),
               lambda path: kernel_text(parse_kernel(path))),
    "coupling": (serialize_coupling(Coupling(("1", "2"), SHOWCASE_ATOMS)),
                 lambda path: serialize_coupling(
                     parse_coupling(path, ("1", "2")))),
    "phi": (serialize_phi(CellPermutation(15, PHI2_15)),
            lambda path: serialize_phi(parse_phi(path))),
    "certificate": ((DATA_DIR / "diamond_infeasible.cert").read_text(),
                    lambda path: serialize_certificate(
                        parse_certificate(path))),
}

TOKEN_CHARS = "aex01/-+.,#\t\x00\u00b2\u00e9"
TOKENS = (
    "1e5000", "0/0", "1/3", "-2/5", "0", "9" * 30, "1" * 5000, "..",
    "w6.poset", "w6.measures", "chain2.measures", "pair.poset",
    "x", "z", "tau", "lo", "hi", "p1", "1", "2", "cells", "map", "gap")


def token(rng):
    if rng.random() < 0.5:
        return rng.choice(TOKENS)
    return "".join(rng.choice(TOKEN_CHARS) for _ in range(rng.randint(0, 6)))


def mutate(rng, text):
    """``text`` with a few lines dropped, copied, inserted or retokenized."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(lines))
        op = rng.choice(("insert", "drop", "copy", "token"))
        if op == "insert" or i == len(lines):
            lines.insert(i, " ".join(token(rng)
                                     for _ in range(rng.randint(0, 4))))
        elif op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        else:
            parts = lines[i].split(" ")
            j = rng.randint(0, len(parts))
            parts[j:j + 1] = [token(rng)]
            lines[i] = " ".join(parts)
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A copy of data/, so that references in mutated files resolve."""
    out = tmp_path_factory.mktemp("fuzz")
    for f in DATA_DIR.iterdir():
        shutil.copy(f, out / f.name)
    return out


@given(st.sampled_from(sorted(FUZZ)), st.data())
@settings(max_examples=300)
def test_parsers_raise_only_input_errors(fuzz_dir, kind, data):
    base, parse = FUZZ[kind]
    path = fuzz_dir / f"fuzz.{kind}"
    path.write_bytes(data.draw(st.one_of(
        st.binary(max_size=300),
        st.randoms(use_true_random=False).map(lambda rng: mutate(rng, base)))))
    try:
        parse(path)
    except MonosyncError:  # the CLI's exit 2
        pass


def parse_outcomes(directory, per_kind):
    """One line per mutated file of a seeded corpus: its parse serialized,
    or the error it raised, with ``directory`` written as ``DIR``."""
    rng = random.Random(16)
    out = []
    for kind, (base, parse) in sorted(FUZZ.items()):
        path = directory / f"corpus.{kind}"
        for i in range(per_kind):
            path.write_bytes(mutate(rng, base))
            try:
                got = parse(path)
            except MonosyncError as e:
                got = f"{type(e).__name__}: {e}"
            out.append(f"{kind} {i} {got!r}".replace(str(directory), "DIR"))
    return out


def test_parse_outcomes_are_pinned(fuzz_dir):
    """Any change to what a parser returns or raises on one of 1,400
    mutated files changes the digest; ``parse_outcomes`` lists them, to
    be diffed against the commit before the change."""
    lines = parse_outcomes(fuzz_dir, 200)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "967d233089a7b41e"


def test_reversed_order_line_is_a_cycle_at_that_line(tmp_path, capsys):
    """The mutation corpus above never closes a cycle.  Here a random
    poset is written out and one line ``cover b a`` or ``leq b a`` with
    ``a < b`` appended: exactly the states from ``a`` up to ``b`` then
    form a cycle, and the parser names its first two states in element
    order at the appended line."""
    rng = random.Random(17)
    path = tmp_path / "cycle.poset"
    cases = 0
    while cases < 150:
        poset = random_poset(rng, rng.randrange(2, 8))
        strict = sorted((a, b) for a, b in poset.relation if a != b)
        if not strict:
            continue
        a, b = rng.choice(strict)
        kind = rng.choice(["cover", "leq"])
        text = serialize_poset(poset) + f"{kind} {b} {a}\n"
        path.write_text(text)
        lineno = text.count("\n")
        x, y = [z for z in poset.elements
                if poset.leq(a, z) and poset.leq(z, b)][:2]
        message = f"{x!r} and {y!r} are in a cycle"
        with pytest.raises(ParseError) as err:
            parse_poset(path)
        assert err.value.lineno == lineno
        assert str(err.value) == f"{path}:{lineno}: {message}"
        cases += 1
    assert main(["classify", "--poset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{lineno}: {message}\n"


def check_roundtrip(path, text, parse, serialize):
    path.write_text(text)
    assert serialize(parse(path)) == text


@pytest.mark.parametrize("seed", range(6))
def test_serialize_parse_is_identity_on_canonical_output(tmp_path, seed):
    rng = random.Random(seed)
    S = random_class_w(rng, 5 + seed % 3)
    A = random_bounded_poset(rng, seed % 3)
    system = random_monotone_system(rng, A, S, 6)
    rows = random_monotone_system(rng, S, S, 6)
    for name, poset in (("s.poset", S), ("i.poset", A)):
        check_roundtrip(tmp_path / name, serialize_poset(poset),
                        parse_poset, serialize_poset)
    for name, measures in (("m.measures", system.measures),
                           ("r.measures", rows.measures)):
        check_roundtrip(tmp_path / name, serialize_measures(measures),
                        lambda p: parse_measures(p, S), serialize_measures)
    # a system or kernel file reads back as the posets and measures above
    (tmp_path / "sys.system").write_text(serialize_system(
        "i.poset", "s.poset", ["m.measures"], {a: a for a in A.elements}))
    again = parse_system(tmp_path / "sys.system")
    assert serialize_poset(again.index_poset) == serialize_poset(A)
    assert serialize_poset(again.state_poset) == serialize_poset(S)
    assert serialize_measures(again.measures) == serialize_measures(
        system.measures)
    (tmp_path / "k.kernel").write_text(serialize_kernel(
        "s.poset", ["r.measures"], {x: x for x in S.elements}))
    kern = parse_kernel(tmp_path / "k.kernel")
    assert serialize_measures({x: kern.row(x) for x in S.elements}) == (
        serialize_measures(rows.measures))

    coupling = realize(system)
    check_roundtrip(tmp_path / "c.coupling", serialize_coupling(coupling),
                    lambda p: parse_coupling(p, A.elements),
                    serialize_coupling)
    _, extension = root_tree(S, default_root(S))
    for alpha, phi in synchronize_from_coupling(
            system, coupling, extension).items():
        check_roundtrip(tmp_path / f"{alpha}.phi", serialize_phi(phi),
                        parse_phi, serialize_phi)
    perm = list(range(rng.randrange(1, 40)))
    rng.shuffle(perm)
    check_roundtrip(tmp_path / "r.phi",
                    serialize_phi(CellPermutation(len(perm), tuple(perm))),
                    parse_phi, serialize_phi)

    # a certificate needs no feasibility to be written and read back
    dual = {(a, x): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for a in A.elements for x in S.elements if rng.random() < 0.5}
    cert = InfeasibilityCertificate(dual, Fraction(rng.randint(1, 9), 7))
    check_roundtrip(tmp_path / "r.cert", serialize_certificate(cert),
                    parse_certificate, serialize_certificate)
    infeasible = realize(parse_system(DATA_DIR / "diamond_infeasible.system"))
    check_roundtrip(tmp_path / "d.cert", serialize_certificate(infeasible),
                    parse_certificate, serialize_certificate)
