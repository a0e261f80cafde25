"""End-to-end command-line runs, in process, against the shipped fixtures."""

import gc
import os
import subprocess
import sys

import pytest

from monosync import cli
from monosync.cli import build_parser, main
from monosync.formats import (
    parse_certificate,
    parse_coupling,
    parse_phi,
    serialize_measures,
    serialize_poset,
)
from monosync.measure import rational_measure

from conftest import IDENTITY_15, PHI2_15, SHOWCASE_ATOMS, package_env


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


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(b"element a\nelement \xff\xfe\n")
    rc, out, err = run(capsys, "classify", "--poset", str(bad))
    assert rc == 2 and out == []
    assert err == f"error: {bad}:2: not UTF-8: byte 0xff\n"


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
            main(["check", "--cap-upsets", "x"])
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
