#!/usr/bin/env python3
"""Time the parsers per file kind and whole commands, and check that
every parse round-trips.

Inputs: the data/ fixtures (posets, measures, systems, the kernel and the
certificate), a coupling and a synchronizing permutation of the w6
showcase written by their serializers, and seeded 11-state pair systems
of the size that the benchmark's cli-mixed ``check`` commands read
(``random_poset(rng, 11, 0.12)``, two ``random_measure(rng, S, 8)``,
``random.Random(seed)`` for each seed in PAIR_SEEDS), each as its state
poset, its measures and its system file.  With the same ``rng`` each
seed then adds a dominated pair system, whose upper measure is the lower
one pushed up by ``up_moves(rng, p1, S, 16, 8)``, and three posets
``random_poset(rng, n, 0.35)`` for n = 5, 6, 7.

The kind ``command`` times ``monosync.cli.main`` in process, its output
captured: ``check`` on both pair systems of each seed (``check-not``,
mostly not dominated, and ``check-dom``) and ``classify`` on each of the
three posets.  Each worker's exit code and output of every command must
equal this process's.

The timing runs in worker processes, one per source tree, that import
the package from that tree's ``src/`` and parse the same files.  A pass
of ``scripts/harness.py`` times every input over CALLS parses and keeps
the mean; each input keeps its fastest of the harness's passes.  With
``--parent SRC`` a second worker imports the package from SRC, and the
passes of the two workers alternate (which goes first alternates too),
so that both columns come from the same phases of a shared host.

Every input but a command is also parsed, serialized, written out,
parsed and serialized again in this process: the two texts must be
equal, and a generated input must read back as the text it was written
from.  Any failure exits 1 after the file is written.

Usage:
    PYTHONPATH=src python3 scripts/bench_parse.py [--quick]
        [--out FILE] [--runs DIR] [--parent SRC]

``--quick`` runs the round-trip checks and short passes (a few
seconds).  The default output is BENCH_parse.json at the repository
root.  ``--runs DIR`` is as in ``scripts/harness.py``.
"""

import contextlib
import functools
import io
import json
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from harness import (HOST, PASSES, ROOT, alternate, arguments, fastest,
                     write_report, write_system)

DATA = ROOT / "data"
PAIR_SEEDS = (1, 2, 3, 4)
CALLS = 200
QUICK_CALLS = 10

# kind, input name, file name, and for measures the poset they are on
FIXTURES = [
    ("poset", "w6", "w6.poset", None),
    ("poset", "diamond", "diamond.poset", None),
    ("poset", "chain2", "chain2.poset", None),
    ("measures", "w6", "w6.measures", "w6.poset"),
    ("measures", "diamond", "diamond_infeasible.measures", "diamond.poset"),
    ("system", "w6", "w6.system", None),
    ("system", "diamond", "diamond_infeasible.system", None),
    ("kernel", "chain2", "chain2.kernel", None),
    ("certificate", "diamond", "diamond_infeasible.cert", None),
]


def parsers(poset_of):
    """Per kind, the parse of a path followed by the serializers that turn
    its result into text; ``poset_of(path)`` is the poset a measures file
    is on."""
    from monosync import formats as f

    def system_text(system):
        return (f.serialize_poset(system.index_poset)
                + f.serialize_poset(system.state_poset)
                + f.serialize_measures(system.measures))

    def kernel_text(kern):
        return (f.serialize_poset(kern.state_poset)
                + f.serialize_measures(kern.rows))

    return {
        "command": (run_command, None),
        "poset": (f.parse_poset, f.serialize_poset),
        "measures": (lambda p: f.parse_measures(p, poset_of(p)),
                     f.serialize_measures),
        "system": (f.parse_system, system_text),
        "kernel": (f.parse_kernel, kernel_text),
        "coupling": (lambda p: f.parse_coupling(p, ("1", "2")),
                     f.serialize_coupling),
        "phi": (f.parse_phi, f.serialize_phi),
        "certificate": (f.parse_certificate, f.serialize_certificate),
    }


def run_command(argv: list[str]) -> tuple[int, str]:
    """``monosync.cli.main(argv)`` in this process: its exit code and
    what it printed."""
    from monosync import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write_inputs(directory: Path) -> list[dict]:
    """Copy the fixtures into ``directory`` and write the generated
    inputs next to them; the inputs as ``kind``, ``name``, ``path`` (for
    a command its argument list), ``poset`` (measures only) and ``text``
    (generated ones only)."""
    from monosync import coupling, formats, generate, poset, synchronize

    for f in DATA.iterdir():
        shutil.copy(f, directory / f.name)
    w6 = formats.parse_system(DATA / "w6.system")
    pi = coupling.realize(w6)
    _, psi = poset.root_tree(w6.state_poset, "tau",
                             {"w": ("z", "v"), "z": ("x", "y")})
    phi = synchronize.synchronize_from_coupling(w6, pi, psi)["2"]
    texts = {"w6.coupling": formats.serialize_coupling(pi),
             "w6_2.phi": formats.serialize_phi(phi)}
    for file, text in texts.items():
        (directory / file).write_text(text)
    specs = FIXTURES + [("coupling", "w6", "w6.coupling", None),
                        ("phi", "w6", "w6_2.phi", None)]
    out = str(directory / "out")
    commands = []
    for seed in PAIR_SEEDS:
        rng = random.Random(seed)
        S = generate.random_poset(rng, 11, 0.12)
        p1 = generate.random_measure(rng, S, 8)
        p2 = generate.random_measure(rng, S, 8)
        name = f"pair11-{seed}"
        texts.update(write_system(directory, name,
                                  coupling.pair_system(p1, p2, S)))
        specs += [("poset", name, f"{name}.states", None),
                  ("measures", name, f"{name}.rows", f"{name}.states"),
                  ("system", name, f"{name}.system", None)]
        q2 = generate.up_moves(rng, p1, S, 16, 8)
        write_system(directory, f"dom11-{seed}",
                     coupling.pair_system(p1, q2, S))
        for label, stem in (("not", name), ("dom", f"dom11-{seed}")):
            commands.append((f"check-{label}/{seed}", [
                "check", "--system", str(directory / f"{stem}.system"),
                "--out", out]))
        for n in (5, 6, 7):
            path = directory / f"classify{n}-{seed}.poset"
            path.write_text(formats.serialize_poset(
                generate.random_poset(rng, n, 0.35)))
            commands.append((f"classify/{seed}/{n}",
                             ["classify", "--poset", str(path)]))
    return [{"kind": kind, "name": name, "path": str(directory / file),
             "poset": on and str(directory / on), "text": texts.get(file)}
            for kind, name, file, on in specs] + [
        {"kind": "command", "name": name, "path": argv, "poset": None,
         "text": None} for name, argv in commands]


def write_back(kind: str, parsed, serialize, directory: Path,
               stem: str) -> Path:
    """The file, and for a system or kernel the files it names, that
    serialize ``parsed``; the path of the one to parse."""
    path = directory / f"{stem}.{kind}"
    if kind in ("system", "kernel"):
        write_system(directory, stem, parsed)
    else:
        path.write_text(serialize(parsed))
    return path


def round_trip_failures(inputs: list[dict], scratch: Path) -> list[str]:
    """The inputs whose parse does not round-trip through its serializer:
    its text, written out as files of its kind and parsed again, must
    serialize to the same text, and a generated input of a kind that
    serializes to one file must serialize to the text it was written
    from."""
    from monosync.errors import MonosyncError
    from monosync.formats import parse_poset

    poset_paths = {}
    table = parsers(lambda p: parse_poset(poset_paths[str(p)]))
    failures = []
    for k, spec in enumerate(inputs):
        kind = spec["kind"]
        if kind == "command":
            continue
        parse, serialize = table[kind]
        label = f"{kind} {spec['name']}"
        poset_paths[spec["path"]] = spec["poset"]
        parsed = parse(spec["path"])
        text = serialize(parsed)
        written = spec["text"]  # None for a fixture
        if kind not in ("system", "kernel") and written not in (None, text):
            failures.append(f"{label}: parse then serialize changes it")
        again = write_back(kind, parsed, serialize, scratch, f"again{k}")
        poset_paths[str(again)] = spec["poset"]
        try:
            same = serialize(parse(again)) == text
        except MonosyncError as e:
            failures.append(f"{label}: the serialized parse is refused: {e}")
            continue
        if not same:
            failures.append(f"{label}: the serialized parse reads back "
                            "differently")
    return failures


def repeat(calls, parse, path):
    for _ in range(calls):
        parse(path)


def command_outputs(inputs: list[dict]) -> list[tuple[int, str]]:
    """The exit code and output of every command among ``inputs``."""
    return [run_command(spec["path"]) for spec in inputs
            if spec["kind"] == "command"]


def worker() -> None:
    """Read the inputs as JSON from stdin's first line and answer with
    the outputs of the commands among them; then, per line ``CALLS``,
    time one pass over them and answer with one JSON line of
    microseconds per parse or command."""
    from monosync.formats import parse_poset

    inputs = json.loads(sys.stdin.readline())
    posets = {spec["poset"]: parse_poset(spec["poset"])
              for spec in inputs if spec["poset"]}
    by_path = {spec["path"]: posets.get(spec["poset"]) for spec in inputs
               if spec["poset"]}
    table = parsers(lambda p: by_path[p])
    calls = [(table[spec["kind"]][0], spec["path"]) for spec in inputs]
    print(json.dumps(command_outputs(inputs)), flush=True)
    for line in sys.stdin:
        n = int(line)
        seconds, _ = fastest({k: (functools.partial(repeat, n, *call), None)
                              for k, call in enumerate(calls)}, passes=1)
        print(json.dumps([s / n * 1e6 for s in seconds.values()]),
              flush=True)


def main() -> int:
    args = arguments(__doc__, "BENCH_parse.json", workers=True).parse_args()
    if args.worker:
        worker()
        return 0

    calls = QUICK_CALLS if args.quick else CALLS
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()
        (tmp / "again").mkdir()
        inputs = write_inputs(tmp / "in")
        failures = round_trip_failures(inputs, tmp / "again")
        for failure in failures:
            print(f"round trip: {failure}", file=sys.stderr)
        sides = alternate(__file__, inputs, args.parent, str(calls),
                          PASSES)
        # as the workers' answers read back: lists, not tuples
        outputs = json.loads(json.dumps(command_outputs(inputs)))
    names = [spec["name"] for spec in inputs if spec["kind"] == "command"]
    mismatches = [f"{name}: the {side} tree prints {got!r}, this process "
                  f"{want!r}" for side, (greeting, _) in sides.items()
                  for name, want, got in zip(names, outputs, greeting)
                  if got != want]
    for mismatch in mismatches:
        print(f"command {mismatch}", file=sys.stderr)

    rows = []
    for k, spec in enumerate(inputs):
        row = {"kind": spec["kind"], "input": spec["name"]}
        row.update((f"{name}_us", us[k]) for name, (_, us) in sides.items())
        rows.append(row)
        print(json.dumps(row), flush=True)
    kinds = {}
    for row in rows:
        kind = row["kind"]
        if kind == "command":  # grouped by command, without the seed
            kind += " " + row["input"].split("/")[0]
        kinds.setdefault(kind, []).append(row)
    summary = {kind: {f"{name}_us": statistics.median(
        r[f"{name}_us"] for r in group) for name in sides}
        for kind, group in kinds.items()}
    return write_report(args, {
        "what": "microseconds per parse or command, per input, the "
                f"fastest of {PASSES} passes of {calls} calls each, in a "
                "worker process per source tree, passes alternating "
                "between the trees; summary: the median input of each "
                "kind, commands grouped by command",
        "pair_seeds": list(PAIR_SEEDS),
        "host": HOST,
        "summary": summary,
        "inputs": rows,
        "round_trip_failures": failures,
        "command_mismatches": mismatches,
    }, len(failures) + len(mismatches), "round trip(s) and command(s)")


if __name__ == "__main__":
    sys.exit(main())
