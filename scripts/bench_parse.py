#!/usr/bin/env python3
"""Time the parsers per file kind, and check that every parse round-trips.

Inputs: the data/ fixtures (posets, measures, systems, the kernel and the
certificate), a coupling and a synchronizing permutation of the w6
showcase written by their serializers, and seeded 11-state pair systems
of the size that the benchmark's cli-mixed ``check`` commands read
(``random_poset(rng, 11, 0.12)``, two ``random_measure(rng, S, 8)``,
``random.Random(seed)`` for each seed in PAIR_SEEDS), each as its state
poset, its measures and its system file.

The timing runs in worker processes, one per source tree, that import
the package from that tree's ``src/`` and parse the same files.  A pass
times every input over CALLS parses and keeps the mean; each input keeps
its fastest pass out of PASSES.  With ``--parent SRC`` a second worker
imports the package from SRC, and the passes of the two workers
alternate (which goes first alternates too), so that both columns come
from the same phases of a shared host.

Every input is also parsed, serialized, written out, parsed and
serialized again in this process: the two texts must be equal, and a
generated input must read back as the text it was written from.  Any
failure exits 1 after the file is written.

Usage:
    PYTHONPATH=src python3 scripts/bench_parse.py [--quick]
        [--parent SRC] [--out FILE] [--runs DIR]

``--quick`` runs the round-trip checks and two short passes (a few
seconds).  The default output is BENCH_parse.json at the repository
root.  With ``--runs DIR`` it also summarises benchmark runs, as
``scripts/bench_glued_build.py --runs`` does; without it a summary
already in the output file is kept as it is.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
PAIR_SEEDS = (1, 2, 3, 4)
PASSES = 5
CALLS = 200
QUICK_PASSES = 2
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


def write_inputs(directory: Path) -> list[dict]:
    """Copy the fixtures into ``directory`` and write the generated
    inputs next to them; the inputs as ``kind``, ``name``, ``path``,
    ``poset`` (measures only) and ``text`` (generated ones only)."""
    from monosync import coupling, formats, generate, poset, synchronize

    for f in DATA.iterdir():
        shutil.copy(f, directory / f.name)
    inputs = [{"kind": kind, "name": name, "path": str(directory / file),
               "poset": on and str(directory / on)}
              for kind, name, file, on in FIXTURES]

    def generated(kind, name, file, text, on=None):
        (directory / file).write_text(text)
        inputs.append({"kind": kind, "name": name,
                       "path": str(directory / file),
                       "poset": on and str(directory / on), "text": text})

    w6 = formats.parse_system(DATA / "w6.system")
    pi = coupling.realize(w6)
    _, psi = poset.root_tree(w6.state_poset, "tau",
                             {"w": ("z", "v"), "z": ("x", "y")})
    phi = synchronize.synchronize_from_coupling(w6, pi, psi)["2"]
    generated("coupling", "w6", "w6.coupling", formats.serialize_coupling(pi))
    generated("phi", "w6", "w6_2.phi", formats.serialize_phi(phi))
    index = formats.serialize_poset(poset.chain(coupling.PAIR_INDICES))
    (directory / "index.poset").write_text(index)
    for seed in PAIR_SEEDS:
        rng = random.Random(seed)
        S = generate.random_poset(rng, 11, 0.12)
        p1 = generate.random_measure(rng, S, 8)
        p2 = generate.random_measure(rng, S, 8)
        name = f"pair11-{seed}"
        generated("poset", name, f"{name}.poset", formats.serialize_poset(S))
        generated("measures", name, f"{name}.measures",
                  formats.serialize_measures({"lo": p1, "hi": p2}),
                  f"{name}.poset")
        generated("system", name, f"{name}.system", formats.serialize_system(
            "index.poset", f"{name}.poset", [f"{name}.measures"],
            {"1": "lo", "2": "hi"}))
    return inputs


def write_back(kind: str, parsed, serialize, directory: Path,
               stem: str) -> Path:
    """The file, and for a system or kernel the files it names, that
    serialize ``parsed``; the path of the one to parse."""
    from monosync import formats as f

    if kind in ("system", "kernel"):
        measures = parsed.measures if kind == "system" else parsed.rows
        refs = (f"{stem}.states", [f"{stem}.rows"], {x: x for x in measures})
        (directory / refs[0]).write_text(f.serialize_poset(parsed.state_poset))
        (directory / refs[1][0]).write_text(f.serialize_measures(measures))
        text = f.serialize_kernel(*refs)
        if kind == "system":
            (directory / f"{stem}.index").write_text(
                f.serialize_poset(parsed.index_poset))
            text = f.serialize_system(f"{stem}.index", *refs)
    else:
        text = serialize(parsed)
    path = directory / f"{stem}.{kind}"
    path.write_text(text)
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
        parse, serialize = table[kind]
        label = f"{kind} {spec['name']}"
        poset_paths[spec["path"]] = spec["poset"]
        parsed = parse(spec["path"])
        text = serialize(parsed)
        if kind not in ("system", "kernel") and text != spec.get("text", text):
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


def worker() -> None:
    """Read the inputs as JSON from stdin's first line; then, per line
    ``CALLS``, time one pass over them and answer with one JSON line of
    microseconds per parse."""
    from monosync.formats import parse_poset

    inputs = json.loads(sys.stdin.readline())
    posets = {spec["poset"]: parse_poset(spec["poset"])
              for spec in inputs if spec["poset"]}
    by_path = {spec["path"]: posets.get(spec["poset"]) for spec in inputs}
    table = parsers(lambda p: by_path[p])
    calls = [(table[spec["kind"]][0], spec["path"]) for spec in inputs]
    print("ready", flush=True)
    for line in sys.stdin:
        n = int(line)
        out = []
        for parse, path in calls:
            t0 = time.perf_counter()
            for _ in range(n):
                parse(path)
            out.append((time.perf_counter() - t0) / n * 1e6)
        print(json.dumps(out), flush=True)


class Worker:
    def __init__(self, src: Path, inputs: list[dict]):
        env = {**os.environ, "PYTHONPATH": str(src)}
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdin.write(json.dumps(inputs) + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"the worker on {src} did not start")
        self.best = [math.inf] * len(inputs)

    def run_pass(self, calls: int) -> None:
        self.proc.stdin.write(f"{calls}\n")
        self.proc.stdin.flush()
        us = json.loads(self.proc.stdout.readline())
        self.best = [min(a, b) for a, b in zip(self.best, us)]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--parent", type=Path, default=None,
                    help="the src/ directory of the tree to compare with")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_parse.json")
    ap.add_argument("--runs", type=Path, default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker()
        return 0

    passes, calls = ((QUICK_PASSES, QUICK_CALLS) if args.quick
                     else (PASSES, CALLS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()
        (tmp / "again").mkdir()
        inputs = write_inputs(tmp / "in")
        failures = round_trip_failures(inputs, tmp / "again")
        for failure in failures:
            print(f"round trip: {failure}", file=sys.stderr)
        sides = {}
        try:
            sides["change"] = Worker(ROOT / "src", inputs)
            if args.parent is not None:
                sides["parent"] = Worker(args.parent.resolve(), inputs)
            order = list(sides.values())
            for _ in range(passes):
                for side in order:
                    side.run_pass(calls)
                order.reverse()
        finally:
            for side in sides.values():
                side.close()

    rows = []
    for k, spec in enumerate(inputs):
        row = {"kind": spec["kind"], "input": spec["name"]}
        row.update((f"{name}_us", side.best[k])
                   for name, side in sides.items())
        rows.append(row)
        print(json.dumps(row), flush=True)
    kinds = {}
    for row in rows:
        kinds.setdefault(row["kind"], []).append(row)
    summary = {kind: {f"{name}_us": statistics.median(
        r[f"{name}_us"] for r in group) for name in sides}
        for kind, group in kinds.items()}
    report = {
        "what": "microseconds per parse, per input, the fastest of "
                f"{passes} passes of {calls} parses each, in a worker "
                "process per source tree, passes alternating between the "
                "trees; summary: the median input of each kind",
        "pair_seeds": list(PAIR_SEEDS),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "summary": summary,
        "inputs": rows,
        "round_trip_failures": failures,
    }
    if args.runs is not None:
        from bench_glued_build import summarise
        report["benchmark"] = summarise(args.runs)
    elif args.out.exists():
        old = json.loads(args.out.read_text())
        if "benchmark" in old:
            report["benchmark"] = old["benchmark"]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}; {len(failures)} round trip(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
