#!/usr/bin/env python3
"""Time the realizability LP and ``realize`` on the systems that reach it.

Inputs:

* ``kernel8``: the 8-state class-W kernel of the ROADMAP's known walls
  (``random.Random(3)``, ``random_class_w(rng, 8)``, rows from
  ``random_monotone_system(rng, S, S, 8)`` mixed 1/2 with the uniform
  law; 4,152 monotone tuples), as a system indexed by its own states;
* ``diamond-<seed>`` and ``kite-<seed>``: mixtures ``(1 - e) P + e Q``
  of the unrealizable data/ diamond system ``P`` with a seeded monotone
  ``Q``, as the benchmark's cli-mixed ``check`` commands build them, on
  the diamond's states or on the kite's (the diamond with one more state
  on top, which gets no mass);
* ``pair11-<seed>``: pair systems on ``random_poset(rng, 11, 0.12)``, of
  the size that the cli-mixed ``check`` commands read, the upper measure
  pushed up from the lower one (``up_moves``), both on eighths.

The tests build their realize-shaped inputs with the same functions
(``farkas_mixture``, ``pair11``, ``lp_of``).

Per input it records the LP's rows and columns, and the seconds of
``realize`` on a freshly parsed system and of ``solve_feasibility``
alone on the LP that ``realize`` builds, each the fastest of the passes
of ``scripts/harness.py``; a pass times ``CALLS`` calls in a row on an
LP of at most 1,000 columns, and one call on a larger one.  The timing runs in a worker process that
imports the package from this tree's ``src/``; with ``--parent SRC`` a
second worker imports it from SRC, and the passes of the two workers
alternate (which goes first alternates too).

Every worker's results must be equal to this process's: the serialized
coupling or certificate of ``realize``, which must pass
``check_coupling`` or ``verify_certificate``, and the LP's point or
Farkas vector, which must solve the LP or certify that it has no
solution.  Any failure exits 1 after the file is written.

Usage:
    PYTHONPATH=src python3 scripts/bench_lp.py [--quick]
        [--out FILE] [--runs DIR] [--parent SRC]

``--quick`` runs the checks and one pass (a few seconds).  The default
output is BENCH_lp.json at the repository root.  ``--runs DIR`` is as in
``scripts/harness.py``.
"""

import functools
import json
import random
import statistics
import sys
import tempfile
from fractions import Fraction
from operator import truediv
from pathlib import Path

from harness import (HOST, PASSES, ROOT, alternate, arguments, fastest,
                     write_report, write_system)

DATA = ROOT / "data"
SEEDS = (1, 2, 3, 4)
CALLS = 20  # calls per timing on an LP of at most 1,000 columns


def kernel8():
    from monosync import coupling, generate, measure

    rng = random.Random(3)
    S = generate.random_class_w(rng, 8)
    rows = generate.random_monotone_system(rng, S, S, 8)
    u = Fraction(1, len(S.elements))
    return coupling.measure_system(S, S, {
        a: measure.rational_measure(S.elements, {
            t: (rows.measure_of(a).of(t) + u) / 2 for t in S.elements})
        for a in S.elements})


def farkas_mixture(seed, on_kite):
    """(1 - e) P + e Q for the infeasible data/ diamond system P and a
    monotone Q drawn from ``random.Random(seed)``, with the largest e in
    a fixed list that keeps the data/ certificate's gap positive: the
    mixture of ``_farkas_variant`` in ``perfbench/workloads.py``.  On the
    kite the top state gets no mass."""
    from monosync import coupling, formats, generate, measure, poset

    base = formats.parse_system(DATA / "diamond_infeasible.system")
    cert = formats.parse_certificate(DATA / "diamond_infeasible.cert")
    D = base.index_poset
    Q = generate.random_monotone_system(random.Random(seed), D, D, 5)
    yq = sum((w * Q.measure_of(a).of(s) for (a, s), w in cert.dual.items()),
             Fraction(0))
    e = max(x for x in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5),
                        Fraction(1, 3)) if (1 - x) * cert.gap + x * yq > 0)
    states = D
    if on_kite:
        states = poset.validate_poset(
            ("bot", "a", "b", "top", "peak"),
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"),
             ("top", "peak")])
    return coupling.measure_system(D, states, {
        a: measure.rational_measure(states.elements, {
            s: (1 - e) * base.measure_of(a).of(s) + e * Q.measure_of(a).of(s)
            for s in D.elements})
        for a in D.elements})


def pair11(rng, dominated=True):
    """A pair system on ``random_poset(rng, 11, 0.12)``, both measures on
    eighths, the upper one pushed up from the lower one or, when not
    ``dominated``, drawn apart from it."""
    from monosync import coupling, generate

    S = generate.random_poset(rng, 11, 0.12)
    p1 = generate.random_measure(rng, S, 8)
    p2 = (generate.up_moves(rng, p1, S, 16, 8) if dominated else
          generate.random_measure(rng, S, 8))
    return coupling.pair_system(p1, p2, S)


def systems() -> dict:
    out = {"kernel8": kernel8()}
    for shape in ("diamond", "kite"):
        for seed in SEEDS:
            out[f"{shape}-{seed}"] = farkas_mixture(seed, shape == "kite")
    for seed in SEEDS:
        out[f"pair11-{seed}"] = pair11(random.Random(seed))
    return out


def lp_of(system) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """The LP that ``realize`` solves: a column per monotone tuple, the
    rows of index ``i`` and state ``j`` numbered ``i * len(states) + j``."""
    from monosync.coupling import monotone_tuples

    states = system.state_poset.elements
    at = {s: j for j, s in enumerate(states)}
    columns = [tuple(i * len(states) + at[s] for i, s in enumerate(tup))
               for tup in monotone_tuples(system.index_poset,
                                          system.state_poset)]
    b = [system.measure_of(a).of(s)
         for a in system.index_poset.elements for s in states]
    return columns, b


def texts(realized, solved) -> list[str]:
    """The results of one input as text: the serialized ``realize``
    output, and the LP's point or Farkas vector."""
    from monosync.coupling import Coupling
    from monosync.formats import serialize_certificate, serialize_coupling
    from monosync.linprog import FeasiblePoint

    if isinstance(realized, Coupling):
        out = serialize_coupling(realized)
    else:
        out = serialize_certificate(realized)
    if isinstance(solved, FeasiblePoint):
        lp = {str(j): str(w) for j, w in sorted(solved.x.items())}
    else:
        lp = {"y": list(map(str, solved.y)), "gap": str(solved.gap)}
    return [out, json.dumps(lp)]


def repeated(fn, calls, *args) -> list:
    """``fn(*args)`` called ``calls`` times."""
    return [fn(*args) for _ in range(calls)]


def each(fn, items) -> list:
    """``fn`` called on each item."""
    return [fn(x) for x in items]


def worker() -> None:
    """Read the inputs as JSON from stdin's first line and answer with
    the results of each; then, per line, time one pass of ``realize``
    and ``solve_feasibility`` over them and answer with one JSON line of
    seconds per call, in the order ``realize`` then LP of each input."""
    from monosync.coupling import realize
    from monosync.formats import parse_system
    from monosync.linprog import solve_feasibility

    inputs = json.loads(sys.stdin.readline())
    jobs, calls = {}, []
    for k, spec in enumerate(inputs):
        b = list(map(Fraction, spec["b"]))
        n = spec["calls"]
        jobs["realize", k] = (functools.partial(each, realize),
                              functools.partial(repeated, parse_system, n,
                                                spec["path"]))
        jobs["lp", k] = (functools.partial(repeated, solve_feasibility, n,
                                           spec["columns"], b), None)
        calls += [n, n]
    _, last = fastest(jobs, passes=1)
    print(json.dumps([texts(last["realize", k][0], last["lp", k][0])
                      for k in range(len(inputs))]), flush=True)
    for _ in sys.stdin:
        seconds, _ = fastest(jobs, passes=1)
        print(json.dumps(list(map(truediv, seconds.values(), calls))),
              flush=True)


def failures_of(name, system, columns, b, realized, solved) -> list[str]:
    """Why this process's results on one input fail their checks."""
    from monosync.coupling import Coupling, check_coupling, verify_certificate
    from monosync.errors import ContractViolation
    from monosync.linprog import FeasiblePoint

    out = []
    if isinstance(realized, Coupling):
        try:
            check_coupling(system, realized)
        except ContractViolation as e:
            out.append(f"{name}: realize: {e}")
    elif not verify_certificate(system, realized):
        out.append(f"{name}: realize: the certificate fails its check")
    if isinstance(solved, FeasiblePoint):
        lhs = [Fraction(0)] * len(b)
        for j, w in solved.x.items():
            for r in columns[j]:
                lhs[r] += w
        if lhs != b or not all(w > 0 for w in solved.x.values()):
            out.append(f"{name}: the LP's point does not solve it")
    elif not (all(sum(solved.y[r] for r in col) <= 0 for col in columns)
              and sum(map(Fraction.__mul__, solved.y, b)) == solved.gap > 0):
        out.append(f"{name}: the LP's Farkas vector fails its check")
    return out


def main() -> int:
    from monosync.coupling import realize
    from monosync.linprog import solve_feasibility

    args = arguments(__doc__, "BENCH_lp.json", workers=True).parse_args()
    if args.worker:
        worker()
        return 0

    passes = 1 if args.quick else PASSES
    failures, inputs, rows, want = [], [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, system in systems().items():
            columns, b = lp_of(system)
            write_system(Path(tmp), name, system)
            inputs.append({"name": name, "path": f"{tmp}/{name}.system",
                           "columns": columns, "b": list(map(str, b)),
                           "calls": 1 if len(columns) > 1000 else CALLS})
            realized, solved = realize(system), solve_feasibility(columns, b)
            failures += failures_of(name, system, columns, b, realized,
                                    solved)
            want.append(texts(realized, solved))
            rows.append({"input": name, "rows": len(b),
                         "columns": len(columns),
                         "outcome": type(realized).__name__})
        sides = alternate(__file__, inputs, args.parent, "pass", passes)

    for name, (greeting, _) in sides.items():
        for row, got, expected in zip(rows, greeting, want):
            if got != expected:
                failures.append(f"{row['input']}: the {name} tree's "
                                "results differ from this process's")
    for failure in failures:
        print(failure, file=sys.stderr)
    for k, row in enumerate(rows):
        for name, (_, seconds) in sides.items():
            row[f"{name}_realize_s"] = seconds[2 * k]
            row[f"{name}_lp_s"] = seconds[2 * k + 1]
        print(json.dumps(row), flush=True)
    groups = {}
    for row in rows:
        groups.setdefault(row["input"].split("-")[0], []).append(row)
    summary = {group: {key: statistics.median(r[key] for r in members)
                       for key in members[0] if key.endswith("_s")}
               for group, members in groups.items()}
    return write_report(args, {
        "what": "seconds per call of realize (on a freshly parsed system) "
                "and of solve_feasibility alone (on the LP realize builds), "
                f"per input, the fastest of {passes} passes (a pass times "
                f"{CALLS} calls in a row on an LP of at most 1,000 columns, "
                "one call on a larger one) in a worker process per source "
                "tree, passes alternating between the trees; summary: the "
                "median input of each group",
        "seeds": list(SEEDS),
        "host": HOST,
        "summary": summary,
        "inputs": rows,
        "failures": failures,
    }, len(failures), "check(s)")


if __name__ == "__main__":
    sys.exit(main())
