#!/usr/bin/env python3
"""Time perfect draws on seeded lazy walks and class-W mixture kernels.

Lazy walks: birth-death chains on n = 8, 16, 32, 64 states, seeded by
``random.Random(n)``, stepping up and down with probability 4/16 or
5/16 each (monotone, holding at least 6/16).  Class-W mixtures:
``random_class_w(random.Random(n), n)`` for n = 6, 8, 12, with rows from
``random_monotone_system_chain(rng, S, S, 4)`` mixed 1/2 with the uniform
row.  Draw k of every kernel is ``cftp_sample(gc, SEED, stream=k)``.

Per kernel it records the quartiles of the microseconds per draw, the
cells per draw, the share of those cells whose column is the identity
and the composed steps per draw (the cells that are not), both counted
from the replay's own cell list and string table.  Each draw is timed
on its own, its fastest time in the passes of ``scripts/harness.py``
over every draw of every kernel.  Every draw is then drawn again with
the keyed hash that ``cftp`` builds wrapped, so that the counters
``(t, attempt)`` it hashes are recorded, and cross-checked against an
independent doubling replay on the string table, with its own cell list
from ``CellSampler``:

* the draw equals the replay's;
* the counters hashed are ``(t, 0)`` for times 1..k, each once;
* the map from time -k is constant and the map from time -(k - 1) is not,
  so the sampler stopped at coalescence.

The timing runs in a worker process that imports the package from this
tree's ``src/`` and builds the kernels and tables itself; with
``--parent SRC`` a second worker imports it from SRC, and the passes of
the two workers alternate (which goes first alternates too), so that
both columns come from the same phases of a shared host.  Each worker's
draws must equal this process's.  The rows give this tree's quartiles
as ``median_us``, ``q1_us`` and ``q3_us``, and the parent's, with
``--parent``, as ``parent_median_us``, ``parent_q1_us`` and
``parent_q3_us``.

Any failure exits 1 after the file is written.  ``--runs DIR`` is as
in ``scripts/harness.py``.

Usage:
    PYTHONPATH=src python3 scripts/bench_cftp_draws.py [--quick]
        [--out FILE] [--runs DIR] [--parent SRC]

``--quick`` keeps the walks on 8 and 16 states and the mixtures on 6
and 8, with fewer draws (a few seconds).  The default output is
BENCH_cftp_draws.json at the repository root.
"""

import functools
import json
import random
import statistics
import sys
from fractions import Fraction

from harness import (HOST, PASSES, alternate, arguments, fastest, quartiles,
                     write_report)
from monosync import cftp
from monosync.cftp import build_grand_coupling, cftp_sample, kernel
from monosync.generate import random_class_w, random_monotone_system_chain
from monosync.measure import rational_measure
from monosync.poset import chain
from monosync.rng import COUNTER, CellSampler

SEED = 20261018
WALKS = (8, 16, 32, 64)
MIXTURES = (6, 8, 12)
DRAWS = 60
QUICK_WALKS = (8, 16)
QUICK_MIXTURES = (6, 8)
QUICK_DRAWS = 15


def lazy_walk(n):
    rng = random.Random(n)
    els = tuple(f"s{i}" for i in range(n))
    rows = {}
    for i, x in enumerate(els):
        up = rng.randrange(4, 6) if i < n - 1 else 0
        down = rng.randrange(4, 6) if i > 0 else 0
        m = {x: Fraction(16 - up - down, 16)}
        if up:
            m[els[i + 1]] = Fraction(up, 16)
        if down:
            m[els[i - 1]] = Fraction(down, 16)
        rows[x] = rational_measure(els, m)
    return kernel(chain(els), rows)


def w_mixture(n):
    rng = random.Random(n)
    S = random_class_w(rng, n)
    els = S.elements
    u = Fraction(1, 2 * len(els))
    rows = random_monotone_system_chain(rng, S, S, 4).measures
    return kernel(S, {s: rational_measure(
        els, {t: row.of(t) / 2 + u for t in els}) for s, row in rows.items()})


def replay_map(gc, cells, T):
    """States at time 0 reached from each state at time -T, replayed
    forward on the string table."""
    cur = {x: x for x in gc.state_poset.elements}
    for t in range(T, 0, -1):
        cur = {x: gc.update[y][cells[t]] for x, y in cur.items()}
    return set(cur.values())


def identity_cells(gc):
    """The cells whose column of the string table maps every state to
    itself."""
    return {c for c in range(gc.L)
            if all(row[c] == x for x, row in gc.update.items())}


def cross_check(gc, stream, draw, lazy):
    """``(reason, k, moves)``, where ``k`` is the number of cells the
    draw took, ``moves`` the number of them not in ``lazy`` (the identity
    cells), and ``reason`` is None when the draw and its cells agree with
    a doubling replay."""
    counters = []
    keyed_hash = cftp.keyed_hash

    class Recording:
        """A keyed hash whose copies record the counters they hash."""

        def __init__(self, h):
            self._h = h

        def copy(self):
            return Recording(self._h.copy())

        def update(self, data):
            counters.append(COUNTER.unpack(data))
            self._h.update(data)

        def digest(self):
            return self._h.digest()

    cftp.keyed_hash = lambda *key: Recording(keyed_hash(*key))
    try:
        again = cftp_sample(gc, SEED, stream)
    finally:
        cftp.keyed_hash = keyed_hash
    k = len(counters)
    sampler = CellSampler(gc.L, SEED, stream)
    cells = [None]
    T = 1
    while True:
        cells += [sampler.cell_at(t) for t in range(len(cells), T + 1)]
        values = replay_map(gc, cells, T)
        if len(values) == 1:
            break
        T *= 2
    cells += [sampler.cell_at(t) for t in range(len(cells), k + 1)]
    moves = sum(cell not in lazy for cell in cells[1:k + 1])
    if again != draw:
        reason = f"{draw!r}, then {again!r}"
    elif counters != [(t, 0) for t in range(1, k + 1)]:
        reason = f"counters hashed {counters[:8]}..."
    elif values != {draw}:
        reason = f"{draw!r}, replay gives {values}"
    elif len(replay_map(gc, cells, k)) != 1:
        reason = f"no coalescence by time -{k}"
    elif k > 1 and len(replay_map(gc, cells, k - 1)) == 1:
        reason = f"coalesced by time -{k - 1}"
    else:
        return None, k, moves
    return f"stream {stream}: {reason}", k, moves


def tables(spec):
    """The grand coupling of every kernel of ``spec``, by name."""
    kernels = {f"walk{n}": lazy_walk(n) for n in spec["walks"]}
    kernels.update((f"w{n}", w_mixture(n)) for n in spec["mixtures"])
    return {name: build_grand_coupling(kern)
            for name, kern in kernels.items()}


def worker() -> None:
    """Read the sweep as JSON from stdin's first line, build its tables
    and answer with every draw; then, per line, time one pass over the
    draws and answer with one JSON line of seconds per draw."""
    spec = json.loads(sys.stdin.readline())
    jobs = {(name, k): (functools.partial(cftp_sample, gc, SEED, k), None)
            for name, gc in tables(spec).items()
            for k in range(spec["draws"])}
    _, out = fastest(jobs, passes=1)
    print(json.dumps(list(out.values())), flush=True)
    for _ in sys.stdin:
        seconds, _ = fastest(jobs, passes=1)
        print(json.dumps(list(seconds.values())), flush=True)


def measure(name, gc, draws, sides, out):
    """The row of kernel ``name`` from the times of its draws on each
    side and this process's results."""
    lazy = identity_cells(gc)
    checked = [cross_check(gc, k, out[name, k], lazy) for k in range(draws)]
    cells = [k for _, k, _ in checked]
    moves = [m for _, _, m in checked]
    failures = [reason for reason, _, _ in checked if reason is not None]
    row = {"kernel": name, "states": len(gc.state_poset), "L": gc.L,
           "draws": draws, "passes": PASSES}
    for side, seconds in sides.items():
        us = quartiles([seconds[name, k] * 1e6 for k in range(draws)])
        prefix = "" if side == "change" else f"{side}_"
        row.update((f"{prefix}{q}_us", us[q]) for q in ("median", "q1", "q3"))
    row.update({"cells_per_draw": statistics.fmean(cells),
                "max_cells": max(cells),
                "identity_share": 1 - sum(moves) / sum(cells),
                "composed_per_draw": statistics.fmean(moves),
                "failures": failures})
    print(json.dumps(row), flush=True)
    return row


def main() -> int:
    args = arguments(__doc__, "BENCH_cftp_draws.json",
                     workers=True).parse_args()
    if args.worker:
        worker()
        return 0

    walks, mixtures, draws = ((QUICK_WALKS, QUICK_MIXTURES, QUICK_DRAWS)
                              if args.quick else (WALKS, MIXTURES, DRAWS))
    spec = {"walks": walks, "mixtures": mixtures, "draws": draws}
    built = tables(spec)
    out = {(name, k): cftp_sample(gc, SEED, k)
           for name, gc in built.items() for k in range(draws)}
    answers = alternate(__file__, spec, args.parent, "pass", PASSES)
    mismatches = [f"the {side} tree draws differently from this process"
                  for side, (greeting, _) in answers.items()
                  if greeting != list(out.values())]
    for mismatch in mismatches:
        print(mismatch, file=sys.stderr)
    sides = {side: dict(zip(out, seconds))
             for side, (_, seconds) in answers.items()}
    rows = [measure(name, gc, draws, sides, out)
            for name, gc in built.items()]
    return write_report(args, {
        "what": "perfect draws cftp_sample(gc, SEED, stream=k) on seeded "
                "lazy walks and class-W mixtures: microseconds per draw "
                "(quartiles over the draws of each draw's fastest time in "
                f"{PASSES} passes, in a worker process per source tree, "
                "passes alternating between the trees), cells drawn per "
                "draw, the share of them whose column is the identity and "
                "the other cells (composed steps) per draw; every draw "
                "cross-checked against a doubling replay",
        "seed": SEED,
        "host": HOST,
        "kernels": rows,
        "mismatches": mismatches,
    }, sum(len(row["failures"]) for row in rows) + len(mismatches),
        "draw(s) and tree(s)")


if __name__ == "__main__":
    sys.exit(main())
