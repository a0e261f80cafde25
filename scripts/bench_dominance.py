#!/usr/bin/env python3
"""Time stochastic-dominance verdicts on wide pair systems of growing size.

For each n the states are ``random_class_w(random.Random(3), n)`` and the
lower measure ``p = random_measure(rng, S, 64)``, drawn next from the
same generator.  The upper measure is either ``up_moves(rng, p, S, 40,
64)`` (dominated) or a second ``random_measure(rng, S, 64)`` (drawn
apart, mostly not dominated).  Per system it records the milliseconds
of ``is_stoch_monotone``, the fastest of the passes of
``scripts/harness.py``, and the exit code of ``monosync check`` run in
process on files holding the system, which must be 0 for a dominated
pair and 1 otherwise.  Every verdict is cross-checked:

* up to n = 22 against a scan of every up-set: the verdict, and the
  witness, which must be the smallest up-set maximizing
  ``P_1(U) - P_2(U)``;
* above that, a dominated verdict by ``check_coupling`` on the Strassen
  coupling, and a not-dominated one by checking that the witness is an
  up-set with ``P_1(U) > P_2(U)`` and that no Strassen coupling exists.

Any failure exits 1 after the file is written.  ``--runs DIR`` is as
in ``scripts/harness.py``.

Usage:
    PYTHONPATH=src python3 scripts/bench_dominance.py [--quick]
        [--out FILE] [--runs DIR]

``--quick`` stops the sweep at n = 28.  The default output is
BENCH_dominance.json at the repository root.
"""

import contextlib
import functools
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from harness import (HOST, PASSES, arguments, fastest, write_report,
                     write_system)
from monosync.cli import main as monosync_main
from monosync.coupling import (
    check_coupling,
    is_stoch_monotone,
    pair_system,
    strassen_coupling,
)
from monosync.errors import ContractViolation
from monosync.generate import random_class_w, random_measure, up_moves
from monosync.linprog import integral
from monosync.poset import up_sets

SIZES = range(12, 61, 2)
QUICK_MAX = 28
SCAN_MAX = 22


def wide_pair(n, dominated):
    rng = random.Random(3)
    S = random_class_w(rng, n)
    p = random_measure(rng, S, 64)
    q = up_moves(rng, p, S, 40, 64) if dominated else random_measure(rng, S, 64)
    return pair_system(p, q, S)


def check_exit(system, workdir: Path) -> int:
    """The exit code of ``monosync check`` on files holding ``system``."""
    write_system(workdir, "wide", system)
    with contextlib.redirect_stdout(io.StringIO()):
        return monosync_main(["check", "--system", f"{workdir}/wide.system",
                              "--out", f"{workdir}/out"])


def smallest_maximizer(system):
    """Over every up-set, the smallest one maximizing ``P_1(U) - P_2(U)``
    when that maximum is positive, else None."""
    S = system.state_poset
    p1, p2 = system.measure_of("1"), system.measure_of("2")
    _, ints = integral([p1.of(x) - p2.of(x) for x in S.elements])
    diff = dict(zip(S.elements, ints))
    gaps = [(sum(map(diff.__getitem__, u)), u) for u in up_sets(S)]
    best = max(g for g, _ in gaps)
    if best <= 0:
        return None
    top = [u for g, u in gaps if g == best]
    smallest = min(top, key=len)
    return smallest if all(smallest <= u for u in top) else "not unique"


def cross_check(system, verdict) -> tuple[str, str | None]:
    """How the verdict was checked, and why it failed (None if it held)."""
    witness = None if verdict else verdict.witness[2]
    if len(system.state_poset) <= SCAN_MAX:
        want = smallest_maximizer(system)
        if witness != want:
            return "up-set scan", f"witness {witness} != scan's {want}"
        return "up-set scan", None
    strassen = strassen_coupling(system.measure_of("1"),
                                 system.measure_of("2"), system.state_poset)
    if verdict:
        if strassen is None:
            return "strassen coupling", "dominated, yet no coupling"
        try:
            check_coupling(system, strassen)
        except ContractViolation as e:
            return "strassen coupling", str(e)
        return "strassen coupling", None
    S = system.state_poset
    if strassen is not None:
        return "witness", "not dominated, yet a coupling exists"
    if not all(b in witness for a in witness for b in S.elements
               if S.leq(a, b)):
        return "witness", f"witness {sorted(witness)} is not an up-set"
    if not (system.measure_of("1").of_set(witness)
            > system.measure_of("2").of_set(witness)):
        return "witness", f"witness {sorted(witness)} does not separate"
    return "witness", None


def sweep(sizes):
    systems = {(n, dominated): wide_pair(n, dominated)
               for n in sizes for dominated in (True, False)}
    seconds, verdicts = fastest({
        key: (functools.partial(is_stoch_monotone, system), None)
        for key, system in systems.items()})
    rows, failures = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for (n, dominated), system in systems.items():
            verdict = verdicts[n, dominated]
            rc = check_exit(system, Path(tmp))
            checked_by, reason = cross_check(system, verdict)
            if rc != (0 if verdict else 1):
                reason = f"check exited {rc} on verdict {bool(verdict)}"
            row = {"n": n, "pair": "up_moves" if dominated else "apart",
                   "dominated": bool(verdict),
                   "verdict_ms": 1000 * seconds[n, dominated],
                   "check_exit": rc, "checked_by": checked_by,
                   "ok": reason is None}
            if reason is not None:
                row["reason"] = reason
            failures += reason is not None
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows, failures


def main() -> int:
    args = arguments(__doc__, "BENCH_dominance.json").parse_args()
    rows, failures = sweep([n for n in SIZES
                            if not args.quick or n <= QUICK_MAX])
    return write_report(args, {
        "what": "is_stoch_monotone on pair systems over "
                "random_class_w(random.Random(3), n) states, masses on 64ths, "
                "the upper measure pushed up (up_moves, 40 quanta) or drawn "
                f"apart; milliseconds, the fastest of {PASSES} passes over "
                "every verdict of the sweep (regenerated by a full sweep "
                "when the median of 5 verdicts gave way to it), and the "
                "exit code of monosync check on the same system",
        "host": HOST,
        "sweep": rows,
    }, failures, "verdict(s)")


if __name__ == "__main__":
    sys.exit(main())
