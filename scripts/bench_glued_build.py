#!/usr/bin/env python3
"""Time update-table builds on seeded class-W kernels of growing size.

For each n the kernel is ``random_class_w(random.Random(3), n)`` with rows
``1/2 delta_s + 1/2 uniform`` (stochastically monotone and ergodic).  Per
n it records the seconds of ``build_grand_coupling``, which glues the
rows along the cover tree, and the grid size ``L``.  Up to n = 8 it
also times the LP route that a cyclic state poset takes (``realize``
and ``coupling_tables`` along the rooted extension) and records that
table's grid.  Every build is on a fresh kernel (a kernel's poset
caches its cover graph), and its time is the fastest of the passes of
``scripts/harness.py``.  Every table is re-checked with
``check_grand_coupling`` (``check_cell_tables`` for the LP one); any
failure exits 1 after the file is written.  ``--runs DIR`` is as in
``scripts/harness.py``.

Usage:
    PYTHONPATH=src python3 scripts/bench_glued_build.py [--quick]
        [--out FILE] [--runs DIR]

``--quick`` stops the sweep at n = 12.  The default output is
BENCH_glued_build.json at the repository root.
"""

import functools
import json
import random
import sys
from fractions import Fraction

from harness import HOST, PASSES, arguments, fastest, write_report
from monosync.cftp import build_grand_coupling, check_grand_coupling, kernel
from monosync.coupling import realize
from monosync.generate import random_class_w
from monosync.measure import rational_measure
from monosync.poset import default_root, root_tree
from monosync.synchronize import check_cell_tables, coupling_tables

SIZES = range(6, 31)
QUICK_MAX = 12
LP_MAX = 8


def mixture_kernel(n):
    S = random_class_w(random.Random(3), n)
    els = S.elements
    u = Fraction(1, len(els))
    return kernel(S, {
        s: rational_measure(els, {
            t: u / 2 + (Fraction(1, 2) if t == s else 0) for t in els})
        for s in els})


def lp_tables(kern):
    system = kern.to_system()
    _, extension = root_tree(kern.state_poset, default_root(kern.state_poset))
    return coupling_tables(system, realize(system), extension)


def sweep(sizes):
    jobs = {}
    for n in sizes:
        fresh = functools.partial(mixture_kernel, n)
        jobs["glued", n] = (build_grand_coupling, fresh)
        if n <= LP_MAX:
            jobs["lp", n] = (lp_tables, fresh)
    best, built = fastest(jobs)
    rows, failures = [], 0
    for n in sizes:
        kern, gc = mixture_kernel(n), built["glued", n]
        ok = bool(check_grand_coupling(kern, gc))
        row = {"n": n, "glued_s": best["glued", n], "L": gc.L, "checked": ok}
        if n <= LP_MAX:
            lp_L, tables = built["lp", n]
            lp_ok = bool(check_cell_tables(kern.to_system(), lp_L, tables))
            row.update(lp_s=best["lp", n], lp_L=lp_L, lp_checked=lp_ok)
            ok = ok and lp_ok
        failures += not ok
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows, failures


def main() -> int:
    args = arguments(__doc__, "BENCH_glued_build.json").parse_args()
    rows, failures = sweep([n for n in SIZES
                            if not args.quick or n <= QUICK_MAX])
    return write_report(args, {
        "what": "update-table build on random_class_w(random.Random(3), n) "
                "kernels with rows 1/2 delta_s + 1/2 uniform: glued route "
                f"for every n, LP route up to n = {LP_MAX}; seconds, the "
                f"fastest of {PASSES} passes over every build of the "
                "sweep, each on a fresh kernel (regenerated by a full "
                "sweep when the median of 3 builds gave way to it)",
        "host": HOST,
        "sweep": rows,
    }, failures, "table(s)")


if __name__ == "__main__":
    sys.exit(main())
