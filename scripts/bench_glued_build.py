#!/usr/bin/env python3
"""Time update-table builds on seeded class-W kernels of growing size.

For each n the kernel is ``random_class_w(random.Random(3), n)`` with rows
``1/2 delta_s + 1/2 uniform`` (stochastically monotone and ergodic).  Per
n it records the median seconds of ``build_grand_coupling``, which glues
the rows along the cover tree, and the grid size ``L``.  Up to n = 8 it
also times the LP route that a cyclic state poset takes (``realize``
and ``coupling_tables`` along the rooted extension) and records that
table's grid.  Every table is re-checked with
``check_grand_coupling`` (``check_cell_tables`` for the LP one); any
failure exits 1 after the file is written.

With ``--runs DIR`` it also summarises benchmark runs: each file
``DIR/{parent,change}-{workload}-{seed}.json`` holds the last stdout line
of ``perfbench/run.py``, and the summary gives, per workload and
end-to-end metric declared in BENCHMARK.json, both sides' medians and
quartiles and how many seed pairs the change won.  Without ``--runs`` a summary already in the output
file is kept as it is.

Usage:
    PYTHONPATH=src python3 scripts/bench_glued_build.py [--quick]
        [--out FILE] [--runs DIR]

``--quick`` stops the sweep at n = 12.  The default output is
BENCH_glued_build.json at the repository root.
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from monosync.cftp import build_grand_coupling, check_grand_coupling, kernel
from monosync.coupling import realize
from monosync.generate import random_class_w
from monosync.measure import rational_measure
from monosync.poset import default_root, root_tree
from monosync.synchronize import check_cell_tables, coupling_tables

ROOT = Path(__file__).resolve().parent.parent
SIZES = range(6, 31)
QUICK_MAX = 12
LP_MAX = 8
REPEATS = 3


def mixture_kernel(n):
    S = random_class_w(random.Random(3), n)
    els = S.elements
    u = Fraction(1, len(els))
    return kernel(S, {
        s: rational_measure(els, {
            t: u / 2 + (Fraction(1, 2) if t == s else 0) for t in els})
        for s in els})


def median_seconds(fn, n):
    """Median seconds of ``fn`` over fresh kernels of size n (a kernel's
    poset caches its cover graph), and the last result."""
    times = []
    for kern in [mixture_kernel(n) for _ in range(REPEATS)]:
        t0 = time.perf_counter()
        out = fn(kern)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), kern, out


def lp_tables(kern):
    system = kern.to_system()
    _, extension = root_tree(kern.state_poset, default_root(kern.state_poset))
    return coupling_tables(system, realize(system), extension)


def sweep(sizes):
    rows, failures = [], 0
    for n in sizes:
        seconds, kern, gc = median_seconds(build_grand_coupling, n)
        ok = bool(check_grand_coupling(kern, gc))
        row = {"n": n, "glued_s": seconds, "L": gc.L, "checked": ok}
        if n <= LP_MAX:
            lp_s, kern, (lp_L, tables) = median_seconds(lp_tables, n)
            lp_ok = bool(check_cell_tables(kern.to_system(), lp_L, tables))
            row.update(lp_s=lp_s, lp_L=lp_L, lp_checked=lp_ok)
            ok = ok and lp_ok
        failures += not ok
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows, failures


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(runs: Path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher"
              for m in declared["end_to_end"]}
    results: dict = {}
    for path in sorted(runs.glob("*.json")):
        side, rest = path.stem.split("-", 1)
        workload, seed = rest.rsplit("-", 1)
        metrics = json.loads(path.read_text())["metrics"]
        results.setdefault(workload, {}).setdefault(int(seed), {})[side] = {
            k: v["value"] for k, v in metrics.items() if k in higher}
    summary = {}
    for workload, by_seed in sorted(results.items()):
        pairs = {s: p for s, p in by_seed.items()
                 if "parent" in p and "change" in p}
        rows = {}
        for metric, up in higher.items():
            old = [p["parent"][metric] for p in pairs.values()]
            new = [p["change"][metric] for p in pairs.values()]
            wins = sum((b > a) if up else (b < a) for a, b in zip(old, new))
            rows[metric] = {"parent": quartiles(old), "change": quartiles(new),
                            "change_wins": wins, "pairs": len(pairs)}
        summary[workload] = {"seeds": sorted(pairs), "metrics": rows}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_glued_build.json")
    ap.add_argument("--runs", type=Path, default=None)
    args = ap.parse_args()

    sizes = [n for n in SIZES if not args.quick or n <= QUICK_MAX]
    rows, failures = sweep(sizes)
    report = {
        "what": "update-table build on random_class_w(random.Random(3), n) "
                "kernels with rows 1/2 delta_s + 1/2 uniform: glued route "
                f"for every n, LP route up to n = {LP_MAX}; median of "
                f"{REPEATS} builds, seconds",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "sweep": rows,
    }
    if args.runs is not None:
        report["benchmark"] = summarise(args.runs)
    elif args.out.exists():
        kept = json.loads(args.out.read_text()).get("benchmark")
        if kept is not None:
            report["benchmark"] = kept
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}; {failures} table(s) failed their check")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
