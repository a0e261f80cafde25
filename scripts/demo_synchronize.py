#!/usr/bin/env python3
"""Walk the full synchronization pipeline on a system file, cell by cell.

Loads a stochastically monotone system, shows the raw inverse-transform
cell tables (one row per index, one column per grid cell), marks where
the naive coupling breaks pointwise order, then realizes a monotone
coupling, derives synchronizing permutations from it, and prints the
corrected tables.  Optionally writes band plots as SVG.

Usage:
    python3 scripts/demo_synchronize.py [--system FILE] [--root X]
        [--child-order PARENT=KID1,KID2 ...] [--out DIR]

Defaults to the six-element showcase system in data/.
"""

import argparse
import sys
from pathlib import Path

from monosync.cli import _check_index_names, _parse_child_orders
from monosync.coupling import InfeasibilityCertificate, is_stoch_monotone, realize
from monosync.errors import MonosyncError
from monosync.formats import parse_system
from monosync.poset import default_root, root_tree
from monosync.svg import svg_bands, svg_permutation
from monosync.synchronize import (
    composed_tables,
    raw_tables,
    synchronize_from_coupling,
    table_violations,
    verify_synchronized,
)

DEFAULT_SYSTEM = Path(__file__).resolve().parent.parent / "data" / "w6.system"


def print_tables(system, L, tables, violations=()):
    bad_cells = {v.cell for v in violations}
    width = max(len(s) for s in system.state_poset.elements)
    header = "  ".join(f"{i:>{width}}" for i in range(L))
    print(f"      cell  {header}")
    for alpha in system.index_poset.elements:
        cells = "  ".join(f"{s:>{width}}" for s in tables[alpha])
        print(f"  X_{alpha}(u) = {cells}")
    if bad_cells:
        marks = "  ".join(("!" if i in bad_cells else " ").rjust(width)
                          for i in range(L))
        print(f"            {marks}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", default=str(DEFAULT_SYSTEM))
    parser.add_argument("--root", default=None)
    parser.add_argument("--child-order", action="append", default=[],
                        metavar="PARENT=KID1,KID2")
    parser.add_argument("--out", default=None, help="directory for SVG plots")
    args = parser.parse_args()
    orders = _parse_child_orders(args.child_order)

    system = parse_system(args.system)
    _check_index_names(system)  # before any plot is written under --out
    verdict = is_stoch_monotone(system)
    if not verdict:
        alpha, beta, upset = verdict.witness
        print(f"not stochastically monotone: P_{alpha} exceeds P_{beta} "
              f"on up-set {{{', '.join(sorted(upset))}}}")
        return 1
    print("stochastically monotone: true")

    root = args.root or default_root(system.state_poset)
    _, extension = root_tree(system.state_poset, root, orders or None)
    print(f"rooted at {root}, extension {' < '.join(extension.order)}")

    L, naive = raw_tables(system, extension)
    naive_violations = tuple(table_violations(system, L, naive))
    print(f"\nraw inverse transforms ({len(naive_violations)} violations):")
    print_tables(system, L, naive, naive_violations)
    for v in naive_violations:
        print(f"  cell {v.cell}: X_{v.alpha}={v.state_alpha} vs "
              f"X_{v.beta}={v.state_beta} breaks the order")

    result = realize(system)
    if isinstance(result, InfeasibilityCertificate):
        print(f"\nno monotone coupling exists, certificate gap {result.gap}")
        return 1
    print(f"\nmonotone coupling found: {len(result.atoms)} atoms")
    for tup, w in sorted(result.atoms.items()):
        print(f"  ({', '.join(tup)})  {w}")

    phis = synchronize_from_coupling(system, result, extension)
    synchronized = composed_tables(system, phis, extension)
    print("\nsynchronized transforms:")
    print_tables(system, *synchronized)
    for alpha, phi in phis.items():
        kind = "identity" if phi.is_identity() else f"permutation {phi.perm}"
        print(f"  phi_{alpha}: {kind}")
    ok = verify_synchronized(system, phis, extension)
    print(f"verified pointwise monotone: {'true' if ok else 'false'}")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bands_naive.svg").write_text(
            svg_bands(system, L, naive, naive_violations))
        (out / "bands_synchronized.svg").write_text(
            svg_bands(system, *synchronized))
        for alpha, phi in phis.items():
            (out / f"phi_{alpha}.svg").write_text(svg_permutation(phi, alpha))
        print(f"plots written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except MonosyncError as e:  # bad input: a message and exit 2, as the CLI
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2)
