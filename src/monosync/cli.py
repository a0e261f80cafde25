"""Command-line surface: classify, check, synchronize, cftp.

All reports are line-oriented text with a stable schema, and every
command is deterministic given its inputs and seed.  Exit codes:
0 success or true verdict; 1 false verdict (not monotone, not
realizable, not verified, not ergodic, not coalescing); 2 malformed
input; 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .cftp import (
    DEFAULT_MAX_EPOCH,
    build_grand_coupling,
    chi_square_fit,
    sample_many,
    stationary_exact,
)
from .coupling import (
    DEFAULT_TUPLE_CAP,
    InfeasibilityCertificate,
    is_stoch_monotone,
    realize,
)
from .errors import (
    BudgetExceeded,
    MonosyncError,
    NotCoalescing,
    NotErgodic,
    NotStochMonotone,
    SizeLimit,
)
from .formats import (
    frac_str,
    parse_kernel,
    parse_poset,
    parse_system,
    serialize_certificate,
    serialize_coupling,
    serialize_phi,
)
from .poset import classify, covers, default_root, root_tree
from .svg import svg_bands, svg_permutation
from .synchronize import (
    composed_tables,
    is_synchronizable,
    raw_tables,
    synchronize_from_coupling,
    table_violations,
    verify_synchronized,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _parse_child_orders(specs: list[str]) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for spec in specs:
        parent, eq, kids = spec.partition("=")
        if not eq or not parent or not kids:
            raise MonosyncError(
                f"bad --child-order {spec!r}, expected parent=kid1,kid2")
        if parent in out:
            raise MonosyncError(f"duplicate --child-order for {parent!r}")
        out[parent] = tuple(kids.split(","))
    return out


def _check_index_names(system) -> None:
    """Refuse an index that cannot be part of a file name: each index
    names its ``phi_<index>`` files under ``--out``."""
    for alpha in system.index_poset.elements:
        if {"/", "\0", os.sep, os.altsep} & set(alpha):
            raise MonosyncError(f"index element {alpha!r} cannot be part "
                                "of a file name")


def _write(args: argparse.Namespace, name: str, text: str) -> Path:
    target = Path(args.out) / name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    except OSError as e:  # --out names a file, or a path it cannot write
        raise MonosyncError(
            f"cannot write {e.filename or target}: {e.strerror or e}") from e
    return target


def _not_realizable(args: argparse.Namespace,
                    cert: InfeasibilityCertificate) -> int:
    """Report an infeasible system and write its certificate."""
    print("not realizable")
    target = _write(args, "certificate.txt", serialize_certificate(cert))
    print(f"certificate {target}")
    return EXIT_FALSE


def _not_monotone(alpha: str, beta: str, upset: frozenset[str]) -> int:
    """Report the pair and up-set that violate stochastic monotonicity."""
    print("not stochastically monotone")
    print(f"witness {alpha} {beta} {','.join(sorted(upset))}")
    return EXIT_FALSE


def cmd_classify(args: argparse.Namespace) -> int:
    poset = parse_poset(args.poset)
    print(f"elements {len(poset)}")
    for a, b in covers(poset):
        print(f"cover {a} {b}")
    print(f"class {classify(poset).value}")
    sync = is_synchronizable(poset)
    print(f"synchronizable {'true' if sync else 'false'}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    system = parse_system(args.system)
    verdict = is_stoch_monotone(system)
    if not verdict:
        return _not_monotone(*verdict.witness)
    print("stochastically monotone")
    result = realize(system, args.cap_tuples)
    if isinstance(result, InfeasibilityCertificate):
        return _not_realizable(args, result)
    print("realizable")
    print(f"atoms {len(result.atoms)}")
    target = _write(args, "coupling.txt", serialize_coupling(result))
    print(f"coupling {target}")
    return EXIT_OK


def cmd_synchronize(args: argparse.Namespace) -> int:
    system = parse_system(args.system)
    _check_index_names(system)
    root = args.root if args.root is not None else default_root(system.state_poset)
    _, extension = root_tree(system.state_poset, root,
                             args.child_orders or None)

    L, naive = raw_tables(system, extension)
    naive_violations = tuple(table_violations(system, L, naive))
    print(f"naive_violations {len(naive_violations)}")
    _write(args, "bands_naive.svg",
           svg_bands(system, L, naive, naive_violations))

    result = realize(system, args.cap_tuples)
    if isinstance(result, InfeasibilityCertificate):
        return _not_realizable(args, result)
    phis = synchronize_from_coupling(system, result, extension)
    for alpha, phi in phis.items():
        print(f"phi {alpha} {_write(args, f'phi_{alpha}.txt', serialize_phi(phi))}")
        _write(args, f"phi_{alpha}.svg", svg_permutation(phi, alpha))
    _write(args, "bands_synchronized.svg",
           svg_bands(system, *composed_tables(system, phis, extension)))

    verdict = verify_synchronized(system, phis, extension)
    print(f"verified {'true' if verdict else 'false'}")
    if not verdict:
        print(f"witness {verdict.witness}")
        return EXIT_FALSE
    return EXIT_OK


def cmd_cftp(args: argparse.Namespace) -> int:
    kern = parse_kernel(args.kernel)
    try:
        built = build_grand_coupling(kern, args.cap_tuples)
    except NotStochMonotone as e:
        return _not_monotone(*e.args[1:])
    if isinstance(built, InfeasibilityCertificate):
        return _not_realizable(args, built)
    try:
        draws = sample_many(built, args.seed, args.samples, args.cap_epochs)
    except NotErgodic as e:
        print(f"not ergodic: {e}")
        return EXIT_FALSE
    except NotCoalescing as e:
        print(f"not coalescing: {e}")
        return EXIT_FALSE
    for state in draws:
        print(state)
    print(f"samples {len(draws)}")
    counts: dict[str, int] = {}
    for state in draws:
        counts[state] = counts.get(state, 0) + 1
    target = stationary_exact(kern)
    for s in kern.state_poset.elements:
        print(f"count {s} {counts.get(s, 0)}")
    for s in kern.state_poset.elements:
        print(f"stationary {s} {frac_str(target.of(s))}")
    stat, pvalue = chi_square_fit(counts, target)
    print(f"chi_square {stat:.6f}")
    print(f"p_value {pvalue:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four commands."""
    parser = argparse.ArgumentParser(
        prog="monosync",
        description="Monotone realizations, synchronization, perfect sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a poset file")
    p_classify.add_argument("--poset", required=True)

    p_check = sub.add_parser("check", help="monotonicity and realizability")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--out", default=".")
    p_check.add_argument("--cap-tuples", type=int, default=DEFAULT_TUPLE_CAP)

    p_sync = sub.add_parser("synchronize", help="construct and verify phis")
    p_sync.add_argument("--system", required=True)
    p_sync.add_argument("--root", default=None)
    p_sync.add_argument("--child-order", action="append", default=[],
                        metavar="PARENT=KID1,KID2")
    p_sync.add_argument("--out", default=".")
    p_sync.add_argument("--cap-tuples", type=int, default=DEFAULT_TUPLE_CAP)

    p_cftp = sub.add_parser("cftp", help="perfect samples from a kernel")
    p_cftp.add_argument("--kernel", required=True)
    p_cftp.add_argument("--seed", type=int, default=0)
    p_cftp.add_argument("--samples", type=int, default=1)
    p_cftp.add_argument("--out", default=".")
    p_cftp.add_argument(
        "--cap-tuples", type=int, default=DEFAULT_TUPLE_CAP,
        help="most monotone tuples the LP route may enumerate; only a "
             "state poset whose cover graph has a cycle or several "
             "components takes that route")
    p_cftp.add_argument("--cap-epochs", type=int, default=DEFAULT_MAX_EPOCH)

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "check": cmd_check,
    "synchronize": cmd_synchronize,
    "cftp": cmd_cftp,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was (an ``append`` option copies
    # its default list before appending), so one parser serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by every later call
    in the process, so a caller that runs many commands in process pays
    for it once.
    """
    args = _parser().parse_args(argv)
    try:
        if args.command == "synchronize":
            args.child_orders = _parse_child_orders(args.child_order)
        for name in ("samples", "cap_tuples", "cap_epochs"):
            if getattr(args, name, 1) <= 0:
                raise MonosyncError(f"{name.replace('_', '-')} must be positive")
        return COMMANDS[args.command](args)
    except (SizeLimit, BudgetExceeded) as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_CAP
    except MonosyncError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
