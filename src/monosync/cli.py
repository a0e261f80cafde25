"""Command-line surface: classify, check, synchronize, cftp.

All reports are line-oriented text with a stable schema, and every
command is deterministic given its inputs and seed.  Exit codes:
0 success or true verdict; 1 false verdict (not monotone, not
realizable, not verified, not ergodic); 2 malformed input; 3 resource
cap hit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
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
from .poset import DEFAULT_UPSET_CAP, classify, covers, default_root, root_tree
from .svg import svg_bands, svg_permutation
from .synchronize import (
    DEFAULT_TREE_CAP,
    identity_synchronization,
    is_synchronizable,
    synchronization_violations,
    synchronize_from_coupling,
    verify_synchronized,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


@dataclass
class JobConfig:
    """Everything a command needs, bundled off argparse."""

    command: str
    poset: str | None = None
    system: str | None = None
    kernel: str | None = None
    out: str = "."
    root: str | None = None
    child_orders: dict[str, tuple[str, ...]] = field(default_factory=dict)
    seed: int = 0
    samples: int = 1
    cap_upsets: int = DEFAULT_UPSET_CAP
    cap_tuples: int = DEFAULT_TUPLE_CAP
    cap_trees: int = DEFAULT_TREE_CAP
    cap_epochs: int = DEFAULT_MAX_EPOCH

    def __post_init__(self):
        for name in ("samples", "cap_upsets", "cap_tuples", "cap_trees",
                     "cap_epochs"):
            if getattr(self, name) <= 0:
                raise MonosyncError(f"{name.replace('_', '-')} must be positive")


def _parse_child_orders(specs: list[str]) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for spec in specs:
        parent, eq, kids = spec.partition("=")
        if not eq or not parent or not kids:
            raise MonosyncError(
                f"bad --child-order {spec!r}, expected parent=kid1,kid2")
        out[parent] = tuple(kids.split(","))
    return out


def _write(cfg: JobConfig, name: str, text: str) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text, encoding="utf-8")
    return target


def cmd_classify(cfg: JobConfig) -> int:
    poset = parse_poset(cfg.poset)
    print(f"elements {len(poset)}")
    for a, b in covers(poset):
        print(f"cover {a} {b}")
    print(f"class {classify(poset).value}")
    sync = is_synchronizable(poset, cfg.cap_trees)
    print(f"synchronizable {'true' if sync else 'false'}")
    return EXIT_OK


def cmd_check(cfg: JobConfig) -> int:
    system = parse_system(cfg.system)
    verdict = is_stoch_monotone(system, cfg.cap_upsets)
    if not verdict:
        alpha, beta, upset = verdict.witness
        print("not stochastically monotone")
        print(f"witness {alpha} {beta} {','.join(sorted(upset))}")
        return EXIT_FALSE
    print("stochastically monotone")
    result = realize(system, cfg.cap_tuples)
    if isinstance(result, InfeasibilityCertificate):
        print("not realizable")
        target = _write(cfg, "certificate.txt", serialize_certificate(result))
        print(f"certificate {target}")
        return EXIT_FALSE
    print("realizable")
    print(f"atoms {len(result.atoms)}")
    target = _write(cfg, "coupling.txt", serialize_coupling(result))
    print(f"coupling {target}")
    return EXIT_OK


def cmd_synchronize(cfg: JobConfig) -> int:
    system = parse_system(cfg.system)
    root = cfg.root if cfg.root is not None else default_root(system.state_poset)
    _, extension = root_tree(system.state_poset, root, cfg.child_orders or None)

    naive = identity_synchronization(system)
    naive_violations = synchronization_violations(system, naive, extension)
    print(f"naive_violations {len(naive_violations)}")
    _write(cfg, "bands_naive.svg",
           svg_bands(system, naive, extension, naive_violations))

    result = realize(system, cfg.cap_tuples)
    if isinstance(result, InfeasibilityCertificate):
        print("not realizable")
        target = _write(cfg, "certificate.txt", serialize_certificate(result))
        print(f"certificate {target}")
        return EXIT_FALSE
    phis = synchronize_from_coupling(system, result, extension)
    for alpha, phi in phis.items():
        print(f"phi {alpha} {_write(cfg, f'phi_{alpha}.txt', serialize_phi(phi))}")
        _write(cfg, f"phi_{alpha}.svg", svg_permutation(phi, alpha))
    _write(cfg, "bands_synchronized.svg", svg_bands(system, phis, extension))

    verdict = verify_synchronized(system, phis, extension)
    print(f"verified {'true' if verdict else 'false'}")
    if not verdict:
        print(f"witness {verdict.witness}")
        return EXIT_FALSE
    return EXIT_OK


def cmd_cftp(cfg: JobConfig) -> int:
    kern = parse_kernel(cfg.kernel)
    try:
        built = build_grand_coupling(kern, cfg.cap_tuples)
    except NotStochMonotone as e:
        print("not stochastically monotone")
        print(f"witness {e.args[1]} {e.args[2]} {','.join(sorted(e.args[3]))}")
        return EXIT_FALSE
    if isinstance(built, InfeasibilityCertificate):
        print("not realizable")
        target = _write(cfg, "certificate.txt", serialize_certificate(built))
        print(f"certificate {target}")
        return EXIT_FALSE
    try:
        draws = sample_many(built, cfg.seed, cfg.samples, cfg.cap_epochs)
    except NotErgodic as e:
        print(f"not ergodic: {e}")
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
    p_classify.add_argument("--cap-trees", type=int, default=DEFAULT_TREE_CAP)

    p_check = sub.add_parser("check", help="monotonicity and realizability")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--out", default=".")
    p_check.add_argument("--cap-upsets", type=int, default=DEFAULT_UPSET_CAP)
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


def _config(args: argparse.Namespace) -> JobConfig:
    fields = {
        "command": args.command,
        "poset": getattr(args, "poset", None),
        "system": getattr(args, "system", None),
        "kernel": getattr(args, "kernel", None),
        "out": getattr(args, "out", "."),
        "root": getattr(args, "root", None),
        "child_orders": _parse_child_orders(getattr(args, "child_order", [])),
        "seed": getattr(args, "seed", 0),
        "samples": getattr(args, "samples", 1),
        "cap_upsets": getattr(args, "cap_upsets", DEFAULT_UPSET_CAP),
        "cap_tuples": getattr(args, "cap_tuples", DEFAULT_TUPLE_CAP),
        "cap_trees": getattr(args, "cap_trees", DEFAULT_TREE_CAP),
        "cap_epochs": getattr(args, "cap_epochs", DEFAULT_MAX_EPOCH),
    }
    return JobConfig(**fields)


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
        cfg = _config(args)
        return COMMANDS[args.command](cfg)
    except (SizeLimit, BudgetExceeded) as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_CAP
    except MonosyncError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
