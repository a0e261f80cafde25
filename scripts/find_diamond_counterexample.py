#!/usr/bin/env python3
"""Search the diamond poset for a monotone but unrealizable system.

The diamond bot < {a, b} < top has a 4-cycle for a cover graph, so
stochastic monotonicity need not imply realizable monotonicity there.
This script runs the seeded randomized search, prints the first
instance found together with its infeasibility certificate, and
re-verifies both sides: the system is stochastically monotone, the
exact LP has no monotone coupling, and the dual certificate checks out.

Usage:
    python3 scripts/find_diamond_counterexample.py [--seed N]
        [--max-trials N] [--max-denominator N] [--out DIR]

With --out, writes the instance as fixture files (poset, measures,
system, certificate) in the same format as data/.
"""

import argparse
from pathlib import Path

from monosync.coupling import (
    InfeasibilityCertificate,
    is_stoch_monotone,
    realize,
    verify_certificate,
)
from monosync.formats import (
    serialize_certificate,
    serialize_measures,
    serialize_poset,
    serialize_system,
)
from monosync.generate import search_infeasible_diamond


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--max-trials", type=int, default=10**5)
    parser.add_argument("--max-denominator", type=int, default=16)
    parser.add_argument("--out", default=None,
                        help="directory for fixture files")
    args = parser.parse_args()

    found = search_infeasible_diamond(args.seed, args.max_trials,
                                      args.max_denominator)
    if found is None:
        print(f"no counterexample in {args.max_trials} trials "
              f"(seed {args.seed})")
        return 1
    trial, system, cert = found
    print(f"counterexample at trial {trial} (seed {args.seed})")

    for alpha in system.index_poset.elements:
        mu = system.measure_of(alpha)
        masses = " ".join(f"{s}:{mu.of(s)}" for s in
                          system.state_poset.elements if mu.of(s) > 0)
        print(f"  P_{alpha}: {masses}")

    # checked without assert, which python -O would skip
    failed = [what for what, ok in (
        ("stochastically monotone", is_stoch_monotone(system)),
        ("no monotone coupling",
         isinstance(realize(system), InfeasibilityCertificate)),
        ("certificate verifies", verify_certificate(system, cert))) if not ok]
    if failed:
        print(f"not a counterexample: fails {', '.join(failed)}")
        return 1
    print("stochastically monotone: true")
    print(f"monotone coupling LP: infeasible, certificate gap {cert.gap}")
    support = ", ".join(f"y[{a},{s}]={w}" for (a, s), w in
                        sorted(cert.dual.items()) if w != 0)
    print(f"dual support: {support}")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diamond.poset").write_text(
            serialize_poset(system.state_poset))
        labeled = {f"q_{a}": system.measure_of(a)
                   for a in system.index_poset.elements}
        (out / "diamond_infeasible.measures").write_text(
            serialize_measures(labeled))
        (out / "diamond_infeasible.system").write_text(serialize_system(
            "diamond.poset", "diamond.poset",
            ["diamond_infeasible.measures"],
            {a: f"q_{a}" for a in system.index_poset.elements}))
        (out / "diamond_infeasible.cert").write_text(
            serialize_certificate(cert))
        print(f"fixtures written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
