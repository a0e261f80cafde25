"""The generators: pinned outputs, wide state posets, one dominance test."""

import ast
import hashlib
import random
from pathlib import Path

import monosync
from conftest import kite
from monosync.coupling import is_stoch_monotone
from monosync.formats import (
    serialize_certificate,
    serialize_measures,
    serialize_poset,
)
from monosync.generate import (
    diamond,
    random_class_w,
    random_monotone_system,
    random_poset,
    search_infeasible_diamond,
)
from monosync.poset import antichain


def system_text(system) -> str:
    return (serialize_poset(system.index_poset)
            + serialize_poset(system.state_poset)
            + serialize_measures(system.measures))


def generated_texts():
    D, K = diamond(), kite()
    for seed in range(8):  # as the cli-mixed workload draws its systems
        yield system_text(random_monotone_system(random.Random(seed), D, D, 5))
    for seed in range(8):
        rng = random.Random(seed)
        yield system_text(random_monotone_system(
            rng, K, K, rng.randrange(2, 9)))
    for seed in range(8):
        rng = random.Random(seed)
        S = random_class_w(rng, rng.randrange(4, 11))
        A = random_poset(rng, rng.randrange(2, 5))
        yield system_text(random_monotone_system(
            rng, A, S, rng.randrange(2, 9), tries=rng.randrange(1, 4)))
    for seed in range(8):
        rng = random.Random(seed)
        S = random_poset(rng, rng.randrange(1, 7))
        A = random_poset(rng, rng.randrange(1, 5))
        yield system_text(random_monotone_system(
            rng, A, S, rng.randrange(1, 9), tries=rng.randrange(1, 4)))
    for seed in (2, 4):
        trial, system, cert = search_infeasible_diamond(seed)
        yield f"trial {trial}\n{system_text(system)}"
        yield serialize_certificate(cert)


# digest of the generated systems as first recorded; the benchmark's
# inputs come from these generators, so no system may move
GENERATED_DIGEST = (
    "58551c12976934e27fa9a72839e8003c5a361b65b9b81dd1b13c865ac37d3835")


def test_generated_systems_pinned():
    h = hashlib.sha256()
    for text in generated_texts():
        h.update(text.encode())
    assert h.hexdigest() == GENERATED_DIGEST


def test_monotone_system_on_a_wide_antichain():
    # 2**24 up-sets: only a flow, not an up-set scan, decides this
    states = antichain([f"s{i}" for i in range(24)])
    system = random_monotone_system(random.Random(0), diamond(), states, 12)
    assert is_stoch_monotone(system)


def test_only_the_poset_module_calls_up_sets():
    package = Path(monosync.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "poset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name == "up_sets":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
