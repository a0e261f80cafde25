"""Shared fixtures: the six-element showcase poset with its measure pair,
the two-state kernel, and hypothesis settings for the whole suite.  The
benchmark scripts of ``scripts/`` are importable from every test, which
shares their input builders."""

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import monosync
from monosync.cftp import kernel
from monosync.coupling import Coupling, measure_system
from monosync.measure import rational_measure
from monosync.poset import chain, root_tree, validate_poset

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
sys.path.insert(0, str(ROOT / "scripts"))


def package_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(monosync.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

W6_ELEMENTS = ("x", "y", "z", "v", "w", "tau")
# w sits below z, v, tau; x and y sit below z only
W6_COVERS = (("w", "tau"), ("w", "v"), ("w", "z"), ("x", "z"), ("y", "z"))
P1_MASSES = {"x": "1/5", "y": "2/15", "z": "1/15",
             "v": "1/15", "w": "7/15", "tau": "1/15"}
P2_MASSES = {"x": "1/15", "y": "1/15", "z": "2/5",
             "v": "1/5", "w": "2/15", "tau": "2/15"}

# one feasible monotone coupling of (p1, p2); also what realize() returns
SHOWCASE_ATOMS = {
    ("x", "x"): Fraction(1, 15), ("x", "z"): Fraction(2, 15),
    ("y", "y"): Fraction(1, 15), ("y", "z"): Fraction(1, 15),
    ("z", "z"): Fraction(1, 15), ("v", "v"): Fraction(1, 15),
    ("w", "z"): Fraction(2, 15), ("w", "v"): Fraction(2, 15),
    ("w", "w"): Fraction(2, 15), ("w", "tau"): Fraction(1, 15),
    ("tau", "tau"): Fraction(1, 15),
}

def kite():
    """The diamond with a peak above its top: its cover graph has a cycle."""
    return validate_poset(
        ("bot", "a", "b", "top", "peak"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"),
         ("top", "peak")])


IDENTITY_15 = tuple(range(15))
PHI2_15 = (0, 2, 3, 1, 4, 5, 8, 6, 7, 9, 10, 11, 12, 13, 14)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def w6():
    return validate_poset(W6_ELEMENTS, W6_COVERS)


@pytest.fixture(scope="session")
def w6_rooting(w6):
    return root_tree(w6, "tau", {"w": ("z", "v"), "z": ("x", "y")})


@pytest.fixture(scope="session")
def psi(w6_rooting):
    return w6_rooting[1]


@pytest.fixture(scope="session")
def p1(w6):
    return rational_measure(w6.elements, P1_MASSES)


@pytest.fixture(scope="session")
def p2(w6):
    return rational_measure(w6.elements, P2_MASSES)


@pytest.fixture(scope="session")
def pair_poset():
    return chain(("1", "2"))


@pytest.fixture(scope="session")
def w6_system(pair_poset, w6, p1, p2):
    return measure_system(pair_poset, w6, {"1": p1, "2": p2})


@pytest.fixture(scope="session")
def showcase_coupling():
    return Coupling(("1", "2"), SHOWCASE_ATOMS)


@pytest.fixture(scope="session")
def chain2():
    return chain(("lo", "hi"))


@pytest.fixture(scope="session")
def chain2_kernel(chain2):
    up = rational_measure(chain2.elements, {"lo": "2/3", "hi": "1/3"})
    down = rational_measure(chain2.elements, {"lo": "1/3", "hi": "2/3"})
    return kernel(chain2, {"lo": up, "hi": down})
