"""A fixed stand-in for a set-up that tells how fast the machine sets up now.

    python3 perfbench/refsetup.py

A fresh interpreter that imports ``scipy.stats`` (the library import that
takes most of a set-up's time) and writes FILES small text files into a
scratch directory of the checkout, then prints ``READY -`` and removes
them.  It is the same kind of work as a workload's set-up (interpreter
start, module loading, many small file writes) but imports nothing of
the package, so no change to the package moves it.  run.py times it
between the set-ups and reports ``setup_s`` scaled by ``REF_SETUP_S``
over its time (see README.md): the probe of calibrate.py, pure
interpreter work, does not follow how the host's speed changes set-up
times.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path

import scipy.stats  # noqa: F401

FILES = 1000
WORK = Path(__file__).resolve().parent.parent / ".perfbench-work"


def main() -> int:
    d = WORK / f"refsetup-p{os.getpid()}"
    d.mkdir(parents=True)
    try:
        rng = random.Random(0)
        for i in range(FILES):
            (d / f"f{i}.txt").write_text(" ".join(
                f"{rng.randrange(1, 100)}/{rng.randrange(1, 9)}"
                for _ in range(20)) + "\n", encoding="utf-8")
        print("READY -", flush=True)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
