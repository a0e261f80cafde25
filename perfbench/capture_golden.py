"""Capture the golden outputs of the four subcommands on the data/ fixtures.

    python3 perfbench/capture_golden.py

Runs each command listed in ``golden/cli.json`` through ``monosync.cli.main``
in-process, the way the cli-mixed workload does (``workloads.run_cli``),
and stores its exit code, stdout, stderr and every file it writes back in
that file, with the data and output directories replaced by ``{DATA}`` and
``{OUT}``.  To add a command, append an entry with its ``argv`` and run
this.  The cli-mixed workload compares against this file byte for byte,
so run it only to re-baseline after a deliberate change of output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".perfbench-work" / "golden-capture"

    def mask(text: str) -> str:
        return text.replace(str(out_dir), "{OUT}").replace(
            str(workloads.DATA), "{DATA}")

    cases = []
    for case in json.loads(workloads.GOLDEN.read_text(encoding="utf-8")):
        argv = case["argv"]
        rc, out, err, files = workloads.run_cli(
            [workloads.fill(a, out_dir) for a in argv], out_dir,
            workloads.Clock())
        cases.append({"argv": argv, "exit": rc, "stdout": mask(out),
                      "stderr": mask(err), "files": files})
    shutil.rmtree(out_dir, ignore_errors=True)
    workloads.GOLDEN.write_text(json.dumps(cases, indent=1) + "\n",
                                encoding="utf-8")
    print(f"wrote {len(cases)} cases to {workloads.GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
