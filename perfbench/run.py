"""The monosync benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload cftp --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; it imports the package from ``src/``.
Workloads (see README.md): ``cftp`` and ``cli-mixed``.

With ``--trace 0`` it starts ``SETUPS`` fresh interpreters one after the
other, with a reference set-up (refsetup.py) between each two.  Each
imports ``monosync``, generates the seeded inputs and writes them; its
set-up time, from process start to that point, is scaled by
``REF_SETUP_S`` over the mean time of the reference set-ups next to it,
and ``setup_s`` is the median of these.  Then one more interpreter sets
up (all must report the same input digest) and goes on to build and run
the workload; its end-to-end metrics are reported.  The times measured
inside that worker (ops and builds) are scaled to the reference machine
speed by the calibration probes it timed around each of them
(calibrate.py).  The unscaled figures are printed before the result.  With ``--trace 1`` one interpreter runs and reports per-layer
metrics, unscaled.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  Exit code 0 means a result was printed; any failure to
run prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cftp", "cli-mixed")
SETUPS = 3  # timed fresh-interpreter set-ups per untraced run
REF_SETUP_S = 1.5  # refsetup.py seconds on the reference machine
TIMEOUT_S = 170.0


class RunError(Exception):
    pass


def start_worker(args, setup_only: bool):
    """Start a worker; return (process, seconds to READY, input digest)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    return start(cmd)


def start(cmd):
    """Start a process that prints ``READY <digest>`` when set up; return
    (process, seconds to READY, digest)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if not line.startswith("READY "):
        finish(proc)
        raise RunError(f"{Path(cmd[1]).name} did not get ready: {line!r}")
    return proc, ready, line.split()[1]


def finish(proc, deadline: float | None = None) -> str:
    """Wait for a worker (killing it past the deadline); return the rest
    of its stdout."""
    timeout = None if deadline is None else max(deadline - perf_counter(), 1)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = perf_counter() + TIMEOUT_S
    setups, refs, digests = [], [], []
    if not args.trace:
        for k in range(2 * SETUPS - 1):
            if k % 2:
                proc, ready, _ = start(
                    [sys.executable, str(HERE / "refsetup.py")])
                refs.append(ready)
            else:
                proc, ready, digest = start_worker(args, setup_only=True)
                setups.append(ready)
                digests.append(digest)
            finish(proc, deadline)
    proc, _, digest = start_worker(args, setup_only=False)
    digests.append(digest)
    out = finish(proc, deadline)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    same_inputs = len(set(digests)) == 1
    print(f"workload {args.workload} seed {args.seed} inputs {digest}"
          f"{'' if same_inputs else ' DIGESTS DIFFER: ' + str(digests)}")
    metrics = result["metrics"]
    if not args.trace:
        setup_s = statistics.median(
            t * REF_SETUP_S / statistics.mean(refs[max(0, i - 1):i + 1])
            for i, t in enumerate(setups))
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"probe {result['probe_s']:.6f} s, scale {result['scale']:.4f}"
              "; unscaled: " + " ".join(
                  f"{k}={v:.6g}" for k, v in result["raw"].items())
              + "; set-ups " + " ".join(f"{t:.4f}" for t in setups)
              + "; reference set-ups " + " ".join(f"{t:.4f}" for t in refs))
    return {
        "correct": result["failed"] == 0 and same_inputs,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "monosync" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/monosync to benchmark",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RunError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
