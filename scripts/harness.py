"""What the ``bench_*.py`` sweeps share: the command line, one timing
discipline, the host block, system files and the report tail.

Every timed number is the fastest of ``PASSES`` passes, and a pass times
every job of the sweep once, in turn, so that a stall of a shared host
falls in one pass of each job rather than in every pass of one.

With ``--parent SRC`` a sweep runs its timing in worker processes, one
per source tree, each importing the package from its tree's ``src/``
(:class:`Worker`), and :func:`alternate` alternates the workers' passes,
so that both columns come from the same phases of a shared host.

``--runs DIR`` summarises benchmark runs as the report's ``benchmark``
entry: each file ``DIR/{parent,change}-{workload}-{seed}.json`` holds
the last stdout line of ``perfbench/run.py``, and the summary gives, per
workload and end-to-end metric of BENCHMARK.json, both sides' quartiles
and how many seed pairs the change won.  Every other entry of the file
being replaced that a run does not write is kept.  Nothing here imports
``monosync`` at import time, as ``bench_parse.py`` workers import this
module next to another tree's package.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 5
HOST = {"python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}


def arguments(doc: str, out: str,
              workers: bool = False) -> argparse.ArgumentParser:
    """The options of every sweep; ``out`` names the default report.
    ``--runs DIR`` is summarised as it is parsed, so that a bad run file
    ends the sweep before it starts, in exit 2.  A sweep that times in
    ``workers`` also takes ``--parent SRC`` and its own ``--worker``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", type=Path, default=ROOT / out)
    ap.add_argument("--runs", type=runs_summary, default=None, metavar="DIR")
    if workers:
        ap.add_argument("--parent", type=Path, default=None,
                        help="the src/ directory of the tree to compare "
                             "with")
        ap.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return ap


def fastest(jobs: dict, passes: int = PASSES) -> tuple[dict, dict]:
    """Per job, its fastest seconds over ``passes`` passes and the result
    of its last call.  ``jobs`` maps a name to ``(fn, fresh)``; a call
    times ``fn()``, or ``fn(fresh())`` with ``fresh()`` untimed when the
    job needs a fresh input per call."""
    best, last = dict.fromkeys(jobs, math.inf), {}
    for _ in range(passes):
        for name, (fn, fresh) in jobs.items():
            args = () if fresh is None else (fresh(),)
            t0 = time.perf_counter()
            last[name] = fn(*args)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, last


class Worker:
    """``script --worker`` in a process that imports the package from
    ``src``.  It reads the inputs as one JSON line and answers with one
    JSON line, its greeting, and then one JSON line per request line."""

    def __init__(self, script: str, src: Path, inputs):
        env = {**os.environ, "PYTHONPATH": str(src)}
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, script, "--worker"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.greeting = self.ask(json.dumps(inputs))
        except BaseException:
            self.close()
            raise

    def ask(self, line: str):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the worker on {self.src} ended")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def alternate(script: str, inputs, parent: Path | None, request: str,
              passes: int) -> dict:
    """Time ``inputs`` in a :class:`Worker` on this tree's ``src/``, side
    ``"change"``, and with ``parent`` in one on that tree too, side
    ``"parent"``: each side answers ``request`` ``passes`` times, the
    sides taking turns and which goes first alternating.  Per side, its
    greeting and the elementwise least of its answers."""
    trees = {"change": ROOT / "src"}
    if parent is not None:
        trees["parent"] = parent.resolve()
    sides, best = {}, {}
    try:
        for name, src in trees.items():
            sides[name] = Worker(script, src, inputs)
        order = list(sides)
        for _ in range(passes):
            for name in order:
                answer = sides[name].ask(request)
                best[name] = list(map(min, best.get(name, answer), answer))
            order.reverse()
    finally:
        for side in sides.values():
            side.close()
    return {name: (side.greeting, best[name]) for name, side in sides.items()}


def write_system(directory: Path, stem: str, system) -> dict[str, str]:
    """Write a measure system or a kernel into ``directory`` as
    ``stem.states``, ``stem.rows`` (each measure labelled by its index),
    for a system ``stem.index``, and ``stem.system`` or ``stem.kernel``
    naming them; the text of each file by its name."""
    from monosync import formats as f

    kernel = not hasattr(system, "index_poset")
    measures = system.rows if kernel else system.measures
    refs = (f"{stem}.states", [f"{stem}.rows"], {x: x for x in measures})
    texts = {refs[0]: f.serialize_poset(system.state_poset),
             refs[1][0]: f.serialize_measures(measures)}
    if kernel:
        texts[f"{stem}.kernel"] = f.serialize_kernel(*refs)
    else:
        texts[f"{stem}.index"] = f.serialize_poset(system.index_poset)
        texts[f"{stem}.system"] = f.serialize_system(f"{stem}.index", *refs)
    for file, text in texts.items():
        (directory / file).write_text(text)
    return texts


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(runs: Path) -> dict:
    """The ``benchmark`` entry of the module docstring.  A workload with
    fewer than two complete parent/change pairs is skipped with a message
    on stderr; a file that is no benchmark run raises ``ValueError``
    naming it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher"
              for m in declared["end_to_end"]}
    results: dict = {}
    for path in sorted(runs.glob("*.json")):
        try:
            side, rest = path.stem.split("-", 1)
            workload, seed = rest.rsplit("-", 1)
            metrics = json.loads(path.read_text())["metrics"]
            results.setdefault(workload, {}).setdefault(int(seed), {})[
                side] = {k: v["value"] for k, v in metrics.items()
                         if k in higher}
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"{path} is not a benchmark run: {e!r}") from e
    summary = {}
    for workload, by_seed in sorted(results.items()):
        pairs = {s: p for s, p in by_seed.items()
                 if "parent" in p and "change" in p}
        if len(pairs) < 2:
            print(f"{workload}: {len(pairs)} complete parent/change "
                  "pair(s), fewer than two; skipped", file=sys.stderr)
            continue
        rows = {}
        for metric, up in higher.items():
            if not all(metric in v for p in pairs.values()
                       for v in p.values()):
                continue
            old = [p["parent"][metric] for p in pairs.values()]
            new = [p["change"][metric] for p in pairs.values()]
            wins = sum((b > a) if up else (b < a) for a, b in zip(old, new))
            rows[metric] = {"parent": quartiles(old), "change": quartiles(new),
                            "change_wins": wins, "pairs": len(pairs)}
        summary[workload] = {"seeds": sorted(pairs), "metrics": rows}
    return summary


def runs_summary(text: str) -> dict:
    """``--runs DIR`` as argparse reads it: the summary of DIR, a bad run
    file being a usage error."""
    try:
        return summarise(Path(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def write_report(args: argparse.Namespace, report: dict, failures: int,
                 checked: str) -> int:
    """Write ``report`` to ``--out`` with the entries that the module
    docstring names, print how many ``checked`` (tables, draws, ...)
    failed, and return 1 if any did, else 0."""
    if args.runs is not None:
        report["benchmark"] = args.runs
    if args.out.exists():
        report = {**json.loads(args.out.read_text()), **report}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}; {failures} {checked} failed their check")
    return 1 if failures else 0
