"""One run of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
                                [--setup-only]

Prints ``READY <input digest>`` once set-up (import, input generation,
input files) is done, then, unless ``--setup-only``, builds, runs passes
over the workload's items for S seconds, with the calibration probe
(calibrate.py) between them, and prints ``RESULT <json>``.
With ``--trace 1`` it builds and runs one pass to warm up, then
alternates untraced and traced builds and passes, and reports per-layer
numbers and the tracing overhead (fastest traced minus fastest untraced
time of the same work).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3  # each input's latency is its median over at least these
PROBES_PER_PASS = 128
PROBE_WINDOW = 4  # an op is scaled by the median of the probes this many
                  # before and after it
TRACE_ROUNDS = 3  # untraced and traced rounds of a traced run
MAX_BUILDS = 16  # builds per kernel: one before the passes, then
                 # BUILDS_PER_PASS in each pass, so that they lie seconds apart


class Tally:
    """Every op's latency with the number of probes run before it, failed
    inputs, op and build counts, and the calibration probe times in the
    order they ran.  The ops are kept in flat arrays, so that the
    worker's peak memory stays that of the package."""

    def __init__(self):
        self.index: dict[object, int] = {}  # op key -> its number
        self.op_key = array("l")
        self.op_dt = array("d")
        self.op_mark = array("l")
        self.bad: set = set()
        self.ops = 0
        self.failed = 0
        self.probes: list[float] = []
        self.build_marks: list[list[int]] = []  # per build, per kernel
        self.builds = [0, 0]  # attempted, failed

    def add(self, key, dt: float, ok: bool) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            self.bad.add(key)
        self.op_key.append(self.index.setdefault(key, len(self.index)))
        self.op_dt.append(dt)
        self.op_mark.append(len(self.probes))

    def add_probe(self, dt: float) -> None:
        self.probes.append(dt)

    def build(self, wl, probe) -> None:
        """Build every kernel once more, each right after a probe."""
        marks = []

        def before_kernel():
            self.add_probe(probe.time())
            marks.append(len(self.probes))

        attempted, failed = wl.build(before_kernel)
        self.builds[0] += attempted
        self.builds[1] += failed
        self.build_marks.append(marks)

    def scales(self) -> list[float]:
        """For each moment when ``mark`` probes had run, ``REF_S`` over
        the probe time around it: the median of the PROBE_WINDOW probes
        before it and as many after it."""
        return [calibrate.REF_S / statistics.median(
                    self.probes[max(0, mark - PROBE_WINDOW):
                                mark + PROBE_WINDOW])
                for mark in range(len(self.probes) + 1)]

    def scaled_s(self) -> float:
        """The time of all ops, each scaled by the probes around it."""
        scales = self.scales()
        return sum(dt * scales[mark]
                   for dt, mark in zip(self.op_dt, self.op_mark))

    def metrics(self, build_times, scaled: bool) -> dict:
        """An input's latency is the median of its runs in the run's
        passes, each run scaled by the probes around it (``scaled``) or
        as measured; a kernel's build time likewise over its builds.
        Throughput is distinct verified inputs over the sum of their
        latencies."""
        scales = self.scales() if scaled else [1.0] * (
            len(self.probes) + 1)
        runs: list[list[float]] = [[] for _ in self.index]
        for k, dt, mark in zip(self.op_key, self.op_dt, self.op_mark):
            runs[k].append(dt * scales[mark])
        bad = {self.index[key] for key in self.bad}
        good = sorted(statistics.median(r) for k, r in enumerate(runs)
                      if k not in bad)
        m = {"build_s": (sum(
            statistics.median(dt * scales[marks[j]]
                              for dt, marks in zip(times, self.build_marks))
            for j, times in enumerate(build_times)), "s")}
        if len(good) < 100:
            return m
        p90 = statistics.quantiles(good, n=10)[8]
        m.update({
            "ops_per_s": (len(good) / sum(good), "1/s"),
            "op_s.p50": (statistics.median(good), "s"),
            "op_s.p90": (p90, "s"),
        })
        if scaled:
            beyond = sum(1 for dt in good if dt > p90)
            print(f"ops {self.ops}, distinct inputs {len(good)}, "
                  f"{beyond} beyond p90", file=sys.stderr)
        return m


def run_passes(wl, seconds: float, probe, passes: int | None = None,
               rebuild: bool = False) -> Tally:
    """Whole passes over the workload's items: until ``seconds`` have
    passed and MIN_PASSES are done (never past three times ``seconds``),
    or exactly ``passes`` of them.  The calibration probe runs
    PROBES_PER_PASS times in every pass, evenly spaced over its items.
    With ``rebuild``, the kernels are built before the passes and
    rebuilt ``wl.BUILDS_PER_PASS`` times a pass, evenly spaced, until
    each has been built MAX_BUILDS times, each build after a probe."""
    tally = Tally()
    stride = max(1, wl.n_items // PROBES_PER_PASS)
    rebuild_after = {wl.n_items * k // wl.BUILDS_PER_PASS - 1
                     for k in range(1, wl.BUILDS_PER_PASS + 1)}
    if rebuild:
        tally.build(wl, probe)
    start = perf_counter()
    done = 0
    while True:
        elapsed = perf_counter() - start
        if passes is not None:
            if done >= passes:
                break
        elif done and (elapsed >= 3 * seconds or (
                done >= MIN_PASSES and elapsed >= seconds)):
            break
        for i in range(wl.n_items):
            if i % stride == 0:
                tally.add_probe(probe.time())
            try:
                for key, dt, ok in wl.step(i):
                    tally.add(key, dt, ok)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.add(("raised", i), 0.0, False)
            if rebuild and i in rebuild_after \
                    and len(tally.build_marks) < MAX_BUILDS:
                tally.build(wl, probe)
        done += 1
    print(f"{wl.name}: {done} passes of {wl.n_items} items in "
          f"{perf_counter() - start:.1f} s", file=sys.stderr)
    return tally


def untraced(wl, seconds: float, probe) -> tuple[dict, int, int, dict]:
    tally = run_passes(wl, seconds, probe, rebuild=True)
    failed = tally.builds[1] + tally.failed + wl.finish()
    attempted = tally.builds[0] + tally.ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m = tally.metrics(wl.build_times, scaled=True)
    raw = tally.metrics(wl.build_times, scaled=False)
    m["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    probe_s = statistics.median(tally.probes)
    return m, attempted, failed, {
        "probe_s": probe_s, "scale": calibrate.REF_S / probe_s,
        "raw": {k: v for k, (v, _) in raw.items()}}


def traced(wl, seconds: float, setup: dict,
           probe) -> tuple[dict, int, int]:
    """A build and a pass warm up (and check the outputs); then
    TRACE_ROUNDS rounds of one untraced and one traced build and pass.
    A round's ops are scaled by the probes around them, as in the
    untraced run, and its build by the first probes of its pass.  The
    overhead compares the fastest untraced with the fastest traced
    round, warm runs of the same work, and the per-layer figures come
    from that fastest traced round."""
    import tracing
    import workloads

    attempted, failed = wl.build()
    warm = run_passes(wl, seconds, probe, passes=1)
    attempted += warm.ops
    failed += warm.failed + wl.finish()

    def build_and_pass():
        nonlocal attempted, failed
        c0 = wl.clock.elapsed
        b_att, b_fail = wl.build()
        build_s = wl.clock.elapsed - c0
        tally = run_passes(wl, seconds, probe, passes=1)
        attempted += b_att + tally.ops
        failed += b_fail + tally.failed
        return build_s * tally.scales()[0] + tally.scaled_s(), tally.ops

    untimed, best = None, None
    for _ in range(TRACE_ROUNDS):
        plain, _ = build_and_pass()
        untimed = plain if untimed is None else min(untimed, plain)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        wl.clock.span = tracer
        try:
            timed, n_ops = build_and_pass()
        finally:
            wl.clock.span = None
            tracer.uninstall()
        if best is None or timed < best[0]:
            best = (timed, tracer, n_ops)
    timed, tracer, n_ops = best

    root = tracer.agg.get("bench.op", [0, 0.0, 0.0])[1]
    selfs = sum(a[2] for a in tracer.agg.values())
    layers = sum(tracer.self_s(layer) for layer in tracing.LAYERS)
    m = tracer.metrics()
    m.update({
        "cli.golden.mismatch": (getattr(wl, "golden_mismatch", 0), "count"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.generate_s": (setup["generate_s"], "s"),
        "trace.ops": (n_ops, "count"),
        "trace.untraced_s": (untimed, "s"),
        "trace.traced_s": (timed, "s"),
        "trace.overhead_s": (timed - untimed, "s"),
        "trace.overhead_ratio": ((timed - untimed) / untimed, "ratio"),
        "trace.accounted_ratio": (selfs / root if root else 0.0, "ratio"),
        "trace.layer_share": (layers / root if root else 0.0, "ratio"),
    })
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{wl.name}-s{wl.seed}.jsonl", "w") as f:
        for sid, parent, name, start, end in tracer.log:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n")
    return m, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    pkg = SRC / "monosync"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no package source at {pkg}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import monosync
    import_s = perf_counter() - t0
    if Path(monosync.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported monosync from {monosync.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / (
        f"{args.workload}-s{args.seed}-p{os.getpid()}")
    workdir.mkdir(parents=True)
    try:
        t1 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        generate_s = perf_counter() - t1
        print(f"READY {wl.digest}", flush=True)
        if args.setup_only:
            return 0
        extra = {}
        probe = calibrate.Probe()
        if args.trace:
            metrics, attempted, failed = traced(
                wl, args.seconds,
                {"import_s": import_s, "generate_s": generate_s}, probe)
        else:
            metrics, attempted, failed, extra = untraced(
                wl, args.seconds, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps({
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}, **extra}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
