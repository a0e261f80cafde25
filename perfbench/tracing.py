"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped name is patched in the module that defines it and in every
module that imported it (``monosync.coupling.solve_feasibility``,
``monosync.cftp.realize``, ``monosync.cli.realize``, the benchmark's own
modules, ...); methods are patched on their class.  A wrapper records a
span only while a root span opened by the benchmark is active, so the
benchmark's own checks, which also touch the package's random stream,
stay out of the numbers.

Spans nest through a stack: a span's self time is its duration minus the
durations of its direct children, so the self times of all spans,
including the root spans, add up to the total root-span time.  Counts
are taken at the same boundaries.  Aggregates cover every span; the
first ``SPAN_LOG_CAP`` spans are also kept whole, with their parent, for
writing out.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

LAYERS = ("poset", "coupling", "linprog", "synchronize", "cftp", "rng",
          "formats", "svg", "cli")

# (module, attribute path, span name)
WRAPS = [
    ("poset", "up_sets", "poset.up_sets"),
    ("poset", "Poset.minimal", "poset.extremal"),
    ("poset", "Poset.maximal", "poset.extremal"),
    ("poset", "Poset.strict_pairs", "poset.misc"),
    ("poset", "Poset.linear_order", "poset.misc"),
    ("poset", "Poset.dual", "poset.misc"),
    ("poset", "classify", "poset.misc"),
    ("poset", "branching_elements", "poset.misc"),
    ("poset", "cover_graph", "poset.misc"),
    ("poset", "covers", "poset.misc"),
    ("poset", "default_root", "poset.misc"),
    ("poset", "root_tree", "poset.misc"),
    ("poset", "validate_poset", "poset.misc"),
    ("poset", "chain", "poset.misc"),
    ("coupling", "monotone_tuples", "coupling.tuples"),
    ("coupling", "realize", "coupling.realize"),
    ("coupling", "check_coupling", "coupling.check"),
    ("coupling", "verify_certificate", "coupling.check"),
    ("coupling", "is_stoch_monotone", "coupling.dominance"),
    ("coupling", "dominance_violation", "coupling.dominance"),
    ("coupling", "stochastically_leq", "coupling.dominance"),
    ("coupling", "strassen_coupling", "coupling.dominance"),
    ("coupling", "measure_system", "coupling.misc"),
    ("coupling", "pair_system", "coupling.misc"),
    ("linprog", "solve_feasibility", "linprog.solve"),
    ("synchronize", "synchronize_from_coupling", "synchronize.sync"),
    ("synchronize", "verify_synchronized", "synchronize.verify"),
    ("synchronize", "synchronization_violations", "synchronize.verify"),
    ("synchronize", "is_synchronizable", "synchronize.synchronizable"),
    ("synchronize", "identity_synchronization", "synchronize.misc"),
    ("synchronize", "cell_states", "synchronize.misc"),
    ("synchronize", "common_grid", "synchronize.misc"),
    ("cftp", "build_grand_coupling", "cftp.build"),
    ("cftp", "check_grand_coupling", "cftp.check"),
    ("cftp", "cftp_sample", "cftp.sample"),
    ("cftp", "sample_many", "cftp.sample"),
    ("cftp", "stationary_exact", "cftp.misc"),
    ("cftp", "chi_square_fit", "cftp.misc"),
    ("cftp", "is_ergodic", "cftp.misc"),
    ("cftp", "kernel", "cftp.misc"),
    ("rng", "CellSampler.cell_at", "rng.cell"),
    ("formats", "parse_poset", "formats.parse"),
    ("formats", "parse_measures", "formats.parse"),
    ("formats", "parse_system", "formats.parse"),
    ("formats", "parse_kernel", "formats.parse"),
    ("formats", "parse_coupling", "formats.parse"),
    ("formats", "parse_phi", "formats.parse"),
    ("formats", "parse_certificate", "formats.parse"),
    ("formats", "serialize_poset", "formats.serialize"),
    ("formats", "serialize_measures", "formats.serialize"),
    ("formats", "serialize_system", "formats.serialize"),
    ("formats", "serialize_kernel", "formats.serialize"),
    ("formats", "serialize_coupling", "formats.serialize"),
    ("formats", "serialize_phi", "formats.serialize"),
    ("formats", "serialize_certificate", "formats.serialize"),
    ("svg", "svg_bands", "svg.render"),
    ("svg", "svg_permutation", "svg.render"),
    ("cli", "main", "cli.command"),
]

SPAN_LOG_CAP = 20000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child s, span id, start]
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.log: list[tuple] = []  # (id, parent id, name, start, end)
        self._ids = 0
        self._patches: list[tuple[object, str, object]] = []
        self._draw_max_t = 0

    # --- root spans, opened by the benchmark around its calls ---------------

    def enter(self, name: str) -> None:
        self._ids += 1
        self.stack.append([name, 0.0, self._ids, perf_counter()])

    def leave(self, duration: float) -> None:
        frame = self.stack.pop()
        self._close(frame, duration)

    def _close(self, frame, duration: float) -> None:
        name, child, sid, start = frame
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.log) < SPAN_LOG_CAP:
            self.log.append((sid, parent[2] if parent else 0, name, start,
                             start + duration))

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # --- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str):
        stack = self.stack
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            tracer._ids += 1
            frame = [name, 0.0, tracer._ids, 0.0]
            stack.append(frame)
            t0 = frame[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ".raised")
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer._close(frame, dt)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Patch every entry of WRAPS wherever the original is bound."""
        mods = [m for k, m in sys.modules.items()
                if k == "monosync" or k.startswith("monosync.")]
        mods += list(extra_modules)
        for modname, path, span in WRAPS:
            home = sys.modules["monosync." + modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], span))
                continue
            orig = getattr(home, path)
            wrapped = self.wrap(orig, span)
            for m in mods:
                if getattr(m, path, None) is orig:
                    self._patch(m, path, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # --- counts taken where the work happens ---------------------------------

    def _on_poset_up_sets(self, args, result):
        self.count("poset.up_sets.count", len(result))

    def _on_coupling_tuples(self, args, result):
        self.count("coupling.tuples.count", len(result))

    def _on_coupling_realize(self, args, result):
        from monosync.coupling import InfeasibilityCertificate
        if isinstance(result, InfeasibilityCertificate):
            self.count("coupling.realize.infeasible")

    def _on_linprog_solve(self, args, result):
        columns, b = args[0], args[1]
        self.count("linprog.rows", len(b))
        self.count("linprog.cols", len(columns))
        x = getattr(result, "x", None)
        if x is not None:
            self.count("linprog.feasible_cols", len(columns))
            self.count("linprog.atoms", len(x))

    def _on_synchronize_sync(self, args, result):
        self.count("synchronize.cells",
                   sum(phi.L for phi in result.values()))

    def _on_synchronize_verify(self, args, result):
        if getattr(result, "ok", True) is False:  # a failed Verdict
            self.count("synchronize.verify.failed")

    def _on_rng_cell(self, args, result):
        self.count("rng.cells")
        t = args[1]
        if t > self._draw_max_t:
            self._draw_max_t = t

    def _on_cftp_sample(self, args, result):
        if isinstance(result, str):  # one draw, not a sample_many batch
            self.count("cftp.draws")
            self.count("cftp.epochs",
                       int(math.log2(max(self._draw_max_t, 1))) + 1)
            self._draw_max_t = 0

    def _on_cli_command(self, args, result):
        self.count("cli.commands")

    # --- report --------------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        return sum(a[2] for k, a in self.agg.items()
                   if k == prefix or k.startswith(prefix + "."))

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0,))[0])

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts.get
        lp_calls = self.calls("linprog.solve")
        draws = c("cftp.draws", 0)
        m = {f"{layer}.self_s": (self.self_s(layer), "s") for layer in LAYERS}
        m.update({
            "poset.up_sets.calls": (self.calls("poset.up_sets"), "count"),
            "poset.up_sets.count": (c("poset.up_sets.count", 0), "count"),
            "poset.up_sets.self_s": (self.self_s("poset.up_sets"), "s"),
            "poset.extremal.calls": (self.calls("poset.extremal"), "count"),
            "poset.extremal.self_s": (self.self_s("poset.extremal"), "s"),
            "coupling.tuples.count": (c("coupling.tuples.count", 0), "count"),
            "coupling.tuples.self_s": (self.self_s("coupling.tuples"), "s"),
            "coupling.realize.self_s": (self.self_s("coupling.realize"), "s"),
            "coupling.realize.infeasible": (
                c("coupling.realize.infeasible", 0), "count"),
            "coupling.dominance.calls": (
                self.calls("coupling.dominance"), "count"),
            "coupling.dominance.self_s": (
                self.self_s("coupling.dominance"), "s"),
            "linprog.calls": (lp_calls, "count"),
            "linprog.rows": (c("linprog.rows", 0) / max(lp_calls, 1),
                             "count/call"),
            "linprog.cols": (c("linprog.cols", 0) / max(lp_calls, 1),
                             "count/call"),
            "linprog.support_ratio": (
                c("linprog.atoms", 0) / max(c("linprog.feasible_cols", 0), 1),
                "ratio"),
            "synchronize.sync.self_s": (self.self_s("synchronize.sync"), "s"),
            "synchronize.verify.self_s": (
                self.self_s("synchronize.verify"), "s"),
            "synchronize.verify.failed": (
                c("synchronize.verify.failed", 0), "count"),
            "synchronize.cells": (c("synchronize.cells", 0), "count"),
            "synchronize.synchronizable.self_s": (
                self.self_s("synchronize.synchronizable"), "s"),
            "cftp.build.self_s": (self.self_s("cftp.build"), "s"),
            "cftp.check.self_s": (self.self_s("cftp.check"), "s"),
            "cftp.sample.self_s": (self.self_s("cftp.sample"), "s"),
            "cftp.draws": (draws, "count"),
            "cftp.cells_per_draw": (c("rng.cells", 0) / max(draws, 1),
                                    "count/draw"),
            "cftp.epochs_per_draw": (c("cftp.epochs", 0) / max(draws, 1),
                                     "count/draw"),
            "rng.cells": (c("rng.cells", 0), "count"),
            "formats.parse.self_s": (self.self_s("formats.parse"), "s"),
            "formats.serialize.self_s": (
                self.self_s("formats.serialize"), "s"),
            "cli.commands": (c("cli.commands", 0), "count"),
            "bench.self_s": (self.self_s("bench"), "s"),
        })
        return m
