"""The seeded workloads: inputs, the build phase, and the items.

Every workload turns a seed into a fixed list of items (a text dump of
its inputs is written to the work directory and digested), builds what
its items reuse, and is then run in passes over all items.
``run_item(i)`` times one item; it is a pure function of the seed and
``i``, so every pass, and a traced replay, repeats the same work.  An
item holds one or more ops, each with its own key.

The first run of an item is checked exactly by ``checks.py``; later runs
must reproduce the first run's outputs.  Latency counts only time spent
in calls into ``monosync``; the checks run after the clock stops.

Calls into the package go through module attributes (``coupling.realize``
rather than an imported name), so the tracer's patches reach them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
from monosync import cftp, cli, coupling, formats, generate, poset
from monosync import rng as mrng
from monosync.measure import rational_measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "data"
GOLDEN = HERE / "golden" / "cli.json"


class Clock:
    """Sums the time spent inside ``with clock:`` blocks.

    ``span`` is the tracer's root-span hook; it stays None in untraced
    runs, so timing costs two clock reads per block.
    """

    def __init__(self):
        self.elapsed = 0.0
        self.span = None
        self._t0 = 0.0

    def __enter__(self):
        if self.span is not None:
            self.span.enter("bench.op")
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        dt = perf_counter() - self._t0
        self.elapsed += dt
        if self.span is not None:
            self.span.leave(dt)
        return False


def fill(text: str, out: Path) -> str:
    """Put the data/ and output directories in for ``{DATA}``, ``{OUT}``."""
    return text.replace("{DATA}", str(DATA)).replace("{OUT}", str(out))


def run_cli(argv: list[str], out: Path, clock: Clock):
    """Run ``cli.main(argv)`` in-process, timed by ``clock``, with ``out``
    emptied first; returns (exit code, stdout, stderr, written files)."""
    if out.exists():
        shutil.rmtree(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        with clock:
            rc = cli.main(argv)
    files = {}
    if out.exists():
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(out.iterdir())}
    return rc, stdout.getvalue(), stderr.getvalue(), files


def report(label: str, reason: str | None) -> bool:
    """True when ``reason`` is None; otherwise print it and give False."""
    if reason is not None:
        print(f"check failed: {label}: {reason}", file=sys.stderr)
        return False
    return True


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def dump_poset(p) -> str:
    pairs = " ".join(f"{a}<{b}" for a, b in sorted(p.relation) if a != b)
    return f"poset {' '.join(p.elements)} | {pairs}"


def dump_measure(label: str, m) -> str:
    return f"measure {label} " + " ".join(
        f"{x}={_frac(m.of(x))}" for x in m.domain())


def dump_system(s) -> list[str]:
    return [dump_poset(s.index_poset), dump_poset(s.state_poset)] + [
        dump_measure(a, s.measure_of(a)) for a in s.index_poset.elements]


def mixture_kernel(state_poset, rows, weight: Fraction):
    """Rows mixed with the uniform law: full support, hence ergodic, and
    still stochastically monotone."""
    els = state_poset.elements
    u = Fraction(1, len(els))
    return cftp.kernel(state_poset, {
        x: rational_measure(els, {
            s: (1 - weight) * rows[x].of(s) + weight * u for s in els})
        for x in els})


def w6_mixture_kernel():
    """The data/w6 poset with rows 1/12 + 1/2 on the diagonal: a fixed
    class-W kernel whose build goes through realize and synchronization."""
    w6 = formats.parse_poset(DATA / "w6.poset")
    els = w6.elements
    return cftp.kernel(w6, {
        s: rational_measure(els, {
            t: Fraction(1, 12) + (Fraction(1, 2) if t == s else 0)
            for t in els})
        for s in els})


class Workload:
    name = ""
    BUILDS_PER_PASS = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.clock = Clock()
        self.inputs: list[str] = []
        self.first: dict[int, tuple[object, list[bool]]] = {}
        self.n_items = 0
        self.generate()
        text = "\n".join(self.inputs) + "\n"
        (workdir / "inputs.txt").write_text(text, encoding="utf-8")
        self.digest = hashlib.sha256(text.encode()).hexdigest()[:16]

    def generate(self) -> None:
        raise NotImplementedError

    def kernels_to_build(self):
        """The kernels the build phase times; by default the fixed w6
        mixture, so that every workload reports a ``build_s``."""
        return [w6_mixture_kernel()]

    def build(self, before_kernel=None) -> tuple[int, int]:
        """Build every kernel once more, calling ``before_kernel()``, if
        given, before each; returns (builds, failed builds).

        The first table of each kernel is checked exactly and later
        builds must reproduce it.  ``build_times[j]`` lists the times of
        kernel ``j``'s builds: the worker rebuilds during the passes, so
        the builds are spread over the run and a stretch of machine noise
        cannot slow all of them."""
        kernels = self.kernels_to_build()
        if not hasattr(self, "tables"):
            self.tables = [None] * len(kernels)
            self.build_times = [[] for _ in kernels]
        failed = 0
        for j, k in enumerate(kernels):
            if before_kernel is not None:
                before_kernel()
            t0 = self.clock.elapsed
            with self.clock:
                gc = cftp.build_grand_coupling(k)
            self.build_times[j].append(self.clock.elapsed - t0)
            first = self.tables[j]
            if not isinstance(gc, cftp.GrandCoupling):
                ok = report("build", f"kernel {j} gave {gc!r:.80}")
            elif first is None:
                ok = report(f"table {j}", checks.check_update_table(
                    k, gc.L, gc.update))
                self.tables[j] = gc if ok else None
            else:
                ok = gc.update == first.update or report(
                    f"table {j}", "rebuild differs from the first build")
            failed += not ok
        return len(kernels), failed

    def run_item(self, i: int):
        """Run item ``i`` once: returns (list of (key, latency), output
        signature, context for the first-run check)."""
        raise NotImplementedError

    def check_item(self, i: int, context) -> list[bool]:
        """Exact checks of the first run of item ``i``, one flag per op."""
        raise NotImplementedError

    def step(self, i: int) -> list[tuple[object, float, bool]]:
        ops, signature, context = self.run_item(i)
        seen = self.first.get(i)
        if seen is None:
            oks = self.check_item(i, context)
            self.first[i] = (signature, oks)
        elif signature == seen[0]:
            oks = seen[1]
        else:
            report(f"item {i}", "output differs from its first run")
            oks = [False] * len(ops)
        return [(key, dt, ok) for (key, dt), ok in zip(ops, oks)]

    def finish(self) -> int:
        """End-of-run checks over everything produced; returns failed ops."""
        return 0


# --- cftp --------------------------------------------------------------------

class Cftp(Workload):
    """Lazy walks on chains (class Z, hundreds of cells per draw) and
    class-W kernels mixed with the uniform row (about one cell per draw).

    An item is one ``sample_many`` batch on one kernel; a pass is
    ``ROUNDS`` batches on every kernel, each round with its own seed.
    Chain lengths and kernel sizes are fixed, the seed picks the step
    probabilities, the W posets and their rows.  Z draws are a fifth of
    all draws, so the median op is a W draw and p90 a Z draw.
    """

    name = "cftp"
    Z_LENGTHS = (8, 10, 12, 14, 16)
    Z_PER_LENGTH = 4
    Z_DENOM = 16
    W_SIZES = (4,) * 48
    W_DENOM = 4
    Z_DRAWS = 2
    W_DRAWS = 3
    ROUNDS = 100
    CHI2_P_MIN = 1e-6

    def generate(self):
        rng = random.Random(self.seed)
        self.kernels = []
        for n in self.Z_LENGTHS:
            for _ in range(self.Z_PER_LENGTH):
                self.kernels.append(("Z", self._lazy_walk(rng, n)))
        for n in self.W_SIZES:
            S = generate.random_class_w(rng, n)
            rows = generate.random_monotone_system_chain(
                rng, S, S, self.W_DENOM).measures
            self.kernels.append(("W", mixture_kernel(S, rows, Fraction(1, 2))))
        for kind, k in self.kernels:
            self.inputs.append(f"kernel {kind} {dump_poset(k.state_poset)}")
            self.inputs += [dump_measure(x, k.row(x))
                            for x in k.state_poset.elements]
        self.n_items = self.ROUNDS * len(self.kernels)
        self.counts = [dict() for _ in self.kernels]

    def _lazy_walk(self, rng, n):
        """Birth-death chain stepping up and down with probability 4/16
        or 5/16 each, so it holds at least 6/16: monotone."""
        D = self.Z_DENOM
        els = tuple(f"s{i}" for i in range(n))
        rows = {}
        for i, x in enumerate(els):
            up = rng.randrange(4, 6) if i < n - 1 else 0
            down = rng.randrange(4, 6) if i > 0 else 0
            m = {x: Fraction(D - up - down, D)}
            if up:
                m[els[i + 1]] = Fraction(up, D)
            if down:
                m[els[i - 1]] = Fraction(down, D)
            rows[x] = rational_measure(els, m)
        return cftp.kernel(poset.chain(els), rows)

    def kernels_to_build(self):
        return [k for _, k in self.kernels]

    def _draws(self, j: int) -> int:
        return self.Z_DRAWS if self.kernels[j][0] == "Z" else self.W_DRAWS

    def run_item(self, i):
        j = i % len(self.kernels)
        gc = self.tables[j]
        n = self._draws(j)
        if gc is None:
            return [((i, s), 0.0) for s in range(n)], None, None
        seed = (self.seed * 1_000_003 + i // len(self.kernels)) * 1_009 + j
        lat: list[float] = []
        inner = cftp.cftp_sample

        def timed(*args, **kwargs):
            t = perf_counter()
            out = inner(*args, **kwargs)
            lat.append(perf_counter() - t)
            return out

        cftp.cftp_sample = timed
        t0 = self.clock.elapsed
        try:
            with self.clock:
                draws = cftp.sample_many(gc, seed, n)
        finally:
            cftp.cftp_sample = inner
        # the batch's time outside the draws (the ergodicity check) is
        # shared out evenly, so the latencies add up to the clock
        extra = (self.clock.elapsed - t0 - sum(lat)) / n
        return ([((i, s), dt + extra) for s, dt in enumerate(lat)], draws,
                (j, seed, draws))

    def check_item(self, i, context):
        if context is None:
            return [False] * self._draws(i % len(self.kernels))
        j, seed, draws = context
        gc = self.tables[j]
        ok = [True] * len(draws)
        states = self.kernels[j][1].state_poset.elements
        for s, d in enumerate(draws):
            want = checks.cftp_replay(
                gc.update, states, mrng.CellSampler(gc.L, seed, s))
            if want != d:
                ok[s] = report("draw", f"kernel {j} stream {s}: "
                               f"{d!r}, replay gives {want!r}")
        tally = self.counts[j]
        for d in draws:
            tally[d] = tally.get(d, 0) + 1
        return ok

    def finish(self):
        groups = []
        failed = 0
        for (kind, k), tally in zip(self.kernels, self.counts):
            if not tally:
                continue
            law = cftp.stationary_exact(k)
            if not report("stationary law", stationary_reason(k, law)):
                failed += sum(tally.values())
                continue
            groups.append((tally, law))
        stat, df, p = checks.chi_square_pooled(groups)
        print(f"chi_square pooled {stat:.3f} df {df} p {p:.4g}",
              file=sys.stderr)
        if not p >= self.CHI2_P_MIN:
            report("chi-square", f"p = {p} below {self.CHI2_P_MIN}")
            failed += sum(sum(t.values()) for t, _ in groups)
        return failed


def stationary_reason(kern, law) -> str | None:
    """The law is a probability vector fixed by the kernel, exactly."""
    els = kern.state_poset.elements
    if sum((law.of(x) for x in els), Fraction(0)) != 1:
        return "law does not sum to one"
    for y in els:
        flow = sum((law.of(x) * kern.row(x).of(y) for x in els), Fraction(0))
        if flow != law.of(y):
            return f"law is not stationary at {y}"
    return None


# --- cli-mixed ---------------------------------------------------------------

class CliMixed(Workload):
    """``monosync.cli.main`` in-process on files written at setup.

    Each variant adds eleven commands: ``check`` on a wide pair system
    whose upper measure is pushed up from the lower one (dominated) and
    on one whose measures are drawn apart (mostly not dominated),
    ``check`` on a monotone but unrealizable diamond system and on one
    over the kite, ``classify`` on four random posets, ``synchronize`` on
    a class-W pair system, and two golden commands on the data/
    fixtures.  Sorted by latency, five commands of a variant lie below
    the not-dominated ``check`` (the four ``classify`` and, on average,
    one of the golden ones) and five above it, so the median op falls
    in the middle of the not-dominated checks.  Their latency varies
    little from seed to seed; the ``synchronize`` commands, on seeded W
    posets of three sizes, vary most, and the median must not lie at
    their edge.
    """

    name = "cli-mixed"
    # its one kernel takes about a second to build: two builds a pass
    # give the median of its builds more samples
    BUILDS_PER_PASS = 2
    WIDE_N = 11
    WIDE_DENSITY = 0.12
    WIDE_DENOM = 8
    CLASSIFY_SIZES = (5, 6, 7, 6)
    SYNC_SIZES = (5, 6, 7)
    SYNC_DENOM = 6
    VARIANTS = 64

    def generate(self):
        rng = random.Random(self.seed)
        d = self.workdir / "in"
        d.mkdir()
        self.poset_files: dict[str, str] = {}
        self.golden = json.loads(GOLDEN.read_text())
        self.golden_mismatch = 0
        self.out = self.workdir / "out"
        base = formats.parse_system(DATA / "diamond_infeasible.system")
        cert = checks.parse_certificate(
            (DATA / "diamond_infeasible.cert").read_text())
        kite = self._kite()
        self.items: list[tuple[str, object, object]] = []
        for v in range(self.VARIANTS):
            for kind in ("wide_dom", "wide_not"):
                S = generate.random_poset(rng, self.WIDE_N, self.WIDE_DENSITY)
                p1 = generate.random_measure(rng, S, self.WIDE_DENOM)
                if kind == "wide_dom":
                    p2 = generate.up_moves(rng, p1, S, 2 * self.WIDE_DENOM,
                                           self.WIDE_DENOM)
                else:
                    p2 = generate.random_measure(rng, S, self.WIDE_DENOM)
                self._add_system(d, kind, v, coupling.pair_system(p1, p2, S))
            for states in (None, kite):
                self._add_system(d, "cyclic", v, self._farkas_variant(
                    rng, base, cert, states))
            for n in self.CLASSIFY_SIZES:
                P = generate.random_poset(rng, n, rng.choice((0.2, 0.35, 0.5)))
                path = d / f"classify{v}-{len(self.items)}.poset"
                path.write_text(formats.serialize_poset(P))
                self.inputs.append(dump_poset(P))
                self.items.append(("classify", path, P))
            n = self.SYNC_SIZES[v % len(self.SYNC_SIZES)]
            S = generate.random_class_w(rng, n)
            p1 = generate.random_measure(rng, S, self.SYNC_DENOM)
            p2 = generate.up_moves(rng, p1, S, 2 * self.SYNC_DENOM,
                                   self.SYNC_DENOM)
            self._add_system(d, "synchronize", v,
                             coupling.pair_system(p1, p2, S))
            for j in (v, v + len(self.golden) // 2):
                self.items.append(("golden", j % len(self.golden), None))
        self.n_items = len(self.items)

    @staticmethod
    def _kite():
        """The diamond with one more element above its top: a cyclic
        cover graph on five states."""
        return poset.validate_poset(
            ("bot", "a", "b", "top", "peak"),
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"),
             ("top", "peak")])

    def _farkas_variant(self, rng, base, cert, kite):
        """Mix the infeasible data/ diamond system with a seeded monotone
        one.  The data/ certificate ``y`` still certifies the mixture
        ``(1 - e) P + e Q`` whenever ``(1 - e) y.b_P + e y.b_Q > 0``, so
        every variant is monotone and unrealizable by construction.  On
        the kite the extra top state gets no mass."""
        dual, gap = cert
        D = base.index_poset
        Q = generate.random_monotone_system(rng, D, D, 5)
        yq = sum((w * Q.measure_of(a).of(s) for (a, s), w in dual.items()),
                 Fraction(0))
        e = max(x for x in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5),
                            Fraction(1, 3)) if (1 - x) * gap + x * yq > 0)
        states = kite if kite is not None else D
        measures = {
            a: rational_measure(states.elements, {
                s: (1 - e) * base.measure_of(a).of(s)
                + e * Q.measure_of(a).of(s) for s in D.elements})
            for a in D.elements}
        return coupling.measure_system(D, states, measures)

    def _poset_file(self, d: Path, P) -> str:
        """The name of a file holding ``P``, written once per distinct
        poset (the pair index, the diamond and the kite recur)."""
        text = formats.serialize_poset(P)
        name = self.poset_files.get(text)
        if name is None:
            name = self.poset_files[text] = f"p{len(self.poset_files)}.poset"
            (d / name).write_text(text)
        return name

    def _add_system(self, d: Path, kind: str, v: int, s) -> None:
        stem = f"{kind}{v}-{len(self.items)}"
        labels = {a: f"m{a}" for a in s.index_poset.elements}
        (d / f"{stem}.measures").write_text(formats.serialize_measures(
            {labels[a]: s.measure_of(a) for a in s.index_poset.elements}))
        (d / f"{stem}.system").write_text(formats.serialize_system(
            self._poset_file(d, s.index_poset),
            self._poset_file(d, s.state_poset), [f"{stem}.measures"],
            labels))
        self.inputs += [f"system {stem}"] + dump_system(s)
        self.items.append((kind, d / f"{stem}.system", s))

    def _argv(self, kind: str, path) -> list[str]:
        out = str(self.out)
        if kind == "golden":
            return [fill(a, self.out) for a in self.golden[path]["argv"]]
        if kind == "classify":
            return ["classify", "--poset", str(path)]
        if kind == "synchronize":
            return ["synchronize", "--system", str(path), "--out", out]
        return ["check", "--system", str(path), "--out", out]

    def run_item(self, i):
        kind, path, obj = self.items[i]
        t0 = self.clock.elapsed
        result = run_cli(self._argv(kind, path), self.out, self.clock)
        dt = self.clock.elapsed - t0
        return [(i, dt)], (result[:3], tuple(result[3].items())), result

    def check_item(self, i, result):
        kind, path, obj = self.items[i]
        rc, text, err, files = result
        if kind == "golden":
            reason = self._golden_reason(path, result)
            if reason:
                self.golden_mismatch += 1
        elif kind == "classify":
            reason = f"exit {rc}" if rc else classify_reason(obj, text)
        elif kind == "synchronize":
            reason = f"exit {rc}" if rc else self._sync_reason(
                obj, text, files)
        else:
            reason = self._check_reason(obj, rc, text, files)
        return [report(f"{kind} item {i}", reason)]

    def _golden_reason(self, j, result) -> str | None:
        case = self.golden[j]
        if result != (case["exit"], fill(case["stdout"], self.out),
                      fill(case["stderr"], self.out), case["files"]):
            return f"{' '.join(case['argv'])} differs from its golden output"
        cert = result[3].get("certificate.txt")
        if cert is not None and cert != (
                DATA / "diamond_infeasible.cert").read_text():
            return "certificate differs from data/diamond_infeasible.cert"
        return None

    def _check_reason(self, s, rc, text, files) -> str | None:
        lines = text.splitlines()
        pair = s.index_poset.elements == ("1", "2")
        if lines[:1] == ["not stochastically monotone"]:
            if rc != 1 or len(lines) != 2 or not pair:
                return f"exit {rc} with {lines}"
            parts = lines[1].split()
            witness = frozenset(parts[3].split(",")) if len(parts) == 4 \
                else None
            return checks.check_pair_dominance(
                s, False, witness, coupling.strassen_coupling(
                    s.measure_of("1"), s.measure_of("2"), s.state_poset))
        if lines[:1] != ["stochastically monotone"]:
            return f"unexpected output {lines[:2]}"
        if pair:
            reason = checks.check_pair_dominance(
                s, True, None, coupling.strassen_coupling(
                    s.measure_of("1"), s.measure_of("2"), s.state_poset))
            if reason:
                return reason
        if lines[1:2] == ["realizable"]:
            atoms = checks.parse_atoms(files.get("coupling.txt", ""))
            if rc != 0 or atoms is None or lines[2:3] != [
                    f"atoms {len(atoms)}"]:
                return f"exit {rc}, lines {lines}, files {sorted(files)}"
            return checks.check_coupling(s, s.index_poset.elements, atoms)
        if lines[1:2] == ["not realizable"]:
            cert = checks.parse_certificate(files.get("certificate.txt", ""))
            if rc != 1 or cert is None:
                return f"exit {rc}, files {sorted(files)}"
            return checks.check_certificate(s, *cert)
        return f"unexpected output {lines}"

    def _sync_reason(self, s, text, files) -> str | None:
        lines = text.splitlines()
        S = s.state_poset
        _, ext = poset.root_tree(S, poset.default_root(S))
        perms = {}
        for a in s.index_poset.elements:
            perm = checks.parse_perm(files.get(f"phi_{a}.txt", ""))
            if perm is None:
                return f"missing or malformed phi_{a}.txt"
            perms[a] = perm
        naive = checks.count_naive_violations(s, ext.order, len(perms["1"]))
        want = [f"naive_violations {naive}"] + [
            f"phi {a} {self.out / f'phi_{a}.txt'}"
            for a in s.index_poset.elements] + ["verified true"]
        if lines != want:
            return f"stdout {lines} != {want}"
        svgs = [n for n in files if n.endswith(".svg")]
        if len(svgs) != 2 + len(perms) or not all(
                checks.well_formed_svg(files[n]) for n in svgs):
            return f"svg files {svgs} missing or malformed"
        return checks.check_phis(s, perms, ext.order)


def classify_reason(P, text: str) -> str | None:
    lines = text.splitlines()
    want_head = [f"elements {len(P.elements)}"] + [
        f"cover {a} {b}" for a, b in sorted(checks.cover_pairs(P))] + [
        f"class {checks.poset_class(P)}"]
    if lines[:-1] != want_head:
        return f"stdout {lines[:-1]} != {want_head}"
    sync = checks.synchronizable(P)
    if sync is None:
        return "poset too large for the brute-force synchronizability check"
    if lines[-1:] != [f"synchronizable {'true' if sync else 'false'}"]:
        return f"{lines[-1:]} but brute force says {sync}"
    return None


WORKLOADS = {w.name: w for w in (Cftp, CliMixed)}
