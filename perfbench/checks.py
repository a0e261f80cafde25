"""Exact output checks, written apart from the package they check.

Every checker returns ``None`` when the object is correct and a short
reason string when it is not.  None of them uses ``assert``, so they keep
working under ``python -O``; and none of them calls the package's own
checkers (``check_coupling``, ``verify_certificate``,
``check_grand_coupling``, ``verify_synchronized``), whose verdicts are
the thing under test.  Posets are read only through their ``elements``
and ``relation`` data; measures only through ``of``.
"""

from __future__ import annotations

import itertools
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Mapping, Sequence

F0 = Fraction(0)


def strict_pairs(poset) -> list[tuple[str, str]]:
    return sorted((a, b) for (a, b) in poset.relation if a != b)


def cover_pairs(poset) -> set[tuple[str, str]]:
    rel = poset.relation
    els = poset.elements
    return {
        (a, b) for (a, b) in rel
        if a != b and not any(
            z not in (a, b) and (a, z) in rel and (z, b) in rel for z in els)
    }


def is_up_set(poset, subset) -> bool:
    return all(b in subset for (a, b) in poset.relation if a in subset)


def mass_of(measure, subset) -> Fraction:
    return sum((measure.of(x) for x in subset), F0)


# --- couplings and certificates -------------------------------------------

def check_coupling(system, index_order: Sequence[str],
                   atoms: Mapping[tuple[str, ...], Fraction]) -> str | None:
    """Positive weights summing to one, order-preserving tuples, and
    marginals equal to the system's measures, all exactly."""
    A, S = system.index_poset, system.state_poset
    if tuple(index_order) != tuple(A.elements):
        return "coupling index order differs from the index poset"
    s_rel = S.relation
    a_pairs = strict_pairs(A)
    pos = {a: i for i, a in enumerate(index_order)}
    total = F0
    marg: dict[tuple[str, str], Fraction] = {}
    for tup, w in atoms.items():
        if len(tup) != len(index_order):
            return f"atom {tup} has the wrong length"
        if not w > 0:
            return f"atom {tup} has weight {w}"
        for s in tup:
            if s not in S.elements:
                return f"atom {tup} names unknown state {s!r}"
        for a, b in a_pairs:
            if (tup[pos[a]], tup[pos[b]]) not in s_rel:
                return f"atom {tup} breaks the order at {a} <= {b}"
        total += w
        for a, s in zip(index_order, tup):
            marg[(a, s)] = marg.get((a, s), F0) + w
    if total != 1:
        return f"weights sum to {total}"
    for a in A.elements:
        want = system.measure_of(a)
        for s in S.elements:
            if marg.get((a, s), F0) != want.of(s):
                return f"marginal at ({a}, {s}) is {marg.get((a, s), F0)}"
    return None


def monotone_tuples(index_poset, state_poset) -> list[tuple[str, ...]]:
    """Every order-preserving map, by backtracking over the strict pairs."""
    idx = index_poset.elements
    s_rel = state_poset.relation
    below = {a: [b for b in idx[:i] if (b, a) in index_poset.relation]
             for i, a in enumerate(idx)}
    above = {a: [b for b in idx[:i] if (a, b) in index_poset.relation]
             for i, a in enumerate(idx)}
    out: list[tuple[str, ...]] = []
    chosen: dict[str, str] = {}

    def extend(i: int) -> None:
        if i == len(idx):
            out.append(tuple(chosen[a] for a in idx))
            return
        a = idx[i]
        for s in state_poset.elements:
            if all((chosen[b], s) in s_rel for b in below[a]) and all(
                    (s, chosen[b]) in s_rel for b in above[a]):
                chosen[a] = s
                extend(i + 1)
        chosen.pop(a, None)

    extend(0)
    return out


def check_certificate(system, dual: Mapping[tuple[str, str], Fraction],
                      gap: Fraction) -> str | None:
    """A Farkas vector: nonpositive on every monotone tuple, positive on
    the right-hand side, and the stated gap equals that inner product."""
    A, S = system.index_poset, system.state_poset
    for (a, s) in dual:
        if a not in A.elements or s not in S.elements:
            return f"dual entry ({a}, {s}) outside the system"
    for tup in monotone_tuples(A, S):
        contracted = sum(
            (dual.get((a, s), F0) for a, s in zip(A.elements, tup)), F0)
        if contracted > 0:
            return f"dual is positive ({contracted}) on tuple {tup}"
    rhs = sum((w * system.measure_of(a).of(s) for (a, s), w in dual.items()),
              F0)
    if not rhs > 0:
        return f"dual has nonpositive gap {rhs}"
    if rhs != gap:
        return f"stated gap {gap} differs from {rhs}"
    return None


# --- cell tables -------------------------------------------------------------

def inverse_cells(measure, order: Sequence[str], L: int) -> list[str] | None:
    """The inverse transform on L cells along a linear extension, or None
    when some mass is not a multiple of 1/L."""
    out: list[str] = []
    for x in order:
        n = measure.of(x) * L
        if n.denominator != 1:
            return None
        out.extend([x] * int(n))
    return out


def check_cell_table(rows: Mapping[str, Sequence[str]],
                     measures: Mapping[str, object], L: int,
                     index_poset, state_poset) -> str | None:
    """Row per index with L cells: each row's cell counts reproduce its
    measure times L, and comparable indices are ordered on every cell."""
    s_rel = state_poset.relation
    for a in index_poset.elements:
        row = rows.get(a)
        if row is None or len(row) != L:
            return f"row {a} missing or not {L} cells long"
        counts: dict[str, int] = {}
        for s in row:
            counts[s] = counts.get(s, 0) + 1
        if set(counts) - set(state_poset.elements):
            return f"row {a} names unknown states"
        for s in state_poset.elements:
            if counts.get(s, 0) != measures[a].of(s) * L:
                return f"row {a} gives state {s} {counts.get(s, 0)} cells"
    for a, b in strict_pairs(index_poset):
        ra, rb = rows[a], rows[b]
        for i in range(L):
            if (ra[i], rb[i]) not in s_rel:
                return f"cell {i} breaks the order at {a} <= {b}"
    return None


def check_phis(system, perms: Mapping[str, Sequence[int]],
               order: Sequence[str]) -> str | None:
    """Cell permutations composed with the inverse transforms give a
    table with the right marginals and pointwise order."""
    A = system.index_poset
    if set(perms) != set(A.elements):
        return "permutations do not cover the indices"
    sizes = {len(p) for p in perms.values()}
    if len(sizes) != 1:
        return f"permutations on different grids {sorted(sizes)}"
    (L,) = sizes
    rows: dict[str, list[str]] = {}
    for a, perm in perms.items():
        if sorted(perm) != list(range(L)):
            return f"phi {a} is not a bijection"
        raw = inverse_cells(system.measure_of(a), order, L)
        if raw is None:
            return f"grid {L} cannot carry the measure at {a}"
        rows[a] = [raw[perm[i]] for i in range(L)]
    return check_cell_table(rows, system.measures, L, A, system.state_poset)


def count_naive_violations(system, order: Sequence[str], L: int) -> int:
    """Cells times comparable index pairs out of order under the raw
    inverse transforms."""
    s_rel = system.state_poset.relation
    rows = {a: inverse_cells(system.measure_of(a), order, L)
            for a in system.index_poset.elements}
    return sum(
        1 for i in range(L) for a, b in strict_pairs(system.index_poset)
        if (rows[a][i], rows[b][i]) not in s_rel)


def check_update_table(kern, L: int,
                       update: Mapping[str, Sequence[str]]) -> str | None:
    """A grand coupling: the kernel rows as a measure system indexed by
    the state poset itself."""
    S = kern.state_poset
    return check_cell_table(update, kern.rows, L, S, S)


# --- dominance ---------------------------------------------------------------

def check_pair_dominance(system, dominated: bool, witness,
                         strassen) -> str | None:
    """Cross-check the dominance verdict of a pair system, reached by
    up-set enumeration, with the Strassen max-flow, and prove whichever
    side holds exactly: a coupling on ordered pairs for dominance, or an
    up-set ``U`` with ``P_1(U) > P_2(U)`` against it."""
    if dominated:
        if strassen is None:
            return "up-sets say dominated, the flow says not"
        return check_coupling(system, ("1", "2"), strassen.atoms)
    if strassen is not None:
        return "up-sets say not dominated, the flow found a coupling"
    poset = system.state_poset
    if witness is None or not is_up_set(poset, witness):
        return f"witness {witness} is not an up-set"
    p1, p2 = system.measure_of("1"), system.measure_of("2")
    if not mass_of(p1, witness) > mass_of(p2, witness):
        return f"witness {sorted(witness)} does not separate the measures"
    return None


# --- perfect sampling --------------------------------------------------------

def cftp_replay(update: Mapping[str, Sequence[str]], states: Sequence[str],
                sampler, max_epoch: int = 2**30) -> str | None:
    """Coupling from the past with full-state tracking, replayed on the
    same cell stream: the draw a correct sampler must return."""
    T = 1
    while T <= max_epoch:
        cur = {x: x for x in states}
        for t in range(T, 0, -1):
            c = sampler.cell_at(t)
            cur = {x: update[cur[x]][c] for x in states}
        values = set(cur.values())
        if len(values) == 1:
            return values.pop()
        T *= 2
    return None


def chi_square_pooled(groups) -> tuple[float, int, float]:
    """Pooled chi-square of observed counts against exact laws.

    ``groups`` holds ``(counts, law)`` pairs.  Within each group, states
    whose expected count is below five are merged into one bin; the
    statistics and degrees of freedom then add up across groups.
    Returns ``(statistic, df, p_value)``.
    """
    stat = 0.0
    df = 0
    for counts, law in groups:
        n = sum(counts.values())
        bins: list[tuple[float, int]] = []
        small_exp, small_obs = 0.0, 0
        for s in law.domain():
            p = law.of(s)
            if p == 0:
                if counts.get(s, 0):
                    return math.inf, 1, 0.0
                continue
            e = n * float(p)
            if e < 5:
                small_exp += e
                small_obs += counts.get(s, 0)
            else:
                bins.append((e, counts.get(s, 0)))
        if small_exp > 0:
            bins.append((small_exp, small_obs))
        stat += sum((o - e) ** 2 / e for e, o in bins)
        df += len(bins) - 1
    if df <= 0:
        return stat, df, 1.0
    from scipy.stats import chi2
    return stat, df, float(chi2.sf(stat, df))


# --- classification ----------------------------------------------------------

def poset_class(poset) -> str:
    """Z, W, BY or NonAcyclicOrDisconnected from the cover graph alone."""
    els = poset.elements
    edges = cover_pairs(poset)
    adj: dict[str, set[str]] = {x: set() for x in els}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {els[0]}
    stack = [els[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(els) or len(edges) != len(els) - 1:
        return "NonAcyclicOrDisconnected"
    if all(len(adj[x]) <= 2 for x in els):
        return "Z"
    rel = poset.relation
    for x in els:
        if len(adj[x]) >= 3:
            has_below = any(z != x and (z, x) in rel for z in els)
            has_above = any(z != x and (x, z) in rel for z in els)
            if has_below and has_above:
                return "BY"
    return "W"


def synchronizable(poset, cap: int = 20000) -> bool | None:
    """Both interlacing graphs carry a locally connected spanning tree.

    Exhaustive over edge subsets of the right size; None when that
    search would examine more than ``cap`` subsets.  The maximal side is
    the minimal side of the reversed order.
    """
    els = poset.elements
    for order in (poset.relation, {(b, a) for a, b in poset.relation}):
        def lt(a, b):
            return a != b and (a, b) in order

        verts = [x for x in els if not any(lt(z, x) for z in els)]
        edges = [
            (a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
            if any(lt(a, c) and lt(b, c) for c in els)
        ]
        principal = {
            frozenset(v for v in verts if v == c or lt(v, c)) for c in els}
        principal = [d for d in principal if len(d) >= 2]
        k = len(verts) - 1
        if k == 0:
            continue
        if math.comb(len(edges), k) > cap:
            return None
        if not any(
                _spans(verts, tree) and all(
                    _spans(sorted(d), [e for e in tree
                                       if e[0] in d and e[1] in d])
                    for d in principal)
                for tree in itertools.combinations(edges, k)):
            return False
    return True


def _spans(verts, edges) -> bool:
    """The edges connect all the given vertices."""
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    joined = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joined += 1
    return joined == len(verts) - 1


# --- files the command line writes ------------------------------------------

def parse_atoms(text: str) -> dict[tuple[str, ...], Fraction] | None:
    atoms: dict[tuple[str, ...], Fraction] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[0] != "atom":
            return None
        atoms[tuple(parts[1].split(","))] = Fraction(parts[2])
    return atoms


def parse_certificate(text: str):
    dual: dict[tuple[str, str], Fraction] = {}
    gap = None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "dual":
            dual[(parts[1], parts[2])] = Fraction(parts[3])
        elif len(parts) == 2 and parts[0] == "gap":
            gap = Fraction(parts[1])
        else:
            return None
    return (dual, gap) if gap is not None else None


def parse_perm(text: str) -> list[int] | None:
    lines = [ln.split() for ln in text.splitlines()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "cells":
        return None
    L = int(lines[0][1])
    perm = [-1] * L
    for parts in lines[1:]:
        if len(parts) != 3 or parts[0] != "map":
            return None
        perm[int(parts[1])] = int(parts[2])
    return perm


def well_formed_svg(text: str) -> bool:
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return False
    return root.tag.endswith("svg")
