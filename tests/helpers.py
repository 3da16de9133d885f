"""Helpers shared by the test modules."""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil, comb, lcm
from typing import Iterable, Iterator
from unittest import mock

from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import GrInstance, SubsetScanReport, materialize
from ordersize.core import (
    Hypergraph,
    OrderedGraph,
    bits_of,
    iter_subset_counts,
    mask_of,
    unrank_combination,
    vertex_set,
)
from ordersize.errors import Budget, BudgetExhausted, SearchFailed, at_least, ensure
from ordersize import hbuilder, stepdown
from ordersize.hbuilder import (
    BuildError,
    CertNode,
    ClaimReport,
    DSequence,
    HConstruction,
    _SINGLE,
    _nested_tree,
    build_H,
    cert_disjoint,
    cert_join,
    clique_node,
    d_sequence,
    empty_node,
    ln_bounds,
)
from ordersize.rng import SeededRNG
from ordersize.search import (
    HomogeneousWitness,
    SpencerResult,
    Star,
    StarSearchResult,
    _cliques,
    _greedy_clique,
    _max_clique,
    spencer_independent,
)
from ordersize.spectrum import (
    RealizeResult,
    SpectrumReport,
    WeightedWitness,
    WeightFrame,
    _first_edge_in,
    _flip_kind,
    _weighted_r3_m4f2,
    _weighted_r3_m5f5,
)
from ordersize.stepdown import DEFAULT_INTERMEDIATE_CAP, StepResult, step_once, step_to_pairs
from ordersize.structure import HomogenizedFamily, PairFamily, _density01, _uniform, maybe_density
from ordersize.values import (
    CubicParams,
    GeneralParams,
    ValueCountReport,
    _square_sums,
    cubic_basis,
    g_r,
)


def weak_compositions(m: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered ``parts``-tuples of nonnegative integers summing to m."""
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in weak_compositions(m - first, parts - 1):
            yield (first,) + rest


def iter_combinations_from(rank: int, count: int, n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield ``count`` consecutive lexicographic k-combinations starting at rank."""
    if count <= 0:
        return
    cur = list(unrank_combination(rank, n, k))
    yield tuple(cur)
    for _ in range(count - 1):
        # lexicographic successor
        i = k - 1
        while i >= 0 and cur[i] == n - k + i:
            i -= 1
        if i < 0:
            return
        cur[i] += 1
        for j in range(i + 1, k):
            cur[j] = cur[j - 1] + 1
        yield tuple(cur)


@dataclass(frozen=True)
class FrozensetOrderedGraph:
    """The ordered graph as it was stored before rows: a frozenset of pairs.

    Kept as the oracle of ``ordersize.core.OrderedGraph``; every method is the
    pair-set version, with ``adj`` derived from the pairs.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        canon = set()
        for e in edges:
            a, b = sorted(int(v) for v in e)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a < 0 or b >= n:
                raise ValueError(f"edge ({a}, {b}) out of range [0, {n})")
            canon.add((a, b))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for a, b in self.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return tuple(rows)

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return (min(a, b), max(a, b)) in self.edges

    def complement(self) -> "FrozensetOrderedGraph":
        return FrozensetOrderedGraph(
            self.n,
            (p for p in combinations(range(self.n), 2) if p not in self.edges),
        )

    def induced(self, subset: Iterable[int]) -> "FrozensetOrderedGraph":
        s = vertex_set(subset, self.n)
        relabel = {v: i for i, v in enumerate(s)}
        kept = [
            (relabel[a], relabel[b])
            for a, b in self.edges
            if a in relabel and b in relabel
        ]
        return FrozensetOrderedGraph(len(s), kept)

    def is_clique(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        return all(self.has_edge(a, b) for a, b in combinations(s, 2))

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        return all(not self.has_edge(a, b) for a, b in combinations(s, 2))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted([list(e) for e in self.edges])}


# --- value-counter oracles: the walks and the DP the kernels replaced ------------


def walk_form_values(m: int, coeffs: tuple, const: int) -> tuple[set[int], tuple, tuple]:
    """Scaled distinct values of coeffs . (Ta, Tb, Tc, Td, T3, E2) + const over
    every positive composition of m, walked in lexicographic order, with the
    first composition reaching the min and the max."""
    ca, cb, cc, cd, c3, ce = coeffs
    values: set[int] = set()
    best = {"min": None, "max": None}
    path: list[int] = []

    def rec(rem, p1, p2, e2, ta, tb, tc, td, t3):
        if rem == 0:
            val = ca * ta + cb * tb + cc * tc + cd * td + c3 * t3 + ce * e2 + const
            values.add(val)
            if best["min"] is None or val < best["min"][0]:
                best["min"] = (val, tuple(path))
            if best["max"] is None or val > best["max"][0]:
                best["max"] = (val, tuple(path))
            return
        for v in range(1, rem + 1):
            path.append(v)
            rec(rem - v, p1 + v, p2 + v * v, e2 + v * p1, ta + v * v * p1,
                tb + v * p2, tc + v * e2, td + v * v, t3 + v * v * v)
            path.pop()

    rec(m, 0, 0, 0, 0, 0, 0, 0, 0)
    return values, best["min"], best["max"]


def pair_state_form_values(
    m: int,
    coeffs: tuple[int, int, int, int, int, int],
    const: int,
) -> tuple[int, tuple, tuple]:
    """``values._count_form_values`` by the memoised DP it replaced: one
    state per prefix sums (p1, p2), or per p1 alone when cb == cc == 0,
    each the union of its children's sets shifted by the part's increment."""
    ca, cb, cc, cd, c3, ce = coeffs
    keyed_on_p2 = bool(cb or cc)
    memo: dict = {}

    def step(v: int, p1: int, p2: int) -> int:
        e2 = (p1 * p1 - p2) >> 1
        return v * (ca * v * p1 + cb * p2 + cc * e2 + cd * v + c3 * v * v + ce * p1)

    def reach(p1: int, p2: int) -> tuple[int, int]:
        key = (p1, p2) if keyed_on_p2 else p1
        hit = memo.get(key)
        if hit is not None:
            return hit
        if p1 == m:
            out = (0, 1)
        else:
            kids = []
            for v in range(1, m - p1 + 1):
                lo, bits = reach(p1 + v, p2 + v * v)
                kids.append((lo + step(v, p1, p2), bits))
            lo = min(k[0] for k in kids)
            bits = 0
            for klo, kbits in kids:
                bits |= kbits << (klo - lo)
            out = (lo, bits)
        memo[key] = out
        return out

    def witness(target: int) -> tuple[int, ...]:
        # greedy descent: the smallest part whose suffix still reaches the
        # target gives the lexicographically first composition
        path = []
        p1 = p2 = 0
        while p1 < m:
            for v in range(1, m - p1 + 1):
                lo, bits = reach(p1 + v, p2 + v * v)
                rest = target - step(v, p1, p2)
                if rest >= lo and bits >> (rest - lo) & 1:
                    break
            path.append(v)
            target = rest
            p1 += v
            p2 += v * v
        return tuple(path)

    lo, bits = reach(0, 0)
    hi = lo + bits.bit_length() - 1
    return bits.bit_count(), (lo + const, witness(lo)), (hi + const, witness(hi))


def tuple_table_form_values(
    m: int,
    coeffs: tuple[int, int, int, int, int, int],
    const: int,
) -> tuple[int, tuple, tuple]:
    """``values._count_form_values`` as it was before the flat lists: one
    ``(lo, bits)`` tuple per p1, and a ``step`` and a ``child`` call per part."""
    ca, cb, cc, cd, c3, ce = coeffs
    slope = 2 * cb - cc
    table: list[tuple[int, int]] = [(0, 1)] * (m + 1)

    def step(v: int, p1: int, p2: int) -> int:
        e2 = (p1 * p1 - p2) >> 1
        return v * (ca * v * p1 + cb * p2 + cc * e2 + cd * v + c3 * v * v + ce * p1)

    def child(v: int, p1: int, p2: int) -> tuple[int, int]:
        q1, q2 = p1 + v, p2 + v * v
        lo, bits = table[q1]
        return lo + slope * ((q2 - q1) // 2) * (m - q1), bits

    for p1 in range(m - 1, -1, -1):
        kids = []
        for v in range(1, m - p1 + 1):
            lo, bits = child(v, p1, p1)
            kids.append((lo + step(v, p1, p1), bits))
        lo = min(k[0] for k in kids)
        bits = 0
        for klo, kbits in kids:
            bits |= kbits << (klo - lo)
        table[p1] = (lo, bits)

    def witness(target: int) -> tuple[int, ...]:
        path = []
        p1 = p2 = 0
        while p1 < m:
            for v in range(1, m - p1 + 1):
                lo, bits = child(v, p1, p2)
                rest = target - step(v, p1, p2)
                if rest >= lo and bits >> (rest - lo) & 1:
                    break
            path.append(v)
            target = rest
            p1 += v
            p2 += v * v
        return tuple(path)

    lo, bits = table[0]
    hi = lo + bits.bit_length() - 1
    return bits.bit_count(), (lo + const, witness(lo)), (hi + const, witness(hi))


def _fraction_scale(fracs) -> tuple[list[int], int]:
    den = lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs], den


def walk_cubic_report(p: CubicParams, m: int) -> ValueCountReport:
    """``count_cubic_values`` by the composition walk."""
    (ca, cb, cc, cd, ce), den = _fraction_scale(p.astuple())
    values, vmin, vmax = walk_form_values(m, (ca, cb, cc, cd, 0, ce), 0)
    return ValueCountReport(m, p.astuple(), len(values), "positive-compositions",
                            Fraction(vmin[0], den), Fraction(vmax[0], den), vmin[1], vmax[1])


def walk_general_report(g: GeneralParams, m: int) -> ValueCountReport:
    """``count_general_values`` by the composition walk."""
    ints, den = _fraction_scale([-g.C, g.C, Fraction(0), g.A * m + g.D, g.B, Fraction(0), g.E])
    ca, cb, cc, cd, c3, ce, e0 = ints
    values, vmin, vmax = walk_form_values(m, (ca, cb, cc, cd, c3, ce), e0)
    return ValueCountReport(m, (g.A, g.B, g.C, g.D, g.E), len(values), "positive-compositions",
                            Fraction(vmin[0], den), Fraction(vmax[0], den), vmin[1], vmax[1])


def loop_pair_form_report(m: int) -> ValueCountReport:
    """``count_pair_form_values`` by the double loop over square-sum pairs."""
    values: set[int] = set()
    best_min = best_max = None
    for a_total in range(m + 1):
        b_total = m - a_total
        for sa in _square_sums(a_total):
            pa = (a_total * a_total - sa) // 2
            for sb in _square_sums(b_total):
                pb = (b_total * b_total - sb) // 2
                val = a_total * pb + b_total * pa
                values.add(val)
                if best_min is None or val < best_min[0]:
                    best_min = (val, (a_total, sa, b_total, sb))
                if best_max is None or val > best_max[0]:
                    best_max = (val, (a_total, sa, b_total, sb))
    return ValueCountReport(m, ("pair-form",), len(values), "square-sum-states",
                            Fraction(best_min[0]), Fraction(best_max[0]), best_min[1], best_max[1])


def old_pair_form_splits(m: int) -> list[int]:
    """``values._pair_form_splits`` by one shift-OR per square sum."""
    splits = []
    for a_total in range(m + 1):
        b_total = m - a_total
        b_bits = 0
        for sb in _square_sums(b_total):
            b_bits |= 1 << a_total * ((b_total * b_total - sb) // 2)
        bits = 0
        for sa in _square_sums(a_total):
            bits |= b_bits << b_total * ((a_total * a_total - sa) // 2)
        splits.append(bits)
    return splits


def old_stage_caps(r: int, ell: int | None) -> list[int | None]:
    """``stepdown._stage_caps`` with every power built in full and no cut at
    n; the first cap has 2^C(1023, 3) bits at r = 5, ell = 6."""
    stages = r - 2
    caps: list[int | None] = [None] * stages
    caps[-1] = ell
    for i in range(stages - 2, -1, -1):
        nxt = caps[i + 1]
        if nxt is None:
            caps[i] = DEFAULT_INTERMEDIATE_CAP
        else:
            q_next = r - (i + 1)
            caps[i] = max(nxt, 2 ** comb(nxt - 1, q_next - 1))
    return caps


def fraction_cubic_form(p: CubicParams, x) -> Fraction:
    """``cubic_form`` in Fraction arithmetic on the unscaled coefficients."""
    if any(v < 0 for v in x):
        raise ValueError("coordinates must be nonnegative")
    ta, tb, tc, td, te = cubic_basis(x)
    return p.a * ta + p.b * tb + p.c * tc + p.d * td + p.e * te


def fraction_general_form(g: GeneralParams, m: int, x) -> Fraction:
    """``general_form`` in Fraction arithmetic on the unscaled coefficients."""
    if any(v < 0 for v in x):
        raise ValueError("coordinates must be nonnegative")
    ta, tb, _tc, td, _te = cubic_basis(x)
    t3 = sum(v * v * v for v in x)
    return (g.A * m + g.D) * td + g.B * t3 + g.C * (tb - ta) + g.E


def scan_pattern_weight_exists(r: int, m: int, f: int, k: int) -> bool:
    """``pattern_weight_exists`` by the scan over all 2^npairs edge sets."""
    frame = WeightFrame(r, m, k)
    ps = list(frame.positions)
    weights = [frame.weight(ps[a], ps[b]) for a, b in combinations(range(len(ps)), 2)]
    for pick in range(1 << len(weights)):
        total = 0
        x = pick
        while x:
            low = x & -x
            total += weights[low.bit_length() - 1]
            x ^= low
        if total == f:
            return True
    return False


# --- blow-up family oracles: the per-triple builders the block builders replaced ----


def triple_type_family(
    part_sizes: list[int], a: int, b: int, c: int, d: int
) -> tuple[Hypergraph, list[tuple[int, ...]]]:
    """``build_type_family`` by classifying every triple by its owners' parts."""
    for v in (a, b, c, d):
        if v not in (0, 1):
            raise ValueError("type densities must be 0 or 1")
    parts: list[tuple[int, ...]] = []
    start = 0
    for size in part_sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    n = start
    owner = [0] * n
    for idx, part in enumerate(parts):
        for v in part:
            owner[v] = idx
    edges = []
    for t in combinations(range(n), 3):
        p, q, s = owner[t[0]], owner[t[1]], owner[t[2]]
        if p == q == s:
            keep = d
        elif p == q:
            keep = b
        elif q == s:
            keep = a
        else:
            keep = c
        if keep:
            edges.append(t)
    return Hypergraph(3, n, edges), parts


def triple_pair_family(
    num_pairs: int,
    part_size: int,
    a1: int,
    a2: int,
    b1: int,
    b2: int,
    cs: tuple[int, int, int, int, int, int],
    c7: int = 0,
    c8: int = 0,
) -> tuple[Hypergraph, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``build_pair_family`` by classifying every triple by its owners' sorted labels."""
    for v in (a1, a2, b1, b2, c7, c8) + tuple(cs):
        if v not in (0, 1):
            raise ValueError("type densities must be 0 or 1")
    a_parts: list[tuple[int, ...]] = []
    b_parts: list[tuple[int, ...]] = []
    start = 0
    for _ in range(num_pairs):
        a_parts.append(tuple(range(start, start + part_size)))
        start += part_size
        b_parts.append(tuple(range(start, start + part_size)))
        start += part_size
    n = start
    owner: list[tuple[int, str]] = [(0, "A")] * n
    for idx in range(num_pairs):
        for v in a_parts[idx]:
            owner[v] = (idx, "A")
        for v in b_parts[idx]:
            owner[v] = (idx, "B")
    c_by_kind = {
        ("A", "A", "B"): cs[0],
        ("A", "B", "A"): cs[1],
        ("A", "B", "B"): cs[2],
        ("B", "A", "A"): cs[3],
        ("B", "A", "B"): cs[4],
        ("B", "B", "A"): cs[5],
        ("A", "A", "A"): c7,
        ("B", "B", "B"): c8,
    }
    edges = []
    for t in combinations(range(n), 3):
        labels = sorted(owner[v] for v in t)
        (i1, k1), (i2, k2), (i3, k3) = labels
        if labels[0] == labels[1] or labels[1] == labels[2]:
            continue  # a set hit twice spans nothing
        if i1 == i2:  # kinds must be (A, B); third has larger index
            keep = b1 if k3 == "A" else b2
        elif i2 == i3:  # third (smaller index) relates to the pair (A_j, B_j)
            keep = a1 if k1 == "A" else a2
        else:
            keep = c_by_kind[(k1, k2, k3)]
        if keep:
            edges.append(t)
    return Hypergraph(3, n, edges), a_parts, b_parts


def all_edges_type_count(part_sizes, x, a: int, b: int, c: int) -> int:
    """The type blow-up's direct count as it was: every edge of the built
    family tested for lying inside the chosen vertices."""
    h, parts = build_type_family(list(part_sizes), a, b, c, 0)
    chosen = {v for part, xi in zip(parts, x) for v in part[:xi]}
    return sum(map(chosen.issuperset, h.edges))


def all_edges_mixed_count(b1: int, b2: int, cs, part_size: int, x, eps: int) -> int:
    """The paired blow-up's direct count as it was, over every built edge."""
    t = len(x)
    h, a_parts, b_parts = build_pair_family(t + eps, part_size, 1, 1, b1, b2, cs)
    chosen = {v for i in range(t) for v in a_parts[i][: x[i]] + b_parts[i][: x[i]]}
    if eps:
        chosen.update(a_parts[t][:1])
    return sum(map(chosen.issuperset, h.edges))


# --- structure-finder oracles: the per-type density lists the type tables replaced ---


def listed_family_rows(h: Hypergraph, sets) -> list[dict]:
    """``HomogenizedFamily.verification_rows`` with each type's sets written out."""
    rows = []
    for i in range(len(sets)):
        rows.append({"type": "d", "indices": (i,), "value": maybe_density(h, sets[i], sets[i], sets[i])})
    for i, j in combinations(range(len(sets)), 2):
        rows.append({"type": "a", "indices": (i, j), "value": maybe_density(h, sets[i], sets[j], sets[j])})
        rows.append({"type": "b", "indices": (i, j), "value": maybe_density(h, sets[i], sets[i], sets[j])})
    for i, j, k in combinations(range(len(sets)), 3):
        rows.append({"type": "c", "indices": (i, j, k), "value": maybe_density(h, sets[i], sets[j], sets[k])})
    return rows


def listed_pair_rows(h: Hypergraph, a, b) -> list[dict]:
    """``PairFamily.verification_rows`` with each type's sets written out."""
    rows = []
    n = len(a)
    for i, j in combinations(range(n), 2):
        rows.append({"type": "a1", "indices": (i, j), "value": maybe_density(h, a[i], a[j], b[j])})
        rows.append({"type": "a2", "indices": (i, j), "value": maybe_density(h, b[i], a[j], b[j])})
        rows.append({"type": "b1", "indices": (i, j), "value": maybe_density(h, a[i], b[i], a[j])})
        rows.append({"type": "b2", "indices": (i, j), "value": maybe_density(h, a[i], b[i], b[j])})
    for i, j, k in combinations(range(n), 3):
        rows.append({"type": "c1", "indices": (i, j, k), "value": maybe_density(h, a[i], a[j], b[k])})
        rows.append({"type": "c2", "indices": (i, j, k), "value": maybe_density(h, a[i], b[j], a[k])})
        rows.append({"type": "c3", "indices": (i, j, k), "value": maybe_density(h, a[i], b[j], b[k])})
        rows.append({"type": "c4", "indices": (i, j, k), "value": maybe_density(h, b[i], a[j], a[k])})
        rows.append({"type": "c5", "indices": (i, j, k), "value": maybe_density(h, b[i], a[j], b[k])})
        rows.append({"type": "c6", "indices": (i, j, k), "value": maybe_density(h, b[i], b[j], a[k])})
        rows.append({"type": "c7", "indices": (i, j, k), "value": maybe_density(h, a[i], a[j], a[k])})
        rows.append({"type": "c8", "indices": (i, j, k), "value": maybe_density(h, b[i], b[j], b[k])})
    return rows


def listed_verify(rows: list[dict], constants: dict) -> bool:
    """The ``verify`` loop both families carried: every defined row value
    equals its type's constant."""
    for row in rows:
        want = constants[row["type"]]
        got = row["value"]
        if got is None:
            continue
        if want is None or got != want:
            return False
    return True


def listed_nondistinct_zero(h: Hypergraph, a_sets, b_sets) -> bool:
    """``PairFamily.nondistinct_zero`` over every set and ordered pair of sets."""
    all_sets = list(a_sets) + list(b_sets)
    for s in all_sets:
        if maybe_density(h, s, s, s) not in (None, 0):
            return False
    for s, t in combinations(all_sets, 2):
        for x, y in ((s, t), (t, s)):
            if maybe_density(h, x, x, y) not in (None, 0):
                return False
    return True


def listed_homogenize_types(h: Hypergraph, sets, m: int) -> HomogenizedFamily:
    """``homogenize_types`` with its d, a, b and c tables built by hand."""
    sets = [tuple(s) for s in sets]
    ell = len(sets)
    if m > ell:
        raise SearchFailed(
            f"need {m} indices but only {ell} sets given", reason="ell too small"
        )
    selfd = [_density01(h, s, s, s) for s in sets]
    pair_a: dict[tuple[int, int], int | None] = {}
    pair_b: dict[tuple[int, int], int | None] = {}
    for i, j in combinations(range(ell), 2):
        pair_a[(i, j)] = _density01(h, sets[i], sets[j], sets[j])
        pair_b[(i, j)] = _density01(h, sets[i], sets[i], sets[j])
    trip: dict[tuple[int, int, int], int | None] = {}
    for i, j, k in combinations(range(ell), 3):
        trip[(i, j, k)] = _density01(h, sets[i], sets[j], sets[k])

    for combo in combinations(range(ell), m):
        ok_d, vd = _uniform([selfd[i] for i in combo])
        if not ok_d:
            continue
        ok_a, va = _uniform([pair_a[(i, j)] for i, j in combinations(combo, 2)])
        ok_b, vb = _uniform([pair_b[(i, j)] for i, j in combinations(combo, 2)])
        if not (ok_a and ok_b):
            continue
        ok_c, vc = _uniform([trip[t] for t in combinations(combo, 3)])
        if not ok_c:
            continue
        fam_sets = tuple(sets[i] for i in combo)
        consts = {"a": va, "b": vb, "c": vc, "d": vd}
        ensure(listed_verify(listed_family_rows(h, fam_sets), consts), "homogenized family")
        return HomogenizedFamily(fam_sets, consts)
    raise SearchFailed(
        "no index subset with uniform type densities",
        reason="ell too small for requested m",
        detail={"ell": ell, "m": m},
    )


LISTED_PAIR_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")


def listed_homogenize_pair_types(h: Hypergraph, pairs, m: int) -> PairFamily:
    """``homogenize_pair_types`` with its four pair and eight triple colors
    built by hand."""
    a_sets = [tuple(p[0]) for p in pairs]
    b_sets = [tuple(p[1]) for p in pairs]
    ell = len(pairs)
    if m > ell:
        raise SearchFailed(
            f"need {m} indices but only {ell} pairs given", reason="ell too small"
        )
    pair_color: dict[tuple[int, int], tuple] = {}
    for i, j in combinations(range(ell), 2):
        pair_color[(i, j)] = (
            _density01(h, a_sets[i], a_sets[j], b_sets[j]),
            _density01(h, b_sets[i], a_sets[j], b_sets[j]),
            _density01(h, a_sets[i], b_sets[i], a_sets[j]),
            _density01(h, a_sets[i], b_sets[i], b_sets[j]),
        )
    trip_color: dict[tuple[int, int, int], tuple] = {}
    for i, j, k in combinations(range(ell), 3):
        a, b = a_sets, b_sets
        trip_color[(i, j, k)] = (
            _density01(h, a[i], a[j], b[k]),
            _density01(h, a[i], b[j], a[k]),
            _density01(h, a[i], b[j], b[k]),
            _density01(h, b[i], a[j], a[k]),
            _density01(h, b[i], a[j], b[k]),
            _density01(h, b[i], b[j], a[k]),
            _density01(h, a[i], a[j], a[k]),
            _density01(h, b[i], b[j], b[k]),
        )
    for combo in combinations(range(ell), m):
        consts: dict[str, int | None] = {}
        ok = True
        for slot in range(4):
            good, val = _uniform([pair_color[(i, j)][slot] for i, j in combinations(combo, 2)])
            if not good:
                ok = False
                break
            consts[LISTED_PAIR_NAMES[slot]] = val
        if not ok:
            continue
        for slot in range(8):
            good, val = _uniform([trip_color[t][slot] for t in combinations(combo, 3)])
            if not good:
                ok = False
                break
            consts[LISTED_PAIR_NAMES[4 + slot]] = val
        if not ok:
            continue
        fam_a = tuple(a_sets[i] for i in combo)
        fam_b = tuple(b_sets[i] for i in combo)
        ensure(listed_verify(listed_pair_rows(h, fam_a, fam_b), consts), "pair family")
        return PairFamily(fam_a, fam_b, consts)
    raise SearchFailed(
        "no index subset with uniform pair-pattern densities",
        reason="ell too small for requested m",
        detail={"ell": ell, "m": m},
    )


# --- H builder and star oracles ---------------------------------------------------


def old_position_weight(r: int, m: int, i: int) -> int:
    """Weight of any pair whose larger position is i (split 1)."""
    return comb(m - i, r - 2)


def old_zero_runs(d: tuple[int, ...], i_star: int, m: int, r: int) -> list[tuple[int, int]]:
    """Maximal runs of zero positions usable as gap interiors.

    A gap (k, l) needs i_star <= k < l <= m-2r+5 with zeros strictly between,
    so interiors live in positions [i_star+1, m-2r+4]. Returns (a, b) runs,
    inclusive."""
    lo, hi = i_star + 1, m - 2 * r + 4
    runs: list[tuple[int, int]] = []
    p = lo
    while p <= hi:
        if d[p - 1] != 0:
            p += 1
            continue
        q = p
        while q + 1 <= hi and d[q] == 0:
            q += 1
        runs.append((p, q))
        p = q + 1
    return runs


def old_find_gap(d: tuple[int, ...], i_star: int, m: int, r: int, min_len: int) -> tuple[int, int] | None:
    """First (k, l) gap of length at least min_len (k = run start - 1)."""
    for a, b in old_zero_runs(d, i_star, m, r):
        if (b - a + 2) >= min_len:
            return (a - 1, b + 1)
    return None


def old_best_gap(d: tuple[int, ...], i_star: int, m: int, r: int) -> tuple[int, int] | None:
    """Longest gap (first such on ties)."""
    best = None
    for a, b in old_zero_runs(d, i_star, m, r):
        if best is None or (b - a) > (best[1] - best[0]):
            best = (a, b)
    if best is None:
        return None
    return (best[0] - 1, best[1] + 1)


def center_star_forest(seq: DSequence, lo: int, hi: int) -> CertNode | None:
    """Monotone star forest on positions lo..hi: each zero position is a
    center whose leaves are the positions up to the next zero (None when the
    range is empty).

    One pass over the centers lays out the disjoint union's children: a run
    of z centers without leaves is one empty leaf of size z, a center with
    one leaf a clique leaf of size 2, and a center with t >= 2 leaves a
    clique host over the center and an empty leaf of size t.
    """
    d = seq.d
    kids: list[CertNode] = []
    bare = 0  # leafless centers not yet laid out
    i = lo
    while i <= hi:  # position i is a center; its leaves run up to the next zero
        j = i + 1
        while j <= hi and d[j - 1]:
            j += 1
        leaves, i = j - i - 1, j
        if not leaves:
            bare += 1
            continue
        if bare:
            kids.append(empty_node(bare))
            bare = 0
        kids.append(clique_node(2) if leaves == 1 else CertNode("clique", 2, (_SINGLE, empty_node(leaves))))
    if bare:
        kids.append(empty_node(bare))
    return cert_disjoint(kids)


def fraction_verify_claim_d(seq: DSequence) -> ClaimReport:
    """``verify_claim_d`` with item (b) in Fractions and ln_bounds evaluated afresh."""
    r, m, f, d = seq.r, seq.m, seq.f, seq.d
    advisory = not (r >= 4 and m >= 5 * r * r)
    details: dict = {}
    items: dict[str, bool] = {}

    items["a"] = seq.i_star is not None and 2 * seq.i_star <= m + r
    details["i_star"] = seq.i_star

    ok_b = seq.i_star is not None
    if seq.i_star is not None:
        for i in range(seq.i_star + 1, seq.length + 1):
            di = seq.at(i)
            # d_i < (r-2)/(m-r+3-i) + 1, exactly in rationals
            if not (Fraction(di) < Fraction(r - 2, m - r + 3 - i) + 1):
                ok_b = False
                details.setdefault("b_violations", []).append(i)
            if di > i - 2:
                ok_b = False
                details.setdefault("b_violations", []).append(i)
            if i <= m - 2 * r + 5 and di > 1:
                ok_b = False
                details.setdefault("b_violations", []).append(i)
    items["b"] = ok_b

    items["c"] = seq.weighted_sum() == f
    details["weighted_sum"] = seq.weighted_sum()

    if seq.i_star is not None:
        _, ln_up = ln_bounds.__wrapped__(2 * (r - 2))
        threshold = 2 * (r - 2) * ln_up
        gap = old_best_gap(d, seq.i_star, m, r)
        items["d"] = gap is not None and Fraction(gap[1] - gap[0]) >= threshold
        details["gap"] = gap
        details["gap_threshold"] = float(threshold)
    else:
        gap = None
        items["d"] = False
        details["gap"] = None
    return ClaimReport(items, advisory, gap, details)


def old_build_H_graph(r: int, m: int, f: int) -> OrderedGraph:
    """The graph ``build_H`` once built edge by edge: a clique prefix, the
    i_star wiring, the middle stars and the tail wired into the gap. Raises
    the BuildError that build did; the inputs must pass build_H's checks."""
    complemented = 2 * f > comb(m, r)
    ftarget = comb(m, r) - f if complemented else f
    seq = d_sequence(r, m, ftarget)
    if seq.i_star is None:
        raise BuildError(
            "no position with a degree drop; m is too small for this f",
            reason="no i_star",
        )
    length = seq.length
    i_star = seq.i_star
    d = seq.at
    edges: list[tuple[int, int]] = []

    def add(i: int, j: int) -> None:
        # positions are 1-based; vertices 0-based
        edges.append((i - 1, j - 1))

    for j in range(2, i_star):
        for i in range(1, j):
            add(i, j)
    for i in range(1, d(i_star) + 1):
        add(i, i_star)

    zeros_seen = [1]  # position 1 always has degree 0
    mid_hi = min(m - 2 * r + 5, length)
    for i in range(i_star, mid_hi + 1):
        if d(i) == 0:
            zeros_seen.append(i)
        elif i > i_star:
            if d(i) != 1:
                raise BuildError(
                    f"middle position {i} has degree {d(i)} > 1",
                    reason="degree pattern violated",
                )
            add(zeros_seen[-1], i)

    tail_lo = m - 2 * r + 6
    big_d = seq.tail_degree_sum
    if tail_lo <= length:
        if seq.gap is None:  # d_sequence's first gap of length at least big_d + 2
            raise BuildError(
                "no zero run long enough to host the tail leaves",
                reason="gap not found",
                detail={"needed": big_d + 2},
            )
        k = seq.gap[0]
        pos = k + 1
        for i in range(length, tail_lo - 1, -1):
            for b in range(d(i)):
                add(pos, i)
                pos += 1
    return OrderedGraph(length, edges)


def _single() -> CertNode:
    return CertNode("empty", 1)


def _monotone_star(leaves: int) -> CertNode:
    if leaves == 0:
        return _single()
    return cert_join([_single(), empty_node(leaves)])


def certify_star_forests(kind: str, shape: list[int]) -> CertNode:
    """Certificates for the two forest shapes.

    ``monotone``: shape lists leaf counts of consecutive stars, each star a
    center followed by its leaves. ``nested``: shape lists leaf block sizes
    L_1..L_t, blocks first in order, then the centers in reverse.
    """
    if not shape:
        raise ValueError("shape must be nonempty")
    if kind == "monotone":
        node = cert_disjoint([_monotone_star(t) for t in shape])
    elif kind == "nested":
        node = _nested_tree(list(shape), None)
    else:
        raise ValueError(f"unknown forest kind {kind!r}")
    ensure(node is not None, "certificate is nonempty")
    return node


def old_star_forest(seq: DSequence, lo: int, hi: int) -> CertNode | None:
    """Monotone star forest on positions lo..hi: each zero position is a
    center whose leaves are the positions up to the next zero (None when the
    range is empty)."""
    stars: list[int] = []
    for i in range(lo, hi + 1):
        if seq.at(i) == 0:
            stars.append(0)
        else:
            stars[-1] += 1
    return cert_disjoint([_monotone_star(t) for t in stars])


_F0 = OrderedGraph(3, [(0, 2)])  # the three-vertex pattern with the single edge 13


def old_expand_certificate(node: CertNode) -> OrderedGraph:
    """Recursive expansion of a substitution tree into an ordered graph.

    A leaf is its host graph. Otherwise each block's rows are shifted to the
    block's offset and ORed with the span masks of the blocks that its host
    vertex is joined to.
    """
    if node.kind == "f0":
        host = _F0
    elif node.kind == "clique":
        host = OrderedGraph(node.size).complement()
    else:
        host = OrderedGraph(node.size)
    if node.is_leaf:
        return host
    blocks = [old_expand_certificate(c) for c in node.children]
    offsets = []
    spans = []
    total = 0
    for b in blocks:
        offsets.append(total)
        spans.append(((1 << b.n) - 1) << total)
        total += b.n
    rows: list[int] = []
    for bi, b in enumerate(blocks):
        joined = 0
        for bj in bits_of(host.adj[bi]):
            joined |= spans[bj]
        rows.extend(row << offsets[bi] | joined for row in b.adj)
    return OrderedGraph._from_rows(total, tuple(rows))


def old_build_H(r: int, m: int, f: int) -> HConstruction:
    """``build_H`` as it laid out the middle forests one ``_monotone_star``
    per center and expanded certificates one host graph per tree node."""
    with mock.patch.object(hbuilder, "_star_forest", old_star_forest), \
            mock.patch.object(hbuilder, "expand_certificate", old_expand_certificate):
        return build_H(r, m, f)


def pairwise_star_verify(star: Star, h: Hypergraph) -> bool:
    """``Star.verify`` by sorting every leaf pair with the center through has_edge."""
    verts = (star.center,) + star.leaves
    if len(set(verts)) != len(verts) or not all(0 <= u < h.n for u in verts):
        return False
    want = not star.anti
    for pair in combinations(star.leaves, 2):
        if h.has_edge(pair + (star.center,)) != want:
            return False
    if star.induced:
        inner = not star.anti  # star: no inner edges; antistar: all inner
        for triple in combinations(star.leaves, 3):
            if h.has_edge(triple) == inner:
                return False
    return True


def per_call_keyed_coloring(seed: int, palette: int = 2):
    """``keyed_coloring`` as it built the keyed blake2b state on every query."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")

    def color(t) -> int:
        h = hashlib.blake2b(key=key, digest_size=8)
        h.update(",".join(map(str, t)).encode())
        return int.from_bytes(h.digest(), "big") % palette

    return color


def chance(rng: SeededRNG, num: int, den: int) -> bool:
    """True with probability num/den: one ``randrange(den)`` draw."""
    return rng.randrange(den) < num


def loop_sample(rng: SeededRNG, population, k: int) -> list:
    """``SeededRNG.sample`` as a per-call loop: the pool is rebuilt and every
    step's range drawn by ``randrange`` on each call."""
    pool = list(range(population)) if isinstance(population, int) else list(population)
    if k > len(pool):
        raise ValueError("sample larger than population")
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def loop_sorted_sample(rng: SeededRNG, population, k: int) -> tuple[int, ...]:
    return tuple(sorted(loop_sample(rng, population, k)))


def old_edge_count_mask(h: Hypergraph, smask: int) -> int:
    """``Hypergraph.edge_count_mask`` as a test of every edge mask."""
    return sum(1 for m in h._edge_masks if m & ~smask == 0)


def old_sampled_spectrum(h: Hypergraph, m: int, samples: int, seed: int) -> SpectrumReport:
    """Sampled ``size_spectrum`` as one ``sorted_sample`` loop draw and one
    edge-mask recount per sample."""
    rng = SeededRNG(seed)
    witnesses: dict[int, tuple[int, ...]] = {}
    for _ in range(samples):
        subset = loop_sorted_sample(rng, h.n, m)
        witnesses.setdefault(old_edge_count_mask(h, mask_of(subset)), subset)
    return SpectrumReport(m, sorted(witnesses), witnesses, "sampled", samples, seed, samples)


def set_spencer_independent(h: Hypergraph, trials: int, seed: int) -> SpencerResult:
    """``spencer_independent`` on vertex sets: one ``chance`` call per vertex
    and a membership test per edge vertex."""
    k, n = h.r, h.n
    if n == 0:
        return SpencerResult((), 0, trials, True)
    if not h.edges:
        return SpencerResult(tuple(range(n)), n, trials, True)
    d = k * len(h.edges) / n
    p = min(1.0, d ** (-1.0 / (k - 1)))
    target = ceil((1 - 1 / k) * n / d ** (1 / (k - 1)))
    rng = SeededRNG(seed)
    den = 1 << 30
    num = int(p * den)
    best: tuple[int, ...] = ()
    edges = sorted(h.edges)
    for _ in range(max(1, trials)):
        kept = set(v for v in range(n) if chance(rng, num, den))
        for e in edges:
            if all(v in kept for v in e):
                kept.discard(max(e))
        if len(kept) > len(best):
            best = tuple(sorted(kept))
    return SpencerResult(best, target, trials, len(best) >= target)


def exhaustive_max_homogeneous(h: Hypergraph) -> int:
    """Top-down scan of all subsets for the largest homogeneous set; the
    oracle of ``max_homogeneous``, only sensible for small n."""
    for size in range(h.n, 1, -1):
        want = comb(size, h.r)
        for s in combinations(range(h.n), size):
            c = h.edge_count(s)
            if c == 0 or c == want:
                return size
    return min(h.n, 1)


def greedy_forward_clique(g: OrderedGraph) -> tuple[int, ...]:
    """Greedy clique: take the smallest remaining vertex, drop its forward
    non-neighbors. When every forward non-neighborhood has fewer than k
    vertices, the clique has at least ceil(n/k).
    """
    chosen = _greedy_clique(g.adj, (1 << g.n) - 1)
    ensure(g.is_clique(chosen), "greedy clique")
    return chosen


def max_independent_set(g: OrderedGraph) -> tuple[int, ...]:
    """Exact maximum independent set of a 2-graph; lexicographically first."""
    return _max_clique(g.complement().adj, (1 << g.n) - 1)


def can_afford(bud: Budget, amount: int) -> bool:
    """Whether ``bud`` can spend ``amount`` more units without raising (the
    ``Budget.can_afford`` method the package no longer calls)."""
    return bud.limit is None or bud.used + amount <= bud.limit


def frame_weighted_total(g: OrderedGraph, u: Iterable[int], frame: WeightFrame) -> int:
    """``spectrum.weighted_total`` as it summed ``frame.weight`` over every
    pair of u, before it read the position-weight row."""
    u = list(u)
    if len(u) != frame.size:
        raise ValueError(f"need {frame.size} vertices, got {len(u)}")
    if any(u[a] >= u[a + 1] for a in range(len(u) - 1)):
        raise ValueError("vertices must be strictly increasing")
    if u and (u[0] < 0 or u[-1] >= g.n):
        raise ValueError(f"vertex set {tuple(u)} out of range [0, {g.n})")
    ps = list(frame.positions)
    total = 0
    for a in range(len(u)):
        for b in range(a + 1, len(u)):
            if g.has_edge(u[a], u[b]):
                total += frame.weight(ps[a], ps[b])
    return total


def combinations_weighted_scan(g: OrderedGraph, mask: int, frame: WeightFrame, f: int,
                               bud: Budget) -> tuple[int, ...] | None:
    """The r >= 4 weighted base-case scan as it was before the prefix sums:
    ``frame_weighted_total`` of each ``combinations`` subset of the vertices
    in ``mask``, one budget unit each."""
    for u in combinations(bits_of(mask), frame.size):
        if not can_afford(bud, 1):
            raise BudgetExhausted("base-case scan budget exhausted", bud.used)
        bud.spend()
        if frame_weighted_total(g, u, frame) == f:
            return u
    return None


def flip_greedy_clique(rows, cand: int, flip: int = 0, pairs: bool = False,
                       highest: bool = False) -> tuple[int, ...]:
    """``search._greedy_clique`` as it read every row through ``flip`` (-1
    for the independent side) before its callers passed complement rows."""
    chosen: list[int] = []
    while cand:
        v = cand.bit_length() - 1 if highest else (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        if pairs:
            for a in chosen:
                cand &= rows[a][v] ^ flip
        else:
            cand &= rows[v] ^ flip
        chosen.append(v)
    return tuple(sorted(chosen))


def has_edge_induced_copy(
    g: OrderedGraph, mask: int, pattern: OrderedGraph, budget: int | None = None
) -> tuple[int, ...] | None:
    """``spectrum.find_induced_ordered_copy`` as it compared ``has_edge`` with
    the pattern for every earlier position, before the one row-mask test."""
    verts = bits_of(mask)
    k, n = pattern.n, len(verts)
    if k > n:
        return None
    bud = Budget(budget)
    image: list[int] = []

    def extend(pos: int, start: int) -> tuple[int, ...] | None:
        if pos == k:
            return tuple(image)
        for i in range(start, n - (k - pos) + 1):
            bud.spend()
            v = verts[i]
            ok = all(
                g.has_edge(image[q], v) == pattern.has_edge(q, pos) for q in range(pos)
            )
            if ok:
                image.append(v)
                hit = extend(pos + 1, i + 1)
                if hit is not None:
                    return hit
                image.pop()
        return None

    return extend(0, 0)


# --- weighted-search oracles: the recursions before they ran on vertex masks -----
#
# ``oracle_weighted_r3`` and ``oracle_weighted_general`` are the r = 3 and
# r >= 4 recursions that ``spectrum._weighted`` replaced; the r >= 4 one built
# an ``induced`` copy for every branch and mapped the answer back. With them
# come the base-case scan and the pattern embedding on the whole graph.


def induced(g: OrderedGraph, subset: Iterable[int]) -> OrderedGraph:
    """The subgraph of g induced on ``subset``, relabeled 0 < 1 < ... in order,
    as ``OrderedGraph.induced`` built it."""
    s = vertex_set(subset, g.n)
    smask = mask_of(s)
    pos = {v: i for i, v in enumerate(s)}
    return OrderedGraph._from_rows(
        len(s), tuple(mask_of(pos[u] for u in bits_of(g.adj[v] & smask)) for v in s)
    )


def oracle_weighted_r3(
    g: OrderedGraph, mask: int, m: int, f: int, h: int
) -> WeightedWitness | HomogeneousWitness:
    """Recursive search; results are stated relative to the graph g passed in."""
    total = comb(m, 3)
    if 2 * f > total:
        out = oracle_weighted_r3(g.complement(), mask, m, total - f, h)
        if isinstance(out, WeightedWitness):
            # same vertex set; weighted totals of a set in g and its
            # complement always sum to C(m, 3)
            return WeightedWitness(out.vertices, 3, m, f)
        return _flip_kind(out)

    nverts = mask.bit_count()

    if m == 3:  # normalized f is 0 here
        ne = _first_edge_in(g.complement().adj, mask)
        if ne is not None:
            return WeightedWitness(ne, 3, 3, 0)
        clique = bits_of(mask)
        if len(clique) >= h:
            return HomogeneousWitness(clique, "clique", True)
        raise SearchFailed(
            "complete graph below the homogeneous target",
            reason="guarantee precondition unmet",
            detail={"m": m, "f": f, "h": h, "vertices": nverts},
        )

    if (m, f) == (4, 2):
        return _weighted_r3_m4f2(g, mask, h)
    if (m, f) == (5, 5):
        return _weighted_r3_m5f5(g, mask, h)

    need = h ** (m - 3)
    for v in bits_of(mask):
        fnn = g.forward_non_neighbors(v, mask)
        if fnn.bit_count() >= need:
            sub = oracle_weighted_r3(g, fnn, m - 1, f, h)
            if isinstance(sub, WeightedWitness):
                # v precedes and is non-adjacent to everything in the witness,
                # so positions shift by one and weights are unchanged
                return WeightedWitness((v,) + sub.vertices, 3, m, f)
            return sub
    clique = _greedy_clique(g.adj, mask)
    if len(clique) >= h:
        return HomogeneousWitness(clique, "clique", True)
    raise SearchFailed(
        "no vertex has a large forward non-neighborhood and the greedy clique is small",
        reason="guarantee precondition unmet",
        detail={"m": m, "f": f, "h": h, "vertices": nverts},
    )


def oracle_weighted_general(g: OrderedGraph, m0: int, r: int, m: int, f: int, h: int, budget):
    total = comb(m, r)
    if 2 * f > total:
        out = oracle_weighted_general(g.complement(), m0, r, m, total - f, h, budget)
        if isinstance(out, WeightedWitness):
            return WeightedWitness(out.vertices, r, m, f)
        return _flip_kind(out)
    if m > m0:
        # descend into forward non-neighborhoods big enough to host the next
        # level, backtracking across candidate vertices; the lemma's size
        # threshold involves untracked constants, so progress is best-effort
        # and the returned postconditions carry the guarantee
        needed = max((m - 1) - r + 2, 1)
        gave_up = None  # the first branch that ran out of budget
        for v in range(g.n):
            fnn = g.forward_non_neighbors(v)
            if fnn.bit_count() >= needed:
                sub_vertices = bits_of(fnn)
                try:
                    sub = oracle_weighted_general(induced(g, sub_vertices), m0, r, m - 1, f, h, budget)
                except SearchFailed:
                    continue
                except BudgetExhausted as e:
                    if gave_up is None:
                        gave_up = e
                    continue
                if isinstance(sub, WeightedWitness):
                    mapped = (v,) + tuple(sub_vertices[i] for i in sub.vertices)
                    return WeightedWitness(mapped, r, m, f)
                return HomogeneousWitness(
                    tuple(sub_vertices[i] for i in sub.set), sub.kind, sub.exact
                )
        clique = greedy_forward_clique(g)
        if len(clique) >= h:
            return HomogeneousWitness(clique, "clique", True)
        if gave_up is not None:
            raise gave_up
        raise SearchFailed(
            "induction step found no structure",
            reason="guarantee precondition unmet",
            detail={"r": r, "m": m, "f": f, "h": h},
        )
    cut = None  # set when the base-case search ran out of budget
    try:
        if m == m0:
            hc = build_H(r, m, f)
            target = g if not hc.complemented else g.complement()
            hit = oracle_find_induced_ordered_copy(target, hc.graph, budget)
        else:
            hit = oracle_weighted_scan(g, WeightFrame(r, m, 1), f, Budget(budget))
    except BudgetExhausted as e:
        cut, hit = e, None
    if hit is not None:
        return WeightedWitness(hit, r, m, f)
    clique = _greedy_clique(g.adj, (1 << g.n) - 1)
    ind = flip_greedy_clique(g.adj, (1 << g.n) - 1, -1)
    best, kind = (clique, "clique") if len(clique) >= len(ind) else (ind, "independent")
    if len(best) >= h:
        return HomogeneousWitness(best, kind, False)
    if cut is not None:
        raise cut
    raise SearchFailed(
        "base-case pattern not found and no large homogeneous set",
        reason="guarantee precondition unmet",
        detail={"r": r, "m": m, "f": f, "h": h},
    )


def oracle_weighted_scan(g: OrderedGraph, frame: WeightFrame, f: int,
                         budget: Budget) -> tuple[int, ...] | None:
    """The lexicographically first ``frame.size``-subset of g's vertices whose
    weighted total is f, or None when there is none.

    Each subset scanned spends one unit of ``budget``; a subset it cannot pay
    for raises BudgetExhausted. Depth d keeps the weighted total of the prefix
    cur[:d], so a lexicographic successor recomputes only the depths from the
    first changed position on, as ``core.iter_subset_counts`` does.
    """
    n, size, adj = g.n, frame.size, g.adj
    if size > n:
        return None
    ps = list(frame.positions)
    weights = [[frame.weight(ps[a], ps[d]) for a in range(d)] for d in range(size)]
    left = None if budget.limit is None else max(budget.limit - budget.used, 0)
    used = 0
    cur = list(range(size))
    sums = [0] * (size + 1)
    first = 0  # shallowest depth whose prefix changed
    try:
        while True:
            if used == left:
                raise BudgetExhausted("base-case scan budget exhausted", budget.used + used)
            used += 1
            for d in range(first, size):
                row = adj[cur[d]]
                t = sums[d]
                for a, w in enumerate(weights[d]):
                    if row >> cur[a] & 1:
                        t += w
                sums[d + 1] = t
            if sums[size] == f:
                return tuple(cur)
            first = size - 1
            while cur[first] == n - size + first:
                first -= 1
                if first < 0:
                    return None
            cur[first] += 1
            for j in range(first + 1, size):
                cur[j] = cur[j - 1] + 1
    finally:
        budget.used += used


def oracle_find_induced_ordered_copy(
    g: OrderedGraph, pattern: OrderedGraph, budget: int | None = None
) -> tuple[int, ...] | None:
    """Order-respecting induced embedding of ``pattern`` into ``g``.

    Backtracking over pattern positions in order; the partial map must match
    adjacency exactly. Returns the image vertices, or None; None proves
    absence only when the budget was not exhausted (exhaustion raises).
    """
    k, n = pattern.n, g.n
    if k > n:
        return None
    bud = Budget(budget)
    image: list[int] = []

    def extend(pos: int, start: int) -> tuple[int, ...] | None:
        if pos == k:
            return tuple(image)
        for v in range(start, n - (k - pos) + 1):
            bud.spend()
            ok = all(
                g.has_edge(image[q], v) == pattern.has_edge(q, pos) for q in range(pos)
            )
            if ok:
                image.append(v)
                hit = extend(pos + 1, v + 1)
                if hit is not None:
                    return hit
                image.pop()
        return None

    return extend(0, 0)


def child_env(hash_seed: str) -> dict[str, str]:
    """Environment for a test subprocess that runs this copy of ordersize."""
    # The child sees only this environment, so it gets the parent's import
    # path explicitly: a checkout run with PYTHONPATH=src then tests the same
    # package as an installed one. PYTHONDONTWRITEBYTECODE passes through when
    # set, so a run that asked for no bytecode cache leaves none in src/. No
    # other variable, PYTHONHASHSEED included, leaks in from the parent.
    import_path = os.pathsep.join(p for p in sys.path if p and os.path.isabs(p))
    env = {"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": import_path}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


# --- the G_r scan layer before the pattern walk took a visit limit ------------------


def old_index_positions(inst: GrInstance, limit: int) -> bool:
    """Build the position masks, unless they are in place: mask a is the OR
    of the a-th vertex over all pattern edges. The build is one full pattern
    DFS that stops once it has visited ``limit`` candidate vertices; then no
    index is kept, and a later call with a larger limit tries again. Stores
    (masks or None, limit) under ``_pos`` in the instance dict. Returns
    whether the masks are in place."""
    cached = inst.__dict__.get("_pos")
    if cached is not None and (cached[0] is not None or cached[1] >= limit):
        return cached[0] is not None
    rows = inst._pattern_rows
    last = inst.r - 1
    pos = [0] * inst.r
    visits = 0

    def extend(depth: int, cands: list[int]) -> bool:
        """Visit the candidates at ``depth``; True when one lies on an edge."""
        nonlocal visits
        c = cands[0]
        later = cands[1:]
        prow = rows[depth]
        hit = False
        while c:
            visits += 1
            if visits > limit:
                return hit
            low = c & -c
            c ^= low
            v = low.bit_length() - 1
            nxt = []
            for mask, row in zip(later, prow):
                mask &= row[v]
                if not mask:
                    break
                nxt.append(mask)
            else:
                if depth + 1 == last:
                    pos[last] |= nxt[0]
                elif not extend(depth + 1, nxt):
                    continue
                pos[depth] |= low
                hit = True
        return hit

    extend(0, [(1 << inst.n) - 1] * inst.r)
    inst.__dict__["_pos"] = (tuple(pos) if visits <= limit else None, limit)
    return visits <= limit


# --- the lexicographic scan kernel before the packed pair-completion tail ------


def old_iter_subset_counts(
    h: Hypergraph, m: int, start: int = 0, count: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """Yield (induced edge count, subset) for consecutive lexicographic m-subsets.

    The scan starts at rank ``start`` and yields ``count`` subsets, by default
    all the rest. The subset is one live list that is rewritten in place
    between yields, so copy it to keep it.

    Depth d keeps the mask and the induced count of the prefix cur[:d]; a
    lexicographic successor recomputes only the depths from the first changed
    position on, so the usual step costs one vertex added to an (m-1)-prefix.
    Adding v to a prefix P adds the edges whose largest vertex is v and whose
    other vertices lie in P: for r = 3 that is the sum over u in P of
    popcount(links[v][u] & P), for other r a test of each rest mask of v.
    """
    n = h.n
    stop = comb(n, m) if count is None else min(comb(n, m), start + count)
    if start >= stop:
        return
    links = h._lower_links if h.r == 3 else None
    rests = h._top_rests if links is None else None
    cur = list(unrank_combination(start, n, m))
    masks = [0] * (m + 1)
    counts = [0] * (m + 1)
    first = 0  # shallowest depth whose prefix changed
    for left in range(stop - start - 1, -1, -1):
        for d in range(first, m):
            v = cur[d]
            below = masks[d]
            c = counts[d]
            if links is not None:
                row = links[v]
                for u in cur[1:d]:  # the prefix minimum has nothing below it
                    c += (row[u] & below).bit_count()
            else:
                for t in rests[v]:
                    if t & below == t:
                        c += 1
            counts[d + 1] = c
            masks[d + 1] = below | 1 << v
        yield counts[m], cur
        if not left:
            return
        first = m - 1
        while cur[first] == n - m + first:
            first -= 1
        cur[first] += 1
        for j in range(first + 1, m):
            cur[j] = cur[j - 1] + 1


def old_check_fact_gr(
    inst: GrInstance,
    m: int,
    mode: str = "auto",
    samples: int = 100_000,
    seed: int = 0,
    exhaustive_cap: int = 10**6,
) -> SubsetScanReport:
    """``check_fact_gr`` with two loops around a ``record`` closure; its
    sampled scan builds the index through ``old_index_positions``."""
    target = g_r(inst.r, m)
    total = comb(inst.n, m)
    advisory = inst.r < 4
    if mode == "auto":
        mode = "exhaustive" if total <= exhaustive_cap else "sampled"
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    max_edges = 0

    def record(c: int, subset) -> None:
        nonlocal max_edges
        histogram[c] = histogram.get(c, 0) + 1
        if c > max_edges:
            max_edges = c
        if c > target:
            violations.append({"subset": list(subset), "edges": c})

    if mode == "exhaustive":
        graph = inst.graph if inst.graph is not None else materialize(inst)
        for c, subset in iter_subset_counts(graph, m):
            record(c, subset)
        return SubsetScanReport(
            inst.r, inst.n, m, "exhaustive", total, None, histogram, max_edges,
            target, violations, advisory,
        )
    # every unindexed sample visits at least its m depth-0 vertices
    old_index_positions(inst, samples * m)
    rng = SeededRNG(seed)
    for _ in range(samples):
        subset = rng.sorted_sample(inst.n, m)
        record(inst.count_in_subset(subset), subset)
    return SubsetScanReport(
        inst.r, inst.n, m, "sampled", samples, seed, histogram, max_edges,
        target, violations, advisory,
    )


def old_scan_counterexample(
    inst: GrInstance, samples: int = 100_000, seed: int = 0, exhaustive_cap: int = 10**6
) -> SubsetScanReport:
    """``scan_counterexample`` on top of ``old_check_fact_gr``."""
    r = inst.r
    m = 2 * r
    forbidden = 2**r - 1
    report = old_check_fact_gr(inst, m, mode="auto", samples=samples, seed=seed,
                               exhaustive_cap=exhaustive_cap)
    hits = report.histogram.get(forbidden, 0)
    violations = list(report.violations)
    if hits:
        violations.append({"count": forbidden, "subsets": hits})
    return SubsetScanReport(
        r, inst.n, m, report.mode, report.samples, report.seed,
        report.histogram, report.max_edges, report.target, violations,
        advisory=r < 5,
    )


# --- the star search that checked every star through Star.verify -----------------


def center_in_first_leaf_set(walk):
    """The clique walk ``walk`` as a star search calls it (on the center's
    pair-link row, with every vertex but the center as a candidate), except
    that the first leaf mask it returns also holds the center."""
    def faulty(rows, cand, *args, **kwargs):
        masks, complete = walk(rows, cand, *args, **kwargs)
        center_bit = ((1 << len(rows)) - 1) ^ cand
        return [masks[0] | center_bit] + masks[1:] if masks else masks, complete
    return faulty


def old_cliques(rows, cand: int, flip: int, size: int, budget: Budget | None = None, avoid=None):
    """``search._cliques`` as it took an ``avoid`` table: a 3-graph's
    pair-link table ``avoid`` keeps just the t-cliques that span no triple of
    it (with ``flip=-1``: all of whose triples are in it); the walk and the
    steps it spends are the same as without it."""
    if size == 0:
        return [0], True
    found: list[int] = []
    last = size - 1  # the last level is settled in one pass
    chosen: list[int] = []  # the clique so far, kept only with avoid
    # steps the budget can still pay for; the walk adds its steps to it once
    left = None if budget is None or budget.limit is None else max(budget.limit - budget.used, 0)
    steps = 0

    def extend(mask: int, depth: int, cand: int, clean: int) -> bool:
        # clean: the candidates that keep the clique so far free of avoided
        # triples (0 once it spans one); without avoid, every candidate
        nonlocal steps
        if depth == last:  # every candidate completes a t-clique
            k = cand.bit_count()
            done = left is None or steps + k <= left
            if not done:
                k = left - steps  # the lowest candidates the budget pays for
            steps += k
            for _ in range(k):
                low = cand & -cand
                cand ^= low
                if low & clean:
                    found.append(mask | low)
            return done
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if depth + 1 + rest.bit_count() <= last:
                return True  # v and every later candidate cannot reach t
            if steps == left:
                return False
            steps += 1
            sub = rest & (rows[v] ^ flip)
            if depth + 1 + sub.bit_count() <= last:
                continue  # the child could only return at once
            sub_clean = clean if low & clean else 0
            if avoid is None:
                done = extend(mask | low, depth + 1, sub, sub_clean)
            else:
                if sub_clean:
                    for a in chosen:
                        sub_clean &= ~(avoid[a][v] ^ flip)
                chosen.append(v)
                done = extend(mask | low, depth + 1, sub, sub_clean)
                chosen.pop()
            if not done:
                return False
        return True

    complete = extend(0, 0, cand, -1)
    if budget is not None:
        budget.used += steps
    return found, complete


def old_star_sets(h: Hypergraph, cand: int, s: int, induced: bool, anti: bool,
                  budget: Budget | None) -> tuple[list[tuple[int, list[int]]], bool]:
    """``search._star_sets`` as it took an ``induced`` flag: leaf masks of
    the stars (or antistars) of size s with center and leaves in the vertex
    mask ``cand``, as (center, leaf masks) for each center in increasing
    order; returns (groups, complete).

    An induced star must span no edge (an antistar every triple), which the
    clique walk ``old_cliques`` tracks on the pair-link rows as it goes. With
    ``induced=False`` this is ``search._star_sets`` as it read every pair-link
    row through ``flip``, before antistars walked the co-link rows.
    """
    if h.r != 3:
        raise ValueError("stars are defined for 3-uniform hypergraphs")
    if s < 0:
        raise ValueError(f"star size s={s} must be nonnegative")
    links = h._pair_links
    flip = -1 if anti else 0
    groups: list[tuple[int, list[int]]] = []
    for v in bits_of(cand):
        leafsets, complete = old_cliques(links[v], cand ^ (1 << v), flip, size=s, budget=budget,
                                         avoid=links if induced else None)
        groups.append((v, leafsets))
        if not complete:
            return groups, False
    return groups, True


def old_find_stars(
    h: Hypergraph,
    s: int,
    want_induced: bool = False,
    want_anti: bool = False,
    budget: int | None = None,
) -> StarSearchResult:
    """Enumerate stars (or antistars) of size s, optionally induced.

    Exhaustive over centers and leaf sets within budget; otherwise a truncated
    list flagged partial. Leaf sets are the s-cliques of the center's pair-link
    row (independent sets for antistars); each extension step spends one unit.
    Every ``Star`` is built and checked through ``Star.verify``.
    """
    bud = Budget(budget)
    groups, complete = old_star_sets(h, (1 << h.n) - 1, s, want_induced, want_anti, bud)
    stars = [Star(v, bits_of(mask), want_induced, want_anti) for v, masks in groups for mask in masks]
    for st in stars:  # a truncated list is checked too
        ensure(st.verify(h), "star")
    return StarSearchResult(tuple(stars), complete, bud.used)


def old_star_free_subset(h: Hypergraph, s: int, trials: int = 200, seed: int = 0) -> tuple[int, ...]:
    """``structure.star_free_subset`` as it took its induced stars from the
    per-center walk with the ``induced`` flag, and re-checked its output by
    walking every center again."""
    at_least(1, trials=trials)
    groups, _complete = old_star_sets(h, (1 << h.n) - 1, s, True, False, None)
    edges = {bits_of(leaves | 1 << v) for v, masks in groups for leaves in masks}
    if not edges:
        return tuple(range(h.n))
    out = spencer_independent(Hypergraph(s + 1, h.n, edges), trials, seed).set
    ensure(not any(masks for _v, masks in old_star_sets(h, mask_of(out), s, True, False, None)[0]),
           "star-free subset")
    return out


# --- the link graphs and counters that only the tests call -----------------------


@dataclass(frozen=True)
class CountReport:
    value: int
    exact: bool
    examined: int


def count_independent_tsets(g: OrderedGraph, t: int) -> int:
    """Exact number of independent t-sets."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return len(_cliques(g.complement().adj, (1 << g.n) - 1, size=t)[0])


def link_graph(h: Hypergraph, v: int) -> OrderedGraph:
    """For a 3-graph: the graph on V minus v with edges {xy : xyv in E}."""
    if h.r != 3:
        raise ValueError("link graphs are defined for 3-uniform hypergraphs")
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range")
    low = (1 << v) - 1  # bit v of a row is clear; the bits above it move down one
    rows = tuple(
        (row & low) | (row >> 1 & ~low) for u, row in enumerate(h._pair_links[v]) if u != v
    )
    return OrderedGraph._from_rows(h.n - 1, rows)


def _ktt_partners(g: OrderedGraph, amask: int, t: int) -> list[int]:
    """Independent t-sets inside the common neighborhood of A.

    Such a set is automatically disjoint from A and completely joined to it,
    so (A, partner) is an induced K_{t,t}.
    """
    common = (1 << g.n) - 1
    for a in bits_of(amask):
        common &= g.adj[a]
    if common.bit_count() < t:
        return []
    return _cliques(g.complement().adj, common, size=t)[0]


def enumerate_induced_ktt(g: OrderedGraph, t: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered induced K_{t,t} part pairs, each as (A, B) with A lex-first."""
    out = []
    for amask in _cliques(g.complement().adj, (1 << g.n) - 1, size=t)[0]:
        for bmask in _ktt_partners(g, amask, t):
            if bmask > amask:
                out.append((bits_of(amask), bits_of(bmask)))
    return out


def _is_complete_between(g: OrderedGraph, amask: int, bmask: int) -> bool:
    for a in bits_of(amask):
        if bmask & ~g.adj[a]:
            return False
    return True


def count_induced_ktt(
    g: OrderedGraph, t: int, budget: int | None = None, seed: int = 0
) -> CountReport:
    """Count unordered pairs of disjoint independent t-sets that are complete
    bipartite to each other. Exact within budget, else a sampled estimate
    (flagged by ``exact=False``), seeded for replay.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    tsets = _cliques(g.complement().adj, (1 << g.n) - 1, size=t)[0]
    total_pairs = len(tsets) * (len(tsets) - 1) // 2
    if budget is None or total_pairs <= budget:
        count = 0
        for amask in tsets:
            count += sum(1 for b in _ktt_partners(g, amask, t) if b > amask)
        return CountReport(count, True, total_pairs)
    rng = SeededRNG(seed)
    hits = 0
    samples = budget
    for _ in range(samples):
        i = rng.randrange(len(tsets))
        j = rng.randrange(len(tsets))
        if i == j:
            continue
        a, b = tsets[i], tsets[j]
        if a & b:
            continue
        if _is_complete_between(g, a, b):
            hits += 1
    ordered_total = len(tsets) * (len(tsets) - 1)
    est = round(hits / samples * ordered_total / 2)
    return CountReport(est, False, samples)


# --- the maximum-clique walk before the suffix-bound table --------------------------


def old_max_clique_walk(rows, cand: int, flip: int = 0, pairs: bool = False) -> tuple[int, ...]:
    """The lexicographically first maximum clique inside ``cand``, by the
    size=None mode of the branch and bound that ``_max_clique`` replaced: a
    candidate-count bound against the largest clique met so far. Its walk is
    unchanged; the budget, ``avoid`` and t-clique branches, which never ran
    in this mode, are left out."""
    found: list[int] = []
    floor = -1
    chosen: list[int] = []  # the clique so far, kept only with pairs

    def extend(mask: int, depth: int, cand: int) -> None:
        nonlocal floor
        if depth > floor:
            floor = depth
            found.append(mask)
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if depth + 1 + rest.bit_count() <= floor:
                return  # v and every later candidate cannot reach past the floor
            if pairs:
                sub = rest
                for a in chosen:
                    sub &= rows[a][v] ^ flip
            else:
                sub = rest & (rows[v] ^ flip)
            if depth + 1 + sub.bit_count() <= floor:
                continue  # the child could only return at once
            if pairs:
                chosen.append(v)
                extend(mask | low, depth + 1, sub)
                chosen.pop()
            else:
                extend(mask | low, depth + 1, sub)

    extend(0, 0, cand)
    return bits_of(found[-1])


def old_max_homogeneous_in(h: Hypergraph, cand: int, exact_limit: int) -> HomogeneousWitness:
    """``search._max_homogeneous_in`` as it ran both sides to the end on the
    old walk."""
    exact = cand.bit_count() <= exact_limit
    search = old_max_clique_walk if exact else flip_greedy_clique
    cl = search(h._pair_links, cand, 0, True)
    ind = search(h._pair_links, cand, -1, True)
    if len(cl) >= len(ind):
        return HomogeneousWitness(cl, "clique", exact)
    return HomogeneousWitness(ind, "independent", exact)


def old_largest_star(h: Hypergraph, anti: bool = False) -> tuple[int, tuple[int, ...]]:
    """``structure.largest_star`` on the old walk."""
    full, flip = (1 << h.n) - 1, -1 if anti else 0
    stars = [(v, old_max_clique_walk(h._pair_links[v], full ^ (1 << v), flip)) for v in range(h.n)]
    return max(stars, key=lambda st: len(st[1]))


def per_center_largest_star(h: Hypergraph, anti: bool = False) -> tuple[int, tuple[int, ...]]:
    """``structure.largest_star`` as it ran both phases of the maximum-clique
    kernel for every center (on the complement's pair-link rows for an
    antistar)."""
    full, links = (1 << h.n) - 1, (h.complement() if anti else h)._pair_links
    stars = [(v, _max_clique(links[v], full ^ (1 << v))) for v in range(h.n)]
    return max(stars, key=lambda st: len(st[1]))  # the first center on ties


# --- the maximum-clique kernel as it read every row through a flip ------------------


def flip_clique_search(rows, flip: int, pairs: bool, c: list[int], chosen: list[int]):
    """``search._clique_search`` as it read every row through ``flip``
    (-1 for independent sets) and kept the clique in ``chosen``:
    extend(need, rest) tells whether need >= 1 vertices of the mask ``rest``,
    all above the clique ``chosen``, extend it, and leaves the
    lexicographically first such extension in ``chosen``."""
    def extend(need: int, rest: int) -> bool:
        while rest:
            if rest.bit_count() < need:
                return False
            low = rest & -rest
            v = low.bit_length() - 1
            if c[v] < need:
                return False  # c only falls as v rises
            rest ^= low
            if pairs:
                sub = rest
                for a in chosen:
                    sub &= rows[a][v] ^ flip
            else:
                sub = rest & (rows[v] ^ flip)
            chosen.append(v)
            if need == 1 or sub.bit_count() >= need - 1 and extend(need - 1, sub):
                return True
            chosen.pop()
        return False

    return extend


def flip_clique_bounds(rows, cand: int, flip: int, pairs: bool) -> tuple[list[int], int]:
    """``search._clique_bounds`` on ``flip_clique_search``."""
    c = [0] * len(rows)
    chosen: list[int] = []
    extend = flip_clique_search(rows, flip, pairs, c, chosen)
    best = above = 0
    for w in reversed(bits_of(cand)):
        chosen[:] = (w,)
        if best == 0 or extend(best, above if pairs else above & (rows[w] ^ flip)):
            best += 1
        c[w] = best
        above |= 1 << w
    return c, best


def flip_first_max_clique(rows, cand: int, flip: int, pairs: bool, c: list[int],
                          omega: int) -> tuple[int, ...]:
    """``search._first_max_clique`` on ``flip_clique_search``."""
    chosen: list[int] = []
    if omega:
        flip_clique_search(rows, flip, pairs, c, chosen)(omega, cand)
    return tuple(chosen)


def flip_max_homogeneous_in(h: Hypergraph, cand: int, exact_limit: int) -> HomogeneousWitness:
    """``search._max_homogeneous_in`` as it walked both sides on the pair-link
    table, the independent side through ``flip=-1``."""
    links = h._pair_links
    exact = cand.bit_count() <= exact_limit
    if exact:  # the larger omega, the clique's on ties, picks the one side phase 2 runs on
        cl, ind = flip_clique_bounds(links, cand, 0, True), flip_clique_bounds(links, cand, -1, True)
        flip, (c, omega) = (0, cl) if cl[1] >= ind[1] else (-1, ind)
        found = flip_first_max_clique(links, cand, flip, True, c, omega)
    else:
        cl, ind = flip_greedy_clique(links, cand, 0, True), flip_greedy_clique(links, cand, -1, True)
        flip, found = (0, cl) if len(cl) >= len(ind) else (-1, ind)
    w = HomogeneousWitness(found, "independent" if flip else "clique", exact)
    ensure(w.verify(h), "homogeneous witness")
    return w


def flip_largest_star(h: Hypergraph, anti: bool = False) -> tuple[int, tuple[int, ...]]:
    """``structure.largest_star`` on the walk that read every pair-link row
    through ``flip``."""
    full, links = (1 << h.n) - 1, h._pair_links
    flip = -1 if anti else 0
    bounds = [flip_clique_bounds(links[v], full ^ (1 << v), flip, False) for v in range(h.n)]
    v = max(range(h.n), key=lambda v: bounds[v][1])  # the first center on ties
    return v, flip_first_max_clique(links[v], full ^ (1 << v), flip, False, *bounds[v])


def with_one_more_vertex(phase2):
    """The lexicographic pass ``phase2`` of the maximum-clique kernel, except
    that its clique also holds the lowest candidate outside it, if any."""
    def faulty(rows, cand, *args):
        got = phase2(rows, cand, *args)
        extra = cand & ~mask_of(got)
        return tuple(sorted(got + bits_of(extra & -extra)))
    return faulty


# --- the m = r+1 realization before its scan became one combinations pass ------------


def old_realize_r_plus_1(h: Hypergraph, f: int, ell: int | None = None) -> RealizeResult:
    """Find an (r+1, f)-subset through stepping down with split k = f.

    Values f > floor((r+1)/2) are complemented first. After stepping the
    coloring down to a pair coloring at positions (k, k+1), the op looks for
    positions i < j < l with the first two pairs absent and the third present
    (an independent triple when f = 0); the witness is the pattern plus the
    forced head and tail vertices, re-verified by a direct edge count.
    """
    from ordersize.stepdown import step_to_pairs

    r = h.r
    if not 0 <= f <= r + 1:
        raise ValueError(f"f={f} out of range [0, {r + 1}]")
    complemented = False
    work, ftarget = h, f
    if f > (r + 1) // 2:
        work, ftarget, complemented = h.complement(), r + 1 - f, True
    k = ftarget if ftarget >= 1 else 1
    step = step_to_pairs(work, k, ell)
    x = step.x
    if len(x) < r + 2:
        raise SearchFailed(
            f"stepped-down set has only {len(x)} vertices; need at least {r + 2}",
            reason="stepped-down input too short",
        )
    chi = step.chi
    ell_got = len(x)
    lo = k
    hi = ell_got - r + k + 1  # last admissible 1-based position

    def pair_color(a: int, b: int) -> int:
        return chi[(x[a - 1], x[b - 1])]

    want_last = 1 if ftarget >= 1 else 0
    found = None
    for i in range(lo, hi - 1):
        for j in range(i + 1, hi):
            if pair_color(i, j) != 0:
                continue
            for l in range(j + 1, hi + 1):
                if pair_color(i, l) == 0 and pair_color(j, l) == want_last:
                    found = (i, j, l)
                    break
            if found:
                break
        if found:
            break
    if found is None:
        return RealizeResult(None, False, complemented, k, x)
    i, j, l = found
    head = [x[a] for a in range(k - 1)]
    tail_count = r - k - 1
    tail = [x[a] for a in range(ell_got - tail_count, ell_got)]
    u = tuple(sorted(head + [x[i - 1], x[j - 1], x[l - 1]] + tail))
    if len(u) != r + 1:
        raise SearchFailed("assembled witness has the wrong size", reason="internal")
    count = h.edge_count(u)
    if count != f:
        raise SearchFailed(
            f"assembled subset spans {count} edges, expected {f}",
            reason="internal verification failure",
            detail={"witness": list(u)},
        )
    return RealizeResult(u, True, complemented, k, x)


# --- stepping-down on positions, with per-query remaps ------------------------------


def old_reduce_stage(colorfn, n: int, q: int, want: int | None) -> tuple[list[int], dict, list[dict]]:
    """One greedy stage over positions 0..n-1; returns (chosen, chi, rows)."""
    candidates = list(range(n))
    chosen: list[int] = []
    chi: dict[tuple[int, ...], int] = {}
    rows: list[dict] = []
    while candidates:
        x = candidates.pop(0)
        chosen.append(x)
        row = {"step": len(chosen), "vertex": x, "candidates": len(candidates)}
        rows.append(row)
        if want is not None and len(chosen) >= want:
            break
        if len(chosen) >= q - 1 and candidates:
            new_subsets = [s + (x,) for s in combinations(chosen[:-1], q - 2)]
            groups: dict[tuple[int, ...], list[int]] = {}
            for y in candidates:
                key = tuple(colorfn(s + (y,)) for s in new_subsets)
                groups.setdefault(key, []).append(y)
            best = max(groups, key=lambda kk: (len(groups[kk]), tuple(-c for c in kk)))
            for s, c in zip(new_subsets, best):
                chi[s] = c
            candidates = groups[best]
            row["classes"] = len(groups)
            row["kept"] = len(candidates)
    for s in combinations(chosen, q - 1):
        chi.setdefault(s, 0)
    return chosen, chi, rows


def old_run_stage(
    verts: list[int], lookup, q: int, want: int | None, reverse: bool
) -> tuple[list[int], dict[tuple[int, ...], int], list[dict]]:
    """Run a stage on the current vertex list, in forward or reversed order.

    Returns kept vertex ids (ascending) and chi keyed by ascending id tuples.
    In a reversed stage the factorization strips the first coordinate.
    """
    if not reverse:
        def posfn(t: tuple[int, ...]) -> int:
            return lookup(tuple(map(verts.__getitem__, t)))

        kept, chi_pos, rows = old_reduce_stage(posfn, len(verts), q, want)
        ids = [verts[p] for p in kept]
        chi = {tuple(verts[p] for p in s): c for s, c in chi_pos.items()}
        return ids, chi, rows

    rev = list(reversed(verts))

    def posfn(t: tuple[int, ...]) -> int:
        return lookup(tuple(rev[p] for p in reversed(t)))

    kept, chi_pos, rows = old_reduce_stage(posfn, len(rev), q, want)
    ids = sorted(rev[p] for p in kept)
    chi = {tuple(sorted(rev[p] for p in s)): c for s, c in chi_pos.items()}
    return ids, chi, rows


def _position_stage(verts, lookup, q, want, reverse=False):
    """The id-keyed stage's interface over ``old_run_stage``; a forward stage
    over 0..n-1 is the position stage that ``step_once`` ran on its own."""
    return old_run_stage(verts, lookup, q, want, reverse)


def old_step_once(coloring, ell=None, **kw) -> StepResult:
    """``step_once`` with the stage that ran on positions."""
    with mock.patch.object(stepdown, "_reduce_stage", _position_stage):
        return step_once(coloring, ell, **kw)


def old_step_to_pairs(coloring, k=1, ell=None, **kw) -> StepResult:
    """``step_to_pairs`` with the stages that ran on positions and remapped
    every query and every chi key to vertex ids."""
    with mock.patch.object(stepdown, "_reduce_stage", _position_stage):
        return step_to_pairs(coloring, k, ell, **kw)


# --- the star search that built a frozen-dataclass Star per star -----------------


@dataclass(frozen=True)
class DataclassStar:
    """(center, leaves) with every leaf pair forming an edge with the center.

    ``anti`` flips all conditions to the complement; ``induced`` additionally
    requires the leaf set to span no edges (all edges for an antistar).
    """

    center: int
    leaves: tuple[int, ...]
    induced: bool
    anti: bool

    def verify(self, h: Hypergraph) -> bool:
        verts = (self.center,) + self.leaves
        if len(set(verts)) != len(verts) or min(verts) < 0 or max(verts) >= h.n:
            return False
        c, edges, anti = self.center, h.edges, self.anti
        leaves = sorted(self.leaves)
        for u, v in combinations(leaves, 2):
            if (((u, v, c) if c > v else (u, c, v) if c > u else (c, u, v)) in edges) == anti:
                return False
        # a star spans no edge among its leaves, an antistar all of them
        return not self.induced or all((t in edges) == anti for t in combinations(leaves, 3))


def _spans_no_edge(links, flip: int, pre: int, lead: tuple[int, ...], x: int) -> bool:
    """Whether leaf x closes no edge with two of the leaves ``lead`` (mask
    ``pre``); ``flip=-1`` reads every link complemented, for antistars."""
    return not any((links[u][x] ^ flip) & pre & ~(1 << u) for u in lead)


def dataclass_find_stars(
    h: Hypergraph,
    s: int,
    want_induced: bool = False,
    want_anti: bool = False,
    budget: int | None = None,
) -> StarSearchResult:
    """``find_stars`` as it checked each star with its own ``ensure``, built
    a frozen-dataclass star for it, and took induced stars from the walk
    with the ``induced`` flag (``old_star_sets``)."""
    Star = DataclassStar
    bud, full = Budget(budget), (1 << h.n) - 1
    groups, complete = old_star_sets(h, full, s, want_induced, want_anti, bud)
    if s == 0:  # each center alone, with no leaf pair to check
        return StarSearchResult(tuple(Star(v, (), want_induced, want_anti) for v, _ in groups),
                                complete, bud.used)
    links, flip = h._pair_links, -1 if want_anti else 0
    stars: list[Star] = []
    for v, masks in groups:
        row, outside = links[v], ~(full ^ (1 << v))
        pre = -1
        for mask in masks:
            x = mask.bit_length() - 1
            if mask ^ (1 << x) != pre:  # a new prefix: check its leaves in turn
                pre = mask ^ (1 << x)
                lead = bits_of(pre)
                pre_ok, below = not pre & outside, 0
                for i, u in enumerate(lead):
                    pre_ok = pre_ok and not below & ~(row[u] ^ flip) and (
                        not want_induced or _spans_no_edge(links, flip, below, lead[:i], u))
                    below |= 1 << u
            # x joins every prefix leaf through v, and closes no edge with two
            ensure(pre_ok and not mask & outside and not pre & ~(row[x] ^ flip) and (
                not want_induced or _spans_no_edge(links, flip, pre, lead, x)), "star")
            stars.append(Star(v, lead + (x,), want_induced, want_anti))
    return StarSearchResult(tuple(stars), complete, bud.used)
