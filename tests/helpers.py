"""Helpers shared by the test modules."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator

from ordersize.core import unrank_combination, vertex_set
from ordersize.spectrum import WeightFrame
from ordersize.values import (
    CubicParams,
    GeneralParams,
    ValueCountReport,
    _square_sums,
    cubic_basis,
)


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


# --- value-counter oracles: the walks the bitset kernels replaced --------------


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
