"""Exact distinct-value counting for the cubic forms, and the g_r table.

All evaluation is exact: integer vectors, rational parameters scaled to a
common denominator so that distinct-value sets are sets of integers.
Counting runs over positive compositions only; dropping zero coordinates
(order preserved) never changes any of the basis sums, so nothing is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Iterator, Sequence

from .blowups import build_pair_family, build_type_family
from .errors import VerificationError

DEFAULT_COMPOSITION_CAP = 60


# --- the recursive complete multipartite maximum -------------------------------


def _partitions_exact(m: int, parts: int, low: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of m into exactly ``parts`` parts, each >= low, nondecreasing."""
    if parts == 1:
        if m >= low:
            yield (m,)
        return
    for first in range(low, m // parts + 1):
        for rest in _partitions_exact(m - first, parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def g_r(r: int, m: int) -> int:
    """Maximum edge count of the recursive complete r-partite construction.

    Zero for m <= r-1; otherwise the best over partitions into r positive
    parts of the part product plus the recursive values inside the parts.
    Positive parts suffice: a zero part kills the product and the remaining
    recursion never beats splitting the same vertices r ways.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m <= r - 1:
        return 0
    best = 0
    for p in _partitions_exact(m, r):
        prod = 1
        for x in p:
            prod *= x
        best = max(best, prod + sum(g_r(r, x) for x in p))
    return best


# --- parameter records ----------------------------------------------------------


@dataclass(frozen=True)
class CubicParams:
    """Coefficients (a, b, c, d, e) of the five-sum cubic form."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction

    def __init__(self, a, b, c, d, e):
        for name, v in zip("abcde", (a, b, c, d, e)):
            object.__setattr__(self, name, Fraction(v))

    @property
    def symmetric_degenerate(self) -> bool:
        """a = b = c/3: the value collapses to a function of the square sum."""
        return self.a == self.b == self.c / 3

    @property
    def antisymmetric_degenerate(self) -> bool:
        return self.a == -self.b and self.c == 0

    @property
    def admissible(self) -> bool:
        return not (self.symmetric_degenerate or self.antisymmetric_degenerate)

    def astuple(self):
        return (self.a, self.b, self.c, self.d, self.e)

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], int]:
        return _scaled_int_coeffs(self.astuple())


@dataclass(frozen=True)
class GeneralParams:
    """Coefficients (A, B, C, D, E) of the reduced form."""

    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    E: Fraction

    def __init__(self, A, B, C, D, E):
        for name, v in zip("ABCDE", (A, B, C, D, E)):
            object.__setattr__(self, name, Fraction(v))

    @property
    def admissible(self) -> bool:
        """B nonzero, or both A and C nonzero."""
        return self.B != 0 or (self.A != 0 and self.C != 0)

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], int]:
        return _scaled_int_coeffs((self.A, self.B, self.C, self.D, self.E))


def _scaled_int_coeffs(fracs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the common denominator of ``fracs``."""
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


@dataclass(frozen=True)
class ValueCountReport:
    m: int
    params: tuple
    count: int
    mode: str
    min_value: Fraction
    max_value: Fraction
    min_witness: tuple[int, ...]
    max_witness: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "params": [str(p) for p in self.params],
            "count": self.count,
            "mode": self.mode,
            "min_value": str(self.min_value),
            "max_value": str(self.max_value),
            "min_witness": list(self.min_witness),
            "max_witness": list(self.max_witness),
        }

    def to_csv_row(self) -> str:
        ps = ";".join(str(p) for p in self.params)
        return f"{self.m},{ps},{self.count}"


# --- form evaluation -------------------------------------------------------------


def cubic_basis(x: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(Ta, Tb, Tc, Td, Te): the five order-aware sums of the cubic form."""
    p1 = p2 = e2 = ta = tb = tc = td = 0
    for v in x:
        ta += v * v * p1
        tb += v * p2
        tc += v * e2
        td += v * v
        e2 += v * p1
        p1 += v
        p2 += v * v
    return ta, tb, tc, td, e2


def cubic_form(p: CubicParams, x: Sequence[int]) -> Fraction:
    """a*sum x_i x_j^2 + b*sum x_i^2 x_j + c*sum x_i x_j x_k (i<j<k)
    + d*sum x_i^2 + e*sum x_i x_j, all pairs ordered i < j."""
    if any(v < 0 for v in x):
        raise ValueError("coordinates must be nonnegative")
    ta, tb, tc, td, te = cubic_basis(x)
    (ia, ib, ic, id_, ie), den = p._scaled
    return Fraction(ia * ta + ib * tb + ic * tc + id_ * td + ie * te, den)


def general_form(g: GeneralParams, m: int, x: Sequence[int]) -> Fraction:
    """(A*m + D) * sum x_i^2 + B * sum x_i^3 + C * sum x_i x_j (x_i - x_j) + E."""
    if any(v < 0 for v in x):
        raise ValueError("coordinates must be nonnegative")
    ta, tb, _tc, td, _te = cubic_basis(x)
    t3 = sum(v * v * v for v in x)
    (ia, ib, ic, id_, ie), den = g._scaled
    return Fraction((ia * m + id_) * td + ib * t3 + ic * (tb - ta) + ie, den)


def transform_params(p: CubicParams, m: int) -> GeneralParams:
    """Rewrite the cubic form into the reduced shape, valid on sum(x) = m."""
    return GeneralParams(
        A=(p.a + p.b - p.c) / 2,
        B=p.c / 3 - (p.a + p.b) / 2,
        C=(p.b - p.a) / 2,
        D=p.d - p.e / 2,
        E=p.c / 6 * m**3 + p.e / 2 * m**2,
    )


# --- distinct-value counters -------------------------------------------------------


def _count_form_values(
    m: int,
    coeffs: tuple[int, int, int, int, int, int],
    const: int,
) -> tuple[int, tuple, tuple]:
    """Number of distinct scaled values of coeffs . (Ta, Tb, Tc, Td, T3, E2)
    + const over positive compositions of m, plus min and max witnesses.

    A table over suffixes: after a prefix with sums (p1, p2) (e2 follows from
    them), the set of increments the rest of the composition can add is a
    bitset offset by its lowest member. Part v adds
    v*(ca*v*p1 + cb*p2 + cc*e2 + cd*v + c3*v*v + ce*p1), where p2 enters
    only as v*(cb - cc/2)*p2. The parts after the prefix sum to m - p1, so
    the set after (p1, p2) is the set after (p1, p1) shifted by
    (2*cb - cc)*((p2 - p1)/2)*(m - p1), an integer since p2 = p1 (mod 2).
    ``sets[p1]``, offset by ``los[p1]``, is the set after (p1, p1), built for
    p1 = m, ..., 0 as the OR of its children's sets, each shifted by the
    part's increment plus the child's offset.
    """
    ca, cb, cc, cd, c3, ce = coeffs
    slope = 2 * cb - cc
    # the empty suffix after (m, m) adds 0; the rest is filled below
    los = [0] * (m + 1)
    sets = [1] * (m + 1)
    for p1 in range(m - 1, -1, -1):
        # after (p1, p1), part v adds v*(lin + v*(quad + v*c3)), and the child
        # (p1 + v, p1 + v*v) sits slope*C(v, 2)*(m - p1 - v) above its table entry
        lin = cb * p1 + cc * (p1 * (p1 - 1) >> 1) + ce * p1
        quad = ca * p1 + cd
        left = m - p1
        klos = [klo + v * (lin + v * (quad + v * c3)) + slope * (v * (v - 1) >> 1) * (left - v)
                for v, klo in enumerate(los[p1 + 1:], 1)]
        lo = los[p1] = min(klos)
        bits = 0
        for klo, kbits in zip(klos, sets[p1 + 1:]):
            bits |= kbits << (klo - lo)
        sets[p1] = bits

    def witness(target: int) -> tuple[int, ...]:
        # greedy descent: the smallest part whose suffix still reaches the
        # target gives the lexicographically first composition
        path = []
        p1 = p2 = 0
        while p1 < m:
            lin = cb * p2 + cc * ((p1 * p1 - p2) >> 1) + ce * p1
            quad = ca * p1 + cd
            for v in range(1, m - p1 + 1):
                q1 = p1 + v
                rest = target - v * (lin + v * (quad + v * c3))
                off = rest - los[q1] - slope * ((p2 + v * v - q1) // 2) * (m - q1)
                if off >= 0 and sets[q1] >> off & 1:
                    break
            path.append(v)
            target = rest
            p1 = q1
            p2 += v * v
        return tuple(path)

    lo, bits = los[0], sets[0]
    hi = lo + bits.bit_length() - 1
    return bits.bit_count(), (lo + const, witness(lo)), (hi + const, witness(hi))


def _form_report(
    m: int, cap: int, params: tuple, coeffs: tuple[int, ...], const: int, den: int
) -> ValueCountReport:
    """``_count_form_values`` for 1 <= m <= cap, reported over ``den``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > cap:
        raise ValueError(f"m={m} above the enumeration cap {cap}")
    count, vmin, vmax = _count_form_values(m, coeffs, const)
    return ValueCountReport(
        m,
        params,
        count,
        "positive-compositions",
        Fraction(vmin[0], den),
        Fraction(vmax[0], den),
        vmin[1],
        vmax[1],
    )


def count_cubic_values(
    p: CubicParams, m: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> ValueCountReport:
    """Distinct values of the cubic form over nonnegative integer vectors
    summing to m, counted over the 2^(m-1) positive compositions."""
    (ca, cb, cc, cd, ce), den = p._scaled
    return _form_report(m, cap, p.astuple(), (ca, cb, cc, cd, 0, ce), 0, den)


def count_general_values(
    g: GeneralParams, m: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> ValueCountReport:
    """Distinct values of the reduced form over vectors summing to m."""
    (ia, ib, ic, id_, ie), den = g._scaled
    coeffs = (-ic, ic, 0, ia * m + id_, ib, 0)
    return _form_report(m, cap, (g.A, g.B, g.C, g.D, g.E), coeffs, ie, den)


def pair_form(avec: Sequence[int], bvec: Sequence[int]) -> int:
    """(sum a) * sum_{i<j} b_i b_j + (sum b) * sum_{i<j} a_i a_j."""
    if any(v < 0 for v in avec) or any(v < 0 for v in bvec):
        raise ValueError("coordinates must be nonnegative")
    sa, sb = sum(avec), sum(bvec)
    pa = (sa * sa - sum(v * v for v in avec)) // 2
    pb = (sb * sb - sum(v * v for v in bvec)) // 2
    return sa * pb + sb * pa


@lru_cache(maxsize=None)
def _square_sums(total: int) -> frozenset[int]:
    """Achievable values of sum(parts^2) over partitions of ``total``."""
    if total == 0:
        return frozenset([0])
    out = set()
    for first in range(1, total + 1):
        for s in _square_sums(total - first):
            out.add(first * first + s)
    return frozenset(out)


@lru_cache(maxsize=None)
def _pair_sum_runs(total: int) -> tuple[tuple[int, int], ...]:
    """The pair sums (total^2 - s)/2 over the square sums s of ``total``, as
    maximal runs (start, length) of consecutive integers, ascending."""
    runs: list[list[int]] = []
    for p in sorted((total * total - s) // 2 for s in _square_sums(total)):
        if runs and runs[-1][0] + runs[-1][1] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    return tuple((start, length) for start, length in runs)


def _spread(bits: int, step: int, runs: Sequence[tuple[int, int]]) -> int:
    """OR of ``bits << step*p`` for p in the runs: a run [s, s+L) doubles to the
    largest power of two span <= L, then shifts once by L - span and once by s."""
    out = 0
    for start, length in runs:
        run, span = bits, 1
        while 2 * span <= length:
            run |= run << step * span
            span *= 2
        out |= (run | run << step * (length - span)) << step * start
    return out


def _pair_form_splits(m: int) -> list[int]:
    """Per split A + B = m, A = 0..m, the bitset of the split's values."""
    return [_spread(_spread(1, a, _pair_sum_runs(m - a)), m - a, _pair_sum_runs(a))
            for a in range(m + 1)]


def count_pair_form_values(m: int) -> ValueCountReport:
    """Distinct pair-form values over all splits of mass m between the two
    coordinate families.

    The form depends only on (A, sum a_i^2, B, sum b_i^2) with A + B = m.
    For each split the values are a sumset: the bitset {A*(B^2 - sb)/2},
    ORed in copies shifted by B*(A^2 - sa)/2, each side spread over the runs
    of its pair sums. The count is the popcount of the union over all splits.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    splits = _pair_form_splits(m)
    union = 0
    for bits in splits:
        union |= bits
    vmin = (union & -union).bit_length() - 1
    vmax = union.bit_length() - 1

    def witness(val: int) -> tuple[int, int, int, int]:
        # the first split, then the first (sa, sb) in the square-sum sets'
        # iteration order, that reaches val
        a_total = next(a for a, bits in enumerate(splits) if bits >> val & 1)
        b_total = m - a_total
        for sa in _square_sums(a_total):
            pa = (a_total * a_total - sa) // 2
            for sb in _square_sums(b_total):
                if a_total * ((b_total * b_total - sb) // 2) + b_total * pa == val:
                    return (a_total, sa, b_total, sb)
        raise VerificationError(f"pair-form value {val} missing from split {a_total}")

    return ValueCountReport(
        m,
        ("pair-form",),
        union.bit_count(),
        "square-sum-states",
        Fraction(vmin),
        Fraction(vmax),
        witness(vmin),
        witness(vmax),
    )


# --- blow-up edge counts, two ways --------------------------------------------------


def blowup_edge_count(
    a: int, b: int, c: int, part_sizes: Sequence[int], x: Sequence[int]
) -> tuple[int, int]:
    """Edges induced by picking x_i vertices from part i of a type blow-up
    with densities (a, b, c, 0): the closed form and a direct count, each
    increasing triple of the chosen vertices looked up in the edge set.

    Closed form: a*sum x_i C(x_j,2) + b*sum C(x_i,2) x_j + c*sum x_i x_j x_k.
    """
    if len(x) != len(part_sizes):
        raise ValueError("x must have one entry per part")
    if any(not 0 <= xi <= s for xi, s in zip(x, part_sizes)):
        raise ValueError("selection exceeds a part size or is negative")
    m = len(x)
    closed = 0
    for i in range(m):
        for j in range(i + 1, m):
            closed += a * x[i] * comb(x[j], 2) + b * comb(x[i], 2) * x[j]
    for i, j, k in combinations(range(m), 3):
        closed += c * x[i] * x[j] * x[k]
    h, parts = build_type_family(list(part_sizes), a, b, c, 0)
    chosen = sorted(v for part, xi in zip(parts, x) for v in part[:xi])
    return closed, sum(map(h.edges.__contains__, combinations(chosen, 3)))


def blowup_edge_count_mixed(
    b1: int,
    b2: int,
    cs: tuple[int, int, int, int, int, int],
    part_size: int,
    x: Sequence[int],
    eps: int,
) -> tuple[int, int]:
    """Edges induced by the paired selection: x_i vertices from each of A_i
    and B_i, plus eps extra vertices from one further A part. Dual-evaluates
    the mixed closed form against a direct count on the built family.
    """
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    t = len(x)
    if any(not 0 <= xi <= part_size for xi in x):
        raise ValueError("selection exceeds the part size or is negative")
    b = b1 + b2
    c = sum(cs)
    closed = 0
    for i in range(t):
        for j in range(i + 1, t):
            closed += 2 * x[i] * x[j] * x[j] + b * x[i] * x[i] * x[j]
            closed += eps * (cs[1] + cs[3] + cs[5]) * x[i] * x[j]
    for i, j, k in combinations(range(t), 3):
        closed += c * x[i] * x[j] * x[k]
    closed += eps * b1 * sum(xi * xi for xi in x)
    h, a_parts, b_parts = build_pair_family(t + eps, part_size, 1, 1, b1, b2, cs)
    chosen = []
    for i in range(t):
        chosen.extend(a_parts[i][: x[i]])
        chosen.extend(b_parts[i][: x[i]])
    if eps:
        chosen.extend(a_parts[t][:1])
    return closed, sum(map(h.edges.__contains__, combinations(sorted(chosen), 3)))


def gr_table(r_values: Sequence[int]) -> list[dict]:
    """Rows (r, 2r, g_r(2r), 2^r) for the doubling identity."""
    rows = []
    for r in r_values:
        rows.append({"r": r, "m": 2 * r, "g": g_r(r, 2 * r), "power": 2**r})
    return rows
