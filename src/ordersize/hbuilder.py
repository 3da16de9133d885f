"""Base-case ordered graphs of prescribed weighted total, with certificates.

For uniformity r and m vertices, the graph lives on the L = m-r+2 weighted
positions with pair weights w_j = C(m-j, r-2) (split 1). The backward degree
sequence d_1..d_L is chosen greedily maximal subject to sum(d_i * w_i) <= f.
Those backward degrees are realized by a clique prefix, a monotone star
forest, and a nested star forest, laid out directly as a substitution
certificate over empty graphs, cliques, and the three-vertex pattern F0
(single edge 13). The graph, of total weight exactly f, is that
certificate's expansion, so the certificate witnesses its ordered
Erdos-Hajnal property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Iterator, Sequence

from .core import OrderedGraph
from .errors import SearchFailed, ensure


class BuildError(SearchFailed):
    pass


# --- exact logarithm bounds ---------------------------------------------------


@lru_cache(maxsize=None)
def ln_bounds(x: int | Fraction, terms: int = 60) -> tuple[Fraction, Fraction]:
    """Exact rational lower and upper bounds on ln(x) for x > 1.

    Uses ln x = 2 * atanh((x-1)/(x+1)) with an explicit tail bound, so all
    threshold comparisons stay in integer arithmetic. Results are cached: the
    function is pure and its Fractions are immutable.
    """
    x = Fraction(x)
    if x <= 1:
        raise ValueError("ln_bounds needs x > 1")
    z = (x - 1) / (x + 1)
    z2 = z * z
    term = z
    partial = Fraction(0)
    for j in range(terms):
        partial += term / (2 * j + 1)
        term *= z2
    lower = 2 * partial
    tail = 2 * term / ((2 * terms + 1) * (1 - z2))
    return lower, lower + tail


# --- degree sequences -----------------------------------------------------------


@dataclass(frozen=True)
class DSequence:
    """Greedy-maximal backward degree sequence for (r, m, f).

    ``d[i-1]`` holds the value at 1-based position i. ``i_star`` is the first
    position from 2 on where the degree drops below its cap i-1; ``gap`` is the
    first zero run (k, l) of length at least ``tail_degree_sum`` + 2, the one
    that hosts the tail leaves (r >= 4 only); ``tail_degree_sum`` is the
    degree mass on the last r-3 positions (on all of them when there are fewer).
    """

    r: int
    m: int
    f: int
    d: tuple[int, ...]
    i_star: int | None
    gap: tuple[int, int] | None
    tail_degree_sum: int

    def at(self, i: int) -> int:
        return self.d[i - 1]

    @property
    def length(self) -> int:
        return len(self.d)

    def weighted_sum(self) -> int:
        return sum(map(mul, self.d, position_weights(self.r, self.m)))


@lru_cache(maxsize=128)
def position_weights(r: int, m: int) -> tuple[int, ...]:
    """Entry i-1 is C(m-i, r-2), the weight of any pair whose larger position
    is i (split 1), for i = 1..m-r+2."""
    return tuple(comb(m - i, r - 2) for i in range(1, m - r + 3))


def _zero_runs(d: Sequence[int], lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The maximal runs a..b of zero positions inside [lo, hi], in order."""
    p = lo
    while p <= hi:
        if d[p - 1]:
            p += 1
            continue
        q = p
        while q < hi and not d[q]:
            q += 1
        yield p, q
        p = q + 1


def d_sequence(r: int, m: int, f: int) -> DSequence:
    """Greedy-maximal degrees: d_i is the largest value in [0, i-1] keeping
    the running weighted sum at most f. For r >= 4 the gap is the first zero
    run a..b in [i_star+1, m-2r+4] with b - a >= tail_degree_sum, as (a-1, b+1)."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if m < r + 1:
        raise ValueError("m must be at least r+1")
    if not 0 <= 2 * f <= comb(m, r):
        raise ValueError(f"f={f} out of range [0, {comb(m, r) // 2}]; complement first")
    length = m - r + 2
    d: list[int] = [0]
    running = 0
    for i, w in enumerate(position_weights(r, m)[1:], start=2):
        di = min(i - 1, (f - running) // w)
        d.append(di)
        running += di * w
    i_star = next((i for i in range(2, length + 1) if d[i - 1] <= i - 2), None)
    # d_i over the tail positions i >= m-2r+6: the last r-3, or all when m <= 2r-6
    tail_sum = sum(d[max(m - 2 * r + 5, 0):]) if r >= 4 else 0
    gap = None
    if i_star and r >= 4:
        runs = _zero_runs(d, i_star + 1, m - 2 * r + 4)
        gap = next(((a - 1, b + 1) for a, b in runs if b - a >= tail_sum), None)
    return DSequence(r, m, f, tuple(d), i_star, gap, tail_sum)


@dataclass(frozen=True)
class ClaimReport:
    items: dict[str, bool]
    advisory: bool
    gap: tuple[int, int] | None
    details: dict

    @property
    def all_pass(self) -> bool:
        return all(self.items.values())


def verify_claim_d(seq: DSequence) -> ClaimReport:
    """Check the four structural properties of a greedy degree sequence:

    (a) i_star is at most (m+r)/2;
    (b) beyond i_star, d_i < (r-2)/(m-r+3-i) + 1 and d_i <= i-2 (so d_i <= 1
        up to position m-2r+5);
    (c) the weighted sum hits f exactly;
    (d) some zero run (k, l) with k >= i_star, l <= m-2r+5 has length at
        least 2(r-2)ln(2(r-2)).

    Outside the regime r >= 4, m >= 5r^2 the report is flagged advisory and
    the items are still evaluated.
    """
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
            # d_i < (r-2)/(m-r+3-i) + 1, times the divisor m-r+3-i >= 1 (i <= m-r+2)
            if not (di - 1) * (m - r + 3 - i) < r - 2:
                ok_b = False
                details.setdefault("b_violations", []).append(i)
            if di > i - 2:
                ok_b = False
                details.setdefault("b_violations", []).append(i)
            if i <= m - 2 * r + 5 and di > 1:
                ok_b = False
                details.setdefault("b_violations", []).append(i)
    items["b"] = ok_b

    details["weighted_sum"] = seq.weighted_sum()
    items["c"] = details["weighted_sum"] == f

    if seq.i_star is not None:
        _, ln_up = ln_bounds(2 * (r - 2))
        threshold = 2 * (r - 2) * ln_up
        runs = _zero_runs(d, seq.i_star + 1, m - 2 * r + 4)
        best = max(runs, key=lambda ab: ab[1] - ab[0], default=None)  # the first longest run
        gap = None if best is None else (best[0] - 1, best[1] + 1)
        items["d"] = gap is not None and Fraction(gap[1] - gap[0]) >= threshold
        details["gap"] = gap
        details["gap_threshold"] = float(threshold)
    else:
        gap = None
        items["d"] = False
        details["gap"] = None
    return ClaimReport(items, advisory, gap, details)


# --- substitution certificates ---------------------------------------------------


@dataclass(frozen=True)
class CertNode:
    """A substitution-tree node.

    ``kind`` is empty, clique, or f0. A node with no children is a leaf of
    ``size`` vertices (3 for f0, which is the ordered pattern with the single
    edge 13). A node with children substitutes them, in order, into the host
    graph of that kind: between two children the bipartite graph is complete
    exactly when the host pair is an edge.
    """

    kind: str
    size: int = 0
    children: tuple["CertNode", ...] = ()

    def __post_init__(self):
        if self.kind not in ("empty", "clique", "f0"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.children:
            arity = 3 if self.kind == "f0" else self.size
            if len(self.children) != arity:
                raise ValueError(f"host of kind {self.kind} needs {arity} children")
        else:
            if self.kind == "f0":
                if self.size != 3:
                    raise ValueError("an f0 leaf has exactly 3 vertices")
            elif self.size < 1:
                raise ValueError("leaves must have at least one vertex")
        # the vertex count, kept so that an expansion reads each block's span in O(1)
        total = sum(c._n for c in self.children) if self.children else self.size
        object.__setattr__(self, "_n", total)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def total_size(self) -> int:
        return self._n

    def leaf_kinds(self) -> set[str]:
        if self.is_leaf:
            return {self.kind}
        return {self.kind} | set().union(*(c.leaf_kinds() for c in self.children))

    def to_json_obj(self):
        if self.is_leaf:
            return {"kind": self.kind, "size": self.size}
        return {"kind": self.kind, "children": [c.to_json_obj() for c in self.children]}


def empty_node(t: int) -> CertNode:
    return CertNode("empty", t)


def clique_node(t: int) -> CertNode:
    return CertNode("clique", t)


_SINGLE = CertNode("empty", 1)  # one vertex; nodes are immutable, so trees share it


def _is_plain(node: CertNode, kind: str) -> bool:
    return node.is_leaf and (node.kind == kind or node.size == 1)


def _merge_run(children: list[CertNode], kind: str) -> list[CertNode]:
    merged: list[CertNode] = []
    for c in children:
        if _is_plain(c, kind) and merged and _is_plain(merged[-1], kind):
            merged[-1] = CertNode(kind, merged[-1].size + c.size)
        else:
            merged.append(c)
    return merged


def _cert_series(kind: str, children) -> CertNode | None:
    """Node of ``kind`` ("empty" or "clique") over the non-None children,
    flattening nested nodes of that kind and merging its plain runs."""
    kids: list[CertNode] = []
    for c in children:
        if c is None:
            continue
        if not c.is_leaf and c.kind == kind:
            kids.extend(c.children)
        else:
            kids.append(c)
    kids = _merge_run(kids, kind)
    if not kids:
        return None
    if len(kids) == 1:
        return kids[0]
    return CertNode(kind, len(kids), tuple(kids))


def cert_disjoint(children) -> CertNode | None:
    """Disjoint union, flattening nested unions and merging empty runs."""
    return _cert_series("empty", children)


def cert_join(children) -> CertNode | None:
    """Sequential join: consecutive blocks completely adjacent."""
    return _cert_series("clique", children)


def cert_f0(a: CertNode | None, b: CertNode | None, c: CertNode | None) -> CertNode | None:
    """Substitute into the three slots of F0 (edge between slots 1 and 3)."""
    if a is None:
        return cert_disjoint([b, c])
    if b is None:
        return cert_join([a, c])
    if c is None:
        return cert_disjoint([a, b])
    return CertNode("f0", 3, (a, b, c))


def expand_certificate(node: CertNode) -> OrderedGraph:
    """Expansion of a substitution tree into an ordered graph, in one
    top-down walk.

    Each leaf's rows are appended once, at the leaf's offset, ORed with the
    span masks of the blocks that its ancestors join it to: a clique host
    joins each child to every sibling, an f0 host joins its first and third
    slots, and an empty host joins nothing. One graph is built at the end.
    """
    rows: list[int] = []

    def walk(node: CertNode, joined: int) -> None:
        start = len(rows)
        if node.is_leaf:
            n = node.size
            if node.kind == "empty":
                rows.extend([joined] * n)
            elif node.kind == "clique":
                span = ((1 << n) - 1) << start
                rows.extend(span ^ 1 << v | joined for v in range(start, start + n))
            else:  # f0: the single edge between its first and last vertex
                rows.extend((4 << start | joined, joined, 1 << start | joined))
        elif node.kind == "empty":
            for child in node.children:
                walk(child, joined)
        elif node.kind == "clique":
            span = ((1 << node._n) - 1) << start
            for child in node.children:
                walk(child, joined | span ^ ((1 << child._n) - 1) << len(rows))
        else:
            a, b, c = node.children
            before_c = start + a._n + b._n
            walk(a, joined | ((1 << c._n) - 1) << before_c)
            walk(b, joined)
            walk(c, joined | ((1 << a._n) - 1) << start)

    walk(node, 0)
    return OrderedGraph._from_rows(len(rows), tuple(rows))


def _nested_tree(leaf_sizes: list[int], middle: CertNode | None) -> CertNode | None:
    """Nested star forest L_1 < ... < L_t < c_t < ... < c_1, with an optional
    extra block sitting isolated between L_t and c_t."""
    if not leaf_sizes:
        return middle
    first, rest = leaf_sizes[0], leaf_sizes[1:]
    inner = _nested_tree(rest, middle)
    return cert_f0(empty_node(first) if first > 0 else None, inner, _SINGLE)


# --- the construction -------------------------------------------------------------


@dataclass(frozen=True)
class HConstruction:
    r: int
    m: int
    f: int
    d: DSequence
    graph: OrderedGraph
    cert: CertNode
    complemented: bool

    @property
    def realized_weight(self) -> int:
        """Weighted total of the built graph; the complement flag means the
        graph realizes C(m, r) - f and is meant for the complement side."""
        return self.f if not self.complemented else comb(self.m, self.r) - self.f

    def backward_degrees(self) -> tuple[int, ...]:
        return tuple((row & ((1 << v) - 1)).bit_count() for v, row in enumerate(self.graph.adj))

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "f": self.f,
            "d": list(self.d.d),
            "edges": sorted([list(e) for e in self.graph.edges]),
            "cert": self.cert.to_json_obj(),
            "complemented": self.complemented,
        }


def build_H(r: int, m: int, f: int, strict: bool = False) -> HConstruction:
    """Ordered graph on the m-r+2 weighted positions with total weight f.

    The graph is the expansion of its substitution certificate, built from
    the greedy backward degree sequence (see ``_build_certificate``). Values
    of f above half the range are complemented (flagged) first. ``strict``
    enforces m >= 5r^2; without it the builder attempts any m and raises
    BuildError when the structure does not fit. The backward degrees, the
    weight and the certificate are recounted from the graph before it is
    returned; a mismatch is a program fault and raises VerificationError.
    """
    if r < 4:
        raise ValueError("the base construction needs r >= 4")
    if m < r + 2:
        raise ValueError("m too small")
    if not 0 <= f <= comb(m, r):
        raise ValueError(f"f={f} out of range")
    if strict and m < 5 * r * r:
        raise ValueError(f"m={m} below the guarantee threshold {5 * r * r}")
    complemented = 2 * f > comb(m, r)
    ftarget = comb(m, r) - f if complemented else f
    seq = d_sequence(r, m, ftarget)
    # with every degree at its cap the weight would be C(m, r), above ftarget
    ensure(seq.i_star is not None, "a degree drops below its cap")
    cert = _build_certificate(seq)
    hc = HConstruction(r, m, f, seq, expand_certificate(cert), cert, complemented)
    weight, checks = recount_construction(hc)
    ensure(checks["degrees_ok"], "backward degrees match the sequence")
    ensure(checks["weight_ok"], f"total weight {weight} is the target {ftarget}")
    ensure(checks["cert_ok"], "certificate expands to the built graph")
    return hc


def recount_construction(hc: HConstruction) -> tuple[int, dict[str, bool]]:
    """The weight recounted from the graph (an edge weighs what its larger
    end does), and whether it, the backward degrees and the expanded
    certificate match what ``hc`` claims."""
    degrees = hc.backward_degrees()
    weight = sum(map(mul, degrees, position_weights(hc.r, hc.m)))
    return weight, {"weight_ok": weight == hc.realized_weight, "degrees_ok": degrees == hc.d.d,
                    "cert_ok": expand_certificate(hc.cert) == hc.graph}


def _build_certificate(seq: DSequence) -> CertNode:
    """Substitution tree of the graph whose backward degrees are ``seq``.

    V1 is the clique on 1..i_star-1, with i_star joined to its first d_{i_star}
    positions and the degree-one positions before the first zero i1 >= i_star
    pendant to position 1; V2 is the monotone star forest on i1..k, k the gap
    start; V3 nests the last r-3 positions over their leaves in the gap (the
    last position's first) around the stars U2 after them. Raises the
    BuildError of a missing gap.
    """
    r, m, d, length, i_star = seq.r, seq.m, seq.at, seq.length, seq.i_star
    mid_hi = m - 2 * r + 5  # the last middle position; the tail follows it
    # After i_star the greedy's leftover before position i is below w_{i-1}, and
    # w_{i-1}/w_i = (m-i+1)/(m-i-r+3) <= 2 exactly when i <= m-2r+5, so d_i <= 1.
    ensure(all(d(i) <= 1 for i in range(i_star + 1, mid_hi + 1)), "middle degrees are at most 1")
    if seq.gap is None:  # d_sequence's first gap of length at least tail_degree_sum + 2
        raise BuildError(
            "no zero run long enough to host the tail leaves",
            reason="gap not found",
            detail={"needed": seq.tail_degree_sum + 2},
        )
    k = seq.gap[0]

    # i1: first position >= i_star with degree zero
    i1 = next(i for i in range(i_star, length + 1) if d(i) == 0)
    # V1 = positions 1..i1-1
    if i1 == i_star:
        cert_v1: CertNode | None = clique_node(i_star - 1)
    else:
        a = d(i_star)
        inner = cert_disjoint(
            [clique_node(i_star - 1 - a) if i_star - 1 - a > 0 else None, _SINGLE]
        )
        cert_x = cert_join([clique_node(a - 1) if a - 1 > 0 else None, inner])
        pend = empty_node(i1 - 1 - i_star) if i1 - 1 - i_star > 0 else None
        cert_v1 = cert_join([_SINGLE, cert_disjoint([cert_x, pend])])

    cert_u2 = _star_forest(seq, k + seq.tail_degree_sum + 1, mid_hi)
    cert_v3 = _nested_tree([d(i) for i in range(length, mid_hi, -1)], cert_u2)
    node = cert_disjoint([cert_v1, _star_forest(seq, i1, k), cert_v3])
    ensure(node is not None, "certificate is nonempty")
    return node


def _star_forest(seq: DSequence, lo: int, hi: int) -> CertNode | None:
    """Monotone star forest on positions lo..hi, lo a zero: each zero
    position is a center whose leaves are the positions up to the next zero
    (None when the range is empty).

    One pass over the zero runs lays out the disjoint union's children. In a
    run a..b the centers a..b-1 have no leaves, and center b has the c-b-1
    positions before c, the next run's start (hi+1 after the last run). A
    stretch of z leafless centers is one empty leaf of size z, a center with
    one leaf a clique leaf of size 2, and a center with t >= 2 leaves a
    clique host over the center and an empty leaf of size t.
    """
    runs = list(_zero_runs(seq.d, lo, hi))
    kids: list[CertNode | None] = []
    for (a, b), c in zip(runs, [a for a, _b in runs[1:]] + [hi + 1]):
        leaves = c - b - 1
        bare = b - a if leaves else b - a + 1
        kids.append(empty_node(bare) if bare else None)
        if leaves:
            kids.append(clique_node(2) if leaves == 1 else CertNode("clique", 2, (_SINGLE, empty_node(leaves))))
    return cert_disjoint(kids)
