"""Size spectra, (m,f)-subset search, and weighted (m,f)-subset machinery.

A weighted (m,f)-subset lives in the stepped-down ordered graph: a set U of
m-r+2 vertices whose weighted edge sum equals f, where the weight of the pair
at positions (i, j) is the number of r-subsets of an m-set in which that pair
forms the first two elements. Appending a tail of r-2 later vertices turns U
into an honest (m,f)-subset of the original r-graph; ``verify_lift`` checks
that identity on concrete data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .core import (
    Hypergraph,
    OrderedGraph,
    bits_of,
    iter_subset_counts,
    mask_of,
)
from .errors import Budget, BudgetExhausted, FactorizationError, SearchFailed, at_least, ensure
from .rng import SeededRNG
from .search import HomogeneousWitness, _greedy_clique

DEFAULT_EXHAUSTIVE_CAP = 10**8
# Below this many subsets a multi-threaded exhaustive scan stays serial, as
# starting the worker pool costs more than it saves: on 2 cores, at density
# 1/2, two workers broke even between 319,770 and 490,314 subsets at r = 3.
# At r >= 4 the break-even follows the edge density (about 13,000 subsets at
# 1/2, none found below 80,000 at 1/10) and r >= 5 is unprobed, so r >= 4
# keeps a threshold of 100,000.
_PARALLEL_MIN_SUBSETS = 500_000  # r <= 3
_PARALLEL_MIN_SUBSETS_R4 = 100_000  # r >= 4


# --- weight frames ----------------------------------------------------------


@dataclass(frozen=True)
class WeightFrame:
    """Pair weights for an m-set under an r-uniform split at position k.

    Positions are 1-based: the weighted pairs are k <= i < j <= m-r+k+1, and
    w(i, j) = C(i-1, k-1) * C(m-j, r-k-1). For the default split k=1 this is
    C(m-j, r-2), and for r=3 simply m-j.
    """

    r: int
    m: int
    k: int = 1

    def __post_init__(self):
        if self.r < 3 or self.m < self.r or not 1 <= self.k <= self.r - 1:
            raise ValueError(f"bad weight frame (r={self.r}, m={self.m}, k={self.k})")

    @property
    def size(self) -> int:
        """Number of weighted positions."""
        return self.m - self.r + 2

    @property
    def positions(self) -> range:
        return range(self.k, self.m - self.r + self.k + 2)

    def weight(self, i: int, j: int) -> int:
        if not (self.k <= i < j <= self.m - self.r + self.k + 1):
            raise ValueError(f"pair ({i}, {j}) outside the weighted positions")
        return comb(i - 1, self.k - 1) * comb(self.m - j, self.r - self.k - 1)

    def total(self) -> int:
        """Sum of w(i, j) over the weighted position pairs; each r-subset of
        [m] is counted once."""
        return sum(self.weight(i, j) for i, j in combinations(self.positions, 2))


def weighted_total(g: OrderedGraph, u: Sequence[int], frame: WeightFrame) -> int:
    """Sum of w(i, j) over the edges of g among the vertices of u.

    u lists the vertices occupying the frame's weighted positions, in
    increasing order; its length must equal the frame size.
    """
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


@dataclass(frozen=True)
class WeightedWitness:
    """A verified weighted (m,f)-subset of an ordered graph."""

    vertices: tuple[int, ...]
    r: int
    m: int
    f: int
    k: int = 1

    def verify(self, g: OrderedGraph) -> bool:
        frame = WeightFrame(self.r, self.m, self.k)
        return weighted_total(g, self.vertices, frame) == self.f


# --- size spectrum ----------------------------------------------------------


@dataclass
class SpectrumReport:
    m: int
    achieved: list[int]
    witnesses: dict[int, tuple[int, ...]]
    mode: str  # "exhaustive" | "sampled"
    subsets_examined: int
    seed: int | None = None
    samples: int | None = None

    @property
    def s(self) -> int:
        """Number of distinct induced sizes found."""
        return len(self.achieved)

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "achieved": list(self.achieved),
            "witnesses": {str(f): list(w) for f, w in sorted(self.witnesses.items())},
            "mode": self.mode,
            "subsets_examined": self.subsets_examined,
            "seed": self.seed,
            "samples": self.samples,
        }


def _scan_chunk(h: Hypergraph, m: int, start: int, count: int) -> tuple[dict[int, tuple[int, ...]], int]:
    witnesses: dict[int, tuple[int, ...]] = {}
    examined = 0
    for f, subset in iter_subset_counts(h, m, start, count):
        examined += 1
        if f not in witnesses:
            witnesses[f] = tuple(subset)
    return witnesses, examined


def _scan_parallel(h: Hypergraph, m: int, total: int, threads: int):
    import multiprocessing as mp

    chunk = (total + threads - 1) // threads
    jobs = []
    start = 0
    while start < total:
        jobs.append((h, m, start, min(chunk, total - start)))
        start += chunk
    with mp.Pool(threads) as pool:
        return _merge_chunks(pool.starmap(_scan_chunk, jobs))


def _merge_chunks(parts):
    """Merge ``_scan_chunk`` results given in rank order; the first witness
    by rank is kept for each value."""
    witnesses: dict[int, tuple[int, ...]] = {}
    examined = 0
    for wit, ex in parts:
        examined += ex
        for f, w in wit.items():
            if f not in witnesses:
                witnesses[f] = w
    return witnesses, examined


def size_spectrum(
    h: Hypergraph,
    m: int,
    mode: str = "exhaustive",
    samples: int = 100_000,
    seed: int = 0,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    threads: int = 1,
) -> SpectrumReport:
    """Achieved induced edge counts over m-vertex subsets, with witnesses.

    Exhaustive mode scans all C(n, m) subsets and refuses above ``cap``;
    with ``threads > 1`` a scan of at least ``_PARALLEL_MIN_SUBSETS``
    subsets (``_PARALLEL_MIN_SUBSETS_R4`` for r >= 4) is split over a worker
    pool, a smaller one stays serial.
    Sampled mode draws ``samples`` seeded uniform subsets, at least one,
    from the stream ``SeededRNG(seed).sorted_samples``.
    One witness is stored per achieved value, the first in scan order.
    """
    if not h.r <= m <= h.n:
        raise ValueError(f"m={m} out of range [{h.r}, {h.n}]")
    at_least(1, threads=threads)
    total = comb(h.n, m)
    if mode == "exhaustive":
        if total > cap:
            raise ValueError(
                f"exhaustive scan of {total} subsets exceeds the cap {cap}; use sampled mode"
            )
        least = _PARALLEL_MIN_SUBSETS if h.r <= 3 else _PARALLEL_MIN_SUBSETS_R4
        if threads > 1 and total >= least:
            witnesses, examined = _scan_parallel(h, m, total, threads)
        else:
            witnesses, examined = _scan_chunk(h, m, 0, total)
        return SpectrumReport(m, sorted(witnesses), witnesses, "exhaustive", examined)
    if mode == "sampled":
        at_least(1, samples=samples)
        count = h._count_sorted
        witnesses = {}
        for subset in SeededRNG(seed).sorted_samples(h.n, m, samples):
            f = count(subset, mask_of(subset))
            if f not in witnesses:
                witnesses[f] = subset
        return SpectrumReport(m, sorted(witnesses), witnesses, "sampled", samples, seed, samples)
    raise ValueError(f"unknown mode {mode!r}")


def find_mf_subset(
    h: Hypergraph,
    m: int,
    f: int,
    budget: int | None = None,
) -> tuple[int, ...] | None:
    """Search for an m-set spanning exactly f edges.

    Scans subsets lexicographically, spending one budget unit per subset, and
    returns the first witness in that order. Returns None when the scan
    completed without finding one (absence proven). Raises BudgetExhausted
    when the budget ran out first, and ValueError on a negative budget.
    """
    if not h.r <= m <= h.n:
        raise ValueError(f"m={m} out of range")
    if not 0 <= f <= comb(m, h.r):
        raise ValueError(f"f={f} out of range")
    if budget is not None:
        at_least(0, budget=budget)
    total = comb(h.n, m)
    limit = total if budget is None else min(budget, total)
    for count, subset in iter_subset_counts(h, m, 0, limit):
        if count == f:
            return tuple(subset)
    if limit < total:
        raise BudgetExhausted("subset budget exhausted before completing the scan", limit)
    return None


# --- the lift identity --------------------------------------------------------


def chi_from_hypergraph(h: Hypergraph, x: Sequence[int]) -> OrderedGraph:
    """Derive the pair coloring of an ordered subset X from an r-graph.

    chi(x_a, x_b) is read off by completing the pair with the last r-2
    elements of X; the factorization of the full coloring through chi is then
    checked over every increasing r-tuple of X. Raises FactorizationError
    with the first offending tuple.
    """
    x = list(x)
    r = h.r
    if len(x) < r:
        raise ValueError("X must have at least r vertices")
    if any(x[a] >= x[a + 1] for a in range(len(x) - 1)):
        raise ValueError("X must be strictly increasing")
    tail = x[len(x) - (r - 2):]
    top = len(x) - (r - 2)
    edges = []
    for a in range(top):
        for b in range(a + 1, top):
            if h.has_edge((x[a], x[b], *tail)):
                edges.append((a, b))
    g = OrderedGraph(top, edges)
    for tup in combinations(range(len(x)), r):
        a, b = tup[0], tup[1]  # b < top always: r-2 tuple elements follow it
        want = g.has_edge(a, b)
        got = h.has_edge(tuple(x[i] for i in tup))
        if want != got:
            raise FactorizationError(
                "coloring does not factor through the pair coloring on X",
                tuple(x[i] for i in tup),
            )
    return g


def verify_lift(
    h: Hypergraph,
    x: Sequence[int],
    u: Sequence[int],
    tail: Sequence[int],
) -> bool:
    """Check that the induced count of U + tail equals the weighted total of U.

    X must carry a pair coloring through which the r-graph factors (verified
    first). U is drawn from the first |X| - (r-2) elements of X and tail is
    any r-2 elements of X after max(U).
    """
    r = h.r
    x = list(x)
    u = sorted(u)
    tail = sorted(tail)
    if len(u) < 2:
        raise ValueError(f"U must have at least 2 vertices, got {len(u)}")
    if len(tail) != r - 2:
        raise ValueError(f"tail must have r-2 = {r - 2} vertices")
    if any(t <= u[-1] for t in tail):
        raise ValueError("tail vertices must come after all of U")
    if not set(u) <= set(x) or not set(tail) <= set(x):
        raise ValueError("U and tail must be subsets of X")
    g = chi_from_hypergraph(h, x)  # raises FactorizationError if violated
    pos = {v: i for i, v in enumerate(x)}
    top = len(x) - (r - 2)
    if any(pos[v] >= top for v in u):
        raise ValueError("U must avoid the last r-2 positions of X")
    m = len(u) + r - 2
    frame = WeightFrame(r, m, 1)
    total = weighted_total(g, [pos[v] for v in u], frame)
    return h.edge_count(tuple(u) + tuple(tail)) == total


# --- weighted (m,f)-subset search (the constructive recursion) ---------------


def _flip_kind(w: HomogeneousWitness) -> HomogeneousWitness:
    kind = "independent" if w.kind == "clique" else "clique"
    return HomogeneousWitness(w.set, kind, w.exact)


def _first_edge_in(g: OrderedGraph, mask: int) -> tuple[int, int] | None:
    """Lexicographically first edge (a, b), a < b, inside the vertex mask."""
    for a in bits_of(mask):
        above = g.adj[a] & mask & ~((1 << (a + 1)) - 1)
        if above:
            return (a, (above & -above).bit_length() - 1)
    return None


def find_weighted_mf_subset(
    g: OrderedGraph,
    r: int,
    m: int,
    f: int,
    h: int,
    budget: int | None = None,
) -> WeightedWitness | HomogeneousWitness:
    """Constructive search for a weighted (m,f)-subset or homogeneous h-set.

    For r=3 this follows the inductive construction: recurse into the forward
    non-neighborhood of a vertex with many forward non-neighbors (prepending a
    vertex with no back-edges keeps the weighted total), with dedicated
    constructions for the two exceptional targets (m=4, f=2) and (m=5, f=5).
    Success is guaranteed when |V(g)| >= h^(m-2). Values of f above half the
    range are complemented internally and mapped back.

    For r >= 4 the same recursion applies above m = 5r^2; at that base the
    target pattern comes from the degree-sequence builder and is searched for
    as an induced ordered subgraph under the budget. Smaller m falls back to a
    budgeted direct scan. The budget bounds each base-case search on its own.
    When neither a pattern nor a large homogeneous set turns up, a base case
    whose search ran out of budget raises BudgetExhausted, and so does an
    induction step none of whose branches landed while one of them ran out;
    otherwise failure raises SearchFailed with the reason.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if m < r:
        raise ValueError(f"m must be at least {r}")
    if not 0 <= f <= comb(m, r):
        raise ValueError(f"f={f} out of range [0, {comb(m, r)}]")
    if h <= 1:
        if g.n < 1:
            raise ValueError("empty graph")
        return HomogeneousWitness((0,), "clique", True)
    out = _weighted(g, (1 << g.n) - 1, r, m, f, h, budget, 5 * r * r)
    if isinstance(out, WeightedWitness):
        ensure(out.verify(g), "weighted witness")
    else:
        ensure(out.verify(g) and len(out.set) >= h, "homogeneous witness")
    return out


def _large_or_fail(found: tuple[int, ...], kind: str, exact: bool, h: int, cut: BudgetExhausted | None,
                   message: str, detail: dict) -> HomogeneousWitness:
    """The one exit of a search stage that found no pattern: the homogeneous
    set ``found`` when it reaches h, else the budget cut ``cut`` when a search
    ran out, else a failed guarantee precondition."""
    if len(found) >= h:
        return HomogeneousWitness(found, kind, exact)
    if cut is not None:
        raise cut
    raise SearchFailed(message, reason="guarantee precondition unmet", detail=detail)


def _weighted(
    g: OrderedGraph, mask: int, r: int, m: int, f: int, h: int, budget: int | None, m0: int
) -> WeightedWitness | HomogeneousWitness:
    """The search on the vertices of ``mask``; answers are vertex ids of g.

    A vertex whose forward non-neighborhood in the mask reaches the threshold
    (h^(m-3) for r = 3, m-r+1 for r >= 4) opens a branch on that
    neighborhood. For r = 3 the first such branch decides; for r >= 4 a failed
    branch is skipped. The base cases are m = 3, (4, 2) and (5, 5) for r = 3,
    and m <= m0 for r >= 4.
    """
    total = comb(m, r)
    if 2 * f > total:
        out = _weighted(g.complement(), mask, r, m, total - f, h, budget, m0)
        if isinstance(out, WeightedWitness):
            # same vertex set; weighted totals of a set in g and its
            # complement always sum to C(m, r)
            return WeightedWitness(out.vertices, r, m, f)
        return _flip_kind(out)

    if r == 3:
        if m == 3:  # normalized f is 0 here
            ne = _first_edge_in(g.complement(), mask)
            if ne is not None:
                return WeightedWitness(ne, 3, 3, 0)
            return _large_or_fail(bits_of(mask), "clique", True, h, None,
                                  "complete graph below the homogeneous target",
                                  {"m": m, "f": f, "h": h, "vertices": mask.bit_count()})
        if (m, f) == (4, 2):
            return _weighted_r3_m4f2(g, mask, h)
        if (m, f) == (5, 5):
            return _weighted_r3_m5f5(g, mask, h)
        need = h ** (m - 3)
    elif m > m0:
        # the lemma's size threshold involves untracked constants, so progress
        # is best-effort and the returned postconditions carry the guarantee
        need = m - r + 1
    else:
        cut = None  # set when the base-case search ran out of budget
        try:
            if m == m0:
                from .hbuilder import build_H

                # 2f <= C(m, r) here, so build_H builds for g, not its complement
                hit = find_induced_ordered_copy(g, mask, build_H(r, m, f).graph, budget)
            else:
                hit = _weighted_scan(g, mask, WeightFrame(r, m, 1), f, Budget(budget))
        except BudgetExhausted as e:
            cut, hit = e, None
        if hit is not None:
            return WeightedWitness(hit, r, m, f)
        clique = _greedy_clique(g.adj, mask)
        ind = _greedy_clique(g.adj, mask, -1)
        best, kind = (clique, "clique") if len(clique) >= len(ind) else (ind, "independent")
        return _large_or_fail(best, kind, False, h, cut,
                              "base-case pattern not found and no large homogeneous set",
                              {"r": r, "m": m, "f": f, "h": h})

    gave_up = None  # the first branch that ran out of budget
    for v in bits_of(mask):
        fnn = g.forward_non_neighbors(v, mask)
        if fnn.bit_count() >= need:
            try:
                sub = _weighted(g, fnn, r, m - 1, f, h, budget, m0)
            except (SearchFailed, BudgetExhausted) as e:
                if r == 3:
                    raise  # the first large branch decides
                if isinstance(e, BudgetExhausted):
                    gave_up = gave_up or e
                continue
            if isinstance(sub, WeightedWitness):
                # v precedes and is non-adjacent to everything in the witness,
                # so positions shift by one and weights are unchanged
                return WeightedWitness((v,) + sub.vertices, r, m, f)
            return sub
    if r == 3:
        message = "no vertex has a large forward non-neighborhood and the greedy clique is small"
        detail = {"m": m, "f": f, "h": h, "vertices": mask.bit_count()}
    else:
        message = "induction step found no structure"
        detail = {"r": r, "m": m, "f": f, "h": h}
    return _large_or_fail(_greedy_clique(g.adj, mask), "clique", True, h, gave_up, message, detail)


def _weighted_r3_m4f2(g: OrderedGraph, mask: int, h: int):
    # backward non-neighborhood of some vertex holds an edge u1u2; then
    # {u1, u2, v} spans only that edge, of weight 2
    for v in sorted(bits_of(mask), reverse=True):
        bnn = g.backward_non_neighbors(v, mask)
        if bnn.bit_count() >= h:
            edge = _first_edge_in(g, bnn)
            if edge is None:
                return HomogeneousWitness(bits_of(bnn), "independent", True)
            u1, u2 = edge
            return WeightedWitness((u1, u2, v), 3, 4, 2)
    return _large_or_fail(_greedy_clique(g.adj, mask, highest=True), "clique", True, h, None,
                          "m=4, f=2: no large backward non-neighborhood and greedy clique too small",
                          {"m": 4, "f": 2, "h": h})


def _weighted_r3_m5f5(g: OrderedGraph, mask: int, h: int):
    # v' with forward neighbors u1, u2 (a non-edge), all inside the backward
    # non-neighborhood of v: edges v'u1, v'u2 weigh 3 + 2 = 5
    for v in sorted(bits_of(mask), reverse=True):
        bnn = g.backward_non_neighbors(v, mask)
        if bnn.bit_count() >= h * h:
            for vp in bits_of(bnn):
                above = bnn & ~((1 << (vp + 1)) - 1)
                np_mask = above & g.adj[vp]
                if np_mask.bit_count() >= h:
                    ne = _first_edge_in(g.complement(), np_mask)
                    if ne is None:
                        return HomogeneousWitness(bits_of(np_mask), "clique", True)
                    u1, u2 = ne
                    return WeightedWitness((vp, u1, u2, v), 3, 5, 5)
            return _large_or_fail(_greedy_clique(g.adj, bnn, -1), "independent", True, h, None,
                                  "m=5, f=5: inner stage produced neither structure",
                                  {"m": 5, "f": 5, "h": h})
    return _large_or_fail(_greedy_clique(g.adj, mask, highest=True), "clique", True, h, None,
                          "m=5, f=5: no large backward non-neighborhood and greedy clique too small",
                          {"m": 5, "f": 5, "h": h})


def _weighted_scan(g: OrderedGraph, mask: int, frame: WeightFrame, f: int,
                   budget: Budget) -> tuple[int, ...] | None:
    """The lexicographically first ``frame.size``-subset of the vertices in
    ``mask`` whose weighted total is f, or None when there is none.

    Each subset scanned spends one unit of ``budget``; a subset it cannot pay
    for raises BudgetExhausted. Depth d keeps the weighted total of the prefix
    cur[:d], so a lexicographic successor recomputes only the depths from the
    first changed position on, as ``core.iter_subset_counts`` does.
    """
    verts = bits_of(mask)
    n, size, adj = len(verts), frame.size, g.adj
    if size > n:
        return None
    ps = list(frame.positions)
    weights = [[frame.weight(ps[a], ps[d]) for a in range(d)] for d in range(size)]
    left = None if budget.limit is None else max(budget.limit - budget.used, 0)
    used = 0
    succ = [0] * g.n  # the next vertex of the mask
    for a, b in zip(verts, verts[1:]):
        succ[a] = b
    last = verts[n - size:]  # the highest vertex each depth can hold
    cur = list(verts[:size])
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
            while cur[first] == last[first]:
                first -= 1
                if first < 0:
                    return None
            v = cur[first] = succ[cur[first]]
            for j in range(first + 1, size):
                v = cur[j] = succ[v]
    finally:
        budget.used += used


def find_induced_ordered_copy(
    g: OrderedGraph, mask: int, pattern: OrderedGraph, budget: int | None = None
) -> tuple[int, ...] | None:
    """Order-respecting induced embedding of ``pattern`` into the vertices of
    ``mask`` in ``g``.

    Backtracking over pattern positions in order; the partial map must match
    adjacency exactly. Returns the image vertices, or None; None proves
    absence only when the budget was not exhausted (exhaustion raises).
    """
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


# --- the m = r+1 realization ---------------------------------------------------


@dataclass(frozen=True)
class RealizeResult:
    witness: tuple[int, ...] | None
    pattern_found: bool
    complemented: bool
    k: int
    x: tuple[int, ...]

    @property
    def absent(self) -> bool:
        return not self.pattern_found


def realize_r_plus_1(h: Hypergraph, f: int, ell: int | None = None) -> RealizeResult:
    """Find an (r+1, f)-subset through stepping down with split k = f.

    Values f > floor((r+1)/2) are complemented first. After stepping the
    coloring down to a pair coloring at positions (k, k+1), the op looks for
    positions i < j < l with the first two pairs absent and the third present
    (an independent triple when f = 0); the witness is the pattern plus the
    forced head and tail vertices, re-verified by a direct edge count.
    """
    from .stepdown import step_to_pairs

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
    found = next(((i, j, l) for i, j in combinations(range(lo, hi), 2) if pair_color(i, j) == 0
                  for l in range(j + 1, hi + 1)
                  if pair_color(i, l) == 0 and pair_color(j, l) == want_last), None)
    if found is None:
        return RealizeResult(None, False, complemented, k, x)
    i, j, l = found
    head = [x[a] for a in range(k - 1)]
    tail_count = r - k - 1
    tail = [x[a] for a in range(ell_got - tail_count, ell_got)]
    u = tuple(sorted(head + [x[i - 1], x[j - 1], x[l - 1]] + tail))
    ensure(len(u) == r + 1 and h.edge_count(u) == f, "realized (r+1, f)-subset")
    return RealizeResult(u, True, complemented, k, x)


# --- ordered-pattern weight existence (small exhaustive check) -----------------


def pattern_weight_exists(r: int, m: int, f: int, k: int) -> bool:
    """Is there an ordered graph on the m-r+2 weighted positions whose
    weighted total equals f, for the split-k weight table?

    The weights are nonnegative, so the reachable totals are the subset sums
    of the pair weights, kept as one bitset.
    """
    frame = WeightFrame(r, m, k)
    reach = 1
    for a, b in combinations(frame.positions, 2):
        reach |= reach << frame.weight(a, b)
    return f >= 0 and bool(reach >> f & 1)


def pattern_weight_exists_any_split(r: int, m: int, f: int, k_max: int | None = None) -> dict[int, bool]:
    """Existence per split k; k and r-k give mirror-image weight tables."""
    top = k_max if k_max is not None else r // 2
    return {k: pattern_weight_exists(r, m, f, k) for k in range(1, top + 1)}
