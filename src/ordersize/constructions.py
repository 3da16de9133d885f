"""Lower-bound constructions and their empirical verifiers.

The pattern-colored construction: color the pairs of a transitive tournament
with C(r, 2) colors named c_{p,q} (1 <= p < q <= r); an increasing r-tuple is
an edge exactly when every pair sits on its pattern color. Random colorings
of this kind only admit small homogeneous sets, and their m-vertex subsets
never exceed g_r(m) edges; the scanner checks the counts empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import comb

from .core import (
    Hypergraph,
    PalettedColoring,
    Tournament,
    bits_of,
    iter_subset_counts,
    mask_of,
    pair_rank,
)
from .errors import at_least
from .rng import SeededRNG
from .values import g_r

DEFAULT_MATERIALIZE_CAP = 10**8
_UNINDEXED = (None, -1)  # no position masks, and no visit limit tried yet


def random_tournament(n: int, seed: int) -> Tournament:
    at_least(0, n=n)
    rng = SeededRNG(seed)
    return Tournament(n, rng.randranges(2, comb(n, 2)))


def cyclic_triangles(t: Tournament) -> Hypergraph:
    """3-graph whose edges are the cyclically oriented triples."""
    edges = []
    for a, b, c in combinations(range(t.n), 3):
        ab, bc, ca = t.beats(a, b), t.beats(b, c), t.beats(c, a)
        if ab == bc == ca:
            edges.append((a, b, c))
    return Hypergraph(3, t.n, edges)


def cyclic_triangle_3graph(n: int, seed: int) -> Hypergraph:
    """Cyclic triangles of a seeded uniform random tournament."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return cyclic_triangles(random_tournament(n, seed))


def cyclic_triangle_cap(m: int) -> int:
    """Largest possible cyclic-triangle count among m tournament vertices."""
    return m * (m * m - 1) // 24


# --- the pattern construction ---------------------------------------------------


def pattern_color_index(p: int, q: int, r: int) -> int:
    """Index of the pattern color c_{p,q} (1-based pair of [r])."""
    return pair_rank(p - 1, q - 1, r)


@dataclass(frozen=True)
class GrInstance:
    """A pair coloring plus the r-graph of its pattern copies.

    ``graph`` is materialized only when the number of r-tuples is within the
    cap; otherwise membership stays implicit through ``is_edge``. An instance
    is immutable, and its tables are built at most once per instance.
    """

    r: int
    n: int
    coloring: PalettedColoring
    seed: int | None = None
    graph: Hypergraph | None = None

    def is_edge(self, tup: tuple[int, ...]) -> bool:
        """Membership readout straight from the pair colors."""
        ts = tuple(sorted(tup))
        if len(ts) != self.r:
            raise ValueError(f"need an {self.r}-tuple")
        for a, b in combinations(range(self.r), 2):
            if self.coloring.color(ts[a], ts[b]) != pattern_color_index(a + 1, b + 1, self.r):
                return False
        return True

    def count_in_subset(self, subset: tuple[int, ...]) -> int:
        """Edges inside a vertex subset, by the pattern DFS over the color table."""
        smask = mask_of(subset)
        if smask >> self.n:
            raise ValueError(f"subset {tuple(subset)} out of range [0, {self.n})")
        return self._pattern_dfs(smask)

    @cached_property
    def _pattern_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Entry [a][d - a - 1] is the color-table row of the pattern color
        c_{a+1,d+1}, for positions a < d of an edge."""
        table, r = self.coloring._color_rows, self.r
        return tuple(
            tuple(table[pattern_color_index(a + 1, d + 1, r)] for d in range(a + 1, r))
            for a in range(r - 1)
        )

    def _index_positions(self, limit: int) -> bool:
        """Build the position masks, unless they are in place: mask a is the
        OR of the a-th vertex over all pattern edges. The edges come from one
        full pattern DFS of at most ``limit`` visits; past that no index is
        kept, and a later call with a larger limit tries again. The masks or
        None, and the limit tried, sit under ``_pos`` in the instance dict.
        Returns whether the masks are in place."""
        masks, tried = self.__dict__.get("_pos", _UNINDEXED)
        if masks is None and tried < limit:
            edges: list[tuple[int, ...]] = []
            if self._pattern_dfs((1 << self.n) - 1, edges, limit) is not None:
                masks = tuple(mask_of(e[a] for e in edges) for a in range(self.r))
            self.__dict__["_pos"] = (masks, limit)
        return masks is not None

    def _pattern_dfs(self, smask: int, out: list | None = None, limit: int | None = None) -> int | None:
        """Count the edges inside the vertex mask ``smask``; with ``out``, also
        append each one to it as an increasing r-tuple. With ``limit``, return
        None once the walk would visit more than ``limit`` candidate vertices
        at the positions before the last.

        When ``_index_positions`` has built the position masks, position a
        starts from ``smask`` & its mask, and a subset that misses one of them
        has no edge. Depth a keeps one candidate mask per later position d.
        Choosing v at depth a ANDs into each of them the color-table row of v
        for c_{a+1,d+1}, which holds only vertices above v, and drops v as soon
        as one mask is empty. At the last position the count is the popcount
        of its mask.
        """
        masks = self.__dict__.get("_pos", _UNINDEXED)[0]
        if masks is not None:
            starts = []
            for p in masks:
                p &= smask
                if not p:
                    return 0
                starts.append(p)
        else:
            starts = [smask] * self.r
        rows = self._pattern_rows
        last = self.r - 1
        chosen = [0] * last
        count = 0
        left = -1 if limit is None else limit  # from -1 the count never reaches 0

        def extend(depth: int, cands: list[int]) -> bool:
            nonlocal count, left
            c = cands[0]
            later = cands[1:]
            prow = rows[depth]
            final = depth + 1 == last
            while c:
                if not left:
                    return False
                left -= 1
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
                    chosen[depth] = v
                    if final:
                        count += nxt[0].bit_count()
                        if out is not None:
                            head = tuple(chosen)
                            out.extend(head + (w,) for w in bits_of(nxt[0]))
                    elif not extend(depth + 1, nxt):
                        return False
            return True

        return count if extend(0, starts) else None


def build_gr(
    n: int, r: int, seed: int, materialize_cap: int = DEFAULT_MATERIALIZE_CAP
) -> GrInstance:
    """Uniform random pair coloring over C(r, 2) colors, with the pattern
    r-graph materialized when C(n, r) is within the cap."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    if n < r:
        raise ValueError("n must be at least r")
    rng = SeededRNG(seed)
    palette = comb(r, 2)
    coloring = PalettedColoring._from_colors(n, palette, rng.randranges(palette, comb(n, 2)))
    inst = GrInstance(r, n, coloring, seed)
    return replace(inst, graph=materialize(inst)) if comb(n, r) <= materialize_cap else inst


def materialize(inst: GrInstance) -> Hypergraph:
    """The r-graph of all pattern copies, by the pattern DFS over every vertex."""
    edges: list[tuple[int, ...]] = []
    inst._pattern_dfs((1 << inst.n) - 1, edges)
    return Hypergraph(inst.r, inst.n, edges)


@dataclass
class SubsetScanReport:
    r: int
    n: int
    m: int
    mode: str  # "exhaustive" | "sampled"
    samples: int
    seed: int | None
    histogram: dict[int, int]
    max_edges: int
    target: int
    violations: list[dict]
    advisory: bool = False  # uniformity below the guarantee; nothing asserted

    @property
    def ok(self) -> bool:
        return self.advisory or not self.violations

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "max": self.max_edges,
            "target": self.target,
            "violations": self.violations,
            "advisory": self.advisory,
        }


def check_fact_gr(
    inst: GrInstance,
    m: int,
    mode: str = "auto",
    samples: int = 100_000,
    seed: int = 0,
    exhaustive_cap: int = 10**6,
) -> SubsetScanReport:
    """Scan m-subsets for edge counts above g_r(m).

    The bound is a theorem for r >= 4; at r = 3 the scan runs but the report
    is flagged advisory and exceedances are informational. Exhaustive below
    the cap (or when forced), sampled otherwise; any count above the bound is
    recorded with its witness subset. An exhaustive scan runs on the
    materialized r-graph, built first when the instance is implicit. A
    sampled scan counts the stream ``SeededRNG(seed).sorted_samples`` with
    ``count_in_subset``. It first builds the instance's position masks, by a
    DFS of at most samples * m visits, the least the unmasked scan pays; a
    sample that misses one mask is then counted as 0 at once. When that DFS
    runs out of visits, the scan runs unmasked, with the same report. Raises
    ValueError when m exceeds n, ``mode`` is not "auto", "exhaustive" or
    "sampled", or a sampled scan gets fewer than one sample.
    """
    if m > inst.n:
        raise ValueError(f"m={m} exceeds n={inst.n}")
    target = g_r(inst.r, m)
    total = comb(inst.n, m)
    if mode == "auto":
        mode = "exhaustive" if total <= exhaustive_cap else "sampled"
    if mode == "exhaustive":
        graph = inst.graph if inst.graph is not None else materialize(inst)
        counts = iter_subset_counts(graph, m)
        samples, seed = total, None
    elif mode == "sampled":
        at_least(1, samples=samples)
        # every unindexed sample visits at least its m depth-0 vertices
        inst._index_positions(samples * m)
        count = inst.count_in_subset
        counts = ((count(s), s) for s in SeededRNG(seed).sorted_samples(inst.n, m, samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    for c, subset in counts:
        histogram[c] = histogram.get(c, 0) + 1
        if c > target:
            violations.append({"subset": list(subset), "edges": c})
    return SubsetScanReport(
        inst.r, inst.n, m, mode, samples, seed, histogram, max(histogram, default=0),
        target, violations, advisory=inst.r < 4,
    )


def scan_counterexample(
    inst: GrInstance, samples: int = 100_000, seed: int = 0, exhaustive_cap: int = 10**6
) -> SubsetScanReport:
    """Look for 2r vertices spanning exactly 2^r - 1 edges.

    For r >= 5 no such subset exists; a hit is recorded as a violation with
    its witness count, as is anything above 2^r = g_r(2r). Runs at r <= 4 are
    flagged advisory (the r = 4 case needs its own analysis, and r = 3
    genuinely reaches 7 edges on 6 vertices). Sampled runs prove nothing
    about absence and say so through the mode field.
    """
    r = inst.r
    m = 2 * r
    forbidden = 2**r - 1
    report = check_fact_gr(inst, m, mode="auto", samples=samples, seed=seed,
                           exhaustive_cap=exhaustive_cap)
    hits = report.histogram.get(forbidden, 0)
    extra = [{"count": forbidden, "subsets": hits}] if hits else []
    return replace(report, violations=report.violations + extra, advisory=r < 5)


def footnote_example_r3() -> GrInstance:
    """The explicit 6-vertex pattern coloring with seven induced edges.

    Vertices split as {0,1,2}, {3,4}, {5}: pairs across the first two blocks
    get c_{1,2}; first block to 5 gets c_{1,3}; second block to 5 gets
    c_{2,3}; pairs inside {0,1,2} get their own c_{i,j}. The one pair (3,4)
    is immaterial to the count and fixed to c_{1,2} for determinism.
    """
    n = 6
    c12 = pattern_color_index(1, 2, 3)
    c13 = pattern_color_index(1, 3, 3)
    c23 = pattern_color_index(2, 3, 3)
    colors = {}
    for i, j in combinations(range(3), 2):
        colors[(i, j)] = pattern_color_index(i + 1, j + 1, 3)
    for i in range(3):
        for j in (3, 4):
            colors[(i, j)] = c12
        colors[(i, 5)] = c13
    for j in (3, 4):
        colors[(j, 5)] = c23
    colors[(3, 4)] = c12
    coloring = PalettedColoring.from_map(n, 3, colors)
    inst = GrInstance(3, n, coloring, None)
    return replace(inst, graph=materialize(inst))


def random_hypergraph(r: int, n: int, density_pct: int, seed: int) -> Hypergraph:
    """Each r-subset kept independently with probability density_pct / 100."""
    at_least(0, n=n)
    if not 0 <= density_pct <= 100:
        raise ValueError("density is a percentage")
    rng = SeededRNG(seed)
    draws = rng.randranges(100, comb(n, r))
    edges = [e for e, x in zip(combinations(range(n), r), draws) if x < density_pct]
    return Hypergraph(r, n, edges)


def random_ordered_graph(n: int, density_pct: int, seed: int):
    """Each pair kept independently with probability density_pct / 100."""
    from .core import OrderedGraph

    at_least(0, n=n)
    if not 0 <= density_pct <= 100:
        raise ValueError("density is a percentage")
    rng = SeededRNG(seed)
    draws = rng.randranges(100, comb(n, 2))
    edges = [p for p, x in zip(combinations(range(n), 2), draws) if x < density_pct]
    return OrderedGraph(n, edges)
