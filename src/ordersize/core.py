"""Core value types: uniform hypergraphs, ordered graphs, colorings, densities.

Everything here is immutable after construction and safe to share across
threads. Counts use Python's arbitrary-precision integers; densities are exact
``fractions.Fraction`` values. Induced counts run on per-graph link tables
built once, on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError

Edge = tuple[int, ...]


def vertex_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple, bounds-checked against n."""
    s = tuple(sorted(set(int(i) for i in indices)))
    if s and (s[0] < 0 or s[-1] >= n):
        raise ValueError(f"vertex set {s} out of range [0, {n})")
    return s


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def pair_rank(i: int, j: int, n: int) -> int:
    """Rank of the pair (i, j), i < j, in lexicographic order over [0, n)."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return comb(n, 2) - comb(n - i, 2) + (j - i - 1)


def _check_shape(r: int, n: int) -> None:
    if r < 2:
        raise ValueError("uniformity r must be >= 2")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph on vertices 0..n-1.

    Edges are canonical strictly increasing r-tuples. Doubles as a {0,1}
    coloring of the complete r-graph (edge present = color 1).
    """

    r: int
    n: int
    edges: frozenset[Edge]

    def __init__(self, r: int, n: int, edges: Iterable[Iterable[int]] = ()):
        _check_shape(r, n)
        canon = set()
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != r or len(set(t)) != r:
                raise ValueError(f"edge {t} is not a set of {r} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} out of range [0, {n})")
            canon.add(t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def _from_edges(cls, r: int, n: int, edges: Iterable[Edge]) -> "Hypergraph":
        """Wrap edges that are already strictly increasing r-tuples in [0, n)."""
        h = object.__new__(cls)
        object.__setattr__(h, "r", r)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", frozenset(edges))
        return h

    @cached_property
    def _edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in sorted(self.edges))

    @cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _lower_links(self) -> tuple[tuple[int, ...], ...]:
        """3-uniform: entry [v][u], u < v, masks the a < u with (a, u, v) an edge."""
        rows = [[0] * v for v in range(self.n)]
        for a, u, v in self.edges:
            rows[v][u] |= 1 << a
        return tuple(tuple(row) for row in rows)

    @cached_property
    def _pair_links(self) -> tuple[tuple[int, ...], ...]:
        """3-uniform: entry [a][b] masks the w with {a, b, w} an edge."""
        rows = [[0] * self.n for _ in range(self.n)]
        for a, b, c in self.edges:
            rows[a][b] |= 1 << c
            rows[b][a] |= 1 << c
            rows[a][c] |= 1 << b
            rows[c][a] |= 1 << b
            rows[b][c] |= 1 << a
            rows[c][b] |= 1 << a
        return tuple(tuple(row) for row in rows)

    @cached_property
    def _co_pair_links(self) -> tuple[tuple[int, ...], ...]:
        """3-uniform: the complement's ``_pair_links``, built without it: entry
        [a][b], a != b, masks the w not in {a, b} with {a, b, w} a non-edge."""
        full = (1 << self.n) - 1
        return tuple(tuple(0 if a == b else x ^ (full ^ (1 << a | 1 << b)) for b, x in enumerate(row))
                     for a, row in enumerate(self._pair_links))

    @cached_property
    def _pair_tops(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """3-uniform: (width, rows). Entry [a][b], a < b, packs a 1 into the
        width-bit field of each c with (a, b, c) an edge; the width holds
        C(n - 2, 2), the most pairs of a scan prefix that close an edge with c."""
        width = max(1, comb(max(self.n - 2, 0), 2).bit_length())
        rows = [[0] * self.n for _ in range(self.n)]
        for a, b, c in self.edges:
            rows[a][b] |= 1 << c * width
        return width, tuple(tuple(row) for row in rows)

    @cached_property
    def _top_rests(self) -> tuple[tuple[int, ...], ...]:
        """Row v holds the masks of e - {v} over the edges e with max(e) = v."""
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for e in self._sorted_edges:
            rows[e[-1]].append(mask_of(e[:-1]))
        return tuple(tuple(row) for row in rows)

    @cached_property
    def _top_tuples(self) -> dict[Edge, int]:
        """Key e[1:] maps to the mask of the lowest vertices e[0] of the edges e
        with those top r - 1 vertices."""
        table: dict[Edge, int] = {}
        for e in self.edges:
            top = e[1:]
            table[top] = table.get(top, 0) | 1 << e[0]
        return table

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self.edges

    def complement(self) -> "Hypergraph":
        """Edge present in the output iff absent in the input."""
        all_edges = frozenset(combinations(range(self.n), self.r))
        return Hypergraph._from_edges(self.r, self.n, all_edges - self.edges)

    def induced(self, subset: Iterable[int]) -> "Hypergraph":
        """Subgraph on ``subset``, relabeled by the order-preserving map."""
        s = vertex_set(subset, self.n)
        if len(s) == self.n:
            return self  # immutable: the graph is its own induced copy, tables included
        relabel = {v: i for i, v in enumerate(s)}
        smask = mask_of(s)
        kept = [
            tuple(relabel[v] for v in e)
            for e, m in zip(self._sorted_edges, self._edge_masks)
            if m & ~smask == 0
        ]
        return Hypergraph._from_edges(self.r, len(s), kept)

    def edge_count(self, subset: Iterable[int]) -> int:
        """Number of edges contained in ``subset``."""
        return self.edge_count_mask(mask_of(vertex_set(subset, self.n)))

    def edge_count_mask(self, smask: int) -> int:
        """Number of edges inside the vertex mask ``smask`` (bits >= n ignored)."""
        smask &= (1 << self.n) - 1
        return self._count_sorted(bits_of(smask), smask)

    def _count_sorted(self, verts: Sequence[int], smask: int) -> int:
        """Number of edges inside ``smask``, whose vertices ``verts`` lists in
        increasing order, all below n.

        For r = 3 the count is the sum over the pairs u < v of the subset of
        popcount(links[v][u] & smask). For r >= 4 it runs on whichever of the
        two r-general loops should cost less: C(k - 1, r - 1) lookups of the
        (r - 1)-tuples of the k-vertex subset, or tests of the rest masks of
        its vertices, about |E| k / n of them. A large subset of a sparse
        graph has few rest masks but many tuples. Other r test the rest masks.
        """
        if self.r == 3:
            links = self._lower_links
            count = 0
            for i in range(2, len(verts)):
                row = links[verts[i]]
                for u in verts[1:i]:  # the subset minimum has nothing below it
                    count += (row[u] & smask).bit_count()
            return count
        k, r = len(verts), self.r
        # a lookup costs about four rest-mask tests
        if r >= 4 and k >= r and 4 * self.n * comb(k - 1, r - 1) < len(self.edges) * k:
            return self._count_by_tops(verts, smask)
        return self._count_by_rests(verts, smask)

    def _count_by_tops(self, verts: Sequence[int], smask: int) -> int:
        """Sum of popcount(tops[t] & smask) over the (r - 1)-tuples t of the
        subset above its minimum."""
        get = self._top_tuples.get
        return sum([(get(t, 0) & smask).bit_count() for t in combinations(verts[1:], self.r - 1)])

    def _count_by_rests(self, verts: Sequence[int], smask: int) -> int:
        """Number of rest masks of the subset vertices that lie inside ``smask``."""
        rests = self._top_rests
        count = 0
        for v in verts:
            for t in rests[v]:
                if t & smask == t:
                    count += 1
        return count

    def is_clique(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        return self.edge_count_mask(mask_of(s)) == comb(len(s), self.r)

    def is_independent(self, subset: Iterable[int]) -> bool:
        return self.edge_count(subset) == 0

    def to_json_obj(self) -> dict:
        return {"r": self.r, "n": self.n, "edges": [list(e) for e in self._sorted_edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Hypergraph":
        return cls(int(obj["r"]), int(obj["n"]), obj["edges"])


def complete_hypergraph(r: int, n: int) -> Hypergraph:
    return Hypergraph(r, n, combinations(range(n), r))


def empty_hypergraph(r: int, n: int) -> Hypergraph:
    return Hypergraph(r, n, ())


@dataclass(frozen=True)
class OrderedGraph:
    """Graph on vertices 0 < 1 < ... < n-1; the order is part of the object.

    The adjacency rows are the whole data: bit u of ``adj[v]`` is set iff uv
    is an edge. The edge set is derived from them on first use.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for e in edges:
            a, b = sorted(int(v) for v in e)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a < 0 or b >= n:
                raise ValueError(f"edge ({a}, {b}) out of range [0, {n})")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def _from_rows(cls, n: int, adj: tuple[int, ...]) -> "OrderedGraph":
        """Wrap rows that are already symmetric, in range and loop-free."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (a, b) with a < b."""
        return frozenset(
            (a, b) for a, row in enumerate(self.adj) for b in bits_of(row >> (a + 1) << (a + 1))
        )

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.n and b >= 0 and self.adj[a] >> b & 1 == 1

    @cached_property
    def _co_adj(self) -> tuple[int, ...]:
        """The complement's adjacency rows: bit u of row v is set iff u != v
        and uv is not an edge."""
        full = (1 << self.n) - 1
        return tuple(row ^ full ^ (1 << v) for v, row in enumerate(self.adj))

    def complement(self) -> "OrderedGraph":
        return OrderedGraph._from_rows(self.n, self._co_adj)

    def forward_non_neighbors(self, v: int, within: int | None = None) -> int:
        """Bitmask of u > v with uv not an edge, optionally restricted."""
        scope = ((1 << self.n) - 1) if within is None else within
        above = scope & ~((1 << (v + 1)) - 1)
        return above & ~self.adj[v]

    def backward_non_neighbors(self, v: int, within: int | None = None) -> int:
        scope = ((1 << self.n) - 1) if within is None else within
        below = scope & ((1 << v) - 1)
        return below & ~self.adj[v]

    def is_clique(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        smask = mask_of(s)
        return all((self.adj[v] | 1 << v) & smask == smask for v in s)

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = vertex_set(subset, self.n)
        smask = mask_of(s)
        return all(self.adj[v] & smask == 0 for v in s)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted([list(e) for e in self.edges])}


@dataclass(frozen=True)
class PalettedColoring:
    """Total coloring of the pairs of [0, n) with a fixed palette size."""

    n: int
    palette: int
    colors: tuple[int, ...]

    def __init__(self, n: int, palette: int, colors: Sequence[int]):
        if len(colors) != comb(n, 2):
            raise ValueError(f"need {comb(n, 2)} pair colors, got {len(colors)}")
        cc = tuple(int(c) for c in colors)
        if any(c < 0 or c >= palette for c in cc):
            raise ValueError("palette index out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "colors", cc)

    @classmethod
    def _from_colors(cls, n: int, palette: int, colors: Iterable[int]) -> "PalettedColoring":
        """Wrap C(n, 2) pair colors that are already ints in [0, palette)."""
        pc = object.__new__(cls)
        object.__setattr__(pc, "n", n)
        object.__setattr__(pc, "palette", palette)
        object.__setattr__(pc, "colors", tuple(colors))
        return pc

    def color(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.colors[pair_rank(i, j, self.n)]

    @cached_property
    def _color_rows(self) -> tuple[tuple[int, ...], ...]:
        """Entry [c][u] masks the v > u with color(u, v) = c."""
        rows = [[0] * self.n for _ in range(self.palette)]
        for (i, j), c in zip(combinations(range(self.n), 2), self.colors):
            rows[c][i] |= 1 << j
        return tuple(tuple(row) for row in rows)

    @classmethod
    def from_map(cls, n: int, palette: int, mapping) -> "PalettedColoring":
        """Build from a callable or dict over pairs (i < j)."""
        get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        colors = [get((i, j)) if isinstance(mapping, dict) else get(i, j)
                  for i, j in combinations(range(n), 2)]
        return cls(n, palette, colors)


@dataclass(frozen=True)
class Tournament:
    """Orientation of the complete graph on [0, n)."""

    n: int
    forward: tuple[bool, ...]  # per pair rank: True iff i -> j for i < j

    def __init__(self, n: int, forward: Sequence[bool]):
        if len(forward) != comb(n, 2):
            raise ValueError(f"need {comb(n, 2)} orientations, got {len(forward)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forward", tuple(bool(b) for b in forward))

    def beats(self, a: int, b: int) -> bool:
        """True iff the arc goes a -> b."""
        if a == b:
            raise ValueError("no self-arcs")
        if a < b:
            return self.forward[pair_rank(a, b, self.n)]
        return not self.forward[pair_rank(b, a, self.n)]

    @classmethod
    def transitive(cls, n: int) -> "Tournament":
        return cls(n, [True] * comb(n, 2))


# --- densities -------------------------------------------------------------


def maybe_density(h: Hypergraph, x: Iterable[int], y: Iterable[int],
                  z: Iterable[int]) -> Fraction | None:
    """Exact edge density among three vertex sets of a 3-graph, or None when
    the shape's denominator is empty.

    Supported shapes (in any argument order): three pairwise disjoint sets,
    two equal sets disjoint from the third, or three equal sets. Partially
    overlapping sets are rejected. Counts run on the pair-link table:
    popcount(links[u][w] & S) summed over the pairs of the doubled set, or
    over one vertex from each of the two smaller disjoint sets.
    """
    if h.r != 3:
        raise ShapeError("density is defined for 3-uniform hypergraphs")
    xs = vertex_set(x, h.n)
    ys = vertex_set(y, h.n)
    zs = vertex_set(z, h.n)
    sets = [xs, ys, zs]

    if xs == ys == zs:
        denom = comb(len(xs), 3)
        return Fraction(h.edge_count(xs), denom) if denom else None

    links = h._pair_links

    # Two equal, one different: normalize so the doubled set comes first.
    for a in range(3):
        for b in range(a + 1, 3):
            if sets[a] == sets[b]:
                dbl = sets[a]
                single = sets[3 - a - b]
                if set(dbl) & set(single):
                    raise ShapeError("equal pair must be disjoint from the third set")
                denom = comb(len(dbl), 2) * len(single)
                if denom == 0:
                    return None
                sm = mask_of(single)
                count = 0
                for i, u in enumerate(dbl):
                    row = links[u]
                    for w in dbl[i + 1:]:
                        count += (row[w] & sm).bit_count()
                return Fraction(count, denom)

    union = set(xs) | set(ys) | set(zs)
    if len(union) != len(xs) + len(ys) + len(zs):
        raise ShapeError("sets overlap partially; unsupported shape")
    denom = len(xs) * len(ys) * len(zs)
    if denom == 0:
        return None
    p, q, rest = sorted(sets, key=len)  # loop over the two smallest sets
    rm = mask_of(rest)
    count = 0
    for u in p:
        row = links[u]
        for w in q:
            count += (row[w] & rm).bit_count()
    return Fraction(count, denom)


def density(h: Hypergraph, x: Iterable[int], y: Iterable[int], z: Iterable[int]) -> Fraction:
    """``maybe_density``, with an empty denominator rejected by ShapeError."""
    value = maybe_density(h, x, y, z)
    if value is None:
        raise ShapeError("density denominator is empty")
    return value


# --- file formats ----------------------------------------------------------


def write_hg_text(h: Hypergraph) -> str:
    """Canonical .hg text: header line 'r n', then lexicographic edge lines."""
    lines = [f"{h.r} {h.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in h._sorted_edges)
    return "\n".join(lines) + "\n"


def read_hg_text(text: str) -> Hypergraph:
    """Parse .hg text. Each edge line is checked once, for its length, its
    order and its range, with the messages ``Hypergraph`` would give."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty .hg input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line {lines[0]!r}, expected 'r n'")
    r, n = int(head[0]), int(head[1])
    edges = []
    for ln in lines[1:]:
        vs = tuple(map(int, ln.split()))
        if len(vs) != r:
            raise ValueError(f"edge line {ln!r} does not have {r} entries")
        if not all(map(lt, vs, vs[1:])):
            raise ValueError(f"edge line {ln!r} is not strictly increasing")
        edges.append(vs)
    _check_shape(r, n)
    for e in edges:
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} out of range [0, {n})")
    return Hypergraph._from_edges(r, n, edges)


def save_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w") as f:
        if path.endswith(".json"):
            json.dump(h.to_json_obj(), f, indent=2, sort_keys=True)
            f.write("\n")
        else:
            f.write(write_hg_text(h))


def load_hypergraph(path: str) -> Hypergraph:
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        return Hypergraph.from_json_obj(json.loads(text))
    return read_hg_text(text)


# --- combination ranking and the lexicographic subset scan -------------------


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The rank-th k-combination of [0, n) in lexicographic order."""
    if not 0 <= rank < comb(n, k):
        raise ValueError("rank out of range")
    out = []
    x = 0
    for slot in range(k, 0, -1):
        while True:
            block = comb(n - x - 1, slot - 1)
            if rank < block:
                out.append(x)
                x += 1
                break
            rank -= block
            x += 1
    return tuple(out)


def iter_subset_counts(
    h: Hypergraph, m: int, start: int = 0, count: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """Yield (induced edge count, subset) for consecutive lexicographic m-subsets.

    The scan starts at rank ``start`` and yields ``count`` subsets, by default
    all the rest. The subset is one live list that is rewritten in place
    between yields, so copy it to keep it.

    Depth d keeps the mask and the induced count of the prefix cur[:d]; a
    lexicographic successor recomputes only the depths from the first changed
    position on. For r = 3 and m >= 2, depth d <= m - 2 also keeps a packed
    vector T whose field v counts the pairs of the prefix that close an edge
    with v: adding v to a prefix P adds T[v] to the count and tops[u][v] to T
    for each u in P. The last two positions x < y over an (m-2)-prefix P then
    count count(P) + T[x] + T[y] + popcount(links[y][x] & P), so a subset
    costs O(1) operations whatever m is. For other r, adding v to a prefix P
    adds the edges whose largest vertex is v: a test of each rest mask of v.
    """
    n = h.n
    stop = comb(n, m) if count is None else min(comb(n, m), start + count)
    if start >= stop:
        return
    cur = list(unrank_combination(start, n, m))
    left = stop - start
    masks = [0] * (m + 1)
    counts = [0] * (m + 1)
    first = 0  # shallowest depth whose prefix changed
    if h.r == 3 and m >= 2:
        width, tops = h._pair_tops
        field = (1 << width) - 1
        links = h._lower_links
        k = m - 2
        packs = [0] * (k + 1)
        while True:
            for d in range(first, k):
                v = cur[d]
                t = packs[d]
                counts[d + 1] = counts[d] + (t >> v * width & field)
                for u in cur[:d]:
                    t += tops[u][v]
                packs[d + 1] = t
                masks[d + 1] = masks[d] | 1 << v
            c, t, below = counts[k], packs[k], masks[k]
            x, y = cur[k], cur[-1]
            while True:  # the y-runs of the tail over the prefix cur[:k]
                cx = c + (t >> x * width & field)
                end = y + left if y + left < n else n
                left -= end - y
                for y in range(y, end):
                    cur[-1] = y
                    yield cx + (t >> y * width & field) + (links[y][x] & below).bit_count(), cur
                if not left:
                    return
                x += 1
                if x == n - 1:
                    break
                cur[k] = x
                y = x + 1
            first = k - 1
            while cur[first] == n - m + first:
                first -= 1
            cur[first] += 1
            for j in range(first + 1, m):
                cur[j] = cur[j - 1] + 1
    rests = h._top_rests
    for left in range(left - 1, -1, -1):
        for d in range(first, m):
            v = cur[d]
            below = masks[d]
            c = counts[d]
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
