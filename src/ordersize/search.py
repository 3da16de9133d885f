"""Homogeneous-set, star, and pair-link search primitives.

Every witness returned here is re-verified against the source graph by direct
edge queries before it leaves the function. Tie-breaking is by smallest vertex
index throughout, so all searches are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import NamedTuple

from .core import Hypergraph, OrderedGraph, bits_of
from .errors import Budget, at_least, ensure
from .rng import SeededRNG

DEFAULT_EXACT_LIMIT = 40


@dataclass(frozen=True)
class HomogeneousWitness:
    set: tuple[int, ...]
    kind: str  # "clique" | "independent"
    exact: bool

    def size(self) -> int:
        return len(self.set)

    def verify(self, h: Hypergraph) -> bool:
        if self.kind == "clique":
            return h.is_clique(self.set)
        return h.is_independent(self.set)


class Star(NamedTuple):
    """(center, leaves) with every leaf pair forming an edge with the center.

    ``anti`` flips all conditions to the complement; ``induced`` additionally
    requires the leaf set to span no edges (all edges for an antistar).
    A star is a named tuple: it unpacks, and equals the plain 4-tuple.
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


@dataclass(frozen=True)
class StarSearchResult:
    stars: tuple[Star, ...]
    complete: bool
    examined: int


@dataclass(frozen=True)
class SpencerResult:
    set: tuple[int, ...]
    target: int
    trials: int
    met_target: bool


def _cliques(rows, cand: int, flip: int, size: int, budget: Budget | None = None):
    """Every t-clique (t = ``size``) inside the candidate mask ``cand``, by an
    exact bit-parallel branch and bound (BBMC, San Segundo et al. 2011).

    After v is taken, a candidate u stays when u is in rows[v], the
    adjacency rows of a 2-graph; ``flip=-1`` reads every row complemented,
    so cliques become independent sets. Vertices are taken in increasing
    order, so the result, (masks of all t-cliques in lexicographic order,
    complete), lists them in lexicographic order. Each extension step spends
    one unit of ``budget``, and a step it cannot pay for ends the search with
    complete=False and the cliques listed so far.
    """
    if size == 0:
        return [0], True
    found: list[int] = []
    last = size - 1  # the last level is settled in one pass
    # steps the budget can still pay for; the walk adds its steps to it once
    left = None if budget is None or budget.limit is None else max(budget.limit - budget.used, 0)
    steps = 0

    def extend(mask: int, depth: int, cand: int) -> bool:
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
            if not extend(mask | low, depth + 1, sub):
                return False
        return True

    complete = extend(0, 0, cand)
    if budget is not None:
        budget.used += steps
    return found, complete


def _clique_search(rows, flip: int, pairs: bool, c: list[int], chosen: list[int]):
    """The walk of both phases of ``_max_clique``: extend(need, rest) tells
    whether need >= 1 vertices of the mask ``rest``, all above the clique
    ``chosen``, extend it, and leaves the lexicographically first such
    extension in ``chosen``.

    After v is taken, a candidate u stays when u is in rows[v] (a 2-graph's
    adjacency rows) or, with ``pairs``, in rows[a][v] for every vertex a
    taken before v (a 3-graph's pair-link table); ``flip=-1`` reads the rows
    complemented, for independent sets. A branch stops once the candidates
    left, or c[v], the most vertices a clique can add from v on, fall short.
    """
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


def _clique_bounds(rows, cand: int, flip: int, pairs: bool) -> tuple[list[int], int]:
    """Phase 1 of ``_max_clique`` (Östergård 2002): (c, omega), where c[w]
    is the size of a maximum clique among the vertices of ``cand`` at or
    above w, for each w in ``cand``, and omega that of ``cand`` itself.

    The vertices are taken from the highest down. With ``best`` the clique
    number of the vertices above w, c[w] is best + 1 if some clique of that
    size has w as its lowest vertex, and best otherwise; the walk for w stops
    at the first one.
    """
    c = [0] * len(rows)
    chosen: list[int] = []
    extend = _clique_search(rows, flip, pairs, c, chosen)
    best = above = 0
    for w in reversed(bits_of(cand)):
        chosen[:] = (w,)
        if best == 0 or extend(best, above if pairs else above & (rows[w] ^ flip)):
            best += 1
        c[w] = best
        above |= 1 << w
    return c, best


def _first_max_clique(rows, cand: int, flip: int, pairs: bool, c: list[int],
                      omega: int) -> tuple[int, ...]:
    """Phase 2 of ``_max_clique``: the lexicographically first omega-clique in
    ``cand``, by one walk up from the lowest vertex that stops at the first
    one, with the table c of ``_clique_bounds`` on the same rows."""
    chosen: list[int] = []
    if omega:
        _clique_search(rows, flip, pairs, c, chosen)(omega, cand)
    return tuple(chosen)


def _max_clique(rows, cand: int, flip: int = 0, pairs: bool = False) -> tuple[int, ...]:
    """The lexicographically first maximum clique inside the candidate mask
    ``cand``, on rows read as in ``_clique_search``: a table of suffix clique
    numbers (phase 1), then one lexicographic pass pruned by it (phase 2)."""
    c, omega = _clique_bounds(rows, cand, flip, pairs)
    return _first_max_clique(rows, cand, flip, pairs, c, omega)


def _greedy_clique(rows, cand: int, flip: int = 0, pairs: bool = False,
                   highest: bool = False) -> tuple[int, ...]:
    """One greedy pass: take the lowest (or highest) candidate, keep the
    candidates that the rows allow beside it, as in ``_clique_search``, and
    repeat. Returns the clique in increasing order."""
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


def max_homogeneous(h: Hypergraph, exact_limit: int = DEFAULT_EXACT_LIMIT) -> HomogeneousWitness:
    """Largest clique or independent set; exact up to ``exact_limit`` vertices.

    Above the limit a deterministic greedy lower bound is returned with
    ``exact=False``. Ties between the clique and independent sides go to the
    clique.
    """
    if h.r != 3:
        raise ValueError("max_homogeneous currently supports 3-graphs")
    at_least(0, exact_limit=exact_limit)
    return _max_homogeneous_in(h, (1 << h.n) - 1, exact_limit)


def _max_homogeneous_in(h: Hypergraph, cand: int, exact_limit: int) -> HomogeneousWitness:
    """``max_homogeneous`` of the subgraph on the vertex mask ``cand``, in the
    vertex ids of h."""
    links = h._pair_links
    exact = cand.bit_count() <= exact_limit
    if exact:  # the larger omega, the clique's on ties, picks the one side phase 2 runs on
        cl, ind = _clique_bounds(links, cand, 0, True), _clique_bounds(links, cand, -1, True)
        flip, (c, omega) = (0, cl) if cl[1] >= ind[1] else (-1, ind)
        found = _first_max_clique(links, cand, flip, True, c, omega)
    else:
        cl, ind = _greedy_clique(links, cand, 0, True), _greedy_clique(links, cand, -1, True)
        flip, found = (0, cl) if len(cl) >= len(ind) else (-1, ind)
    w = HomogeneousWitness(found, "independent" if flip else "clique", exact)
    ensure(w.verify(h), "homogeneous witness")
    return w


def _star_sets(h: Hypergraph, cand: int, s: int, anti: bool,
               budget: Budget | None) -> tuple[list[tuple[int, list[int]]], bool]:
    """Leaf masks of the stars (or antistars) of size s with center and
    leaves in the vertex mask ``cand``: (center, leaf masks) for each center
    in increasing order, its masks in lexicographic order; returns (groups,
    complete).

    Leaf sets are the s-cliques of the center's pair-link row within ``cand``
    (independent sets for antistars); each extension step spends one unit of
    ``budget``. Whether a leaf set spans an edge is left to the caller.
    """
    if h.r != 3:
        raise ValueError("stars are defined for 3-uniform hypergraphs")
    if s < 0:
        raise ValueError(f"star size s={s} must be nonnegative")
    links = h._pair_links
    flip = -1 if anti else 0
    groups: list[tuple[int, list[int]]] = []
    for v in bits_of(cand):
        leafsets, complete = _cliques(links[v], cand ^ (1 << v), flip, size=s, budget=budget)
        groups.append((v, leafsets))
        if not complete:
            return groups, False
    return groups, True


def find_stars(
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
    With ``want_induced`` a walked star is kept only when its leaves span no
    edge (an antistar's every triple); the walk and its steps are the same.

    Every walked star, of a truncated list too, is checked on the center's
    pair-link row, into one flag that a single ``ensure`` reads. Leaf sets
    that differ only in their top leaf x come in a run and share the prefix
    below it, which is checked once per run, leaf by leaf as each star's x
    is; each star then adds the tests of x against the prefix.
    """
    bud, full = Budget(budget), (1 << h.n) - 1
    groups, complete = _star_sets(h, full, s, want_anti, bud)
    make = Star._make
    if s == 0:  # each center alone, with no leaf pair to check
        return StarSearchResult(tuple([make((v, (), want_induced, want_anti)) for v, _ in groups]),
                                complete, bud.used)
    links, flip = h._pair_links, -1 if want_anti else 0
    stars: list[Star] = []
    ok = True  # every star so far passed its check
    for v, masks in groups:
        row, outside = links[v], ~(full ^ (1 << v))
        pre = -1
        for mask in masks:
            x = mask.bit_length() - 1
            if mask ^ (1 << x) != pre:  # a new prefix: check its leaves in turn
                pre = mask ^ (1 << x)
                lead = bits_of(pre)
                # closes: the vertices that close an edge (for an antistar, a
                # non-edge) with two prefix leaves; free: no prefix leaf does
                pre_ok, free, closes, below = not pre & outside, True, 0, 0
                for i, u in enumerate(lead):
                    pre_ok = pre_ok and not below & ~(row[u] ^ flip)
                    if want_induced and pre_ok:
                        free = free and not closes >> u & 1
                        for a in lead[:i]:
                            closes |= links[a][u] ^ flip
                    below |= 1 << u
            # x joins every prefix leaf through v
            ok = ok and pre_ok and not mask & outside and not pre & ~(row[x] ^ flip)
            if free and not closes >> x & 1:  # an induced star's leaves span no edge
                stars.append(make((v, lead + (x,), want_induced, want_anti)))
    ensure(ok, "star")
    return StarSearchResult(tuple(stars), complete, bud.used)


def _star_groups(links, cand: int, s: int) -> list[tuple[int, int]]:
    """(leaf mask, center mask) for every s-set L inside the vertex mask
    ``cand`` that spans no edge and has at least one center in ``cand``
    outside L, in lexicographic order of L; ``links`` is a 3-graph's pair-link
    table. A center forms an edge with every pair of L, so (center, L) is an
    induced star; the center mask holds every one of them.

    One walk serves every center at once (the row-mask narrowing of BBMC, as
    in ``_ktt_groups``). Leaves are taken in increasing order. Taking leaf x
    ANDs links[u][x], for each leaf u taken before it, into the centers still
    possible, and ORs the same rows into a forbidden mask, which removes the
    later candidates that would close an edge inside L. A branch stops when
    no center is left or too few candidates are.
    """
    if s < 0:
        raise ValueError(f"star size s={s} must be nonnegative")
    if s == 0:
        return [(0, cand)] if cand else []
    groups: list[tuple[int, int]] = []
    chosen: list[int] = []  # the leaves so far

    def grow(leaves: int, centers: int, rest: int, need: int) -> None:
        # rest: the candidates above the last leaf that close no edge in L
        while rest.bit_count() >= need:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            c, forbidden = centers & ~low, 0
            for u in chosen:
                row = links[u][x]
                c &= row
                forbidden |= row
            if not c:
                continue
            if need == 1:
                groups.append((leaves | low, c))
                continue
            chosen.append(x)
            grow(leaves | low, c, rest & ~forbidden, need - 1)
            chosen.pop()

    grow(0, cand, cand, s)
    return groups


def spencer_independent(h: Hypergraph, trials: int, seed: int) -> SpencerResult:
    """Randomized deletion heuristic for independent sets in k-graphs.

    Keeps each vertex with probability d^(-1/(k-1)) for average degree d, then
    deletes one vertex from every surviving edge. Reports the best set over
    the trials next to the target ceil((1 - 1/k) * n / d^(1/(k-1))). Output is
    independent on every run; the target may or may not be met.
    """
    at_least(1, trials=trials)
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
    # each edge in sorted order, with the vertex it deletes: its largest
    tests = [(em, 1 << (em.bit_length() - 1)) for em in h._edge_masks]
    for _ in range(trials):
        kept = 0
        for v, x in enumerate(rng.randranges(den, n)):
            if x < num:
                kept |= 1 << v
        for em, top in tests:
            if kept & em == em:
                kept ^= top
        if kept.bit_count() > len(best):
            best = bits_of(kept)
    ensure(h.is_independent(best), "independent set")
    return SpencerResult(best, target, trials, len(best) >= target)


def greedy_forward_clique(g: OrderedGraph) -> tuple[int, ...]:
    """Greedy clique: take the smallest remaining vertex, drop its forward
    non-neighbors. When every forward non-neighborhood has fewer than k
    vertices, the clique has at least ceil(n/k).
    """
    chosen = _greedy_clique(g.adj, (1 << g.n) - 1)
    ensure(g.is_clique(chosen), "greedy clique")
    return chosen


def max_clique(g: OrderedGraph) -> tuple[int, ...]:
    """Exact maximum clique of a 2-graph; lexicographically first optimum."""
    return _max_clique(g.adj, (1 << g.n) - 1)


def max_independent_set(g: OrderedGraph) -> tuple[int, ...]:
    """Exact maximum independent set of a 2-graph; lexicographically first."""
    return _max_clique(g.adj, (1 << g.n) - 1, -1)


def _ktt_groups(links, cand: int, t: int, visit) -> None:
    """Call ``visit(A, B, centers)``, with masks, for every pair of disjoint
    t-sets A, B inside the vertex mask ``cand`` that is an induced K_{t,t} in
    the link graph of at least one center in ``cand``; ``links`` is a
    3-graph's pair-link table.

    A center v lies outside A and B, forms an edge with every a in A and b in
    B, and forms none with two vertices of A or two of B. One DFS serves every
    center at once (the row-mask narrowing of BBMC, as in ``_cliques``). Each
    candidate vertex carries the mask of centers still possible if it joins A
    or B next; taking it narrows the masks of the later candidates by its
    pair-link rows, and a candidate whose mask is empty drops out. B starts
    above min(A), so each unordered pair comes once, with A lexicographically
    first, and the pairs come in lexicographic order of A + B.
    """

    def grow_b(rows, amask: int, bmask: int, need: int) -> None:
        # rows: (y, centers left if y joins B next), y increasing
        for i, (y, m) in enumerate(rows):
            if need == 1:
                visit(amask, bmask | 1 << y, m)
                continue
            row = links[y]
            later = [(z, q) for z, p in rows[i + 1:] if (q := p & m & ~row[z])]
            if len(later) >= need - 1:
                grow_b(later, amask, bmask | 1 << y, need - 1)

    def grow_a(cands, rows, amask: int, need: int) -> None:
        # cands: (x, centers left if x joins A next); rows: as in grow_b for
        # the A so far, None while A is empty (an A vertex drops out of rows,
        # since links[x][x] is empty)
        for i, (x, m) in enumerate(cands):
            row = links[x]
            if rows is None:  # x is min(A): B is drawn from the vertices above it
                ys = [(y, q) for y in bits_of(cand >> (x + 1) << (x + 1)) if (q := m & row[y])]
            else:
                ys = [(y, q) for y, p in rows if (q := p & m & row[y])]
            if len(ys) < t:
                continue
            if need == 1:
                grow_b(ys, amask | 1 << x, 0, t)
                continue
            later = [(z, q) for z, p in cands[i + 1:] if (q := p & m & ~row[z])]
            if len(later) >= need - 1:
                grow_a(later, ys, amask | 1 << x, need - 1)

    grow_a([(x, cand ^ (1 << x)) for x in bits_of(cand)], None, 0, t)
