"""Desk-scale structure extraction: density homogenization, star chains,
star-free subsets, pair chains, and the two target configurations.

Every operation here re-verifies whatever it returns by direct density
counting; there are no unverified returns. Advisory thresholds (the various
fractional powers of n) steer branching but the verified postconditions are
the contract. Searches are deterministic: candidates are scanned in vertex
order and ties go to the lexicographically smallest object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import Hypergraph, OrderedGraph, bits_of, density, mask_of, vertex_set
from .errors import Budget, BudgetExhausted, SearchFailed, ensure
from .search import (
    HomogeneousWitness,
    _cliques,
    _ktt_groups,
    _star_sets,
    find_stars,
    max_clique,
    max_homogeneous,
    spencer_independent,
)

PAIR_CONSTANT_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")


def maybe_density(h: Hypergraph, x, y, z) -> Fraction | None:
    """Density, or None when the shape's denominator is empty."""
    xs, ys, zs = tuple(x), tuple(y), tuple(z)
    eq = [xs == ys, ys == zs, xs == zs]
    if all(eq):
        if len(xs) < 3:
            return None
    elif any(eq):
        dbl = xs if xs == ys or xs == zs else ys
        single = zs if xs == ys else (xs if ys == zs else ys)
        if len(dbl) < 2 or len(single) < 1:
            return None
    elif min(len(xs), len(ys), len(zs)) < 1:
        return None
    return density(h, xs, ys, zs)


def _density01(h: Hypergraph, x, y, z) -> int | None:
    """0/1 density or None when undefined; raises on a fractional value."""
    v = maybe_density(h, x, y, z)
    if v is None:
        return None
    if v == 0:
        return 0
    if v == 1:
        return 1
    raise SearchFailed(
        f"density {v} is not 0/1", reason="precondition violated",
        detail={"sets": [list(x), list(y), list(z)], "value": str(v)},
    )


def _uniform(values) -> tuple[bool, int | None]:
    """Do all non-None entries agree? Returns (ok, common value or None)."""
    defined = {v for v in values if v is not None}
    if len(defined) > 1:
        return False, None
    return True, (defined.pop() if defined else None)


# --- families -----------------------------------------------------------------


@dataclass
class HomogenizedFamily:
    """Disjoint sets whose per-type densities are the recorded constants.

    Types over indices i, j, k of the family: ``a`` for i < j = k, ``b`` for
    i = j < k, ``c`` for i < j < k, ``d`` for i = j = k. A constant is None
    only when the family is too small for instances of its type.
    """

    sets: tuple[tuple[int, ...], ...]
    constants: dict[str, int | None]

    def verification_rows(self, h: Hypergraph) -> list[dict]:
        rows = []
        sets = self.sets
        for i in range(len(sets)):
            rows.append({"type": "d", "indices": (i,), "value": maybe_density(h, sets[i], sets[i], sets[i])})
        for i, j in combinations(range(len(sets)), 2):
            rows.append({"type": "a", "indices": (i, j), "value": maybe_density(h, sets[i], sets[j], sets[j])})
            rows.append({"type": "b", "indices": (i, j), "value": maybe_density(h, sets[i], sets[i], sets[j])})
        for i, j, k in combinations(range(len(sets)), 3):
            rows.append({"type": "c", "indices": (i, j, k), "value": maybe_density(h, sets[i], sets[j], sets[k])})
        return rows

    def verify(self, h: Hypergraph) -> bool:
        for row in self.verification_rows(h):
            want = self.constants[row["type"]]
            got = row["value"]
            if got is None:
                continue
            if want is None or got != want:
                return False
        return True


@dataclass
class PairFamily:
    """Paired disjoint sets with the twelve recorded pattern constants."""

    a_sets: tuple[tuple[int, ...], ...]
    b_sets: tuple[tuple[int, ...], ...]
    constants: dict[str, int | None]

    def verification_rows(self, h: Hypergraph) -> list[dict]:
        a, b = self.a_sets, self.b_sets
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

    def verify(self, h: Hypergraph) -> bool:
        for row in self.verification_rows(h):
            want = self.constants[row["type"]]
            got = row["value"]
            if got is None:
                continue
            if want is None or got != want:
                return False
        return True

    def nondistinct_zero(self, h: Hypergraph) -> bool:
        """All triples meeting some set twice (or thrice) have density 0."""
        all_sets = list(self.a_sets) + list(self.b_sets)
        for s in all_sets:
            v = maybe_density(h, s, s, s)
            if v not in (None, 0):
                return False
        for s, t in combinations(all_sets, 2):
            for x, y in ((s, t), (t, s)):
                v = maybe_density(h, x, x, y)
                if v not in (None, 0):
                    return False
        return True


@dataclass
class MainStructure:
    variant: str  # "a" | "b"
    family: HomogenizedFamily | PairFamily
    complemented: bool
    digest: list[dict] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        obj = {
            "variant": self.variant,
            "complemented": self.complemented,
            "constants": {k: v for k, v in self.family.constants.items()},
            "digest": [
                {
                    "type": r["type"],
                    "indices": list(r["indices"]),
                    "value": None if r["value"] is None else str(r["value"]),
                }
                for r in self.digest
            ],
        }
        if isinstance(self.family, HomogenizedFamily):
            obj["sets"] = [list(s) for s in self.family.sets]
        else:
            obj["a_sets"] = [list(s) for s in self.family.a_sets]
            obj["b_sets"] = [list(s) for s in self.family.b_sets]
        return obj


@dataclass
class MainOutcome:
    status: str  # "structure" | "homogeneous" | "failed"
    structure: MainStructure | None
    homogeneous: HomogeneousWitness | None
    trace: list[str]


# --- density refinement to 0/1 ---------------------------------------------------


def _relation_vector(h: Hypergraph, pair: tuple[int, int], targets: Sequence[int]) -> tuple[int, ...]:
    x1, x2 = pair
    return tuple(1 if h.has_edge((x1, x2, y)) else 0 for y in targets)


def _best_monochromatic_clique(
    h: Hypergraph, a: list[int], b: list[int]
) -> tuple[list[int], list[int]]:
    """Shrink (A, B) so that d(A, A, B) is 0 or 1.

    Pairs of A are colored by their relation vector over B; per color, the
    largest clique in that color's pair graph is matched with the larger
    agreeing side of B, and the best (min-size, then total) combination wins.
    """
    if len(a) < 2 or len(b) < 1:
        return a, b
    colors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(a)), 2):
        vec = _relation_vector(h, (a[i], a[j]), b)
        colors.setdefault(vec, []).append((i, j))
    best = None
    for vec in sorted(colors):
        g = OrderedGraph(len(a), colors[vec])
        clique = max_clique(g)
        ones = [y for y, bit in zip(b, vec) if bit]
        zeros = [y for y, bit in zip(b, vec) if not bit]
        side = ones if len(ones) >= len(zeros) else zeros
        score = (min(len(clique), len(side)), len(clique) + len(side))
        if best is None or score > best[0]:
            best = (score, clique, side)
    _score, clique, side = best
    return [a[i] for i in clique], side


def _best_monochromatic_rectangle(
    h: Hypergraph, a: list[int], b: list[int], c: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Shrink (A, B, C) so that d(A, B, C) is 0 or 1, via cross-pair colors."""
    if min(len(a), len(b), len(c)) < 1:
        return a, b, c
    vec: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(len(a)):
        for j in range(len(b)):
            vec[(i, j)] = tuple(1 if h.has_edge((a[i], b[j], z)) else 0 for z in c)
    best = None
    colors = sorted(set(vec.values()))
    cap = min(len(a), 12)  # subsets of the A side; desk-scale sets are small
    for color in colors:
        for size in range(cap, 0, -1):
            found = None
            for xs in combinations(range(len(a)), size):
                ys = [j for j in range(len(b)) if all(vec[(i, j)] == color for i in xs)]
                if ys:
                    ones = [z for z, bit in zip(c, color) if bit]
                    zeros = [z for z, bit in zip(c, color) if not bit]
                    side = ones if len(ones) >= len(zeros) else zeros
                    score = (min(size, len(ys), len(side)), size + len(ys) + len(side))
                    if found is None or score > found[0]:
                        found = (score, xs, ys, side)
            if found is not None:
                if best is None or found[0] > best[0]:
                    best = found
                break  # smaller subsets cannot beat this color's best min-size
    _score, xs, ys, side = best
    return [a[i] for i in xs], [b[j] for j in ys], side


def refine_to_01(
    h: Hypergraph, sets: Sequence[Sequence[int]], p: int
) -> list[tuple[int, ...]]:
    """Shrink disjoint sets until every admissible triple density is 0 or 1,
    then truncate to size p.

    Passes: per-set homogeneous subsets (exact search), per ordered pair the
    monochromatic pair-coloring step, per triple the bipartite version. A 0/1
    density survives taking subsets, so later passes never undo earlier ones.
    Raises SearchFailed with the minimal feasible p when sets end too small.
    """
    if h.r != 3:
        raise ValueError("refinement is defined for 3-graphs")
    work = [list(vertex_set(s, h.n)) for s in sets]
    seen: set[int] = set()
    for s in work:
        if seen & set(s):
            raise ValueError("input sets must be disjoint")
        seen |= set(s)

    for idx, s in enumerate(work):
        if len(s) >= 3:
            w = max_homogeneous(h.induced(s))
            work[idx] = [s[i] for i in w.set]

    ell = len(work)
    for i in range(ell):
        for j in range(ell):
            if i != j:
                work[i], work[j] = _best_monochromatic_clique(h, work[i], work[j])
    for i, j, k in combinations(range(ell), 3):
        work[i], work[j], work[k] = _best_monochromatic_rectangle(h, work[i], work[j], work[k])

    sizes = [len(s) for s in work]
    if min(sizes) < p:
        raise SearchFailed(
            f"sets shrank below the target size {p}",
            reason="sizes insufficient",
            detail={"feasible_p": min(sizes), "sizes": sizes},
        )
    out = [tuple(s[:p]) for s in work]
    for i in range(ell):
        _density01(h, out[i], out[i], out[i])
        for j in range(ell):
            if i != j:
                _density01(h, out[i], out[i], out[j])
    for i, j, k in combinations(range(ell), 3):
        _density01(h, out[i], out[j], out[k])
    return out


# --- homogenization ---------------------------------------------------------------


def homogenize_types(h: Hypergraph, sets: Sequence[Sequence[int]], m: int) -> HomogenizedFamily:
    """Pick m indices on which each triple type has one constant density.

    Requires every admissible density among the input sets to be 0 or 1
    already. Scans index subsets in lexicographic order; the first subset
    uniform on all four types wins.
    """
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
        fam = HomogenizedFamily(
            tuple(sets[i] for i in combo), {"a": va, "b": vb, "c": vc, "d": vd}
        )
        ensure(fam.verify(h), "homogenized family")
        return fam
    raise SearchFailed(
        "no index subset with uniform type densities",
        reason="ell too small for requested m",
        detail={"ell": ell, "m": m},
    )


def homogenize_pair_types(
    h: Hypergraph, pairs: Sequence[tuple[Sequence[int], Sequence[int]]], m: int
) -> PairFamily:
    """Pick m pair indices with uniform constants over the twelve patterns."""
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
            consts[PAIR_CONSTANT_NAMES[slot]] = val
        if not ok:
            continue
        for slot in range(8):
            good, val = _uniform([trip_color[t][slot] for t in combinations(combo, 3)])
            if not good:
                ok = False
                break
            consts[PAIR_CONSTANT_NAMES[4 + slot]] = val
        if not ok:
            continue
        fam = PairFamily(
            tuple(a_sets[i] for i in combo), tuple(b_sets[i] for i in combo), consts
        )
        ensure(fam.verify(h), "pair family")
        return fam
    raise SearchFailed(
        "no index subset with uniform pair-pattern densities",
        reason="ell too small for requested m",
        detail={"ell": ell, "m": m},
    )


# --- star chains -------------------------------------------------------------------


def find_star_chain(
    h: Hypergraph, ell: int, s: int, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Greedy pigeonhole chain of leaf sets A_1..A_ell: each is empty inside,
    and every earlier set sees every later set's pairs as full edges.

    At each level the s-set serving the most induced-star centers is taken
    and the search recurses into its center set, on the pair-link rows of h;
    each level gets a fresh ``budget``. SearchFailed carries the stage and
    current vertex set when the stars run out.
    """
    if h.r != 3:
        raise ValueError("star chains are defined for 3-graphs")
    current: tuple[int, ...] = tuple(range(h.n))
    chain: list[tuple[int, ...]] = []
    for level in range(ell):
        bud = None if budget is None else Budget(budget)  # unlimited: count nothing
        stars, complete = _star_sets(h, mask_of(current), s, True, False, bud)
        if not complete:
            raise BudgetExhausted("star enumeration budget exhausted", bud.used)
        centers: dict[tuple[int, ...], list[int]] = {}
        for st in stars:
            ensure(st.verify(h), "star")
            centers.setdefault(st.leaves, []).append(st.center)
        if not centers:
            raise SearchFailed(
                f"no induced stars of size {s} at chain stage {level}",
                reason="too few induced stars",
                detail={"stage": level, "vertex_set": current, "stars": 0},
            )
        best = max(
            centers,
            key=lambda leaves: (
                len(centers[leaves]),
                tuple(-v for v in sorted(centers[leaves])),
                tuple(-v for v in leaves),
            ),
        )
        chain.append(best)
        current = tuple(centers[best])
    chain.reverse()
    for i in range(len(chain)):
        d = maybe_density(h, chain[i], chain[i], chain[i])
        ensure(d in (None, 0), "star-chain set spans no edge")
        for j in range(i + 1, len(chain)):
            d = maybe_density(h, chain[i], chain[j], chain[j])
            ensure(d in (None, 1), "star-chain sets joined")
    return chain


def star_free_subset(h: Hypergraph, s: int, trials: int = 200, seed: int = 0) -> tuple[int, ...]:
    """Vertex subset with no induced star of size s.

    Builds the (s+1)-graph whose edges are the vertex sets of induced stars
    and runs the random-deletion independent-set heuristic on it; the output
    is re-verified by re-enumerating stars inside it.
    """
    res = find_stars(h, s, want_induced=True)
    if not res.stars:
        return tuple(range(h.n))
    edges = {tuple(sorted((st.center,) + st.leaves)) for st in res.stars}
    star_h = Hypergraph(s + 1, h.n, edges)
    sp = spencer_independent(star_h, trials, seed)
    out = sp.set
    check = find_stars(h.induced(out), s, want_induced=True)
    ensure(not check.stars, "star-free subset")
    return out


def largest_star(h: Hypergraph, anti: bool = False) -> tuple[int, tuple[int, ...]]:
    """The maximum (anti)star (center, leaves), by exact search of each
    center's pair-link row. A graph without vertices has no star."""
    if h.r != 3:
        raise ValueError("stars are defined for 3-uniform hypergraphs")
    if h.n == 0:
        raise ValueError("a 3-graph without vertices has no star")
    full = (1 << h.n) - 1
    flip = -1 if anti else 0
    stars = [(v, _cliques(h._pair_links[v], full ^ (1 << v), flip)) for v in range(h.n)]
    return max(stars, key=lambda st: len(st[1]))  # the first center on ties


def no_large_star_subset(h: Hypergraph, s: int, delta: float) -> tuple[tuple[int, ...], str]:
    """Subset with no star, or no antistar, of size at least |W|^delta.

    Requires (and checks first) that the graph has no induced star or
    antistar of size s. If no star reaches the n^delta threshold the whole
    vertex set is star-free; otherwise the leaves of a maximum star are
    returned and verified antistar-free at their own threshold.
    """
    stars = find_stars(h, s, want_induced=True)
    if stars.stars:
        raise SearchFailed(
            "graph has an induced star of the forbidden size",
            reason="precondition violated",
            detail={"witness": stars.stars[0]},
        )
    antis = find_stars(h, s, want_induced=True, want_anti=True)
    if antis.stars:
        raise SearchFailed(
            "graph has an induced antistar of the forbidden size",
            reason="precondition violated",
            detail={"witness": antis.stars[0]},
        )
    if h.n == 0:
        return (), "star-free"
    _v, leaves = largest_star(h)
    if len(leaves) < h.n**delta:
        return tuple(range(h.n)), "star-free"
    w = tuple(sorted(leaves))
    sub = h.induced(w)
    _u, anti_leaves = largest_star(sub, anti=True)
    if len(anti_leaves) >= len(w) ** delta:
        raise SearchFailed(
            "leaf set of the maximum star carries a large antistar",
            reason="post-side verification failed",
            detail={"antistar_size": len(anti_leaves)},
        )
    return w, "antistar-free"


# --- pair chains --------------------------------------------------------------------


def find_pair_chain(
    h: Hypergraph, ell: int, t: int, budget: int | None = None
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Chain of pairs (A_i, B_i): inside each level's center set, every
    vertex sees A_i x B_i completely and both sides emptily.

    Each level takes the (A, B) with the most centers among the induced
    K_{t,t} of the current vertices' link graphs, found by one common-center
    DFS on the pair-link rows of h (``search._ktt_groups``). Each (center, A,
    B) spends one unit of ``budget``, shared by all levels. The six density
    constraints are verified per level before returning.
    """
    if h.r != 3:
        raise ValueError("pair chains are defined for 3-graphs")
    if t < 1:
        raise ValueError("t must be >= 1")
    bud = Budget(budget)
    best = None  # (number of centers, centers, A, B) as masks

    def keep(amask: int, bmask: int, centers: int) -> None:
        # the winner has the most centers, then the lexicographically first
        # center set (it owns the lowest bit of the two sets' difference),
        # then the first (A, B) met
        nonlocal best
        k = centers.bit_count()
        bud.spend(k)
        if best is not None:
            if k < best[0]:
                return
            if k == best[0]:
                diff = centers ^ best[1]
                if not centers & diff & -diff:
                    return
        best = (k, centers, amask, bmask)

    current: tuple[int, ...] = tuple(range(h.n))
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for level in range(ell):
        best = None
        _ktt_groups(h._pair_links, mask_of(current), t, keep)
        if best is None:
            raise SearchFailed(
                f"no induced complete bipartite pair at chain stage {level}",
                reason="no common centers",
                detail={"stage": level, "vertex_set": current},
            )
        pairs.append((bits_of(best[2]), bits_of(best[3])))
        current = bits_of(best[1])  # never empty: a group has a center
    pairs.reverse()
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ai, bi = pairs[i]
            aj, bj = pairs[j]
            ensure(density(h, ai, aj, bj) == 1, "pair chain d(A_i, A_j, B_j) = 1")
            ensure(density(h, bi, aj, bj) == 1, "pair chain d(B_i, A_j, B_j) = 1")
            ensure(maybe_density(h, ai, aj, aj) in (None, 0), "pair chain d(A_i, A_j, A_j) = 0")
            ensure(maybe_density(h, ai, bj, bj) in (None, 0), "pair chain d(A_i, B_j, B_j) = 0")
            ensure(maybe_density(h, bi, aj, aj) in (None, 0), "pair chain d(B_i, A_j, A_j) = 0")
            ensure(maybe_density(h, bi, bj, bj) in (None, 0), "pair chain d(B_i, B_j, B_j) = 0")
    return pairs


# --- the orchestrator ----------------------------------------------------------------


def main_structure(
    h: Hypergraph,
    m: int,
    budget: int | None = None,
    part_size: int | None = None,
    delta: float = 0.5,
    theta: float = 0.5,
    exact_limit: int = 40,
    seed: int = 0,
) -> MainOutcome:
    """Orchestrate the branch structure: star-rich graphs yield the single
    family (variant a) on either side; otherwise star-free and antistar-free
    subsets lead through a pair chain to variant (b), or back to (a) when an
    all-A or all-B constant comes out 1. Whatever returns is fully verified;
    if no branch lands, the homogeneous witness is reported instead.
    """
    if h.r != 3:
        raise ValueError("main_structure is defined for 3-graphs")
    s = max(part_size or m, 3)
    trace: list[str] = []
    hom = max_homogeneous(h, exact_limit)

    def finish_a(fam: HomogenizedFamily) -> MainOutcome:
        defined = [v for v in fam.constants.values() if v is not None]
        if len(set(defined)) < 2:
            raise SearchFailed("constants all equal", reason="degenerate family")
        ensure(fam.verify(h), "variant (a) family")
        struct = MainStructure("a", fam, False, fam.verification_rows(h))
        return MainOutcome("structure", struct, hom, trace)

    def try_chain(scope: tuple[int, ...], anti: bool):
        """Star (or antistar) chain inside the scope, refined and homogenized.

        Returns (outcome, failing_scope): exactly one is None. Antistar
        results are restated in original-graph terms by flipping constants.
        """
        work = h if not anti else h.complement()
        label = "antistar" if anti else "star"
        try:
            sub = work.induced(scope)
            chain_local = find_star_chain(sub, m, s, budget)
            chain = [tuple(scope[i] for i in c) for c in chain_local]
            trace.append(f"{label} chain of {m} sets of size {s} found")
            refined = refine_to_01(work, chain, max(m, 3))
            fam = homogenize_types(work, refined, m)
            if anti:
                flipped = {k: (None if v is None else 1 - v) for k, v in fam.constants.items()}
                fam = HomogenizedFamily(fam.sets, flipped)
            return finish_a(fam), None
        except SearchFailed as e:
            trace.append(f"{label} branch: {e.reason}")
            failed = e.detail.get("vertex_set")
            base_ids = tuple(scope[i] for i in failed) if failed is not None else scope
            return None, base_ids

    def pair_branch(w_ids: tuple[int, ...], complemented: bool) -> MainOutcome | None:
        """Pair chain inside the given vertices (complemented side when
        flagged), refined, homogenized, and classified into (b) or the
        fallback (a). None means the branch did not land."""
        work = h.induced(w_ids) if not complemented else h.induced(w_ids).complement()
        base = h if not complemented else h.complement()
        try:
            chain = find_pair_chain(work, m, s, budget)
            flat = [seq for pair in chain for seq in pair]
            refined = refine_to_01(work, flat, max(m, 3))
            refined_pairs = [(refined[2 * i], refined[2 * i + 1]) for i in range(len(chain))]
            fam_local = homogenize_pair_types(work, refined_pairs, m)
        except SearchFailed as e:
            trace.append(f"pair branch: {e.reason}")
            return None
        # restate in original vertex ids, against the complemented side of h
        fam = PairFamily(
            tuple(tuple(w_ids[i] for i in ss) for ss in fam_local.a_sets),
            tuple(tuple(w_ids[i] for i in ss) for ss in fam_local.b_sets),
            fam_local.constants,
        )
        if not fam.nondistinct_zero(base):
            trace.append("pair branch: non-distinct densities not all zero")
            return None
        if fam.constants["a1"] != 1 or fam.constants["a2"] != 1:
            trace.append("pair branch: a1/a2 constants not both 1")
            return None
        c7, c8 = fam.constants["c7"], fam.constants["c8"]
        if (c7 in (0, None)) and (c8 in (0, None)):
            ensure(fam.verify(base), "variant (b) family")
            struct = MainStructure("b", fam, complemented, fam.verification_rows(base))
            trace.append("variant (b) verified")
            return MainOutcome("structure", struct, hom, trace)
        sets = fam.a_sets if c7 == 1 else fam.b_sets
        fam_a = HomogenizedFamily(sets, {"a": 0, "b": 0, "c": 1, "d": 0})
        if not fam_a.verify(base):
            trace.append("pair branch: fallback single family failed verification")
            return None
        struct = MainStructure("a", fam_a, complemented, fam_a.verification_rows(base))
        trace.append("variant (a) via the all-same-side constant")
        return MainOutcome("structure", struct, hom, trace)

    def run() -> MainOutcome:
        trace.append(f"advisory thresholds theta={theta}, delta={delta} (reported, not enforced)")
        everything = tuple(range(h.n))
        out, star_fail = try_chain(everything, anti=False)
        if out:
            return out
        # the complement side may be star-rich even when this side is not
        out, _ = try_chain(everything, anti=True)
        if out:
            return out
        # optimistic pair attempt before the scope-destroying reductions; the
        # postcondition verification makes this sound at any scope
        out = pair_branch(everything, complemented=False)
        if out:
            return out

        free = star_free_subset(h.induced(star_fail), s, seed=seed)
        scope = tuple(sorted(star_fail[i] for i in free))
        trace.append(f"star-free subset of size {len(scope)}")
        out, anti_fail = try_chain(scope, anti=True)
        if out:
            return out
        free2 = star_free_subset(h.induced(anti_fail).complement(), s, seed=seed)
        scope = tuple(sorted(anti_fail[i] for i in free2))
        trace.append(f"antistar-free subset of size {len(scope)}")

        # scope now has no induced stars or antistars of size s
        sub = h.induced(scope)
        try:
            w_local, side = no_large_star_subset(sub, s, delta)
        except SearchFailed as e:
            trace.append(f"no-large-star stage: {e.reason}")
            return MainOutcome("homogeneous", None, hom, trace)
        w_ids = tuple(scope[i] for i in w_local)
        complemented = side == "antistar-free"
        trace.append(f"working on {side} subset of size {len(w_ids)}; complemented={complemented}")
        out = pair_branch(w_ids, complemented)
        if out:
            return out
        return MainOutcome("homogeneous", None, hom, trace)

    try:
        return run()
    except BudgetExhausted as e:
        e.trace = trace  # branch trace travels with the error
        raise
