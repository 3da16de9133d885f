"""Desk-scale structure extraction: density homogenization, star chains,
star-free subsets, pair chains, and the two target configurations.

Every operation here re-verifies whatever it returns by direct density
counting; there are no unverified returns. Advisory thresholds (the various
fractional powers of n) steer branching but the verified postconditions are
the contract. Searches are deterministic: candidates are scanned in vertex
order and ties go to the lexicographically smallest object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .blowups import FAMILY_TYPES, PAIR_TYPES
from .core import Hypergraph, OrderedGraph, bits_of, mask_of, maybe_density, vertex_set
from .errors import Budget, BudgetExhausted, SearchFailed, at_least, ensure
from .search import (
    DEFAULT_EXACT_LIMIT,
    HomogeneousWitness,
    _clique_bounds,
    _first_max_clique,
    _ktt_groups,
    _max_homogeneous_in,
    _star_groups,
    _star_sets,
    find_stars,
    max_clique,
    max_homogeneous,
    spencer_independent,
)

_Types = tuple[tuple[str, int, tuple[tuple[str, int], ...]], ...]


def _parse_types(table: dict[str, str]) -> _Types:
    """(type, number of indices, its three (side letter, index rank) terms),
    one per spec of a ``blowups`` type table, in table order."""
    out = []
    for name, spec in table.items():
        terms = tuple((spec[k], int(spec[k + 1])) for k in (0, 2, 4))
        out.append((name, 1 + max(rank for _side, rank in terms), terms))
    return tuple(out)


_FAMILY = _parse_types(FAMILY_TYPES)
_PAIR = _parse_types(PAIR_TYPES)


def _type_instances(
    types: _Types, sides: dict[str, Sequence]
) -> Iterator[tuple[str, tuple[int, ...], tuple]]:
    """(type, indices, its three sets) for every instance of the types on a
    family whose sides are ``sides``: by number of indices, then by index
    tuple, then in table order."""
    for k in sorted({k for _name, k, _terms in types}):
        for idx in combinations(range(len(sides["A"])), k):
            for name, kk, terms in types:
                if kk == k:
                    yield name, idx, tuple(sides[side][idx[rank]] for side, rank in terms)


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


class _TypedFamily:
    """A family whose triple ``types`` come from one ``blowups`` table; each
    family sets them, its ``constants`` and its ``sides()``."""

    def verification_rows(self, h: Hypergraph) -> list[dict]:
        return [
            {"type": name, "indices": idx, "value": maybe_density(h, *sets)}
            for name, idx, sets in _type_instances(self.types, self.sides())
        ]

    def verify(self, h: Hypergraph) -> bool:
        """Does every defined density of a type in ``constants`` equal its
        constant? A constant of None admits only undefined densities."""
        return self._rows_agree(
            {"type": name, "value": maybe_density(h, *sets)}
            for name, _idx, sets in _type_instances(self.types, self.sides())
            if name in self.constants)

    def _rows_agree(self, rows: Iterable[dict]) -> bool:
        """Does each row of a type in ``constants`` agree with its constant?
        Stops at the first row that does not."""
        for row in rows:
            if row["type"] in self.constants:
                want, got = self.constants[row["type"]], row["value"]
                if got is not None and (want is None or got != want):
                    return False
        return True


@dataclass
class HomogenizedFamily(_TypedFamily):
    """Disjoint sets whose densities of each of the ``FAMILY_TYPES`` are the
    recorded constants. A constant is None only when the family is too small
    for instances of its type.
    """

    types = _FAMILY
    sets: tuple[tuple[int, ...], ...]
    constants: dict[str, int | None]

    def sides(self) -> dict[str, Sequence]:
        return {"A": self.sets}


@dataclass
class PairFamily(_TypedFamily):
    """Paired disjoint sets with the twelve recorded ``PAIR_TYPES`` constants."""

    types = _PAIR
    a_sets: tuple[tuple[int, ...], ...]
    b_sets: tuple[tuple[int, ...], ...]
    constants: dict[str, int | None]

    def sides(self) -> dict[str, Sequence]:
        return {"A": self.a_sets, "B": self.b_sets}

    def nondistinct_zero(self, h: Hypergraph) -> bool:
        """All triples meeting some set twice (or thrice), the types d, a and
        b of the family A + B, have density 0."""
        return HomogenizedFamily((*self.a_sets, *self.b_sets), {"d": 0, "a": 0, "b": 0}).verify(h)


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
        for f in fields(self.family)[:-1]:  # "sets", or "a_sets" and "b_sets"
            obj[f.name] = [list(s) for s in getattr(self.family, f.name)]
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


def _larger_side(targets: Sequence[int], color: tuple[int, ...]) -> list[int]:
    """The targets whose bit in ``color`` is 1, or those whose bit is 0 when
    they are more."""
    ones = [y for y, bit in zip(targets, color) if bit]
    zeros = [y for y, bit in zip(targets, color) if not bit]
    return ones if len(ones) >= len(zeros) else zeros


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
        side = _larger_side(b, vec)
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
        side = _larger_side(c, color)
        for size in range(cap, 0, -1):
            found = None
            for xs in combinations(range(len(a)), size):
                ys = [j for j in range(len(b)) if all(vec[(i, j)] == color for i in xs)]
                if ys:
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
        if len(s) >= 3:  # the homogeneous subset, by max_homogeneous's rules
            work[idx] = list(_max_homogeneous_in(h, mask_of(s), DEFAULT_EXACT_LIMIT).set)

    ell = len(work)
    for i in range(ell):
        for j in range(ell):
            if i != j:
                work[i], work[j] = _best_monochromatic_clique(h, work[i], work[j])
    for i, j, k in combinations(range(ell), 3):
        work[i], work[j], work[k] = _best_monochromatic_rectangle(h, work[i], work[j], work[k])

    sizes = [len(s) for s in work]
    if sizes and min(sizes) < p:
        raise SearchFailed(
            f"sets shrank below the target size {p}",
            reason="sizes insufficient",
            detail={"feasible_p": min(sizes), "sizes": sizes},
        )
    out = [tuple(s[:p]) for s in work]
    for _name, _idx, triple in _type_instances(_FAMILY, {"A": out}):
        _density01(h, *triple)
    return out


# --- homogenization ---------------------------------------------------------------


def _homogenize(h: Hypergraph, cls: type, sides: dict[str, list], m: int, noun: str, what: str):
    """The family of class ``cls`` on the first m indices (in lexicographic
    order) where each of its types has one constant density. Requires every
    admissible density among the sides' sets to be 0 or 1 already."""
    ell = len(sides["A"])
    if m > ell:
        raise SearchFailed(
            f"need {m} indices but only {ell} {noun} given", reason="ell too small"
        )
    value = {(name, idx): _density01(h, *sets) for name, idx, sets in _type_instances(cls.types, sides)}
    for combo in combinations(range(ell), m):
        consts: dict[str, int | None] = {}
        for name, k, _terms in cls.types:
            ok, consts[name] = _uniform([value[name, idx] for idx in combinations(combo, k)])
            if not ok:
                break
        else:
            fam = cls(*(tuple(sets[i] for i in combo) for sets in sides.values()), consts)
            ensure(fam.verify(h), f"{what} family")
            return fam
    raise SearchFailed(
        f"no index subset with uniform {what} densities",
        reason="ell too small for requested m",
        detail={"ell": ell, "m": m},
    )


def homogenize_types(h: Hypergraph, sets: Sequence[Sequence[int]], m: int) -> HomogenizedFamily:
    """Pick m indices on which each triple type has one constant density.

    Requires every admissible density among the input sets to be 0 or 1
    already. Scans index subsets in lexicographic order; the first subset
    uniform on all four types wins.
    """
    return _homogenize(h, HomogenizedFamily, {"A": [tuple(s) for s in sets]}, m, "sets", "type")


def homogenize_pair_types(
    h: Hypergraph, pairs: Sequence[tuple[Sequence[int], Sequence[int]]], m: int
) -> PairFamily:
    """Pick m pair indices with uniform constants over the twelve patterns."""
    sides = {"A": [tuple(p[0]) for p in pairs], "B": [tuple(p[1]) for p in pairs]}
    return _homogenize(h, PairFamily, sides, m, "pairs", "pair-pattern")


# --- star chains -------------------------------------------------------------------


def _beats(k: int, centers: int, best: tuple | None) -> bool:
    """Most centers wins, then the lexicographically first center set (it
    owns the lowest bit of the two masks' difference); on a full tie the
    group met first stays. ``best`` starts (k, centers), or is None."""
    if best is None or k > best[0]:
        return True
    diff = centers ^ best[1]
    return k == best[0] and bool(centers & diff & -diff)


def find_star_chain(
    h: Hypergraph, ell: int, s: int, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Greedy pigeonhole chain of leaf sets A_1..A_ell: each is empty inside,
    and every earlier set sees every later set's pairs as full edges.

    At each level the s-set serving the most induced-star centers is taken
    and the search recurses into its center set. One common-center walk on
    the pair-link rows of h (``search._star_groups``) finds a level's leaf
    sets with their center sets, and each such group is checked once on the
    same rows. Ties go to the lexicographically first center set, then to
    the first leaf set. Each level gets a fresh ``budget``, spent as the
    per-center star search (``search._star_sets``, which hands back leaf
    masks and builds no ``Star``) spends it. SearchFailed
    carries the stage and current vertex set when the stars run out.
    """
    if h.r != 3:
        raise ValueError("star chains are defined for 3-graphs")
    at_least(0, ell=ell)
    links = h._pair_links
    current = (1 << h.n) - 1
    chain: list[tuple[int, ...]] = []
    for level in range(ell):
        if budget is not None:
            bud = Budget(budget)
            if not _star_sets(h, current, s, False, bud)[1]:
                raise BudgetExhausted("star enumeration budget exhausted", bud.used)
        best = None  # (number of centers, centers, leaves) as masks
        for leaves, centers in _star_groups(links, current, s):
            # each leaf pair forms an edge with every center and with no leaf
            ensure(not leaves & centers and all(
                links[u][w] & centers == centers and not links[u][w] & leaves
                for u, w in combinations(bits_of(leaves), 2)), "induced star group")
            k = centers.bit_count()
            if _beats(k, centers, best):
                best = (k, centers, leaves)
        if best is None:
            raise SearchFailed(
                f"no induced stars of size {s} at chain stage {level}",
                reason="too few induced stars",
                detail={"stage": level, "vertex_set": bits_of(current), "stars": 0},
            )
        chain.append(bits_of(best[2]))
        current = best[1]
    chain.reverse()
    ensure(HomogenizedFamily(tuple(chain), {"d": 0, "a": 1}).verify(h),
           "star-chain sets span no edge and are joined to later sets")
    return chain


def star_free_subset(h: Hypergraph, s: int, trials: int = 200, seed: int = 0) -> tuple[int, ...]:
    """Vertex subset with no induced star of size s.

    Builds the (s+1)-graph whose edges are the vertex sets of induced stars
    and runs the random-deletion independent-set heuristic on it; the output
    is re-verified by finding no induced star inside it. Induced stars come
    from the common-center walk ``search._star_groups``, as (leaf mask, center
    mask) groups, so no ``Star`` and no induced copy is built. At s = 0 every
    vertex alone is a star, so the subset is empty.
    """
    at_least(1, trials=trials)
    if h.r != 3:
        raise ValueError("stars are defined for 3-uniform hypergraphs")
    if s == 0:
        return ()
    links = h._pair_links
    edges = {bits_of(leaves | 1 << v) for leaves, centers in _star_groups(links, (1 << h.n) - 1, s)
             for v in bits_of(centers)}
    if not edges:
        return tuple(range(h.n))
    out = spencer_independent(Hypergraph(s + 1, h.n, edges), trials, seed).set
    ensure(not _star_groups(links, mask_of(out), s), "star-free subset")
    return out


def largest_star(h: Hypergraph, anti: bool = False) -> tuple[int, tuple[int, ...]]:
    """The maximum (anti)star (center, leaves), by exact search of each
    center's pair-link row (co-link row for an antistar): the suffix bounds
    of every center, then the first maximum clique of the first center whose
    row has the largest clique number. A graph without vertices has no star."""
    if h.r != 3:
        raise ValueError("stars are defined for 3-uniform hypergraphs")
    if h.n == 0:
        raise ValueError("a 3-graph without vertices has no star")
    full, rows = (1 << h.n) - 1, h._co_pair_links if anti else h._pair_links
    bounds = [_clique_bounds(rows[v], full ^ (1 << v), False) for v in range(h.n)]
    v = max(range(h.n), key=lambda v: bounds[v][1])  # the first center on ties
    return v, _first_max_clique(rows[v], full ^ (1 << v), False, *bounds[v])


def no_large_star_subset(h: Hypergraph, s: int, delta: float) -> tuple[tuple[int, ...], str]:
    """Subset with no star, or no antistar, of size at least |W|^delta.

    Requires (and checks first) that the graph has no induced star or
    antistar of size s. If no star reaches the n^delta threshold the whole
    vertex set is star-free; otherwise the leaves of a maximum star are
    returned and verified antistar-free at their own threshold.
    """
    for anti, noun in ((False, "star"), (True, "antistar")):
        found = find_stars(h, s, want_induced=True, want_anti=anti).stars
        if found:
            raise SearchFailed(
                f"graph has an induced {noun} of the forbidden size",
                reason="precondition violated",
                detail={"witness": found[0]},
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
    at_least(0, ell=ell)
    bud = Budget(budget)
    best = None  # (number of centers, centers, A, B) as masks

    def keep(amask: int, bmask: int, centers: int) -> None:
        nonlocal best
        k = centers.bit_count()
        bud.spend(k)
        if _beats(k, centers, best):
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
    fam = PairFamily(tuple(a for a, _b in pairs), tuple(b for _a, b in pairs), {"a1": 1, "a2": 1})
    ensure(fam.verify(h), "pair chain d(X_i, A_j, B_j) = 1")
    for (ai, bi), (aj, bj) in combinations(pairs, 2):
        for x, y in product((ai, bi), (aj, bj)):  # type a of (x, y) is d(x, y, y)
            ensure(HomogenizedFamily((x, y), {"a": 0}).verify(h), "pair chain d(X_i, Y_j, Y_j) = 0")
    return pairs


# --- the orchestrator ----------------------------------------------------------------


def main_structure(
    h: Hypergraph,
    m: int,
    budget: int | None = None,
    part_size: int | None = None,
    delta: float = 0.5,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    seed: int = 0,
) -> MainOutcome:
    """Orchestrate the branch structure: star-rich graphs yield the single
    family (variant a) on either side; otherwise star-free and antistar-free
    subsets lead through a pair chain to variant (b), or back to (a) when an
    all-A or all-B constant comes out 1. Whatever returns is fully verified;
    if no branch lands, the homogeneous witness is reported instead. The
    complement of h is built at most once, and every family lands through
    one exit that checks it on the side it was found on.
    """
    if h.r != 3:
        raise ValueError("main_structure is defined for 3-graphs")
    if m < 1:
        raise ValueError(f"m must be at least 1, got m={m}")
    if budget is not None:
        at_least(0, budget=budget)
    if part_size is not None:
        at_least(1, part_size=part_size)
    s = max(part_size or m, 3)
    trace: list[str] = []
    hom = max_homogeneous(h, exact_limit)

    @cache
    def side(complemented: bool) -> Hypergraph:
        return h.complement() if complemented else h

    def land(variant: str, fam: HomogenizedFamily | PairFamily, complemented: bool) -> MainOutcome:
        rows = fam.verification_rows(side(complemented))
        ensure(fam._rows_agree(rows), f"variant ({variant}) family")
        return MainOutcome("structure", MainStructure(variant, fam, complemented, rows), hom, trace)

    def try_chain(scope: tuple[int, ...], anti: bool):
        """Star (or antistar) chain inside the scope, refined and homogenized.

        Returns (outcome, failing_scope): exactly one is None. Antistar
        results are restated in original-graph terms by flipping constants.
        """
        work = side(anti)
        label = "antistar" if anti else "star"
        try:
            chain_local = find_star_chain(work.induced(scope), m, s, budget)
            chain = [tuple(scope[i] for i in c) for c in chain_local]
            trace.append(f"{label} chain of {m} sets of size {s} found")
            fam = homogenize_types(work, refine_to_01(work, chain, max(m, 3)), m)
            if anti:
                fam.constants = {k: (None if v is None else 1 - v) for k, v in fam.constants.items()}
            if len({v for v in fam.constants.values() if v is not None}) < 2:
                raise SearchFailed("constants all equal", reason="degenerate family")
            return land("a", fam, False), None
        except SearchFailed as e:
            trace.append(f"{label} branch: {e.reason}")
            failed = e.detail.get("vertex_set")
            base_ids = tuple(scope[i] for i in failed) if failed is not None else scope
            return None, base_ids

    def pair_branch(w_ids: tuple[int, ...], complemented: bool) -> MainOutcome | None:
        """Pair chain inside the given vertices (complemented side when
        flagged), refined, homogenized, and classified into (b) or the
        fallback (a). None means the branch did not land."""
        base = side(complemented)
        try:
            pairs = find_pair_chain(base.induced(w_ids), m, s, budget)
            chain = [tuple(w_ids[i] for i in ss) for pair in pairs for ss in pair]  # in h's ids
            refined = refine_to_01(base, chain, max(m, 3))
            fam = homogenize_pair_types(base, list(zip(refined[::2], refined[1::2])), m)
        except SearchFailed as e:
            trace.append(f"pair branch: {e.reason}")
            return None
        if not fam.nondistinct_zero(base):
            trace.append("pair branch: non-distinct densities not all zero")
            return None
        if fam.constants["a1"] != 1 or fam.constants["a2"] != 1:
            trace.append("pair branch: a1/a2 constants not both 1")
            return None
        c7, c8 = fam.constants["c7"], fam.constants["c8"]
        if c7 != 1 and c8 != 1:
            trace.append("variant (b) verified")
            return land("b", fam, complemented)
        # d, a and b are 0 on A + B and c7 (or c8) is 1, so all of A (or B) is a family
        trace.append("variant (a) via the all-same-side constant")
        sets = fam.a_sets if c7 == 1 else fam.b_sets
        return land("a", HomogenizedFamily(sets, {"a": 0, "b": 0, "c": 1, "d": 0}), complemented)

    def run() -> MainOutcome:
        trace.append(f"advisory thresholds theta=0.5, delta={delta} (reported, not enforced)")
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
        free2 = star_free_subset(side(True).induced(anti_fail), s, seed=seed)
        scope = tuple(sorted(anti_fail[i] for i in free2))
        trace.append(f"antistar-free subset of size {len(scope)}")

        # scope now has no induced stars or antistars of size s
        try:
            w_local, found = no_large_star_subset(h.induced(scope), s, delta)
        except SearchFailed as e:
            trace.append(f"no-large-star stage: {e.reason}")
            return MainOutcome("homogeneous", None, hom, trace)
        w_ids = tuple(scope[i] for i in w_local)
        complemented = found == "antistar-free"
        trace.append(f"working on {found} subset of size {len(w_ids)}; complemented={complemented}")
        return pair_branch(w_ids, complemented) or MainOutcome("homogeneous", None, hom, trace)

    try:
        return run()
    except BudgetExhausted as e:
        e.trace = trace  # branch trace travels with the error
        raise
