"""Differential tests of the mask-restricted chain kernels.

The oracles are the implementations the kernels replaced, kept here as they
were: the per-center link-graph grouping of ``find_pair_chain`` (one
``link_graph`` and one ``enumerate_induced_ktt`` per vertex of an induced
copy), the star search that built every candidate ``Star`` and kept those
passing ``Star.verify``, the star and pair chains that ran on
``h.induced(current)`` and relabeled, and the edge-mask scans of ``density``.
``find_stars``, which checks its stars on the pair-link rows and filters
the induced ones after the walk, is checked against the search that checked
each one through ``Star.verify`` and took induced stars from the clique walk
with the ``avoid`` table (kept in ``tests/helpers.py``), both on what the
walk hands back and on leaf masks with one leaf swapped, and against the
loop that checked each star with its own ``ensure`` and built a
frozen-dataclass star for it. ``star_free_subset`` is checked against the
form that read that per-center walk. The star chain's common-center walk
is also checked against a scan of every s-set on ``h.edges``, the family
check on ``verification_rows`` against ``verify``, and the homogeneous
subset on a vertex mask against ``max_homogeneous`` of the induced copy.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordersize import search, structure
from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import random_hypergraph
from ordersize.core import (
    Hypergraph,
    bits_of,
    complete_hypergraph,
    density,
    mask_of,
    maybe_density,
    vertex_set,
)
from ordersize.errors import Budget, BudgetExhausted, SearchFailed, ShapeError, VerificationError
from ordersize.search import (
    HomogeneousWitness,
    Star,
    StarSearchResult,
    _cliques,
    _ktt_groups,
    _max_homogeneous_in,
    _star_groups,
    _star_sets,
    find_stars,
    max_homogeneous,
)
from ordersize.structure import (
    HomogenizedFamily,
    PairFamily,
    find_pair_chain,
    find_star_chain,
)

from helpers import (
    DataclassStar,
    dataclass_find_stars,
    enumerate_induced_ktt,
    link_graph,
    old_find_stars,
    old_star_free_subset,
    old_star_sets,
)

MAX_N = 12


# --- oracles -------------------------------------------------------------------


def oracle_groups(h: Hypergraph, cand: int, t: int, bud: Budget) -> dict:
    """(A, B) -> centers, one link graph per vertex of the induced copy."""
    current = bits_of(cand)
    sub = h.induced(current)
    groups: dict[tuple, list[int]] = {}
    for v in range(sub.n):
        lg = link_graph(sub, v)
        others = [u for u in range(sub.n) if u != v]
        for a_idx, b_idx in enumerate_induced_ktt(lg, t):
            bud.spend()
            a = tuple(current[others[i]] for i in a_idx)
            b = tuple(current[others[i]] for i in b_idx)
            key = (a, b) if a < b else (b, a)
            groups.setdefault(key, []).append(current[v])
    return groups


def kernel_groups(h: Hypergraph, cand: int, t: int, bud: Budget) -> dict:
    groups: dict[tuple, list[int]] = {}

    def visit(amask, bmask, centers):
        bud.spend(centers.bit_count())
        groups[(bits_of(amask), bits_of(bmask))] = list(bits_of(centers))

    _ktt_groups(h._pair_links, cand, t, visit)
    return groups


def oracle_find_stars(h, s, want_induced=False, want_anti=False, budget=None):
    bud = Budget(budget)
    links = (h.complement() if want_anti else h)._pair_links
    full = (1 << h.n) - 1
    stars = []
    complete = True
    for v in range(h.n):
        leafsets, complete = _cliques(links[v], full ^ (1 << v), size=s, budget=bud)
        for mask in leafsets:
            st = Star(v, bits_of(mask), want_induced, want_anti)
            if want_induced and not st.verify(h):
                continue
            stars.append(st)
        if not complete:
            break
    return StarSearchResult(tuple(stars), complete, bud.used)


def oracle_star_groups(h: Hypergraph, cand: int, s: int) -> list[tuple[int, int]]:
    """(leaves, centers) as masks for every s-set of ``cand`` that spans no
    edge, with every other vertex of ``cand`` that forms an edge with each of
    its pairs as a center, read off ``h.edges``; sets without a center drop."""
    verts = bits_of(cand)
    out = []
    for leaves in combinations(verts, s):
        if any(t in h.edges for t in combinations(leaves, 3)):
            continue
        centers = [v for v in verts if v not in leaves and all(
            tuple(sorted((u, w, v))) in h.edges for u, w in combinations(leaves, 2))]
        if centers:
            out.append((mask_of(leaves), mask_of(centers)))
    return out


def oracle_star_chain(h, ell, s, budget=None):
    current = tuple(range(h.n))
    chain = []
    for level in range(ell):
        sub = h.induced(current)
        res = oracle_find_stars(sub, s, want_induced=True, budget=budget)
        if not res.complete:
            raise BudgetExhausted("star enumeration budget exhausted", res.examined)
        centers: dict[tuple[int, ...], list[int]] = {}
        for st in res.stars:
            centers.setdefault(st.leaves, []).append(st.center)
        if not centers:
            raise SearchFailed(
                "no induced stars", reason="too few induced stars",
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
        chain.append(tuple(current[i] for i in best))
        current = tuple(sorted(current[i] for i in centers[best]))
    chain.reverse()
    return chain


def oracle_pair_chain(h, ell, t, budget=None):
    bud = Budget(budget)
    current = tuple(range(h.n))
    pairs = []
    for level in range(ell):
        groups = oracle_groups(h, mask_of(current), t, bud)
        if not groups:
            raise SearchFailed(
                "no pair", reason="no common centers",
                detail={"stage": level, "vertex_set": current},
            )
        best = max(
            groups,
            key=lambda ab: (
                len(groups[ab]),
                tuple(-x for x in sorted(groups[ab])),
                tuple(-x for x in ab[0] + ab[1]),
            ),
        )
        pairs.append(best)
        current = tuple(groups[best])
    pairs.reverse()
    return pairs


def oracle_density(h, x, y, z):
    xs, ys, zs = vertex_set(x, h.n), vertex_set(y, h.n), vertex_set(z, h.n)
    sets = [xs, ys, zs]
    masks = [mask_of(e) for e in sorted(h.edges)]
    if xs == ys == zs:
        denom = comb(len(xs), 3)
        if denom == 0:
            raise ShapeError("empty")
        return Fraction(h.edge_count(xs), denom)
    for a in range(3):
        for b in range(a + 1, 3):
            if sets[a] == sets[b]:
                dbl, single = sets[a], sets[3 - a - b]
                if set(dbl) & set(single):
                    raise ShapeError("overlap")
                denom = comb(len(dbl), 2) * len(single)
                if denom == 0:
                    raise ShapeError("empty")
                dm, sm = mask_of(dbl), mask_of(single)
                count = sum(1 for em in masks
                            if (em & dm).bit_count() == 2 and (em & sm).bit_count() == 1)
                return Fraction(count, denom)
    if len(set(xs) | set(ys) | set(zs)) != len(xs) + len(ys) + len(zs):
        raise ShapeError("overlap")
    denom = len(xs) * len(ys) * len(zs)
    if denom == 0:
        raise ShapeError("empty")
    xm, ym, zm = mask_of(xs), mask_of(ys), mask_of(zs)
    return Fraction(sum(1 for em in masks if em & xm and em & ym and em & zm), denom)


def outcome(fn):
    """The result, or the kind and the observable fields of the error."""
    try:
        return ("ok", fn())
    except BudgetExhausted as e:
        return ("budget", e.used)
    except SearchFailed as e:
        return ("failed", e.reason, e.detail)
    except ShapeError:
        return ("shape",)


# --- inputs --------------------------------------------------------------------


@st.composite
def graphs(draw):
    """Random 3-graphs and planted type and pair families, maybe complemented."""
    kind = draw(st.sampled_from(["random", "type", "pair"]))
    if kind == "random":
        n = draw(st.integers(0, MAX_N))
        h = random_hypergraph(3, n, draw(st.integers(0, 100)), draw(st.integers(0, 10**6)))
    elif kind == "type":
        parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        h, _ = build_type_family(parts, *draw(st.tuples(*[st.integers(0, 1)] * 4)))
    else:
        num = draw(st.integers(1, 3))
        size = draw(st.integers(1, MAX_N // (2 * num)))
        consts = draw(st.tuples(*[st.integers(0, 1)] * 10))
        h, _, _ = build_pair_family(num, size, *consts[:4], consts[4:])
    return h.complement() if draw(st.booleans()) else h


def sub_mask(draw, h):
    return draw(st.integers(0, (1 << h.n) - 1))


def plant(parts, consts, complemented=False):
    h, _ = build_type_family(parts, *consts)
    return h.complement() if complemented else h


# --- pair groups -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_groups_match_link_graph_grouping(data):
    h = data.draw(graphs())
    cand = sub_mask(data.draw, h)
    t = data.draw(st.integers(1, 3))
    want = oracle_groups(h, cand, t, Budget())
    got = kernel_groups(h, cand, t, Budget())
    assert got == want
    assert list(got.values()) == [want[k] for k in got]  # center lists in order
    assert list(got) == sorted(got)  # lexicographic order of A + B


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_groups_spend_the_same_budget(data):
    h = data.draw(graphs())
    cand = sub_mask(data.draw, h)
    t = data.draw(st.integers(1, 3))
    total = sum(len(c) for c in oracle_groups(h, cand, t, Budget()).values())
    limit = data.draw(st.integers(0, total + 2))
    want = outcome(lambda: oracle_groups(h, cand, t, Budget(limit)))
    got = outcome(lambda: kernel_groups(h, cand, t, Budget(limit)))
    assert got == want
    assert (got[0] == "budget") == (total > limit)
    if got[0] == "budget":
        assert got[1] == limit + 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pair_chain_matches_induced_copy_chain(data):
    h = data.draw(graphs())
    ell = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(2, 3))  # t = 1 leaves the postcondition's density undefined
    budget = data.draw(st.one_of(st.none(), st.integers(0, 400)))
    assert outcome(lambda: find_pair_chain(h, ell, t, budget)) == \
        outcome(lambda: oracle_pair_chain(h, ell, t, budget))


@pytest.mark.parametrize("limit", [-1, -3])
def test_budget_rejects_a_negative_limit(limit):
    with pytest.raises(ValueError, match=f"^budget must be nonnegative, got {limit}$"):
        Budget(limit)
    assert Budget(0).limit == 0 and Budget().limit is None


def test_budget_spends_many_units_as_single_ones():
    bud = Budget(5)
    bud.spend(3)
    with pytest.raises(BudgetExhausted) as err:
        bud.spend(4)
    assert err.value.used == bud.used == 6
    unlimited = Budget()
    unlimited.spend(10**6)
    assert unlimited.used == 10**6


# --- stars -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_star_sets_match_search_on_induced_copy(data):
    h = data.draw(graphs())
    cand = sub_mask(data.draw, h)
    s = data.draw(st.integers(0, 4))
    induced, anti = data.draw(st.booleans()), data.draw(st.booleans())
    budget = data.draw(st.one_of(st.none(), st.integers(0, 200)))
    current = bits_of(cand)
    want = oracle_find_stars(h.induced(current), s, induced, anti, budget)
    bud = Budget(budget)
    groups, complete = _star_sets(h, cand, s, anti, bud)
    # the walk hands back every star; find_stars keeps those Star.verify passes
    stars = [x for v, masks in groups for mask in masks
             if (x := Star(v, bits_of(mask), induced, anti)).verify(h)]
    relabeled = [Star(current[x.center], tuple(current[u] for u in x.leaves), induced, anti)
                 for x in want.stars]
    assert (stars, complete, bud.used) == (relabeled, want.complete, want.examined)


@st.composite
def star_graphs(draw):
    """``graphs()``, or a planted type family with parts of up to five
    vertices, maybe complemented: these have induced stars and antistars of
    size 3 and 4."""
    if draw(st.booleans()):
        return draw(graphs())
    parts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    return plant(parts, draw(st.tuples(*[st.integers(0, 1)] * 4)), draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(star_graphs(), st.integers(0, 4), st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(-1, 60)))
@example(complete_hypergraph(3, 8), 3, False, False, 10)
@example(plant([4] * 4, (1, 1, 0, 0)), 4, True, False, None)
@example(plant([4] * 4, (1, 1, 0, 0), True), 3, True, True, 40)
def test_find_stars_matches_the_star_verify_search(h, s, induced, anti, budget):
    if budget is not None and budget < 0:
        with pytest.raises(ValueError, match=f"^budget must be nonnegative, got {budget}$"):
            find_stars(h, s, induced, anti, budget)
        return
    got = find_stars(h, s, induced, anti, budget)
    assert got == old_find_stars(h, s, induced, anti, budget)
    assert all(x.verify(h) for x in got.stars)


@pytest.mark.parametrize("induced,anti", [(i, a) for i in (False, True) for a in (False, True)])
@settings(max_examples=150, deadline=None)
@given(h=star_graphs(), s=st.integers(0, 4), budget=st.sampled_from([None, 0, 1, 7, 40]))
def test_find_stars_matches_the_dataclass_star_loop(h, s, induced, anti, budget):
    got = find_stars(h, s, induced, anti, budget)
    want = dataclass_find_stars(h, s, induced, anti, budget)
    assert [(x.center, x.leaves, x.induced, x.anti) for x in got.stars] == \
        [(x.center, x.leaves, x.induced, x.anti) for x in want.stars]
    assert (got.complete, got.examined) == (want.complete, want.examined)
    assert all(type(x) is Star for x in got.stars)


CENTER_0_PREFIX_EDGE = Hypergraph(3, 5, [(0, a, b) for a, b in combinations(range(1, 5), 2)]
                                  + [(1, 2, 3)])


@pytest.mark.parametrize("induced,anti", [(i, a) for i in (False, True) for a in (False, True)])
@settings(max_examples=150, deadline=None)
@given(h=star_graphs(), s=st.integers(0, 4), budget=st.sampled_from([None, 0, 1, 3, 17, 60]))
@example(h=plant([4] * 4, (1, 1, 0, 0)), s=4, budget=None)
@example(h=plant([4] * 4, (1, 1, 0, 0), True), s=3, budget=17)
# center 0 joins every pair of 1234, whose prefix 123 is an edge that the top
# leaf 4 closes with no pair; the complement has the antistar case
@example(h=CENTER_0_PREFIX_EDGE, s=4, budget=None)
@example(h=CENTER_0_PREFIX_EDGE.complement(), s=4, budget=None)
def test_find_stars_filters_the_walk_as_the_avoid_walk_did(h, s, induced, anti, budget):
    """Induced stars filtered after the plain walk are those the clique walk
    with the ``avoid`` table kept, with the same completeness and units."""
    assert find_stars(h, s, induced, anti, budget) == old_find_stars(h, s, induced, anti, budget)


@settings(max_examples=150, deadline=None)
@given(star_graphs(), st.integers(0, 4), st.integers(1, 4), st.integers(0, 3))
@example(plant([4] * 4, (1, 1, 0, 0)), 3, 5, 0)
@example(plant([3] * 4, (1, 1, 0, 0), True), 2, 2, 1)
def test_star_free_subset_reads_the_common_center_walk(h, s, trials, seed):
    """The (s+1)-graph of induced stars read off ``_star_groups`` is the one
    the per-center walk with the ``induced`` flag built, and the subset, or
    the error, is the same. At s = 0 every vertex alone is a star, so the
    subset is empty, where the old code failed to build a 1-graph."""
    def result(call):
        try:
            return call(h, s, trials, seed)
        except ValueError as e:
            return str(e)

    full = (1 << h.n) - 1
    groups, _complete = old_star_sets(h, full, s, True, False, None)
    assert {bits_of(leaves | 1 << v) for leaves, centers in _star_groups(h._pair_links, full, s)
            for v in bits_of(centers)} == \
        {bits_of(leaves | 1 << v) for v, masks in groups for leaves in masks}
    assert result(structure.star_free_subset) == (() if s == 0 else result(old_star_free_subset))


def test_star_free_subset_keeps_its_argument_errors():
    for call in (structure.star_free_subset, old_star_free_subset):
        with pytest.raises(ValueError, match="^stars are defined for 3-uniform hypergraphs$"):
            call(Hypergraph(2, 4, [(0, 1)]), 2)
        with pytest.raises(ValueError, match="^star size s=-1 must be nonnegative$"):
            call(complete_hypergraph(3, 4), -1)
        with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
            call(Hypergraph(2, 4, [(0, 1)]), 2, trials=0)


def test_star_keeps_the_dataclass_interface():
    star, old = Star(2, (0, 5, 7), True, False), DataclassStar(2, (0, 5, 7), True, False)
    assert Star._fields == ("center", "leaves", "induced", "anti")
    assert repr(star) == repr(old).replace("DataclassStar", "Star")
    assert repr(star) == "Star(center=2, leaves=(0, 5, 7), induced=True, anti=False)"
    assert star == Star(center=2, leaves=(0, 5, 7), induced=True, anti=False)
    assert hash(star) == hash(Star(2, (0, 5, 7), True, False))
    with pytest.raises(AttributeError):
        star.center = 3
    # the API change: a star is its 4-tuple
    assert star == (2, (0, 5, 7), True, False)
    center, leaves, induced, anti = star
    assert (center, leaves, induced, anti) == (old.center, old.leaves, old.induced, old.anti)
    for seed in range(5):
        h = random_hypergraph(3, 9, 60, seed)
        for v in range(9):
            for leaves in combinations([u for u in range(9) if u != v], 3):
                for flags in ((False, False), (True, False), (False, True), (True, True)):
                    assert Star(v, leaves, *flags).verify(h) == DataclassStar(v, leaves, *flags).verify(h)


def all_but(n, *missing):
    """The 3-graph on n vertices with every triple but ``missing``."""
    return Hypergraph(3, n, [t for t in combinations(range(n), 3) if t not in missing])


@settings(max_examples=300, deadline=None)
@given(star_graphs(), st.integers(1, 4), st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(0, 60)), st.integers(0, 10**4), st.integers(0, 3),
       st.integers(0, 10**4))
# (the spot, leaf and vertex draws are taken modulo what there is to pick from)
# center 0's leaf sets are 134 and 234; 234 becomes 124, whose prefix 12 is
# not joined through 0 while its last leaf is
@example(all_but(5, (0, 1, 2)), 3, False, False, None, 1, 1, 1)
# 124 becomes 134, whose prefix is joined through 0 and whose last leaf is not
@example(all_but(5, (0, 3, 4)), 3, False, False, None, 1, 1, 3)
# 124 becomes 123, which is joined through 0 but spans an edge: not induced,
# so it is dropped
@example(all_but(5, (1, 2, 4), (1, 3, 4), (2, 3, 4)), 3, True, False, None, 0, 2, 3)
def test_find_stars_rejects_exactly_the_leaf_sets_star_verify_rejects(
        h, s, induced, anti, budget, spot, out, new):
    """One leaf mask the walk hands back has one leaf swapped for another
    vertex (maybe the center, or the first one past the last): find_stars
    raises if that leaf set is no star, and otherwise returns the walked
    stars that ``Star.verify`` passes (all of them unless ``induced``)."""
    bud = Budget(budget)
    groups, complete = _star_sets(h, (1 << h.n) - 1, s, anti, bud)
    spots = [(v, j) for v, masks in groups for j in range(len(masks))]
    if not spots:
        return
    center, j = spots[spot % len(spots)]
    leaves = bits_of(dict(groups)[center][j])
    bad = mask_of(leaves) ^ 1 << leaves[out % len(leaves)] | 1 << new % (h.n + 1)
    walk, row = search._cliques, (h._co_pair_links if anti else h._pair_links)[center]

    def faulty(rows, cand, *args, **kwargs):
        masks, done = walk(rows, cand, *args, **kwargs)
        return (masks[:j] + [bad] + masks[j + 1:] if rows is row else masks), done

    walked = [Star(v, bits_of(bad if (v, i) == (center, j) else mask), induced, anti)
              for v, masks in groups for i, mask in enumerate(masks)]
    want = [x for x in walked if x.verify(h)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_cliques", faulty)
        if Star(center, bits_of(bad), False, anti).verify(h):
            assert find_stars(h, s, induced, anti, budget) == \
                StarSearchResult(tuple(want), complete, bud.used)
        else:
            with pytest.raises(VerificationError, match="star"):
                find_stars(h, s, induced, anti, budget)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_star_groups_match_subset_scan(data):
    h = data.draw(graphs())
    cand = sub_mask(data.draw, h)
    s = data.draw(st.integers(0, 4))
    assert _star_groups(h._pair_links, cand, s) == oracle_star_groups(h, cand, s)


@settings(max_examples=120, deadline=None)
# s = 1 leaves the postcondition's density undefined
@given(graphs(), st.integers(1, 3), st.integers(2, 4), st.one_of(st.none(), st.integers(0, 300)))
# planted families with a three-level chain; the level-0 groups with the most
# centers number 12 (over 4 center sets), 4, 28 and 1
@example(plant([3] * 4, (1, 1, 0, 0)), 3, 2, None)
@example(plant([3] * 4, (1, 1, 0, 0)), 3, 3, None)
@example(plant([3] * 4, (0, 0, 1, 1), True), 3, 3, 300)
@example(plant([2] * 4, (1, 1, 1, 1)), 3, 2, None)
@example(plant([3] * 4, (0, 1, 0, 0)), 3, 3, None)
def test_star_chain_matches_induced_copy_chain(h, ell, s, budget):
    assert outcome(lambda: find_star_chain(h, ell, s, budget)) == \
        outcome(lambda: oracle_star_chain(h, ell, s, budget))


@settings(max_examples=120, deadline=None)
@given(star_graphs(), st.integers(1, 3), st.integers(2, 4), st.integers(0, 300))
@example(plant([3] * 4, (0, 0, 1, 1), True), 3, 3, 300)
@example(plant([4] * 4, (1, 1, 0, 0)), 3, 3, 40)
def test_budgeted_star_chain_keeps_its_units_and_messages(h, ell, s, budget):
    """The budget's pre-walk reads only completeness and units from
    ``_star_sets``; with the star search that took an ``induced`` flag in its
    place, the chain, the errors' messages and fields, and
    ``BudgetExhausted.used`` are the same."""
    def full_outcome():
        try:
            return ("ok", find_star_chain(h, ell, s, budget))
        except BudgetExhausted as e:
            return ("budget", str(e), e.used)
        except SearchFailed as e:
            return ("failed", str(e), e.reason, e.detail)

    got = full_outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_star_sets", lambda h, cand, s, anti, budget:
                   old_star_sets(h, cand, s, False, anti, budget))
        assert got == full_outcome()


# --- family checks ----------------------------------------------------------------


@st.composite
def families(draw):
    """(h, family) for a planted type or pair family, maybe complemented, with
    each type's constant the one its densities agree on, the other 0/1 value,
    None, or left out."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        h, sets = build_type_family(parts, *draw(st.tuples(*[st.integers(0, 1)] * 4)))
        fam = HomogenizedFamily(tuple(sets), {})
    else:
        num = draw(st.integers(1, 3))
        size = draw(st.integers(1, MAX_N // (2 * num)))
        consts = draw(st.tuples(*[st.integers(0, 1)] * 10))
        h, a, b = build_pair_family(num, size, *consts[:4], consts[4:])
        fam = PairFamily(tuple(a), tuple(b), {})
    if draw(st.booleans()):
        h = h.complement()
    defined: dict[str, set] = {}
    for row in fam.verification_rows(h):
        defined.setdefault(row["type"], set()).add(row["value"])
    for name, values in defined.items():
        right = min((v for v in values if v is not None), default=0)
        pick = draw(st.sampled_from(["right", "wrong", "none", "absent"]))
        if pick != "absent":
            fam.constants[name] = {"right": right, "wrong": 1 - right, "none": None}[pick]
    return h, fam


@settings(max_examples=300, deadline=None)
@given(families())
def test_rows_check_matches_verify(hf):
    h, fam = hf
    want = all(row["value"] is None or row["value"] == fam.constants[row["type"]]
               for row in fam.verification_rows(h) if row["type"] in fam.constants)
    assert fam._rows_agree(fam.verification_rows(h)) == fam.verify(h) == want


def test_verify_reads_only_named_types_and_stops_at_a_mismatch(monkeypatch):
    """``verify`` computes no density for a type without a constant, and
    none after the first one that disagrees."""
    h, sets = build_type_family([2, 2, 2], 1, 0, 1, 0)
    calls = []
    monkeypatch.setattr(structure, "maybe_density", lambda *a: calls.append(a) or 1)
    assert HomogenizedFamily(tuple(sets), {}).verify(h) and calls == []
    assert not HomogenizedFamily(tuple(sets), {"d": 0, "a": 0}).verify(h)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_homogeneous_subset_matches_induced_copy(data):
    h = data.draw(graphs())
    cand = sub_mask(data.draw, h)
    limit = data.draw(st.integers(0, MAX_N))  # below the subset's size: the greedy pass
    current = bits_of(cand)
    want = max_homogeneous(h.induced(current), limit)
    relabeled = HomogeneousWitness(tuple(current[i] for i in want.set), want.kind, want.exact)
    assert _max_homogeneous_in(h, cand, limit) == relabeled


# --- density -----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_density_matches_edge_mask_scan(data):
    h = data.draw(graphs())
    verts = st.lists(st.integers(0, max(h.n - 1, 0)), max_size=h.n, unique=True) \
        if h.n else st.just([])
    shape = data.draw(st.sampled_from(["disjoint", "doubled", "tripled", "any"]))
    if shape == "any":
        x, y, z = data.draw(verts), data.draw(verts), data.draw(verts)
    else:
        labels = data.draw(st.lists(st.integers(0, 2), min_size=h.n, max_size=h.n))
        parts = [[v for v, c in enumerate(labels) if c == k] for k in range(3)]
        if shape == "disjoint":
            x, y, z = parts
        elif shape == "doubled":
            x, y, z = data.draw(st.permutations([parts[0], parts[0], parts[1]]))
        else:
            x = y = z = parts[0]
    assert outcome(lambda: density(h, x, y, z)) == outcome(lambda: oracle_density(h, x, y, z))
    try:
        want = ("ok", oracle_density(h, x, y, z))
    except ShapeError as e:  # None stands for an empty denominator only
        want = ("ok", None) if str(e) == "empty" else ("shape",)
    assert outcome(lambda: maybe_density(h, x, y, z)) == want


def test_maybe_density_classifies_the_normalized_sets():
    # (0, 1) and (1, 0) name the same set, so both calls ask for d(X, X, X)
    # with |X| = 2, whose denominator is empty
    h = complete_hypergraph(3, 6)
    assert maybe_density(h, (0, 1), (1, 0), (0, 1)) is None
    assert maybe_density(h, (0, 1), (0, 1), (0, 1)) is None
    assert maybe_density(h, (2, 1, 0), (0, 1, 2), (1, 2, 0)) == 1
