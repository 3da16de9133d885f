from itertools import combinations
from math import comb

import pytest

from ordersize import search
from ordersize.core import Hypergraph, OrderedGraph, complete_hypergraph, empty_hypergraph
from ordersize.errors import VerificationError
from ordersize.rng import SeededRNG
from ordersize.search import (
    Star,
    find_stars,
    greedy_forward_clique,
    max_clique,
    max_homogeneous,
    max_independent_set,
    spencer_independent,
)

from helpers import (
    center_in_first_leaf_set,
    chance,
    count_independent_tsets,
    count_induced_ktt,
    enumerate_induced_ktt,
    exhaustive_max_homogeneous,
    link_graph,
)


def seeded_3graph(n, seed, pct=50):
    rng = SeededRNG(seed)
    edges = [e for e in combinations(range(n), 3) if chance(rng, pct, 100)]
    return Hypergraph(3, n, edges)


def seeded_graph(n, seed, pct=50):
    rng = SeededRNG(seed)
    edges = [p for p in combinations(range(n), 2) if chance(rng, pct, 100)]
    return OrderedGraph(n, edges)


def test_max_homogeneous_trivial():
    w = max_homogeneous(complete_hypergraph(3, 7))
    assert w.kind == "clique" and w.size() == 7 and w.exact
    w = max_homogeneous(empty_hypergraph(3, 7))
    assert w.kind == "independent" and w.size() == 7


def test_max_homogeneous_matches_exhaustive():
    for seed in range(12):
        h = seeded_3graph(12, seed)
        w = max_homogeneous(h)
        assert w.exact
        assert w.size() == exhaustive_max_homogeneous(h)
        assert w.verify(h)


def test_max_homogeneous_heuristic_above_limit():
    h = seeded_3graph(14, 0)
    w = max_homogeneous(h, exact_limit=10)
    assert not w.exact and w.verify(h)


@pytest.mark.parametrize("limit", [-1, -5])
def test_max_homogeneous_rejects_a_negative_exact_limit(limit):
    with pytest.raises(ValueError, match=f"^exact_limit must be nonnegative, got {limit}$"):
        max_homogeneous(seeded_3graph(8, 0), limit)
    assert not max_homogeneous(seeded_3graph(8, 0), 0).exact


def test_link_graph():
    k = complete_hypergraph(3, 6)
    assert len(link_graph(k, 2).edges) == comb(5, 2)
    assert link_graph(empty_hypergraph(3, 5), 0).edges == frozenset()
    h = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    lg = link_graph(h, 0)
    assert lg.n == 3 and lg.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_find_stars_examples():
    k = complete_hypergraph(3, 5)
    res = find_stars(k, 2)
    assert len(res.stars) == 5 * comb(4, 2) and res.complete
    assert not find_stars(k, 3, want_induced=True).stars

    h = Hypergraph(3, 3, [(0, 1, 2)])
    res = find_stars(h, 2, want_induced=True)
    assert [(s.center, s.leaves) for s in res.stars] == [(0, (1, 2)), (1, (0, 2)), (2, (0, 1))]


def test_star_verify_rejects_malformed_stars():
    from ordersize.constructions import random_hypergraph

    h = random_hypergraph(3, 8, 50, 1)
    for anti in (False, True):
        for center, leaves in [(0, (1, 99)), (0, (1, 1)), (-1, (1, 2)), (8, (1, 2)),
                               (0, (-1, 2)), (0, (0, 2))]:
            assert not Star(center, leaves, False, anti).verify(h)
    # well-formed stars are still judged by their edges
    for st in find_stars(h, 2, want_induced=True).stars:
        assert st.verify(h)
        assert not Star(st.center, st.leaves, True, True).verify(h)


def test_find_stars_matches_full_scan():
    h = seeded_3graph(10, 5)
    for anti in (False, True):
        for induced in (False, True):
            got = {(s.center, s.leaves) for s in find_stars(h, 3, induced, anti).stars}
            want = set()
            for v in range(10):
                for leaves in combinations([u for u in range(10) if u != v], 3):
                    st = Star(v, leaves, induced, anti)
                    if st.verify(h):
                        want.add((v, leaves))
            assert got == want


def test_find_stars_star_size_zero_and_negative():
    res = find_stars(complete_hypergraph(3, 8), 0)
    assert [(st.center, st.leaves) for st in res.stars] == [(v, ()) for v in range(8)]
    assert res.complete and res.examined == 0
    with pytest.raises(ValueError):
        find_stars(complete_hypergraph(3, 8), -1)


def test_find_stars_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -3$"):
        find_stars(complete_hypergraph(3, 8), 3, budget=-3)
    res = find_stars(complete_hypergraph(3, 8), 3, budget=0)
    assert (res.stars, res.complete, res.examined) == ((), False, 0)


def test_find_stars_budget_truncation():
    res = find_stars(complete_hypergraph(3, 8), 3, budget=10)
    assert (len(res.stars), res.complete, res.examined) == (7, False, 10)


def test_truncated_star_list_is_verified(monkeypatch):
    # the walk hands back one leaf mask that holds the center, which no edge
    # joins to itself
    monkeypatch.setattr(search, "_cliques", center_in_first_leaf_set(search._cliques))
    with pytest.raises(VerificationError, match="star"):
        find_stars(complete_hypergraph(3, 8), 3, budget=10)


def test_spencer_independent():
    assert spencer_independent(empty_hypergraph(3, 9), 5, 0).set == tuple(range(9))
    res = spencer_independent(complete_hypergraph(3, 8), 50, 1)
    assert len(res.set) == 2
    rng = SeededRNG(17)
    edges = set()
    while len(edges) < 60:
        edges.add(tuple(sorted(rng.sample(30, 3))))
    h = Hypergraph(3, 30, edges)
    res = spencer_independent(h, 500, 3)
    assert h.is_independent(res.set)
    # the target is achievable here (witnessed by exact search on the 3-graph)
    exact = max_independent_set_3graph(h)
    assert exact >= res.target
    assert len(res.set) >= res.target


def max_independent_set_3graph(h):
    # a sparse 3-graph: its largest homogeneous set is an independent one
    w = max_homogeneous(h)
    assert w.exact and w.kind == "independent"
    return w.size()


def test_greedy_forward_clique():
    n = 6
    complete = OrderedGraph(n, combinations(range(n), 2))
    assert greedy_forward_clique(complete) == tuple(range(n))
    assert greedy_forward_clique(OrderedGraph(4, ())) == (0,)
    for seed in range(10):
        g = seeded_graph(40, seed, 90)
        clique = greedy_forward_clique(g)
        assert g.is_clique(clique)
        k = max(g.forward_non_neighbors(v).bit_count() for v in range(g.n)) + 1
        assert len(clique) >= -(-g.n // k)


def test_max_clique_2graph():
    g = seeded_graph(14, 2, 60)
    best = len(max_clique(g))
    # oracle: top-down subset scan
    want = next(
        size
        for size in range(g.n, 0, -1)
        for s in combinations(range(g.n), size)
        if g.is_clique(s)
    )
    assert best == want
    assert g.is_clique(max_clique(g))
    assert g.is_independent(max_independent_set(g))


def test_count_induced_ktt():
    k22 = OrderedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert count_induced_ktt(k22, 2).value == 1
    complete = OrderedGraph(6, combinations(range(6), 2))
    assert count_induced_ktt(complete, 2).value == 0
    g = seeded_graph(12, 8)
    rep = count_induced_ktt(g, 2)
    assert rep.exact
    # oracle: scan all pairs of 2-sets
    want = 0
    for a in combinations(range(12), 2):
        for b in combinations(range(12), 2):
            if b <= a or set(a) & set(b):
                continue
            if g.is_independent(a) and g.is_independent(b) and all(
                g.has_edge(x, y) for x in a for y in b
            ):
                want += 1
    assert rep.value == want
    listed = enumerate_induced_ktt(g, 2)
    assert len(listed) == want


def test_count_induced_ktt_sampled_flag():
    g = seeded_graph(12, 9)
    rep = count_induced_ktt(g, 2, budget=50)
    assert not rep.exact


def test_count_induced_ktt_rejects_budget_below_one():
    g = OrderedGraph(6, ())  # 15 independent 2-sets
    for budget in (0, -4):
        with pytest.raises(ValueError):
            count_induced_ktt(g, 2, budget=budget)
    assert count_induced_ktt(g, 2, budget=1).examined == 1


def test_count_independent_tsets():
    assert count_independent_tsets(OrderedGraph(6, ()), 3) == 20
    assert count_independent_tsets(OrderedGraph(4, combinations(range(4), 2)), 2) == 0
    g = seeded_graph(14, 11, 70)
    want = sum(1 for s in combinations(range(14), 3) if g.is_independent(s))
    assert count_independent_tsets(g, 3) == want
