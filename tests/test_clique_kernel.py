"""Differential tests of the maximum-clique kernel ``search._max_clique``, the
t-clique walk ``search._cliques`` and the greedy pass ``search._greedy_clique``.

Oracles: networkx clique numbers and a brute-force scan for the
lexicographically first maximum clique or independent set; a ``combinations``
scan for 3-graphs; ``old_max_clique_walk``, the maximum-clique walk the
two-phase kernel replaced; ``per_center_largest_star``, the maximum star that
ran both phases for every center; ``enumerate_cliques_reference``, a copy of the
t-clique enumerator the kernel replaced, with its list-cell budget; and the
greedy procedure written out step by step.
"""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordersize.core import Hypergraph, OrderedGraph, bits_of, complete_hypergraph, mask_of
from ordersize.errors import Budget
from ordersize.search import (
    Star,
    StarSearchResult,
    _cliques,
    _greedy_clique,
    _max_clique,
    _max_homogeneous_in,
    find_stars,
    max_clique,
    max_homogeneous,
    max_independent_set,
)
from ordersize.structure import largest_star

from helpers import (
    link_graph,
    old_largest_star,
    old_max_clique_walk,
    old_max_homogeneous_in,
    per_center_largest_star,
)

MAX_N = 12


@st.composite
def graphs(draw, max_n=MAX_N):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return OrderedGraph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def hypergraphs(draw, max_n=MAX_N):
    n = draw(st.integers(0, max_n))
    triples = list(combinations(range(n), 3))
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    return Hypergraph(3, n, [t for t, k in zip(triples, keep) if k])


def first_max(n, ok):
    """Lexicographically first largest subset of range(n) satisfying ok."""
    for size in range(n, -1, -1):
        for s in combinations(range(n), size):
            if ok(s):
                return s


def enumerate_cliques_reference(g: OrderedGraph, size: int, budget: list[int]):
    """The t-clique enumerator the kernel replaced, unchanged."""
    out: list[tuple[int, ...]] = []
    full = (1 << g.n) - 1

    def extend(chosen: list[int], cand: int) -> bool:
        if len(chosen) == size:
            out.append(tuple(chosen))
            return True
        need = size - len(chosen)
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if 1 + rest.bit_count() < need:
                return True
            if budget[0] <= 0:
                return False
            budget[0] -= 1
            chosen.append(v)
            if not extend(chosen, rest & g.adj[v]):
                chosen.pop()
                return False
            chosen.pop()
        return True

    complete = extend([], full)
    return out, complete


def find_stars_reference(h, s, want_induced, want_anti, budget):
    """Star search through relabeled link graphs, as before the kernel."""
    limit = [budget if budget is not None else 1 << 62]
    start = limit[0]
    stars = []
    complete = True
    for v in range(h.n):
        lg = link_graph(h, v)
        target = lg if not want_anti else lg.complement()
        leafsets, done = enumerate_cliques_reference(target, s, limit)
        others = [u for u in range(h.n) if u != v]
        for ls in leafsets:
            st_ = Star(v, tuple(others[i] for i in ls), want_induced, want_anti)
            if not want_induced or st_.verify(h):
                stars.append(st_)
        if not done:
            complete = False
            break
    return StarSearchResult(tuple(stars), complete, start - limit[0])


def greedy_reference(stays, cand: int, highest: bool) -> tuple[int, ...]:
    """Take the lowest (highest) remaining candidate, then keep only the
    candidates u with stays(chosen, v, u), and repeat."""
    remaining = set(bits_of(cand))
    chosen: list[int] = []
    while remaining:
        v = max(remaining) if highest else min(remaining)
        remaining.discard(v)
        remaining = {u for u in remaining if stays(chosen, v, u)}
        chosen.append(v)
    return tuple(sorted(chosen))


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_max_clique_and_independent_set_are_lex_first(g):
    assert max_clique(g) == first_max(g.n, g.is_clique)
    assert max_independent_set(g) == first_max(g.n, g.is_independent)


def test_max_clique_sizes_match_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def check(g):
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        clique_number = max((len(c) for c in nx.find_cliques(ng)), default=0)
        independence_number = max((len(c) for c in nx.find_cliques(nx.complement(ng))), default=0)
        assert len(max_clique(g)) == clique_number
        assert len(max_independent_set(g)) == independence_number

    check()


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_3graph_max_clique_both_sides(h):
    full = (1 << h.n) - 1
    cl = _max_clique(h._pair_links, full, 0, True)
    ind = _max_clique(h._pair_links, full, -1, True)
    assert cl == first_max(h.n, lambda s: all(t in h.edges for t in combinations(s, 3)))
    assert ind == first_max(h.n, lambda s: not any(t in h.edges for t in combinations(s, 3)))
    w = max_homogeneous(h)
    assert w.set == (cl if len(cl) >= len(ind) else ind)


@st.composite
def dense_or_sparse(draw, r, max_n):
    """An r-graph (r = 2 or 3) whose edges each appear with a drawn chance
    from 0 to 100 %."""
    n = draw(st.integers(0, max_n))
    tuples = list(combinations(range(n), r))
    pct = draw(st.integers(0, 100))
    keep = draw(st.lists(st.integers(0, 99), min_size=len(tuples), max_size=len(tuples)))
    edges = [t for t, x in zip(tuples, keep) if x < pct]
    return OrderedGraph(n, edges) if r == 2 else Hypergraph(3, n, edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_max_clique_matches_the_old_walk(data):
    """``_max_clique`` on adjacency rows, on one pair-link row (as
    ``largest_star`` reads it) and on the pair-link table, with any candidate
    mask and either flip; the exact branch of ``_max_homogeneous_in`` and
    ``largest_star`` beside their old code paths."""
    g = data.draw(dense_or_sparse(2, 14))
    h = data.draw(dense_or_sparse(3, 14))
    flip = data.draw(st.sampled_from([0, -1]))
    cases = [(g.adj, g.n, False), (h._pair_links, h.n, True)]
    if h.n:
        cases.append((h._pair_links[data.draw(st.integers(0, h.n - 1))], h.n, False))
    for rows, n, pairs in cases:
        cand = data.draw(st.integers(0, (1 << n) - 1))
        assert _max_clique(rows, cand, flip, pairs) == old_max_clique_walk(rows, cand, flip, pairs)
    cand = data.draw(st.integers(0, (1 << h.n) - 1))
    assert _max_homogeneous_in(h, cand, h.n) == old_max_homogeneous_in(h, cand, h.n)
    if h.n:
        assert largest_star(h, flip == -1) == old_largest_star(h, flip == -1)


@settings(max_examples=300, deadline=None)
@given(dense_or_sparse(3, 14), st.booleans())
@example(complete_hypergraph(3, 5), False)
@example(complete_hypergraph(3, 5), True)
def test_largest_star_runs_the_lexicographic_pass_once(h, anti):
    """``largest_star`` takes every center's suffix bounds and runs phase 2
    for the first center with the largest clique number alone; it finds the
    (anti)star that running both phases for every center found."""
    if h.n:
        assert largest_star(h, anti) == per_center_largest_star(h, anti)


K6 = OrderedGraph(6, list(combinations(range(6), 2)))


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, 5), st.one_of(st.none(), st.integers(0, 80)), st.booleans())
@example(K6, 3, 0, False)
@example(K6, 1, 1, False)
@example(K6, 3, 1, False)
@example(K6, 3, 5, False)  # runs out inside the last level: 2 steps down, 3 of its 4 leaves
@example(OrderedGraph(6), 2, 0, True)
def test_t_clique_enumeration_matches_reference(g, t, budget, independent):
    limit = [budget if budget is not None else 1 << 62]
    want, want_complete = enumerate_cliques_reference(
        g.complement() if independent else g, t, limit)
    bud = Budget(budget)
    masks, complete = _cliques(g.adj, (1 << g.n) - 1, -1 if independent else 0, size=t, budget=bud)
    assert [bits_of(m) for m in masks] == want
    assert complete == want_complete
    assert bud.used == (budget if budget is not None else 1 << 62) - limit[0]


@settings(max_examples=100, deadline=None)
@given(hypergraphs(max_n=9), st.integers(0, 4), st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(-1, 60)))
@example(complete_hypergraph(3, 6), 3, False, False, -2)
@example(complete_hypergraph(3, 6), 3, True, True, -1)
@example(complete_hypergraph(3, 6), 3, False, False, 0)
@example(complete_hypergraph(3, 6), 1, True, False, 1)
@example(complete_hypergraph(3, 6), 3, True, True, 1)
@example(complete_hypergraph(3, 8), 3, True, False, 10)  # the same walk, every leaf set dropped
def test_find_stars_matches_link_graph_search(h, s, induced, anti, budget):
    if budget is not None and budget < 0:  # invalid input, not an empty partial result
        with pytest.raises(ValueError, match=f"^budget must be nonnegative, got {budget}$"):
            find_stars(h, s, induced, anti, budget)
        return
    assert find_stars(h, s, induced, anti, budget) == find_stars_reference(h, s, induced, anti, budget)


def test_star_budget_runs_out_inside_the_last_level():
    # center 0: leaves 1, 2 (two steps) and the last level 3..7 (five), then
    # leaf 3 (one) leaves two steps for the last level 4..7: leaves 4 and 5
    res = find_stars(complete_hypergraph(3, 8), 3, budget=10)
    assert (len(res.stars), res.complete, res.examined) == (7, False, 10)
    assert res.stars[-1] == Star(0, (1, 3, 5), False, False)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, (1 << MAX_N) - 1), st.booleans(), st.booleans())
def test_greedy_pass_2graph(g, cand, highest, independent):
    cand &= (1 << g.n) - 1

    def stays(chosen, v, u):
        return g.has_edge(u, v) != independent

    got = _greedy_clique(g.adj, cand, -1 if independent else 0, highest=highest)
    assert got == greedy_reference(stays, cand, highest)


@settings(max_examples=100, deadline=None)
@given(hypergraphs(), st.integers(0, (1 << MAX_N) - 1), st.booleans(), st.booleans())
def test_greedy_pass_3graph(h, cand, highest, independent):
    cand &= (1 << h.n) - 1

    def stays(chosen, v, u):
        return all(h.has_edge((a, v, u)) != independent for a in chosen)

    got = _greedy_clique(h._pair_links, cand, -1 if independent else 0, True, highest)
    assert got == greedy_reference(stays, cand, highest)
    assert mask_of(got) & ~cand == 0
