"""Differential tests of the row-stored ``OrderedGraph``.

The oracles are the implementations the rows replaced: the frozenset-of-pairs
graph (``helpers.FrozensetOrderedGraph``), the edge-list expansion of
substitution certificates and their recursive expansion
(``helpers.old_expand_certificate``), the relabeling ``link_graph``, and the
pair scans that looked for the first edge and the first non-edge inside a
vertex mask.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordersize.core import Hypergraph, OrderedGraph, bits_of, mask_of
from ordersize.hbuilder import CertNode, expand_certificate
from ordersize.spectrum import _first_edge_in

from helpers import FrozensetOrderedGraph, induced, link_graph, old_expand_certificate

MAX_N = 14


@st.composite
def edge_lists(draw, max_n=MAX_N):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return n, [p for i, p in enumerate(pairs) if bits >> i & 1]


@st.composite
def graph_and_subsets(draw):
    n, edges = draw(edge_lists())
    subsets = draw(st.lists(st.sets(st.integers(0, max(n - 1, 0)), max_size=n), max_size=6))
    return n, edges, [sorted(s) for s in subsets if n]


def assert_same(g: OrderedGraph, old: FrozensetOrderedGraph):
    assert g.n == old.n
    assert g.edges == old.edges
    assert g.adj == old.adj
    assert g.to_json_obj() == old.to_json_obj()
    for a in range(-2, g.n + 2):
        for b in range(-2, g.n + 2):
            assert g.has_edge(a, b) == old.has_edge(a, b), (a, b)


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_rows_match_frozenset_graph(case):
    n, edges = case
    assert_same(OrderedGraph(n, edges), FrozensetOrderedGraph(n, edges))
    assert_same(OrderedGraph(n, [(b, a) for a, b in edges]), FrozensetOrderedGraph(n, edges))


@given(graph_and_subsets())
@settings(max_examples=150, deadline=None)
def test_complement_induced_and_homogeneity_match(case):
    n, edges, subsets = case
    g, old = OrderedGraph(n, edges), FrozensetOrderedGraph(n, edges)
    assert_same(g.complement(), old.complement())
    assert_same(g.complement().complement(), old)
    for s in subsets:
        assert_same(induced(g, s), old.induced(s))
        assert_same(induced(g.complement(), s), old.complement().induced(s))
        for part in [s, *combinations(s, 2), *combinations(s[:6], 3)]:
            assert g.is_clique(part) == old.is_clique(part)
            assert g.is_independent(part) == old.is_independent(part)
            assert g.complement().is_clique(part) == old.complement().is_clique(part)


@given(edge_lists(max_n=12))
@settings(max_examples=150, deadline=None)
@example((0, []))
@example((12, list(combinations(range(12), 2))))
def test_co_adj_is_the_complements_rows(case):
    n, edges = case
    g = OrderedGraph(n, edges)
    assert g._co_adj == FrozensetOrderedGraph(n, edges).complement().adj
    assert g.complement().adj is g._co_adj


@given(edge_lists(), edge_lists())
@settings(max_examples=150, deadline=None)
def test_equality_and_hash_run_on_rows(one, two):
    g = OrderedGraph(*one)
    same = OrderedGraph(one[0], reversed(one[1]))
    assert g == same and hash(g) == hash(same)
    assert g.complement().complement() == g
    assert hash(g.complement().complement()) == hash(g)
    other = OrderedGraph(*two)
    assert (g == other) == (FrozensetOrderedGraph(*one) == FrozensetOrderedGraph(*two))
    if one[0] >= 2:
        assert g.complement() != g


# --- certificate expansion ---------------------------------------------------------


def expand_by_edges(node: CertNode) -> FrozensetOrderedGraph:
    """The edge-list expansion: relabel each block's edges, then join blocks
    pair by pair wherever the host graph has an edge."""
    graph = FrozensetOrderedGraph
    if node.is_leaf:
        if node.kind == "empty":
            return graph(node.size, ())
        if node.kind == "clique":
            return graph(node.size, combinations(range(node.size), 2))
        return graph(3, [(0, 2)])
    if node.kind == "f0":
        host = graph(3, [(0, 2)])
    elif node.kind == "clique":
        host = graph(len(node.children), combinations(range(len(node.children)), 2))
    else:
        host = graph(len(node.children), ())
    blocks = [expand_by_edges(c) for c in node.children]
    offsets = []
    total = 0
    for b in blocks:
        offsets.append(total)
        total += b.n
    edges = []
    for bi, b in enumerate(blocks):
        edges.extend((offsets[bi] + x, offsets[bi] + y) for x, y in b.edges)
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            if host.has_edge(bi, bj):
                edges.extend(
                    (offsets[bi] + x, offsets[bj] + y)
                    for x in range(blocks[bi].n)
                    for y in range(blocks[bj].n)
                )
    return graph(total, edges)


leaves = st.one_of(
    st.builds(CertNode, st.sampled_from(["empty", "clique"]), st.integers(1, 3)),
    st.just(CertNode("f0", 3)),
)


def hosts(children):
    def node(kind, kids):
        return CertNode(kind, 3 if kind == "f0" else len(kids), tuple(kids))

    return st.one_of(
        st.builds(
            node, st.sampled_from(["empty", "clique"]), st.lists(children, min_size=2, max_size=3)
        ),
        st.builds(node, st.just("f0"), st.lists(children, min_size=3, max_size=3)),
    )


@given(st.recursive(leaves, hosts, max_leaves=6))
@settings(max_examples=200, deadline=None)
def test_expand_certificate_matches_edge_expansion(node):
    got = expand_certificate(node)
    assert got.n == node.total_size()
    assert_same(got, expand_by_edges(node))


nested_same_kind = CertNode("clique", 2, (
    CertNode("clique", 2, (CertNode("empty", 2), CertNode("f0", 3))),
    CertNode("empty", 2, (CertNode("empty", 2, (CertNode("clique", 2), CertNode("empty", 1))),
                          CertNode("f0", 3, (CertNode("clique", 1), CertNode("empty", 2),
                                             CertNode("f0", 3, (CertNode("empty", 1),) * 3))))),
))


@example(nested_same_kind)
@given(st.recursive(leaves, hosts, max_leaves=12))
@settings(max_examples=200, deadline=None)
def test_expand_certificate_matches_the_recursive_expansion(node):
    assert expand_certificate(node) == old_expand_certificate(node)


# --- link graphs and first-edge scans -------------------------------------------------


def link_graph_by_relabeling(h: Hypergraph, v: int) -> FrozensetOrderedGraph:
    others = [u for u in range(h.n) if u != v]
    relabel = {u: i for i, u in enumerate(others)}
    edges = [
        (relabel[a], relabel[b])
        for e in h.edges
        if v in e
        for a, b in [tuple(u for u in e if u != v)]
    ]
    return FrozensetOrderedGraph(h.n - 1, edges)


@st.composite
def three_graphs(draw):
    n = draw(st.integers(1, MAX_N))
    triples = list(combinations(range(n), 3))
    bits = draw(st.integers(0, (1 << len(triples)) - 1))
    return Hypergraph(3, n, [t for i, t in enumerate(triples) if bits >> i & 1])


@given(three_graphs())
@settings(max_examples=100, deadline=None)
def test_link_graph_matches_relabeling(h):
    for v in range(h.n):
        assert_same(link_graph(h, v), link_graph_by_relabeling(h, v))


def first_pair_by_scan(old: FrozensetOrderedGraph, mask: int, edge: bool):
    verts = bits_of(mask)
    for a_i, a in enumerate(verts):
        for b in verts[a_i + 1:]:
            if old.has_edge(a, b) == edge:
                return (a, b)
    return None


@given(graph_and_subsets())
@settings(max_examples=150, deadline=None)
def test_first_edge_matches_pair_scans(case):
    n, edges, subsets = case
    g, old = OrderedGraph(n, edges), FrozensetOrderedGraph(n, edges)
    for s in [range(n), *subsets]:
        mask = mask_of(s)
        assert _first_edge_in(g.adj, mask) == first_pair_by_scan(old, mask, True)
        assert _first_edge_in(g._co_adj, mask) == first_pair_by_scan(old, mask, False)
