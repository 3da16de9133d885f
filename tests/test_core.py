from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersize.core import (
    Hypergraph,
    OrderedGraph,
    PalettedColoring,
    Tournament,
    complete_hypergraph,
    density,
    empty_hypergraph,
    read_hg_text,
    unrank_combination,
    vertex_set,
    write_hg_text,
)
from ordersize.errors import ShapeError
from ordersize.rng import SeededRNG

from helpers import chance, induced, iter_combinations_from


def seeded_3graph(n, seed, pct=50):
    rng = SeededRNG(seed)
    edges = [e for e in combinations(range(n), 3) if chance(rng, pct, 100)]
    return Hypergraph(3, n, edges)


def test_complement_of_empty_is_complete():
    h = empty_hypergraph(3, 5).complement()
    assert len(h.edges) == comb(5, 3) == 10


def test_complement_listed_edges():
    h = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    assert h.complement().edges == frozenset({(0, 2, 3), (1, 2, 3)})


@given(st.integers(0, 2**20 - 1))
@settings(max_examples=60, deadline=None)
def test_complement_involution(bits):
    universe = list(combinations(range(6), 3))
    edges = [e for i, e in enumerate(universe) if bits >> i & 1]
    h = Hypergraph(3, 6, edges)
    assert h.complement().complement() == h


def test_induced_complete_and_identity():
    k6 = complete_hypergraph(3, 6)
    sub = k6.induced([1, 2, 4, 5])
    assert sub.n == 4 and len(sub.edges) == 4
    h = seeded_3graph(7, 3)
    assert h.induced(range(7)) == h
    # the full vertex set, in any order or with repeats, is the graph itself
    assert h.induced(range(7)) is h
    assert h.induced([6, 5, 4, 3, 2, 1, 0, 0]) is h
    assert h.induced(range(6)) is not h and h.induced(range(6)).n == 6
    with pytest.raises(ValueError):
        h.induced(range(8))


def test_induced_containment():
    h = Hypergraph(3, 6, [(0, 1, 2)])
    assert h.induced([0, 1, 2, 5]).edges == frozenset({(0, 1, 2)})


def test_edge_count_examples():
    assert complete_hypergraph(3, 6).edge_count(range(6)) == 20
    assert empty_hypergraph(3, 6).edge_count([0, 2, 4]) == 0


def test_edge_count_matches_triple_scan():
    h = seeded_3graph(8, 1)
    s = tuple(range(6))
    direct = sum(1 for t in combinations(s, 3) if t in h.edges)
    assert h.edge_count(s) == direct


def test_edge_count_complement_identity():
    for seed in range(5):
        h = seeded_3graph(8, seed)
        hc = h.complement()
        for size in (3, 5, 7):
            s = tuple(range(size))
            assert h.edge_count(s) + hc.edge_count(s) == comb(size, 3)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, 4, [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, 4, [(0, 1, 4)])
    with pytest.raises(ValueError):
        Hypergraph(3, 4, [(0, 1, 1)])


def test_vertex_set():
    assert vertex_set([3, 1, 1, 2], 5) == (1, 2, 3)
    with pytest.raises(ValueError):
        vertex_set([0, 9], 5)


def test_density_trivial_shapes():
    k = complete_hypergraph(3, 9)
    e = empty_hypergraph(3, 9)
    shapes = [([0, 1, 2], [3, 4], [5, 6, 7]), ([0, 1, 2], [0, 1, 2], [4, 5]), ([0, 1, 2, 3],) * 3]
    for x, y, z in (s if len(s) == 3 else s for s in shapes):
        assert density(k, x, y, z) == 1
        assert density(e, x, y, z) == 0


def test_density_direct_count():
    h = Hypergraph(3, 5, [(0, 1, 3), (0, 1, 4)])
    assert density(h, [0], [1], [3, 4]) == 1
    assert density(h, [0], [1], [2, 3]) == Fraction(1, 2)


def test_density_argument_order_invariance():
    h = seeded_3graph(9, 4)
    x, y, z = (0, 1, 2), (3, 4), (5, 6, 7)
    vals = {density(h, *p) for p in [(x, y, z), (z, x, y), (y, z, x), (x, z, y)]}
    assert len(vals) == 1
    assert density(h, x, x, z) == density(h, x, z, x) == density(h, z, x, x)


def test_density_rejects_bad_shapes():
    h = seeded_3graph(6, 0)
    with pytest.raises(ShapeError):
        density(h, [0, 1], [1, 2], [4, 5])  # partial overlap
    with pytest.raises(ShapeError):
        density(h, [0, 1], [0, 1], [])  # empty denominator
    with pytest.raises(ShapeError):
        density(h, [0, 1], [0, 1], [0, 2])  # doubled set meets the third


def test_hg_text_roundtrip_bit_exact():
    h = seeded_3graph(9, 7)
    text = write_hg_text(h)
    again = read_hg_text(text)
    assert again == h
    assert write_hg_text(again) == text


def test_hg_text_comments_and_errors():
    h = read_hg_text("# comment\n3 5\n0 1 2\n\n1 3 4\n1 3 4\n")
    assert h.edges == frozenset({(0, 1, 2), (1, 3, 4)})
    with pytest.raises(ValueError):
        read_hg_text("3 5\n2 1 0\n")
    with pytest.raises(ValueError):
        read_hg_text("")


def old_read_hg_text(text: str) -> Hypergraph:
    """The reader before it checked ranges itself: it left them to ``Hypergraph``."""
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
        vs = [int(t) for t in ln.split()]
        if len(vs) != r:
            raise ValueError(f"edge line {ln!r} does not have {r} entries")
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError(f"edge line {ln!r} is not strictly increasing")
        edges.append(tuple(vs))
    return Hypergraph(r, n, edges)


@pytest.mark.parametrize("text", [
    "3 5\n0 1 5\n",            # a vertex at n
    "3 5\n-1 0 2\n",           # a negative vertex
    "3 5\n0 1 2\n0 1 9\n2 1 0\n",  # out of range before a bad order
    # two bad lines of different kinds, with comments and blank lines between:
    # the first one names the error
    "3 5\n0 1\n# note\n\n0 x 2\n",       # a short line before a bad token
    "3 5\n0 x 2\n\n# note\n0 1\n",       # a bad token before a short line
    "3 5\n 2 1 0 \n# note\n\n0 1 9\n",   # a descending line before an out-of-range one
    "3 5\n0 1 9\n\n# note\n1 1 2\n",     # out of range before a repeated vertex
    "3 5\n0 1 2 3\n# note\n2 1 0\n",    # a long line before a descending one
    "3 5\n3 2 1\n\n0 1\n",              # a descending line before a short one
    "3 5\n0 1 2\n0 1 2.5\n0 1\n",        # a bad token after a good line
    "1 4\n2\n",                # r = 1, with a line of one vertex
    "1 4\n",                   # r = 1, no edges
    "0 3\n",
    "3 -1\n",
    "3 -1\n0 1 2\n",
    "2 3\n0 1 2\n",
    "3\n",
    "",
])
def test_hg_reader_errors_match_the_constructor(text):
    with pytest.raises(ValueError) as old:
        old_read_hg_text(text)
    with pytest.raises(ValueError) as new:
        read_hg_text(text)
    assert str(new.value) == str(old.value)


def test_json_roundtrip():
    h = seeded_3graph(8, 2)
    assert Hypergraph.from_json_obj(h.to_json_obj()) == h


def test_file_roundtrip_both_formats(tmp_path):
    from ordersize.core import load_hypergraph, save_hypergraph

    h = seeded_3graph(7, 6)
    for name in ("g.hg", "g.json"):
        path = str(tmp_path / name)
        save_hypergraph(h, path)
        assert load_hypergraph(path) == h


def test_ordered_graph_basics():
    g = OrderedGraph(5, [(0, 3), (1, 2)])
    assert g.has_edge(3, 0) and not g.has_edge(0, 1)
    assert g.complement().has_edge(0, 1)
    sub = induced(g, [0, 2, 3])
    assert sub.edges == frozenset({(0, 2)})
    assert g.forward_non_neighbors(0) == 0b10110
    assert g.backward_non_neighbors(3) == 0b0110


def test_ordered_graph_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        OrderedGraph(-2)
    assert OrderedGraph(0).edges == frozenset()


def test_paletted_coloring():
    c = PalettedColoring(4, 3, [0, 1, 2, 0, 1, 2])
    assert c.color(0, 1) == 0 and c.color(1, 0) == 0
    assert c.color(2, 3) == 2
    with pytest.raises(ValueError):
        PalettedColoring(4, 2, [0, 1, 2, 0, 1, 2])


def test_tournament():
    t = Tournament.transitive(5)
    assert t.beats(0, 4) and not t.beats(4, 0)


def test_combination_ranking():
    n, k = 7, 3
    all_combos = list(combinations(range(n), k))
    for rank, c in enumerate(all_combos):
        assert unrank_combination(rank, n, k) == c
    assert list(iter_combinations_from(5, 10, n, k)) == all_combos[5:15]
