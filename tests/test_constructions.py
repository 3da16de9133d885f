from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from ordersize.core import Tournament
from ordersize.constructions import (
    GrInstance,
    build_gr,
    check_fact_gr,
    cyclic_triangle_3graph,
    cyclic_triangle_cap,
    cyclic_triangles,
    footnote_example_r3,
    materialize,
    pattern_color_index,
    random_tournament,
    scan_counterexample,
)
from ordersize.core import PalettedColoring, complete_hypergraph
from ordersize.rng import SeededRNG
from ordersize.values import g_r


def test_transitive_tournament_has_no_cycles():
    assert cyclic_triangles(Tournament.transitive(7)).edges == frozenset()


def test_single_three_cycle():
    t = Tournament(3, [True, False, True])  # 0->1, 2->0, 1->2
    assert cyclic_triangles(t).edges == frozenset({(0, 1, 2)})


def test_cyclic_triangle_bound_exhaustive():
    for seed in range(6):
        h = cyclic_triangle_3graph(10, seed)
        worst = max(h.edge_count(s) for s in combinations(range(10), 6))
        assert worst <= cyclic_triangle_cap(6) == 8
        assert worst < comb(6, 3) / 2


def test_tournament_seeding_is_stable():
    assert random_tournament(8, 5).forward == random_tournament(8, 5).forward


def test_pattern_color_indexing():
    assert pattern_color_index(1, 2, 3) == 0
    assert pattern_color_index(1, 3, 3) == 1
    assert pattern_color_index(2, 3, 3) == 2


def test_gr_canonical_pattern_single_edge():
    r = 4
    colors = {
        (i, j): pattern_color_index(i + 1, j + 1, r) for i, j in combinations(range(r), 2)
    }
    inst = GrInstance(r, r, PalettedColoring.from_map(r, comb(r, 2), colors))
    assert materialize(inst).edges == frozenset({tuple(range(r))})


def test_gr_monochromatic_has_no_edges():
    colors = PalettedColoring(6, 3, [pattern_color_index(1, 2, 3)] * comb(6, 2))
    inst = GrInstance(3, 6, colors)
    assert materialize(inst).edges == frozenset()


@pytest.mark.parametrize("r", [1, 0, -2])
def test_build_gr_names_r_below_two(r):
    with pytest.raises(ValueError, match=f"^r must be at least 2, got {r}$"):
        build_gr(5, r, 0)


def test_build_gr_colors_match_checked_constructor():
    for n, r, seed in [(4, 4, 0), (12, 3, 5), (40, 5, 1), (25, 4, 17)]:
        inst = build_gr(n, r, seed, materialize_cap=0)
        palette = comb(r, 2)
        draws = SeededRNG(seed).randranges(palette, comb(n, 2))
        assert inst.coloring == PalettedColoring(n, palette, draws)
        assert type(inst.coloring.colors) is tuple


def test_checked_coloring_rejects_bad_input():
    with pytest.raises(ValueError, match="pair colors"):
        PalettedColoring(5, 3, [0] * (comb(5, 2) - 1))
    with pytest.raises(ValueError, match="out of range"):
        PalettedColoring(5, 3, [0] * 9 + [3])
    with pytest.raises(ValueError, match="out of range"):
        PalettedColoring(5, 3, [-1] + [0] * 9)


def test_gr_membership_dual_evaluation():
    inst3 = build_gr(20, 3, 11)
    rng = SeededRNG(99)
    for _ in range(3000):
        tup = rng.sorted_sample(20, 3)
        assert inst3.is_edge(tup) == (tup in inst3.graph.edges)
    inst4 = build_gr(20, 4, 3)
    for _ in range(2000):
        tup = rng.sorted_sample(20, 4)
        assert inst4.is_edge(tup) == (tup in inst4.graph.edges)


def test_count_in_subset_matches_edge_count():
    inst = build_gr(18, 3, 21)
    rng = SeededRNG(5)
    for _ in range(200):
        s = rng.sorted_sample(18, 7)
        assert inst.count_in_subset(s) == inst.graph.edge_count(s)


def test_check_fact_m_equals_r():
    inst = build_gr(14, 4, 2)
    rep = check_fact_gr(inst, 4, mode="exhaustive")
    assert rep.max_edges <= 1 == g_r(4, 4) == rep.target
    assert rep.ok


def test_check_fact_r4_doubling_size():
    inst = build_gr(16, 4, 9)
    rep = check_fact_gr(inst, 8, mode="sampled", samples=3000, seed=1)
    assert rep.target == 16 == g_r(4, 8)
    assert rep.max_edges <= 16 and rep.ok


def test_footnote_example():
    inst = footnote_example_r3()
    assert len(inst.graph.edges) == 7
    # dropping the last vertex loses the six cross edges
    assert inst.graph.edge_count(range(5)) == 1
    assert comb(6, 3) - 7 == len(inst.graph.complement().edges)


def test_scan_counterexample_monochromatic():
    colors = PalettedColoring(12, comb(5, 2), [0] * comb(12, 2))
    inst = GrInstance(5, 12, colors)
    rep = scan_counterexample(inst, samples=300, seed=0)
    assert rep.histogram == {0: rep.samples} and rep.ok


def test_scan_counterexample_r5():
    inst = build_gr(40, 5, 3, materialize_cap=0)
    rep = scan_counterexample(inst, samples=4000, seed=3)
    assert rep.target == 32
    assert rep.histogram.get(31, 0) == 0 and rep.max_edges <= 32
    assert rep.ok and rep.mode == "sampled"


def test_scan_counterexample_r3_advisory_histogram():
    inst = build_gr(12, 3, 17)
    rep = scan_counterexample(inst, samples=2000, seed=2)
    assert sum(rep.histogram.values()) == rep.samples
    # the footnote shape is legitimately reachable at r=3, so the report is
    # advisory and stays ok even if seven-edge subsets show up
    assert rep.advisory and rep.ok


def test_check_fact_exhaustive_doubling():
    inst = build_gr(16, 4, 9)
    rep = check_fact_gr(inst, 8, mode="exhaustive")
    assert rep.samples == comb(16, 8)
    assert rep.max_edges <= 16 == rep.target and rep.ok and not rep.advisory


def test_check_fact_lists_each_subset_above_the_bound():
    # no pattern coloring reaches it, so the graph attached is the complete one
    r, n, m = 4, 7, 6
    inst = replace(build_gr(n, r, 0), graph=complete_hypergraph(r, n))
    rep = check_fact_gr(inst, m, mode="exhaustive")
    assert rep.target == g_r(r, m) < comb(m, r)
    assert rep.histogram == {comb(m, r): comb(n, m)}
    assert rep.violations == [{"subset": list(s), "edges": comb(m, r)}
                              for s in combinations(range(n), m)]
    assert not rep.ok


def test_reports_serialize():
    inst = build_gr(14, 4, 1)
    rep = check_fact_gr(inst, 6, mode="sampled", samples=500, seed=0)
    obj = rep.to_json_obj()
    assert obj["mode"] == "sampled" and obj["target"] == g_r(4, 6)


def test_check_fact_rejects_m_above_n_and_unknown_modes():
    for inst in (build_gr(8, 3, 0), build_gr(8, 3, 0, materialize_cap=0)):
        for mode in ("auto", "exhaustive", "sampled"):
            with pytest.raises(ValueError, match="m=9 exceeds n=8"):
                check_fact_gr(inst, 9, mode=mode, samples=10)
        for mode in ("exhastive", "Sampled", ""):
            with pytest.raises(ValueError, match="unknown mode"):
                check_fact_gr(inst, 5, mode=mode, samples=10)
        assert check_fact_gr(inst, 8, mode="exhaustive").samples == 1
    with pytest.raises(ValueError, match="m=10 exceeds n=6"):
        scan_counterexample(build_gr(6, 5, 0, materialize_cap=0), samples=10)


def test_sampled_check_fact_needs_a_sample():
    # no sample would pass with an empty histogram, having checked nothing
    inst = build_gr(20, 4, 1, materialize_cap=0)
    for samples in (0, -4):
        with pytest.raises(ValueError, match=f"samples must be positive, got {samples}"):
            check_fact_gr(inst, 8, mode="sampled", samples=samples)
