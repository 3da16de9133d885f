from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    combinations_weighted_scan,
    induced,
    old_realize_r_plus_1,
    oracle_find_induced_ordered_copy,
    oracle_weighted_general,
    oracle_weighted_r3,
)
from ordersize.core import Hypergraph, OrderedGraph, bits_of, complete_hypergraph, empty_hypergraph
from ordersize.constructions import (
    cyclic_triangle_3graph,
    random_hypergraph,
    random_ordered_graph,
)
from ordersize.errors import (
    Budget,
    BudgetExhausted,
    FactorizationError,
    OrderSizeError,
    SearchFailed,
)
from ordersize.hbuilder import build_H
from ordersize.rng import SeededRNG
from ordersize.search import HomogeneousWitness
from ordersize.spectrum import (
    WeightFrame,
    WeightedWitness,
    _weighted,
    _weighted_scan,
    find_mf_subset,
    find_weighted_mf_subset,
    find_induced_ordered_copy,
    pattern_weight_exists,
    pattern_weight_exists_any_split,
    realize_r_plus_1,
    size_spectrum,
    verify_lift,
    weighted_total,
)


def graph_from_chi(chig: OrderedGraph, r: int) -> Hypergraph:
    edges = [t for t in combinations(range(chig.n), r) if chig.has_edge(t[0], t[1])]
    return Hypergraph(r, chig.n, edges)


# --- spectra -------------------------------------------------------------------


def test_spectrum_trivial():
    assert size_spectrum(complete_hypergraph(3, 6), 4).achieved == [4]
    assert size_spectrum(empty_hypergraph(3, 7), 5).achieved == [0]
    one = Hypergraph(3, 6, [(0, 1, 2)])
    rep = size_spectrum(one, 3)
    assert rep.achieved == [0, 1] and rep.s == 2


def test_spectrum_witnesses_and_mirror():
    h = cyclic_triangle_3graph(9, 2)
    rep = size_spectrum(h, 5)
    for f, w in rep.witnesses.items():
        assert h.edge_count(w) == f
    crep = size_spectrum(h.complement(), 5)
    assert sorted(comb(5, 3) - f for f in rep.achieved) == crep.achieved


def test_small_threaded_scan_starts_no_pool(monkeypatch):
    import multiprocessing

    from ordersize import spectrum

    h = random_hypergraph(3, 16, 50, 3)
    assert comb(16, 6) < spectrum._PARALLEL_MIN_SUBSETS

    def no_pool(*args, **kwargs):
        raise RuntimeError("worker pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for threads in (2, 3):
        assert (size_spectrum(h, 6, threads=threads).to_json_obj()
                == size_spectrum(h, 6).to_json_obj())


@pytest.mark.parametrize("r, name, other", [
    (3, "_PARALLEL_MIN_SUBSETS", "_PARALLEL_MIN_SUBSETS_R4"),
    (4, "_PARALLEL_MIN_SUBSETS_R4", "_PARALLEL_MIN_SUBSETS"),
])
def test_threaded_scan_one_subset_below_the_threshold_starts_no_pool(monkeypatch, r, name, other):
    """The scan consults its own rank's threshold: one subset below it stays
    serial whatever the other threshold is, and at it the pool starts."""
    import multiprocessing

    from ordersize import spectrum

    h = random_hypergraph(r, 10, 50, 3)
    total = comb(10, 5)
    serial = size_spectrum(h, 5).to_json_obj()
    real_pool = multiprocessing.Pool
    started = []

    def no_pool(*args, **kwargs):
        raise RuntimeError("worker pool started")

    def spy_pool(*args, **kwargs):
        started.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(spectrum, name, total + 1)
    monkeypatch.setattr(spectrum, other, 0)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert size_spectrum(h, 5, threads=2).to_json_obj() == serial
    monkeypatch.setattr(spectrum, name, total)
    monkeypatch.setattr(spectrum, other, 10**12)
    monkeypatch.setattr(multiprocessing, "Pool", spy_pool)
    assert size_spectrum(h, 5, threads=2).to_json_obj() == serial
    assert started == [(2,)]


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_size_spectrum_rejects_nonpositive_threads(mode):
    h = random_hypergraph(3, 8, 50, 3)
    for threads in (0, -2):
        with pytest.raises(ValueError, match=f"^threads must be positive, got {threads}$"):
            size_spectrum(h, 4, mode=mode, samples=10, threads=threads)


def test_large_threaded_scan_matches_serial(monkeypatch):
    import multiprocessing

    from ordersize import spectrum

    h = random_hypergraph(3, 24, 50, 3)
    total = comb(24, 8)
    assert total >= spectrum._PARALLEL_MIN_SUBSETS
    started = []
    real_pool = multiprocessing.Pool

    def spy_pool(*args, **kwargs):
        started.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy_pool)
    par = size_spectrum(h, 8, threads=2)
    assert started == [(2,)]
    seq = size_spectrum(h, 8)
    assert par.witnesses == seq.witnesses
    assert par.subsets_examined == seq.subsets_examined == total


def test_spectrum_cap_and_sampled():
    h = cyclic_triangle_3graph(12, 0)
    with pytest.raises(ValueError):
        size_spectrum(h, 6, cap=100)
    rep = size_spectrum(h, 6, mode="sampled", samples=500, seed=4)
    full = size_spectrum(h, 6)
    assert set(rep.achieved) <= set(full.achieved)
    again = size_spectrum(h, 6, mode="sampled", samples=500, seed=4)
    assert rep.achieved == again.achieved and rep.witnesses == again.witnesses


def test_sampled_spectrum_needs_a_sample():
    # no sample would report s >= 0 having checked nothing
    h = cyclic_triangle_3graph(12, 0)
    for samples in (0, -4):
        with pytest.raises(ValueError, match=f"samples must be positive, got {samples}"):
            size_spectrum(h, 6, mode="sampled", samples=samples)


def test_find_mf_subset():
    k6 = complete_hypergraph(3, 6)
    assert k6.edge_count(find_mf_subset(k6, 4, 4)) == 4
    assert find_mf_subset(k6, 4, 3) is None  # proven absent exhaustively
    with pytest.raises(BudgetExhausted):
        find_mf_subset(k6, 4, 3, budget=5)
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        find_mf_subset(k6, 4, 3, budget=-1)
    with pytest.raises(BudgetExhausted) as err:  # a budget of 0 is valid and scans nothing
        find_mf_subset(k6, 4, 3, budget=0)
    assert err.value.used == 0
    h = cyclic_triangle_3graph(10, 7)
    got = find_mf_subset(h, 6, 0)
    want = next((s for s in combinations(range(10), 6) if h.edge_count(s) == 0), None)
    assert got == want


@pytest.mark.parametrize("m", [-1, 2, 7])
def test_find_mf_subset_checks_m_before_f(m):
    with pytest.raises(ValueError, match=f"^m={m} out of range$"):
        find_mf_subset(complete_hypergraph(3, 6), m, 0)


@pytest.mark.parametrize("r,m,h,message", [
    (3, -1, 3, "m must be at least 3"),
    (3, 2, 1, "m must be at least 3"),
    (4, 3, 3, "m must be at least 4"),
    (2, 4, 1, "r must be >= 3"),
    (1, 4, 1, "r must be >= 3"),
    (1, -1, 3, "r must be >= 3"),
])
def test_weighted_search_checks_shape_before_range(r, m, h, message):
    g = random_ordered_graph(8, 50, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_weighted_mf_subset(g, r, m, 0, h)


# --- weight frames ----------------------------------------------------------------


def test_weight_frame_values():
    fr = WeightFrame(3, 7, 1)
    assert fr.size == 6 and list(fr.positions) == [1, 2, 3, 4, 5, 6]
    assert [fr.weight(1, j) for j in range(2, 7)] == [5, 4, 3, 2, 1]
    fr4 = WeightFrame(4, 10, 1)
    assert fr4.weight(2, 5) == comb(5, 2)
    frk = WeightFrame(5, 11, 3)
    assert frk.weight(4, 6) == comb(3, 2) * comb(5, 1)


def test_weight_table_counts_every_subset_once():
    # brute force: each r-subset of [m] is counted at the pair of its k-th
    # and (k+1)-th smallest elements
    for r in (3, 4, 5):
        for m in range(r + 1, 13):
            for k in range(1, r):
                assert WeightFrame(r, m, k).total() == comb(m, r)


def test_weighted_total():
    fr = WeightFrame(3, 5, 1)
    empty = OrderedGraph(4, ())
    assert weighted_total(empty, range(4), fr) == 0
    single = OrderedGraph(4, [(0, 1)])
    assert weighted_total(single, range(4), fr) == 3  # positions (1, 2), w = 5-2
    complete = OrderedGraph(8, combinations(range(8), 2))
    fr4 = WeightFrame(4, 10, 1)
    want = sum(comb(10 - j, 2) for i in range(1, 9) for j in range(i + 1, 9))
    assert weighted_total(complete, range(8), fr4) == want == comb(10, 4)


@pytest.mark.parametrize("vertices", [(0, 1, 9), (0, 1, 8), (-1, 1, 2)])
def test_weighted_total_rejects_vertices_outside_the_graph(vertices):
    g = random_ordered_graph(8, 50, 1)
    with pytest.raises(ValueError, match=r"^vertex set \(.*\) out of range \[0, 8\)$"):
        weighted_total(g, vertices, WeightFrame(3, 4))
    with pytest.raises(ValueError, match="out of range"):
        WeightedWitness(vertices, 3, 4, 2).verify(g)
    assert weighted_total(g, (0, 1, 7), WeightFrame(3, 4)) >= 0


def test_weighted_total_monotone_under_edges():
    fr = WeightFrame(4, 9, 1)
    rng = SeededRNG(3)
    edges = []
    g = OrderedGraph(7, edges)
    last = weighted_total(g, range(7), fr)
    for pair in combinations(range(7), 2):
        edges.append(pair)
        now = weighted_total(OrderedGraph(7, edges), range(7), fr)
        assert now >= last
        last = now


# --- the lift identity --------------------------------------------------------------


def test_verify_lift_constant_colorings():
    for bit in (0, 1):
        chig = OrderedGraph(8, combinations(range(8), 2) if bit else ())
        h = graph_from_chi(chig, 3)
        assert verify_lift(h, range(8), [0, 2, 4], [6])


def test_verify_lift_random_instances():
    rng = SeededRNG(11)
    for trial in range(200):
        chig = random_ordered_graph(10, 50, rng.subseed(trial))
        h = graph_from_chi(chig, 3)
        size = rng.randint(2, 8)
        u = sorted(rng.sample(9, size))
        after = list(range(u[-1] + 1, 10))
        if not after:
            continue
        tail = [after[rng.randrange(len(after))]]
        assert verify_lift(h, range(10), u, tail)


def test_verify_lift_detects_bad_factorization():
    chig = OrderedGraph(6, [(0, 1)])
    h = graph_from_chi(chig, 3)
    broken = Hypergraph(3, 6, set(h.edges) ^ {(2, 3, 4)})
    with pytest.raises(FactorizationError) as err:
        verify_lift(broken, range(6), [0, 1, 2], [5])
    assert err.value.offending == (2, 3, 4)


@pytest.mark.parametrize("u", [[], [3]])
def test_verify_lift_rejects_fewer_than_two_vertices_in_u(u):
    h = graph_from_chi(OrderedGraph(5, [(0, 1)]), 3)
    with pytest.raises(ValueError, match=f"^U must have at least 2 vertices, got {len(u)}$"):
        verify_lift(h, range(5), u, [4])


def test_single_edge_chi_weight():
    chig = OrderedGraph(6, [(1, 2)])
    h = graph_from_chi(chig, 3)
    u, tail = [0, 1, 2, 3], [5]
    fr = WeightFrame(3, 5, 1)
    assert h.edge_count(tuple(u) + tuple(tail)) == weighted_total(chig, u, fr)
    assert verify_lift(h, range(6), u, tail)


# --- weighted (m,f)-subsets ----------------------------------------------------------


def test_weighted_search_m3():
    g = OrderedGraph(9, [(i, j) for i, j in combinations(range(9), 2) if (i, j) != (2, 5)])
    out = find_weighted_mf_subset(g, 3, 3, 0, 2)
    assert isinstance(out, WeightedWitness) and out.vertices == (2, 5)
    complete = OrderedGraph(9, combinations(range(9), 2))
    out = find_weighted_mf_subset(complete, 3, 3, 0, 3)
    assert isinstance(out, HomogeneousWitness) and out.kind == "clique" and out.size() == 9


def test_weighted_search_m4_f2_case():
    # a backward non-neighborhood holding an edge gives the weight-2 witness
    g = OrderedGraph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    out = find_weighted_mf_subset(g, 3, 4, 2, 2)
    if isinstance(out, WeightedWitness):
        assert out.verify(g) and out.f == 2
    else:
        assert out.size() >= 2


@pytest.mark.parametrize("g, m, f, kind, size", [
    # m=4, f=2: a backward non-neighborhood of h vertices holds no edge
    (OrderedGraph(9), 4, 2, "independent", 8),
    # m=5, f=5: the forward neighbors of v' in the backward non-neighborhood
    # of the isolated top vertex hold no non-edge
    (OrderedGraph(10, combinations(range(9), 2)), 5, 5, "clique", 8),
    # m=5, f=5: no v' has h forward neighbors, so the inner stage falls back
    # to the greedy independent set
    (OrderedGraph(28), 5, 5, "independent", 27),
    # m=5, f=5: no backward non-neighborhood reaches h^2, so the outer stage
    # falls back to the greedy clique
    (OrderedGraph(27, combinations(range(27), 2)), 5, 5, "clique", 27),
], ids=["m4f2-independent", "m5f5-clique", "m5f5-inner-greedy", "m5f5-outer-greedy"])
def test_weighted_search_base_case_homogeneous_exits(g, m, f, kind, size):
    out = find_weighted_mf_subset(g, 3, m, f, 3)
    assert isinstance(out, HomogeneousWitness) and out.verify(g)
    assert out.kind == kind and out.size() == size >= 3


def test_weighted_search_suite():
    rng = SeededRNG(5)
    for trial in range(40):
        g = random_ordered_graph(64, 50, rng.subseed(trial))
        for m in (3, 4, 5):
            for f in range(comb(m, 3) // 2 + 1):
                for h in (2, 3, 4):
                    out = find_weighted_mf_subset(g, 3, m, f, h)
                    if isinstance(out, WeightedWitness):
                        assert out.verify(g)
                        assert out.f == f and out.m == m
                    else:
                        assert out.size() >= h
                        gg = g if out.kind == "clique" else g.complement()
                        assert gg.is_clique(out.set)


def test_weighted_search_complement_mapping():
    # f above half the range goes through the complement and maps back
    rng = SeededRNG(9)
    for trial in range(20):
        g = random_ordered_graph(64, 50, rng.subseed(trial))
        for f in (7, 8, 9, 10):  # above half of C(5,3) = 10
            out = find_weighted_mf_subset(g, 3, 5, f, 3)
            if isinstance(out, WeightedWitness):
                assert out.verify(g) and out.f == f


def test_weighted_search_failure_reported():
    complete = OrderedGraph(4, combinations(range(4), 2))
    with pytest.raises(SearchFailed):
        find_weighted_mf_subset(complete, 3, 6, 3, 5)


def test_weighted_search_r4_base_case_embedding():
    # a planted copy of the builder's pattern is found and lifted back
    f = 345678
    pat = build_H(4, 80, f).graph
    host = OrderedGraph(pat.n + 2, pat.edges)
    out = find_weighted_mf_subset(host, 4, 80, f, 2, budget=2_000_000)
    assert isinstance(out, WeightedWitness) and out.verify(host)
    # one induction level above the base: prepended isolated vertex
    host2 = OrderedGraph(pat.n + 3, [(a + 1, b + 1) for a, b in pat.edges])
    out2 = find_weighted_mf_subset(host2, 4, 81, f, 2, budget=2_000_000)
    assert isinstance(out2, WeightedWitness) and out2.verify(host2)


def test_weighted_search_r4_small_m_direct_scan():
    rng = SeededRNG(44)
    for trial in range(10):
        g = random_ordered_graph(12, 50, rng.subseed(trial))
        for f in (0, 2, 5):
            out = find_weighted_mf_subset(g, 4, 6, f, 2, budget=100_000)
            if isinstance(out, WeightedWitness):
                assert out.verify(g) and out.f == f
            else:
                assert out.size() >= 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weighted_scan_matches_combinations_loop(data):
    r = data.draw(st.sampled_from([4, 5]))
    m = data.draw(st.integers(r, 8))
    n = data.draw(st.integers(0, 12))
    g = random_ordered_graph(n, data.draw(st.integers(0, 100)), data.draw(st.integers(0, 999)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    f = data.draw(st.integers(0, comb(m, r)))
    frame = WeightFrame(r, m)
    subsets = comb(mask.bit_count(), frame.size)
    budget = data.draw(st.one_of(st.none(), st.integers(0, max(subsets, 1))))

    def run(scan):
        bud = Budget(budget)
        try:
            out = scan(g, mask, frame, f, bud)
        except BudgetExhausted as e:
            out = ("exhausted", e.used)
        return out, bud.used

    assert run(_weighted_scan) == run(combinations_weighted_scan)


def test_weighted_search_r4_failure_outcomes():
    # r = 4 and m = 6 < 5r^2, so the base case is the direct scan: an empty
    # graph has no weighted total 1 and no homogeneous set of size h > n
    g = OrderedGraph(6)
    with pytest.raises(SearchFailed) as failed:
        find_weighted_mf_subset(g, 4, 6, 1, 7)
    assert failed.value.reason == "guarantee precondition unmet"
    with pytest.raises(BudgetExhausted) as cut:
        find_weighted_mf_subset(g, 4, 6, 1, 7, budget=2)
    assert cut.value.used == 2


def test_weighted_search_r4_induction_outlives_a_cut_branch(monkeypatch):
    # one level above the base m = 5r^2 = 80 on an empty graph: each branch
    # embeds the builder's pattern into a forward non-neighborhood
    from ordersize import spectrum

    embed = spectrum.find_induced_ordered_copy
    calls = []

    def first_cut(target, mask, pattern, budget=None):
        calls.append(mask.bit_count())
        if len(calls) == 1:
            raise BudgetExhausted("cut short", mask.bit_count())
        return embed(target, mask, pattern, budget)

    g = OrderedGraph(82)
    monkeypatch.setattr(spectrum, "find_induced_ordered_copy", first_cut)
    out = find_weighted_mf_subset(g, 4, 81, 0, 100)
    assert isinstance(out, WeightedWitness) and out.verify(g) and out.vertices[0] == 1
    assert calls == [81, 80]

    def always_cut(target, mask, pattern, budget=None):
        raise BudgetExhausted("cut short", mask.bit_count())

    monkeypatch.setattr(spectrum, "find_induced_ordered_copy", always_cut)
    with pytest.raises(BudgetExhausted) as cut:
        find_weighted_mf_subset(g, 4, 81, 0, 100)
    assert cut.value.used == 81  # the first branch that gave up


def test_find_induced_ordered_copy():
    pattern = OrderedGraph(3, [(0, 2)])
    g = OrderedGraph(5, [(0, 4), (1, 2)])
    hit = find_induced_ordered_copy(g, 0b11111, pattern)
    assert hit is not None
    a, b, c = hit
    assert g.has_edge(a, c) and not g.has_edge(a, b) and not g.has_edge(b, c)
    # without vertex 0 the one edge left, (1, 2), has no vertex between its ends
    assert find_induced_ordered_copy(g, 0b11110, pattern) is None
    assert find_induced_ordered_copy(OrderedGraph(4, ()), 0b1111, OrderedGraph(2, [(0, 1)])) is None


def relabeled(outcome, verts):
    """An outcome of the search on ``induced(g, verts)`` in g's vertex ids."""
    if outcome[0] == "weighted":
        return ("weighted", tuple(verts[i] for i in outcome[1]), *outcome[2:])
    if outcome[0] == "homogeneous":
        return ("homogeneous", tuple(verts[i] for i in outcome[1]), *outcome[2:])
    if outcome[0] == "embedded" and outcome[1] is not None:
        return ("embedded", tuple(verts[i] for i in outcome[1]))
    return outcome


def search_outcome(fn):
    """The answer's observable fields, or the error's."""
    try:
        out = fn()
    except BudgetExhausted as e:
        return ("budget", e.used)
    except SearchFailed as e:
        return ("failed", type(e).__name__, str(e), e.reason, e.detail)
    except ValueError as e:
        return ("value", str(e))
    if isinstance(out, WeightedWitness):
        return ("weighted", out.vertices, out.r, out.m, out.f, out.k)
    if isinstance(out, HomogeneousWitness):
        return ("homogeneous", out.set, out.kind, out.exact)
    return ("embedded", out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_induced_copy_on_a_mask_matches_the_relabeled_search(data):
    n = data.draw(st.integers(0, 12))
    g = random_ordered_graph(n, data.draw(st.integers(0, 100)), data.draw(st.integers(0, 999)))
    k = data.draw(st.integers(1, 5))
    pattern = random_ordered_graph(k, data.draw(st.integers(0, 100)), data.draw(st.integers(0, 999)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    budget = data.draw(st.one_of(st.none(), st.integers(0, 300)))
    verts = bits_of(mask)
    got = search_outcome(lambda: find_induced_ordered_copy(g, mask, pattern, budget))
    want = search_outcome(lambda: oracle_find_induced_ordered_copy(induced(g, verts), pattern, budget))
    assert got == relabeled(want, verts)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_weighted_recursion_matches_the_relabeling_recursions(data):
    # a small m0 brings the r >= 4 induction and its builder base case within
    # reach of graphs this size; 5r^2 would leave only the direct scan
    r = data.draw(st.sampled_from([3, 4, 5]))
    h = data.draw(st.integers(2, 6))
    budget = data.draw(st.one_of(st.none(), st.integers(0, 60)))
    if r == 3:
        m0 = 5 * r * r
        m = data.draw(st.integers(3, 7))
    else:
        m0 = data.draw(st.integers(r + 2, 2 * r + 2))
        m = data.draw(st.integers(r, m0 + 3))
    total = comb(m, r)
    f = data.draw(st.one_of(st.sampled_from([0, 1, total - 1, total]), st.integers(0, total)))
    if r > 3 and m > m0 and 2 * f <= comb(m0, r) and data.draw(st.booleans()):
        # the builder's pattern behind m - m0 isolated vertices: no level
        # complements, and each induction step lands on the next isolated
        # vertex, down to the pattern itself at m0
        try:
            pattern = build_H(r, m0, f).graph
        except SearchFailed:
            pattern = OrderedGraph(m0 - r + 2)
        k = m - m0
        g = OrderedGraph(k + pattern.n, [(a + k, b + k) for a, b in pattern.edges])
        n = g.n
    else:
        n = data.draw(st.integers(0, 14))
        density = data.draw(st.one_of(st.sampled_from([0, 3, 97, 100]), st.integers(0, 100)))
        g = random_ordered_graph(n, density, data.draw(st.integers(0, 999)))
    mask = data.draw(st.one_of(st.just((1 << n) - 1), st.integers(0, (1 << n) - 1)))
    verts = bits_of(mask)
    got = search_outcome(lambda: _weighted(g, mask, r, m, f, h, budget, m0))
    if r == 3:
        want = search_outcome(lambda: oracle_weighted_r3(g, mask, m, f, h))
    else:
        sub = induced(g, verts)
        want = relabeled(
            search_outcome(lambda: oracle_weighted_general(sub, m0, r, m, f, h, budget)), verts)
    assert got == want


# --- m = r+1 realization ---------------------------------------------------------------


def test_realize_empty_chi():
    h = empty_hypergraph(4, 12)
    res = realize_r_plus_1(h, 0)
    assert res.witness is not None and h.edge_count(res.witness) == 0


def test_realize_r3_random():
    rng = SeededRNG(21)
    for f in range(0, 5):
        h = Hypergraph(3, 24, [e for e in combinations(range(24), 3) if rng.coin()])
        res = realize_r_plus_1(h, f)
        if res.witness is not None:
            assert h.edge_count(res.witness) == f


def test_realize_synthetic_pattern_r4():
    # coloring already factoring through pairs keeps the whole vertex set
    rng = SeededRNG(33)
    for f in (2, 3):
        chig = random_ordered_graph(16, 50, rng.subseed(f))
        h = graph_from_chi_at_k(chig, 4, f)
        res = realize_r_plus_1(h, f)
        if res.witness is not None:
            assert h.edge_count(res.witness) == f
            assert len(res.witness) == 5


def graph_from_chi_at_k(chig: OrderedGraph, r: int, k: int) -> Hypergraph:
    edges = [
        t for t in combinations(range(chig.n), r) if chig.has_edge(t[k - 1], t[k])
    ]
    return Hypergraph(r, chig.n, edges)


def test_realize_complementation():
    h = complete_hypergraph(4, 12)
    res = realize_r_plus_1(h, 5)  # = r+1; complements to f' = 0
    assert res.complemented
    assert res.witness is not None and h.edge_count(res.witness) == 5


def test_realize_too_short():
    with pytest.raises(SearchFailed):
        realize_r_plus_1(empty_hypergraph(4, 5), 0)


def realize_outcome(run):
    try:
        res = run()
    except (OrderSizeError, ValueError) as e:
        return (type(e).__name__, str(e))
    return (res.witness, res.pattern_found, res.complemented, res.k, res.x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_realize_matches_the_nested_loop_scan(data):
    """Same witness, flags, split and stepped-down set as the scan that
    looped over i, j and l, or the same error."""
    r = data.draw(st.integers(3, 5))
    n = data.draw(st.integers(r, 12))
    f = data.draw(st.integers(0, r + 1))
    density = data.draw(st.one_of(st.sampled_from([0, 100]), st.integers(0, 100)))
    seed = data.draw(st.integers(0, 999))
    ell = data.draw(st.one_of(st.none(), st.integers(1, r + 4)))
    if data.draw(st.booleans()):
        h = random_hypergraph(r, n, density, seed)
    else:  # colorings that factor at the split realize uses keep all of X
        ftarget = f if f <= (r + 1) // 2 else r + 1 - f
        h = graph_from_chi_at_k(random_ordered_graph(n, density, seed), r, max(ftarget, 1))
    assert realize_outcome(lambda: realize_r_plus_1(h, f, ell)) == realize_outcome(
        lambda: old_realize_r_plus_1(h, f, ell))


# --- pattern-weight existence -----------------------------------------------------------


def test_pattern_weight_exists_basics():
    assert pattern_weight_exists(3, 5, 0, 1)
    assert pattern_weight_exists(3, 5, comb(5, 3), 1)  # the complete pattern
    assert not pattern_weight_exists(10, 12, 33, 1)


def test_pattern_weight_exists_any_split():
    splits = pattern_weight_exists_any_split(10, 12, 33)
    assert set(splits) == {1, 2, 3, 4, 5}
    assert not any(splits.values())
    assert all(pattern_weight_exists_any_split(10, 12, 0).values())
