"""Differential tests of the table-driven counters of the sampled path.

The oracles are the implementations the tables replaced, kept as they were:
the per-edge mask scan of ``edge_count_mask`` (``helpers.old_edge_count_mask``)
and, here, the color-by-color backtracking of ``count_in_subset`` and
``materialize``. The ``randrange`` loop of ``SeededRNG.sample`` is
``helpers.loop_sample``. Sampled reports are compared with a per-subset
recount over the same seeded draws (for ``size_spectrum``,
``helpers.old_sampled_spectrum``). The index
build with its own DFS and the two-loop ``check_fact_gr`` and
``scan_counterexample`` are ``helpers.old_index_positions``,
``old_check_fact_gr`` and ``old_scan_counterexample``.
"""

from dataclasses import FrozenInstanceError, replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersize.constructions import (
    GrInstance,
    SubsetScanReport,
    build_gr,
    check_fact_gr,
    materialize,
    pattern_color_index,
    random_hypergraph,
    scan_counterexample,
)
from ordersize.core import (
    Hypergraph,
    PalettedColoring,
    bits_of,
    complete_hypergraph,
    empty_hypergraph,
    mask_of,
)
from ordersize.rng import SeededRNG
from ordersize.spectrum import size_spectrum
from ordersize.values import g_r

from helpers import (
    loop_sample,
    loop_sorted_sample,
    old_check_fact_gr,
    old_edge_count_mask,
    old_index_positions,
    old_sampled_spectrum,
    old_scan_counterexample,
)

MAX_N = 14


# --- the replaced implementations ----------------------------------------------


def old_count_in_subset(inst: GrInstance, subset) -> int:
    verts = sorted(subset)
    r = inst.r
    color = inst.coloring.color
    count = 0
    chosen: list[int] = []

    def extend(start: int) -> None:
        nonlocal count
        depth = len(chosen)
        if depth == r:
            count += 1
            return
        for idx in range(start, len(verts) - (r - depth) + 1):
            v = verts[idx]
            ok = True
            for a, prev in enumerate(chosen):
                if color(prev, v) != pattern_color_index(a + 1, depth + 1, r):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                extend(idx + 1)
                chosen.pop()

    extend(0)
    return count


def old_materialize(inst: GrInstance) -> Hypergraph:
    edges = []
    r, n = inst.r, inst.n
    color = inst.coloring.color
    chosen: list[int] = []

    def extend(start: int) -> None:
        depth = len(chosen)
        if depth == r:
            edges.append(tuple(chosen))
            return
        for v in range(start, n - (r - depth) + 1):
            ok = True
            for a, prev in enumerate(chosen):
                if color(prev, v) != pattern_color_index(a + 1, depth + 1, r):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                extend(v + 1)
                chosen.pop()

    extend(0)
    return Hypergraph(r, n, edges)


# --- inputs ------------------------------------------------------------------------


@st.composite
def hypergraphs(draw, ranks=(2, 3, 4, 5)):
    r = draw(st.sampled_from(ranks))
    n = draw(st.integers(0, MAX_N))
    kind = draw(st.sampled_from(("empty", "complete", "random")))
    if kind == "empty":
        return empty_hypergraph(r, n)
    if kind == "complete":
        return complete_hypergraph(r, n)
    return random_hypergraph(r, n, draw(st.integers(1, 99)), draw(st.integers(0, 10**6)))


@st.composite
def instances(draw, ranks=(3, 4, 5), max_n=MAX_N):
    """Pattern instances on random colorings; drawing the colors from a few
    palette entries makes edge-dense instances as well as sparse ones."""
    r = draw(st.sampled_from(ranks))
    n = draw(st.integers(r, max_n))
    palette = comb(r, 2)
    if draw(st.booleans()):
        return build_gr(n, r, draw(st.integers(0, 10**6)), materialize_cap=0)
    allowed = sorted(draw(st.sets(st.integers(0, palette - 1), min_size=1, max_size=3)))
    npairs = comb(n, 2)
    colors = draw(st.lists(st.sampled_from(allowed), min_size=npairs, max_size=npairs))
    return GrInstance(r, n, PalettedColoring(n, palette, colors))


@st.composite
def blocked_instances(draw, ranks=(3, 4, 5, 6)):
    """Pattern instances with edges at every r: the vertices fall into r
    nonempty runs of consecutive vertices, and nineteen in twenty pairs across
    runs p < q get the color c_{p+1,q+1}; the other pairs get any color."""
    r = draw(st.sampled_from(ranks))
    n = draw(st.integers(r, MAX_N))
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=r - 1, max_size=r - 1, unique=True))
    block = [sum(v >= c for c in cuts) for v in range(n)]
    palette = comb(r, 2)
    npairs = comb(n, 2)
    noise = draw(st.lists(st.integers(0, palette - 1), min_size=npairs, max_size=npairs))
    keep = draw(st.lists(st.integers(0, 19), min_size=npairs, max_size=npairs))
    colors = [
        pattern_color_index(block[i] + 1, block[j] + 1, r) if block[i] < block[j] and k < 19 else c
        for (i, j), c, k in zip(combinations(range(n), 2), noise, keep)
    ]
    return GrInstance(r, n, PalettedColoring(n, palette, colors))


def subsets(n: int):
    return st.sets(st.integers(0, n - 1), max_size=n) if n else st.just(set())


# --- counters ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.data())
def test_edge_count_mask_matches_edge_mask_scan(h, data):
    full = (1 << h.n) - 1
    masks = [0, full, data.draw(st.integers(0, full))]
    # bits at and above n name no vertex and are ignored
    masks.append(masks[2] | data.draw(st.integers(1, 7)) << h.n)
    for smask in masks:
        assert h.edge_count_mask(smask) == old_edge_count_mask(h, smask)
    s = data.draw(subsets(h.n))
    want = old_edge_count_mask(h, mask_of(s))
    assert h.edge_count(s) == want
    assert h.is_clique(s) == (want == comb(len(s), h.r))
    assert h.is_independent(s) == (want == 0)


@settings(max_examples=150, deadline=None)
@given(hypergraphs(ranks=(4, 5, 6)), st.data())
def test_both_r4_loops_match_edge_mask_scan(h, data):
    for s in (data.draw(subsets(h.n)), set(range(h.n)), set(range(0, h.n, 2))):
        verts = tuple(sorted(s))
        smask = mask_of(verts)
        want = old_edge_count_mask(h, smask)
        assert h._count_by_tops(verts, smask) == want
        assert h._count_by_rests(verts, smask) == want
        assert h._count_sorted(verts, smask) == want


def test_r4_counts_take_each_loop(monkeypatch):
    """A large subset of a sparse 5-graph runs on the rest masks, whose
    C(k - 1, 4) tuples would be far more; small subsets of dense graphs run
    on the tuple table. Each loop is taken at least once."""
    taken = {"tops": 0, "rests": 0}
    for name, key in (("_count_by_tops", "tops"), ("_count_by_rests", "rests")):
        def spy(self, verts, smask, _inner=getattr(Hypergraph, name), _key=key):
            taken[_key] += 1
            return _inner(self, verts, smask)
        monkeypatch.setattr(Hypergraph, name, spy)

    sparse = random_hypergraph(5, 40, 1, 7)
    everything = tuple(range(40))
    assert 0 < len(sparse.edges) < comb(39, 4)
    assert sparse.edge_count(everything) == len(sparse.edges)
    assert sparse.is_independent(everything) == (not sparse.edges)
    assert taken == {"tops": 0, "rests": 2}

    dense = random_hypergraph(5, 14, 50, 3)
    rng = SeededRNG(11)
    for _ in range(50):
        s = rng.sorted_sample(14, 8)
        assert dense._count_sorted(s, mask_of(s)) == old_edge_count_mask(dense, mask_of(s))
    assert taken["tops"] == 50 and taken["rests"] == 2


def test_edge_count_mask_on_complete_and_empty_graphs():
    for r in (2, 3, 4, 5):
        for n in range(MAX_N + 1):
            full = (1 << n) - 1
            kn = complete_hypergraph(r, n)
            assert kn.edge_count_mask(full) == comb(n, r)
            assert empty_hypergraph(r, n).edge_count_mask(full) == 0
            for s in combinations(range(n), min(n, r + 2)):
                assert kn.edge_count(s) == comb(len(s), r)


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_count_in_subset_matches_backtracking(inst, data):
    for s in (data.draw(subsets(inst.n)), set(range(inst.n)), set()):
        subset = tuple(sorted(s))
        assert inst.count_in_subset(subset) == old_count_in_subset(inst, subset)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_materialize_matches_backtracking(inst):
    got = materialize(inst)
    want = old_materialize(inst)
    assert got.edges == want.edges
    assert (got.r, got.n) == (want.r, want.n)
    assert all(inst.is_edge(e) for e in got.edges)


def index_of(inst: GrInstance) -> tuple | None:
    """The (position masks or None, visit limit) pair ``_index_positions``
    left in the instance dict, or None before any build."""
    return inst.__dict__.get("_pos")


def position_masks_of(inst: GrInstance) -> tuple[int, ...]:
    """Mask a ORs the a-th vertex of every edge of the materialized graph."""
    masks = [0] * inst.r
    for e in old_materialize(inst).edges:
        for a, v in enumerate(e):
            masks[a] |= 1 << v
    return tuple(masks)


@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(ranks=(3, 4, 5, 6)), blocked_instances()), st.data())
def test_masked_dfs_matches_backtracking(inst, data):
    assert inst._index_positions(10**9)
    assert index_of(inst)[0] == position_masks_of(inst)
    for s in (data.draw(subsets(inst.n)), set(range(inst.n)), set()):
        subset = tuple(sorted(s))
        assert inst.count_in_subset(subset) == old_count_in_subset(inst, subset)


@settings(max_examples=60, deadline=None)
@given(st.one_of(instances(ranks=(3, 4, 5, 6)), blocked_instances()),
       st.integers(1, 40), st.integers(0, 10**6), st.data())
def test_sampled_report_is_the_same_with_and_without_the_index(inst, samples, seed, data):
    m = data.draw(st.integers(inst.r, inst.n))
    want = recount_fact_gr(inst, m, samples, seed).to_json_obj()
    got = check_fact_gr(inst, m, mode="sampled", samples=samples, seed=seed)
    assert got.to_json_obj() == want
    bare = GrInstance(inst.r, inst.n, inst.coloring)
    bare.__dict__["_pos"] = (None, samples * m)  # a failed build: the unmasked DFS throughout
    assert check_fact_gr(bare, m, mode="sampled", samples=samples, seed=seed).to_json_obj() == want
    assert index_of(bare) == (None, samples * m)


def test_index_falls_back_when_it_would_cost_more_than_the_scan():
    """One sample of m < n vertices pays for m visits; the full DFS visits
    every vertex at depth 0, so the index is not built and the scan runs
    unmasked, with the same report. A larger scan then builds it."""
    for r in (3, 4, 5, 6):
        inst = build_gr(14, r, r, materialize_cap=0)
        for seed in range(5):
            got = check_fact_gr(inst, r + 2, mode="sampled", samples=1, seed=seed)
            assert index_of(inst)[0] is None
            assert got.to_json_obj() == recount_fact_gr(inst, r + 2, 1, seed).to_json_obj()
        assert not inst._index_positions(13)
        got = check_fact_gr(inst, r + 2, mode="sampled", samples=200, seed=9)
        assert index_of(inst)[0] == position_masks_of(inst)
        assert got.to_json_obj() == recount_fact_gr(inst, r + 2, 200, seed=9).to_json_obj()


class CountingRow(tuple):
    """A color-table row that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        CountingRow.reads += 1
        return tuple.__getitem__(self, i)


def test_index_build_stops_at_its_visit_limit():
    """Each visited candidate reads at most r - 1 color-table rows, so a
    build cut at ``limit`` visits reads at most limit * (r - 1) of them."""
    for n, r in ((60, 3), (40, 4), (30, 5)):
        inst = build_gr(n, r, 5, materialize_cap=0)
        counting = tuple(tuple(CountingRow(row) for row in later) for later in inst._pattern_rows)
        inst.__dict__["_pattern_rows"] = counting
        for limit in (1, 7, 30):
            CountingRow.reads = 0
            assert not inst._index_positions(limit)
            assert 0 < CountingRow.reads <= limit * (r - 1)
        assert inst._index_positions(10**6)
        assert index_of(inst)[0] == position_masks_of(inst)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=24))
def test_index_matches_the_old_build_at_every_limit(inst):
    """At every limit up to one past the full visit count, the walk gives up
    where the old build did: both return alike and cache alike, on a fresh
    instance and on one that keeps the caches of the smaller limits."""
    kept_old = GrInstance(inst.r, inst.n, inst.coloring)
    kept_new = GrInstance(inst.r, inst.n, inst.coloring)
    full = (1 << inst.n) - 1
    count = inst._pattern_dfs(full)
    limit, past_full = 0, 0
    while past_full < 2:
        old = GrInstance(inst.r, inst.n, inst.coloring)
        new = GrInstance(inst.r, inst.n, inst.coloring)
        built = old_index_positions(old, limit)
        assert new._index_positions(limit) == built
        assert index_of(new) == index_of(old)
        assert old_index_positions(kept_old, limit) == kept_new._index_positions(limit) == built
        assert index_of(kept_new) == index_of(kept_old)
        walked = GrInstance(inst.r, inst.n, inst.coloring)._pattern_dfs(full, None, limit)
        assert walked == (count if built else None)
        past_full += built
        limit += 1


@settings(max_examples=100, deadline=None)
@given(st.one_of(instances(), blocked_instances(ranks=(3, 4, 5))), st.booleans(), st.data())
def test_limited_walk_gives_up_past_its_visits(inst, indexed, data):
    """With or without the index, a walk limited below the number of
    candidates the unlimited walk visits returns None; at or above it, the
    walk counts and lists every edge. Each visit reads the first row of its
    depth once, so counting those reads counts the visits."""
    if indexed:
        assert inst._index_positions(10**9)
    rows = inst._pattern_rows
    inst.__dict__["_pattern_rows"] = tuple((CountingRow(later[0]),) + later[1:] for later in rows)
    for smask in (mask_of(data.draw(subsets(inst.n))), (1 << inst.n) - 1):
        edges: list = []
        CountingRow.reads = 0
        count = inst._pattern_dfs(smask, edges)
        visits = CountingRow.reads
        assert count == len(edges) == old_count_in_subset(inst, bits_of(smask))
        for limit in range(visits + 2):
            out: list = []
            got = inst._pattern_dfs(smask, out, limit)
            assert got == (None if limit < visits else count)
            if got is not None:
                assert out == edges


@settings(max_examples=60, deadline=None)
@given(st.one_of(instances(), blocked_instances()), st.integers(1, 40), st.integers(0, 10**6),
       st.booleans(), st.data())
def test_scan_reports_match_the_old_scan_layer(inst, samples, seed, materialized, data):
    """Exhaustive, sampled and automatic scans, and the counterexample scan
    both ways, give the old layer's report JSON and leave the same index,
    on materialized and on implicit instances."""
    if materialized:
        inst = replace(inst, graph=materialize(inst))
    m = data.draw(st.integers(inst.r, inst.n))
    cap = data.draw(st.sampled_from((0, comb(inst.n, m), 10**6)))
    twin = GrInstance(inst.r, inst.n, inst.coloring, graph=inst.graph)
    for mode in ("exhaustive", "sampled", "auto"):
        got = check_fact_gr(inst, m, mode, samples, seed, exhaustive_cap=cap)
        want = old_check_fact_gr(twin, m, mode, samples, seed, exhaustive_cap=cap)
        assert got.to_json_obj() == want.to_json_obj()
        assert index_of(inst) == index_of(twin)
    if inst.n >= 2 * inst.r:
        for cap in (0, 10**6):
            got = scan_counterexample(inst, samples, seed, exhaustive_cap=cap)
            want = old_scan_counterexample(twin, samples, seed, exhaustive_cap=cap)
            assert got.to_json_obj() == want.to_json_obj()


def test_index_follows_the_coloring():
    """An instance made by ``replace`` with a coloring that has edges counts
    and indexes on that coloring, while the edgeless original keeps its own
    index; the two share no table."""
    r, n = 4, 12
    inst = GrInstance(r, n, PalettedColoring(n, comb(r, 2), [5] * comb(n, 2)))
    assert inst._index_positions(10**6) and index_of(inst)[0] == (0,) * r
    assert check_fact_gr(inst, 8, mode="sampled", samples=30, seed=1).histogram == {0: 30}

    def block_color(i, j):  # blocks of three consecutive vertices
        p, q = i // 3, j // 3
        return pattern_color_index(p + 1, q + 1, r) if p < q else 0

    # one vertex from each block is an edge
    other = replace(inst, coloring=PalettedColoring.from_map(n, comb(r, 2), block_color))
    assert index_of(other) is None
    everything = tuple(range(n))
    want = old_count_in_subset(other, everything)
    assert want == 3**r
    assert other.count_in_subset(everything) == want
    assert inst.count_in_subset(everything) == 0
    got = check_fact_gr(other, 8, mode="sampled", samples=30, seed=1)
    assert got.to_json_obj() == recount_fact_gr(other, 8, 30, 1).to_json_obj()
    assert index_of(other)[0] == position_masks_of(other)
    assert index_of(inst)[0] == (0,) * r
    assert other._pattern_rows is not inst._pattern_rows
    with pytest.raises(FrozenInstanceError):
        inst.coloring = other.coloring


def test_count_in_subset_rejects_vertices_out_of_range():
    inst = build_gr(9, 3, 1, materialize_cap=0)
    for subset in ((0, 1, 9), (9,), (-1, 2, 3)):
        with pytest.raises(ValueError):
            inst.count_in_subset(subset)


def test_pattern_rows_follow_the_coloring():
    """An instance made by ``replace`` with another coloring builds its own
    pattern rows and counts on them; the original keeps its rows, and no
    field of either can be assigned."""
    inst = build_gr(9, 3, 1, materialize_cap=0)
    other = build_gr(9, 3, 2, materialize_cap=0)
    everything = tuple(range(9))
    assert inst.count_in_subset(everything) == old_count_in_subset(inst, everything)
    swapped = replace(inst, coloring=other.coloring)
    assert swapped.count_in_subset(everything) == old_count_in_subset(other, everything)
    assert swapped._pattern_rows == other._pattern_rows
    assert swapped._pattern_rows is not inst._pattern_rows
    assert inst.count_in_subset(everything) == old_count_in_subset(inst, everything)
    for name, value in (("coloring", other.coloring), ("r", 4), ("graph", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(inst, name, value)


# --- the sampler -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 300), st.data())
def test_sample_matches_randrange_loop(seed, size, data):
    k = data.draw(st.integers(0, size))
    population = size if data.draw(st.booleans()) else [3 * x + 1 for x in range(size)]
    got, want = SeededRNG(seed), SeededRNG(seed)
    assert got.sample(population, k) == loop_sample(want, population, k)
    assert got.sorted_sample(population, k) == loop_sorted_sample(want, population, k)
    assert got.bits(64) == want.bits(64)  # both streams stand at the same place
    with pytest.raises(ValueError):
        got.sample(population, size + 1)


# --- sampled reports against a per-subset recount ----------------------------------


def recount_fact_gr(inst: GrInstance, m: int, samples: int, seed: int) -> SubsetScanReport:
    target = g_r(inst.r, m)
    histogram: dict[int, int] = {}
    violations = []
    rng = SeededRNG(seed)
    for _ in range(samples):
        s = loop_sorted_sample(rng, inst.n, m)
        c = old_count_in_subset(inst, s)
        histogram[c] = histogram.get(c, 0) + 1
        if c > target:
            violations.append({"subset": list(s), "edges": c})
    return SubsetScanReport(inst.r, inst.n, m, "sampled", samples, seed, histogram,
                            max(histogram, default=0), target, violations, inst.r < 4)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(ranks=(2, 3, 4, 5)), st.integers(1, 60), st.integers(0, 10**6), st.data())
def test_sampled_spectrum_matches_recount(h, samples, seed, data):
    if h.n < h.r:
        return
    m = data.draw(st.integers(h.r, h.n))
    rep = size_spectrum(h, m, mode="sampled", samples=samples, seed=seed)
    old = old_sampled_spectrum(h, m, samples, seed)
    assert rep.witnesses == old.witnesses  # tuples, which to_json_obj turns into lists
    assert rep.to_json_obj() == old.to_json_obj()
    assert rep.subsets_examined == rep.samples == samples


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(1, 60), st.integers(0, 10**6), st.data())
def test_sampled_fact_gr_and_counterexample_match_recount(inst, samples, seed, data):
    m = data.draw(st.integers(inst.r, inst.n))
    want = recount_fact_gr(inst, m, samples, seed)
    got = check_fact_gr(inst, m, mode="sampled", samples=samples, seed=seed)
    assert got.to_json_obj() == want.to_json_obj()

    if inst.n < 2 * inst.r:
        return
    base = recount_fact_gr(inst, 2 * inst.r, samples, seed)
    forbidden = 2**inst.r - 1
    violations = list(base.violations)
    if base.histogram.get(forbidden):
        violations.append({"count": forbidden, "subsets": base.histogram[forbidden]})
    got = scan_counterexample(inst, samples=samples, seed=seed, exhaustive_cap=0)
    assert got.mode == "sampled"
    assert got.histogram == base.histogram and got.max_edges == base.max_edges
    assert got.violations == violations and got.advisory == (inst.r < 5)
