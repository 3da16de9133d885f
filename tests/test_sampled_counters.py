"""Differential tests of the table-driven counters of the sampled path.

The oracles are the implementations the tables replaced, kept here as they
were: the per-edge mask scan of ``edge_count_mask``, the color-by-color
backtracking of ``count_in_subset`` and ``materialize``, and the
``randrange`` loop of ``SeededRNG.sample``. Sampled reports are compared with
a per-subset recount over the same seeded draws.
"""

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
    complete_hypergraph,
    empty_hypergraph,
    mask_of,
)
from ordersize.rng import SeededRNG
from ordersize.spectrum import size_spectrum
from ordersize.values import g_r

MAX_N = 14


# --- the replaced implementations ----------------------------------------------


def old_edge_count_mask(h: Hypergraph, smask: int) -> int:
    return sum(1 for m in h._edge_masks if m & ~smask == 0)


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


def old_sample(rng: SeededRNG, population, k: int) -> list:
    pool = list(range(population)) if isinstance(population, int) else list(population)
    if k > len(pool):
        raise ValueError("sample larger than population")
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def old_sorted_sample(rng: SeededRNG, population, k: int) -> tuple[int, ...]:
    return tuple(sorted(old_sample(rng, population, k)))


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
def instances(draw, ranks=(3, 4, 5)):
    """Pattern instances on random colorings; drawing the colors from a few
    palette entries makes edge-dense instances as well as sparse ones."""
    r = draw(st.sampled_from(ranks))
    n = draw(st.integers(r, MAX_N))
    palette = comb(r, 2)
    if draw(st.booleans()):
        return build_gr(n, r, draw(st.integers(0, 10**6)), materialize_cap=0)
    allowed = sorted(draw(st.sets(st.integers(0, palette - 1), min_size=1, max_size=3)))
    npairs = comb(n, 2)
    colors = draw(st.lists(st.sampled_from(allowed), min_size=npairs, max_size=npairs))
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


def test_count_in_subset_rejects_vertices_out_of_range():
    inst = build_gr(9, 3, 1, materialize_cap=0)
    for subset in ((0, 1, 9), (9,), (-1, 2, 3)):
        with pytest.raises(ValueError):
            inst.count_in_subset(subset)


def test_pattern_rows_follow_the_coloring():
    """Swapping the coloring of an instance rebuilds the cached rows."""
    inst = build_gr(9, 3, 1, materialize_cap=0)
    other = build_gr(9, 3, 2, materialize_cap=0)
    everything = tuple(range(9))
    assert inst.count_in_subset(everything) == old_count_in_subset(inst, everything)
    inst.coloring = other.coloring
    assert inst.count_in_subset(everything) == old_count_in_subset(other, everything)


# --- the sampler -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 300), st.data())
def test_sample_matches_randrange_loop(seed, size, data):
    k = data.draw(st.integers(0, size))
    population = size if data.draw(st.booleans()) else [3 * x + 1 for x in range(size)]
    got, want = SeededRNG(seed), SeededRNG(seed)
    assert got.sample(population, k) == old_sample(want, population, k)
    assert got.sorted_sample(population, k) == old_sorted_sample(want, population, k)
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
        s = old_sorted_sample(rng, inst.n, m)
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
    rng = SeededRNG(seed)
    witnesses: dict[int, tuple[int, ...]] = {}
    for _ in range(samples):
        s = old_sorted_sample(rng, h.n, m)
        witnesses.setdefault(old_edge_count_mask(h, mask_of(s)), s)
    rep = size_spectrum(h, m, mode="sampled", samples=samples, seed=seed)
    assert rep.witnesses == witnesses
    assert rep.achieved == sorted(witnesses)
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
