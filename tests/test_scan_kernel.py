"""Differential tests of the incremental lexicographic scan kernel.

The oracle is the per-subset recount the kernel replaced: consecutive
combinations from ``iter_combinations_from``, each counted from scratch with
``edge_count_mask``. The r = 3 path, which settles the last two positions from
packed pair-completion counts, is also compared yield for yield with the
kernel before it, ``helpers.old_iter_subset_counts``. ``check_fact_gr`` is
compared with a per-subset ``count_in_subset`` loop over the pair colors.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersize.constructions import (
    SubsetScanReport,
    build_gr,
    check_fact_gr,
    random_hypergraph,
)
from ordersize.core import (
    Hypergraph,
    complete_hypergraph,
    empty_hypergraph,
    iter_subset_counts,
    mask_of,
)
from ordersize.errors import BudgetExhausted
from ordersize.spectrum import _merge_chunks, _scan_chunk, find_mf_subset, size_spectrum
from ordersize.values import g_r

from helpers import iter_combinations_from, old_iter_subset_counts

KINDS = ("empty", "complete", "random")


def make_graph(kind: str, r: int, n: int, density: int = 50, seed: int = 0) -> Hypergraph:
    if kind == "empty":
        return empty_hypergraph(r, n)
    if kind == "complete":
        return complete_hypergraph(r, n)
    return random_hypergraph(r, n, density, seed)


def oracle_counts(h: Hypergraph, m: int, start: int, count: int):
    return [(h.edge_count_mask(mask_of(s)), s)
            for s in iter_combinations_from(start, count, h.n, m)]


def oracle_spectrum(h: Hypergraph, m: int, start: int, count: int):
    witnesses: dict[int, tuple[int, ...]] = {}
    pairs = oracle_counts(h, m, start, count)
    for f, s in pairs:
        witnesses.setdefault(f, s)
    return witnesses, len(pairs)


def oracle_find_mf(h: Hypergraph, m: int, f: int, budget):
    examined = 0
    for s in combinations(range(h.n), m):
        if budget is not None and examined >= budget:
            raise BudgetExhausted("subset budget exhausted before completing the scan", examined)
        examined += 1
        if h.edge_count_mask(mask_of(s)) == f:
            return s
    return None


@st.composite
def graphs(draw, ranks=(3, 4, 5), max_n=12):
    r = draw(st.sampled_from(ranks))
    n = draw(st.integers(r, max_n))
    kind = draw(st.sampled_from(KINDS))
    h = make_graph(kind, r, n, draw(st.integers(1, 99)), draw(st.integers(0, 10**6)))
    m = draw(st.integers(r, n))
    return h, m


@st.composite
def chunks(draw, total):
    """Random cut points splitting ranks [0, total) into consecutive chunks."""
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=4))) if total > 1 else []
    bounds = [0, *cuts, total]
    return [(a, b - a) for a, b in zip(bounds, bounds[1:])]


def test_kernel_full_scans_every_m():
    for r in (3, 4, 5):
        for n in range(r, 13):
            for kind in KINDS:
                h = make_graph(kind, r, n, 50, 1000 * r + n)
                for m in range(r, n + 1):
                    got = [(c, tuple(s)) for c, s in iter_subset_counts(h, m)]
                    assert got == oracle_counts(h, m, 0, comb(n, m)), (r, n, m, kind)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_recount_on_chunks(data):
    h, m = data.draw(graphs(ranks=(2, 3, 4, 5)))
    total = comb(h.n, m)
    start = data.draw(st.integers(0, total - 1))
    count = data.draw(st.integers(0, total - start + 3))
    got = [(c, tuple(s)) for c, s in iter_subset_counts(h, m, start, count)]
    assert got == oracle_counts(h, m, start, count)


def test_kernel_yields_one_live_list():
    h = complete_hypergraph(3, 6)
    lists = {id(s) for _, s in iter_subset_counts(h, 4)}
    assert len(lists) == 1
    assert list(iter_subset_counts(h, 4, comb(6, 4), 5)) == []


def scan(kernel, h: Hypergraph, m: int, start: int = 0, count: int | None = None):
    return [(c, tuple(s)) for c, s in kernel(h, m, start, count)]


@st.composite
def r3_graphs(draw):
    """A 3-graph with n <= 12 and any m in 0..n, or 13 <= n <= 40 and m <= 4."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        m = draw(st.integers(0, n))
    else:
        n = draw(st.integers(13, 40))
        m = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(KINDS))
    return make_graph(kind, 3, n, draw(st.integers(1, 99)), draw(st.integers(0, 10**6))), m


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_r3_kernel_matches_old_kernel(data):
    h, m = data.draw(r3_graphs())
    total = comb(h.n, m)
    if total <= 5000:
        assert scan(iter_subset_counts, h, m) == scan(old_iter_subset_counts, h, m)
    start = data.draw(st.integers(0, total))
    count = data.draw(st.integers(0, min(total - start + 2, 3000)))
    assert (scan(iter_subset_counts, h, m, start, count)
            == scan(old_iter_subset_counts, h, m, start, count))


def test_r3_kernel_chunks_cut_inside_tail_runs():
    # every (start, count) pair, so chunks begin and end at every position of
    # every y-run, including m = 2, whose whole scan is one tail
    for seed, density in ((1, 50), (2, 80)):
        h = random_hypergraph(3, 7, density, seed)
        for m in range(2, 6):
            total = comb(7, m)
            full = scan(old_iter_subset_counts, h, m)
            for start in range(total + 1):
                for count in range(total - start + 2):
                    assert scan(iter_subset_counts, h, m, start, count) == full[start:start + count]


def test_r3_packed_fields_hold_complete_counts():
    # at m = n the fields of the last prefix reach C(n - 2, 2), the width's bound
    for n in range(3, 25):
        h = complete_hypergraph(3, n)
        for m in (n - 1, n):
            counts = [c for c, _ in iter_subset_counts(h, m)]
            assert counts == [comb(m, 3)] * comb(n, m), (n, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spectrum_matches_recount(data):
    h, m = data.draw(graphs())
    total = comb(h.n, m)
    rep = size_spectrum(h, m, threads=1)
    witnesses, examined = oracle_spectrum(h, m, 0, total)
    assert rep.witnesses == witnesses
    assert rep.subsets_examined == examined == total
    assert rep.achieved == sorted(witnesses)
    pieces = data.draw(chunks(total))
    parts = [_scan_chunk(h, m, start, count) for start, count in pieces]
    for (start, count), part in zip(pieces, parts):
        assert part == oracle_spectrum(h, m, start, count)
    assert _merge_chunks(parts) == (witnesses, examined)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_mf_subset_matches_recount(data):
    h, m = data.draw(graphs(max_n=10))
    total = comb(h.n, m)
    f = data.draw(st.integers(0, comb(m, h.r)))
    budget = data.draw(st.none() | st.integers(0, total + 2))
    try:
        want = oracle_find_mf(h, m, f, budget)
    except BudgetExhausted as e:
        with pytest.raises(BudgetExhausted) as got:
            find_mf_subset(h, m, f, budget)
        assert got.value.used == e.used == budget
    else:
        assert find_mf_subset(h, m, f, budget) == want
    # a budget of exactly C(n, m) completes the scan and never raises
    assert find_mf_subset(h, m, f, total) == oracle_find_mf(h, m, f, None)


def test_find_mf_subset_budget_boundary():
    k6 = complete_hypergraph(3, 6)
    assert find_mf_subset(k6, 4, 3, budget=15) is None  # C(6, 4) = 15: absence proven
    with pytest.raises(BudgetExhausted) as err:
        find_mf_subset(k6, 4, 3, budget=14)
    assert err.value.used == 14
    with pytest.raises(BudgetExhausted) as err:
        find_mf_subset(k6, 4, 3, budget=0)
    assert err.value.used == 0


def oracle_fact_gr(inst, m: int) -> SubsetScanReport:
    target = g_r(inst.r, m)
    histogram: dict[int, int] = {}
    violations = []
    max_edges = 0
    for s in combinations(range(inst.n), m):
        c = inst.count_in_subset(s)
        histogram[c] = histogram.get(c, 0) + 1
        max_edges = max(max_edges, c)
        if c > target:
            violations.append({"subset": list(s), "edges": c})
    return SubsetScanReport(inst.r, inst.n, m, "exhaustive", comb(inst.n, m), None,
                            histogram, max_edges, target, violations, inst.r < 4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_fact_gr_exhaustive_matches_count_in_subset(data):
    r = data.draw(st.sampled_from((3, 4, 5)))
    n = data.draw(st.integers(r, 11))
    m = data.draw(st.integers(r, n))
    seed = data.draw(st.integers(0, 10**6))
    want = oracle_fact_gr(build_gr(n, r, seed, materialize_cap=0), m).to_json_obj()
    for cap in (0, comb(n, r)):
        inst = build_gr(n, r, seed, materialize_cap=cap)
        assert (inst.graph is None) == (cap == 0)
        assert check_fact_gr(inst, m, mode="exhaustive").to_json_obj() == want
        assert (inst.graph is None) == (cap == 0)
