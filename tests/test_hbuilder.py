from fractions import Fraction
from math import comb, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    center_star_forest,
    certify_star_forests,
    fraction_verify_claim_d,
    old_best_gap,
    old_build_H,
    old_build_H_graph,
    old_find_gap,
    old_position_weight,
    old_star_forest,
    old_zero_runs,
)
from ordersize.core import OrderedGraph
from ordersize.errors import SearchFailed, VerificationError
from ordersize.hbuilder import (
    BuildError,
    CertNode,
    DSequence,
    _star_forest,
    _zero_runs,
    build_H,
    cert_disjoint,
    cert_f0,
    cert_join,
    clique_node,
    d_sequence,
    empty_node,
    expand_certificate,
    ln_bounds,
    position_weights,
    recount_construction,
    verify_claim_d,
)
from ordersize.rng import SeededRNG


# --- oracles -------------------------------------------------------------------


def greedy_oracle(r, m, f):
    """Per-prefix exhaustive maximization: try every value from i-1 down."""
    length = m - r + 2
    d = [0]
    running = 0
    for i in range(2, length + 1):
        w = comb(m - i, r - 2)
        for cand in range(i - 1, -1, -1):
            if running + cand * w <= f:
                d.append(cand)
                running += cand * w
                break
    return tuple(d)


def monotone_forest_direct(shape):
    """Star forest on consecutive intervals, center first in each."""
    edges = []
    start = 0
    for leaves in shape:
        for t in range(leaves):
            edges.append((start, start + 1 + t))
        start += leaves + 1
    return OrderedGraph(start, edges)


def nested_forest_direct(shape):
    """Leaf blocks in order, then the centers in reverse."""
    t = len(shape)
    total = sum(shape) + t
    edges = []
    start = 0
    for idx, leaves in enumerate(shape):
        center = total - 1 - idx
        for q in range(leaves):
            edges.append((start + q, center))
        start += leaves
    return OrderedGraph(total, edges)


# --- ln bounds -------------------------------------------------------------------


def test_ln_bounds():
    for x in (2, 3, 4, 6, 12, Fraction(7, 2)):
        lo, hi = ln_bounds(x)
        assert float(lo) <= log(float(x)) <= float(hi)
        assert hi - lo < Fraction(1, 10**6)
    with pytest.raises(ValueError):
        ln_bounds(1)


# --- degree sequences ---------------------------------------------------------------


def test_d_sequence_trivial():
    seq = d_sequence(4, 30, 0)
    assert all(v == 0 for v in seq.d) and seq.i_star == 2
    seq = d_sequence(4, 30, 1)
    assert seq.d[-1] == 1 and sum(seq.d) == 1  # only the weight-1 position fits


def test_d_sequence_near_half():
    f = 790000
    seq = d_sequence(4, 80, f)
    assert seq.weighted_sum() == f


def test_d_sequence_matches_exhaustive_greedy():
    rng = SeededRNG(4)
    for r, m in ((3, 12), (4, 20), (5, 30)):
        half = comb(m, r) // 2
        for _ in range(50):
            f = rng.randrange(half + 1)
            assert d_sequence(r, m, f).d == greedy_oracle(r, m, f)


def test_d_sequence_rejects_large_f():
    with pytest.raises(ValueError):
        d_sequence(4, 80, comb(80, 4))  # complement first


def test_verify_claim_d():
    seq = d_sequence(4, 80, 0)
    rep = verify_claim_d(seq)
    assert rep.all_pass and not rep.advisory

    rng = SeededRNG(12)
    half = comb(80, 4) // 2
    for _ in range(120):
        f = rng.randrange(half + 1)
        rep = verify_claim_d(d_sequence(4, 80, f))
        assert rep.all_pass, (f, rep.items, rep.details)

    rep = verify_claim_d(d_sequence(5, 125, comb(125, 5) // 2))
    assert rep.all_pass and not rep.advisory

    advisory = verify_claim_d(d_sequence(4, 30, 100))
    assert advisory.advisory


# --- certificates ----------------------------------------------------------------------


def test_expand_leaves():
    assert expand_certificate(empty_node(4)).edges == frozenset()
    assert expand_certificate(clique_node(3)).edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert expand_certificate(CertNode("f0", 3)).edges == frozenset({(0, 2)})


def test_expand_monotone_star():
    # complete join of a vertex with two isolated vertices: edges 12, 13
    node = CertNode("clique", 2, (clique_node(1), empty_node(2)))
    g = expand_certificate(node)
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_expand_f0_substitution():
    node = CertNode("f0", 3, (empty_node(2), clique_node(1), clique_node(1)))
    g = expand_certificate(node)
    assert g.edges == frozenset({(0, 3), (1, 3)})  # vertices 1,2 joined to 4


def test_combinators_simplify():
    assert cert_disjoint([empty_node(2), empty_node(3)]) == empty_node(5)
    assert cert_join([clique_node(2), clique_node(1)]) == clique_node(3)
    assert cert_disjoint([None, clique_node(2)]) == clique_node(2)
    assert cert_f0(None, empty_node(2), clique_node(1)) == empty_node(3)
    joined = cert_f0(empty_node(2), None, clique_node(1))
    assert expand_certificate(joined).edges == frozenset({(0, 2), (1, 2)})


def test_certify_monotone():
    assert certify_star_forests("monotone", [0, 0]) == empty_node(2)
    for shape in ([2, 0, 1], [3], [1, 1, 1], [0, 4]):
        got = expand_certificate(certify_star_forests("monotone", shape))
        assert got.edges == monotone_forest_direct(shape).edges


def test_certify_nested():
    got = expand_certificate(certify_star_forests("nested", [2, 1]))
    assert got.edges == frozenset({(0, 4), (1, 4), (2, 3)})
    for shape in ([3, 0, 2], [1], [0, 0], [2, 2, 2]):
        got = expand_certificate(certify_star_forests("nested", shape))
        assert got.edges == nested_forest_direct(shape).edges


def test_star_forest_lays_out_runs():
    # centers 1, 2 bare; 3 with leaf 4; 5 with leaves 6, 7; 8 with leaf 9; 10, 11 bare
    seq = DSequence(4, 13, 0, (0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0), 2, None, 0)
    got = _star_forest(seq, 1, 11)
    star = CertNode("clique", 2, (empty_node(1), empty_node(2)))
    assert got == CertNode("empty", 5, (empty_node(2), clique_node(2), star, clique_node(2), empty_node(2)))
    for lo, hi in ((1, 11), (3, 4), (5, 7), (10, 11), (1, 0)):
        assert _star_forest(seq, lo, hi) == old_star_forest(seq, lo, hi), (lo, hi)


# --- the zero-run scan and the weight row against the per-pick scans -------------------


degree_tuples = st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=1, max_size=40).map(tuple)


@settings(max_examples=300, deadline=None)
@given(degree_tuples, st.data())
def test_zero_runs_match_the_gap_window_scan(d, data):
    lo = data.draw(st.integers(1, len(d) + 1))
    hi = data.draw(st.integers(lo - 1, len(d)))
    runs = list(_zero_runs(d, lo, hi))
    # the old scan's window [i_star+1, m-2r+4] is [lo, hi] at r = 4, i_star = lo-1, m = hi+4
    assert runs == old_zero_runs(d, lo - 1, hi + 4, 4)
    min_len = data.draw(st.integers(0, len(d) + 2))
    first = next(((a - 1, b + 1) for a, b in runs if b - a >= min_len - 2), None)
    assert first == old_find_gap(d, lo - 1, hi + 4, 4, min_len)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 7), degree_tuples, st.data())
def test_claim_d_takes_the_first_longest_run(r, d, data):
    d = (0,) + d  # position 1 has no earlier position
    m = len(d) + r - 2
    i_star = data.draw(st.integers(2, len(d)))
    seq = DSequence(r, m, data.draw(st.integers(0, 50)), d, i_star, None, 0)
    report = verify_claim_d(seq)
    assert report.gap == old_best_gap(d, i_star, m, r)
    assert report == fraction_verify_claim_d(seq)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 7), st.data())
def test_builder_gap_is_the_first_long_enough_run(r, data):
    m = data.draw(st.integers(r + 2, 5 * r * r + 5))
    seq = d_sequence(r, m, data.draw(st.integers(0, comb(m, r) // 2)))
    want = old_find_gap(seq.d, seq.i_star, m, r, seq.tail_degree_sum + 2) if seq.i_star else None
    assert seq.gap == want


@pytest.mark.parametrize("r, ms", [(4, range(6, 19)), (5, range(7, 16)), (6, range(8, 15))])
def test_builder_gap_for_every_f(r, ms):
    for m in ms:
        for f in range(comb(m, r) // 2 + 1):
            seq = d_sequence(r, m, f)
            want = old_find_gap(seq.d, seq.i_star, m, r, seq.tail_degree_sum + 2) if seq.i_star else None
            assert seq.gap == want, (r, m, f)
            if seq.i_star:
                assert verify_claim_d(seq).gap == old_best_gap(seq.d, seq.i_star, m, r), (r, m, f)


@settings(max_examples=300, deadline=None)
@given(degree_tuples, st.data())
def test_star_forest_matches_the_center_walk(d, data):
    lo = data.draw(st.integers(1, len(d)))
    d = d[:lo - 1] + (0,) + d[lo:]  # the forest starts at a center
    hi = data.draw(st.integers(lo - 1, len(d)))
    seq = DSequence(4, len(d) + 2, 0, d, 2, None, 0)
    got = _star_forest(seq, lo, hi)
    assert got == center_star_forest(seq, lo, hi) == old_star_forest(seq, lo, hi)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9), st.data())
def test_weight_row_is_the_per_position_weight(r, data):
    m = data.draw(st.integers(r + 1, 200))
    row = position_weights(r, m)
    assert row == tuple(old_position_weight(r, m, i) for i in range(1, m - r + 3))
    d = tuple(data.draw(st.lists(st.integers(0, 5), min_size=len(row), max_size=len(row))))
    seq = DSequence(r, m, 0, d, None, None, 0)
    assert seq.weighted_sum() == sum(di * old_position_weight(r, m, i) for i, di in enumerate(d, start=1))


def test_certify_rejects_empty_shape():
    with pytest.raises(ValueError):
        certify_star_forests("monotone", [])
    with pytest.raises(ValueError):
        certify_star_forests("diagonal", [1])


# --- the construction ---------------------------------------------------------------------


def check_construction(hc, f):
    assert hc.realized_weight == f
    assert hc.backward_degrees() == hc.d.d
    expanded = expand_certificate(hc.cert)
    assert expanded.n == hc.graph.n and expanded.edges == hc.graph.edges
    assert hc.cert.leaf_kinds() <= {"empty", "clique", "f0"}


def test_build_trivial():
    hc = build_H(4, 80, 0)
    assert hc.graph.edges == frozenset() and hc.cert == empty_node(78)
    hc = build_H(4, 80, 1)
    assert len(hc.graph.edges) == 1
    (edge,) = hc.graph.edges
    assert edge[1] == 77  # the weight-1 position, 0-based
    check_construction(hc, 1)


def test_build_seeded_sweep():
    rng = SeededRNG(6)
    for r, m in ((4, 80), (5, 125)):
        half = comb(m, r) // 2
        for f in [0, 1, half] + [rng.randrange(half + 1) for _ in range(60)]:
            hc = build_H(r, m, f)
            assert not hc.complemented
            check_construction(hc, f)


def test_build_complement_flag():
    full = comb(80, 4)
    f = full - 7
    hc = build_H(4, 80, f)
    assert hc.complemented
    # the built graph realizes the complementary weight, for the complement side
    assert hc.realized_weight == full - f == 7
    weight = sum(position_weights(4, 80)[j] for _i, j in hc.graph.edges)
    assert weight == 7


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_H(3, 80, 5)
    with pytest.raises(ValueError):
        build_H(4, 80, comb(80, 4) + 1)
    with pytest.raises(ValueError):
        build_H(4, 30, 10, strict=True)


def test_build_small_m_advisory_runs():
    # below the guarantee threshold the builder still works where it can
    hc = build_H(4, 30, 200)
    check_construction(hc, 200)


RECOUNT_CHECKS = {
    "degrees_ok": "backward degrees match the sequence",
    "weight_ok": "total weight 3 is the target 7",
    "cert_ok": "certificate expands to the built graph",
}


@pytest.mark.parametrize("failing", RECOUNT_CHECKS)
def test_build_reports_a_failed_recount(monkeypatch, failing):
    # build_H and the buildh --check oracle share one recount; a failed flag
    # is a program fault, not a failed search, and names that check
    from ordersize import hbuilder

    def recount(hc):
        return 3, {key: key != failing for key in RECOUNT_CHECKS}

    monkeypatch.setattr(hbuilder, "recount_construction", recount)
    with pytest.raises(VerificationError) as err:
        build_H(4, 80, 7)
    assert str(err.value) == f"postcondition failed: {RECOUNT_CHECKS[failing]}"
    assert not isinstance(err.value, SearchFailed)


def test_induction_step_does_not_swallow_a_failed_recount(monkeypatch):
    # the r >= 4 induction step skips a branch whose search failed; a recount
    # fault in its base case is not such a failure and stops the search
    from ordersize import hbuilder, spectrum
    from ordersize.constructions import random_ordered_graph

    monkeypatch.setattr(hbuilder, "recount_construction",
                        lambda hc: (0, {"weight_ok": False, "degrees_ok": True, "cert_ok": True}))
    g = random_ordered_graph(40, 50, 0)
    with pytest.raises(VerificationError, match="^postcondition failed: total weight 0 is the target"):
        spectrum._weighted(g, (1 << g.n) - 1, 4, 9, 0, 3, 2000, 8)


# --- the construction against the edge-by-edge graph and the star-by-star certificate -------


def built_or_error(build, r, m, f):
    try:
        return build(r, m, f)
    except BuildError as e:
        return (str(e), e.reason, e.detail)


def assert_matches_oracles(r, m, f):
    """The whole construction (certificate included) is the star-by-star
    build's and the graph is the edge loop's, or the BuildErrors agree."""
    got = built_or_error(build_H, r, m, f)
    assert got == built_or_error(old_build_H, r, m, f), (r, m, f)
    graph = got if isinstance(got, tuple) else got.graph
    assert graph == built_or_error(old_build_H_graph, r, m, f), (r, m, f)


@pytest.mark.parametrize("r, ms", [(4, range(6, 15)), (5, range(7, 12))])
def test_graph_is_the_edge_loop_graph_for_every_f(r, ms):
    for m in ms:
        for f in range(comb(m, r) + 1):
            assert_matches_oracles(r, m, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.data())
def test_graph_is_the_edge_loop_graph(r, data):
    m = data.draw(st.integers(r + 2, 5 * r * r + 5))
    assert_matches_oracles(r, m, data.draw(st.integers(0, comb(m, r))))


# --- the tail degree sum when the tail covers every position -------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 12), st.data())
def test_tail_sum_is_the_mass_on_the_last_r_minus_3_positions(r, data):
    # positions m-2r+6..m-r+2 are the last r-3; for m <= 2r-6 that is all of d
    m = data.draw(st.integers(r + 1, 3 * r))
    seq = d_sequence(r, m, data.draw(st.integers(0, comb(m, r) // 2)))
    assert seq.tail_degree_sum == sum(seq.d[-(r - 3):])


def test_tail_sum_below_the_first_tail_position():
    assert d_sequence(8, 10, 1).tail_degree_sum == 1  # d = (0, 0, 0, 1)
    assert d_sequence(10, 11, 1).tail_degree_sum == 1  # d = (0, 0, 1), every position in the tail
    for args in ((8, 10, 1), (12, 14, 1)):
        with pytest.raises(BuildError) as err:
            build_H(*args)
        assert err.value.reason == "gap not found" and err.value.detail == {"needed": 3}


@pytest.mark.parametrize("r", range(8, 13))
def test_builds_at_large_r_recount_or_miss_the_gap(r):
    rng = SeededRNG(r)
    built = 0
    for m in range(r + 2, 2 * r + 4):
        half = comb(m, r) // 2
        for f in sorted({0, 1, half, *(rng.randrange(half + 1) for _ in range(25))}):
            try:
                hc = build_H(r, m, f)
            except BuildError as e:
                seq = d_sequence(r, m, f)
                assert (e.reason, e.detail) == ("gap not found", {"needed": seq.tail_degree_sum + 2})
                continue
            weight, checks = recount_construction(hc)
            assert all(checks.values()) and weight == hc.realized_weight, (r, m, f)
            assert expand_certificate(hc.cert) == hc.graph
            built += 1
    assert built >= 1
