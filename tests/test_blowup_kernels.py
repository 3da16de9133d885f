"""Differential tests of the block-built blow-up families, the edge-set
wrapper ``Hypergraph._from_edges``, the integer claim-(d) check and the star
verifier against the constructions they replaced (kept in helpers)."""

import json
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_edges_mixed_count,
    all_edges_type_count,
    child_env,
    fraction_verify_claim_d,
    pairwise_star_verify,
    triple_pair_family,
    triple_type_family,
)
from ordersize.blowups import build_pair_family, build_type_family
from ordersize.core import Hypergraph
from ordersize.hbuilder import d_sequence, verify_claim_d
from ordersize.rng import SeededRNG
from ordersize.search import Star
from ordersize.values import blowup_edge_count, blowup_edge_count_mixed

flag = st.integers(0, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=6), st.tuples(flag, flag, flag, flag))
def test_type_family_matches_triple_classification(sizes, densities):
    h, parts = build_type_family(sizes, *densities)
    old, old_parts = triple_type_family(sizes, *densities)
    assert parts == old_parts
    assert h == old and hash(h) == hash(old)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.tuples(*[flag] * 4),
       st.tuples(*[flag] * 6), flag, flag)
def test_pair_family_matches_triple_classification(num, size, abs_, cs, c7, c8):
    got = build_pair_family(num, size, *abs_, cs, c7, c8)
    want = triple_pair_family(num, size, *abs_, cs, c7, c8)
    assert got == want and hash(got[0]) == hash(want[0])


def _random_edges(r, n, seed):
    rng = SeededRNG(seed)
    return [e for e in combinations(range(n), r) if rng.coin()]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(0, 9), st.integers(0, 10**6))
def test_from_edges_equals_validated_graph(r, n, seed):
    edges = _random_edges(r, n, seed)
    wrapped = Hypergraph._from_edges(r, n, edges)
    built = Hypergraph(r, n, reversed(edges))
    assert wrapped == built and hash(wrapped) == hash(built)
    assert wrapped.edge_count(range(n)) == len(edges)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(0, 9), st.integers(0, 10**6), st.data())
def test_complement_and_induced_match_validated_construction(r, n, seed, data):
    h = Hypergraph(r, n, _random_edges(r, n, seed))
    old_complement = Hypergraph(
        r, n, (e for e in combinations(range(n), r) if e not in h.edges))
    assert h.complement() == old_complement
    subset = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True))
    subset = [v for v in subset if v < n]
    s = sorted(subset)
    relabel = {v: i for i, v in enumerate(s)}
    old_induced = Hypergraph(
        r, len(s), (tuple(relabel[v] for v in e) for e in h.edges if set(e) <= set(s)))
    assert h.induced(subset) == old_induced


def test_claim_d_matches_fraction_form_on_criterion_02_targets():
    for r, m in ((4, 80), (5, 125)):
        half = comb(m, r) // 2
        rng = SeededRNG(1000 + r)
        for f in [0, 1, half] + [rng.randrange(half + 1) for _ in range(500)]:
            seq = d_sequence(r, m, f)
            got, want = verify_claim_d(seq), fraction_verify_claim_d(seq)
            assert got == want and repr(got) == repr(want), (r, m, f)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6), st.data())
def test_claim_d_matches_fraction_form_outside_the_regime(r, data):
    m = data.draw(st.integers(r + 1, 60))
    f = data.draw(st.integers(0, comb(m, r) // 2))
    seq = d_sequence(r, m, f)
    assert repr(verify_claim_d(seq)) == repr(fraction_verify_claim_d(seq))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 8), st.data())
def test_claim_d_matches_fraction_form_on_any_degree_sequence(r, data):
    """Greedy sequences never reach the boundary of item (b), so the degrees
    here are drawn freely below their caps."""
    m = data.draw(st.integers(r + 1, 40))
    seq = d_sequence(r, m, data.draw(st.integers(0, comb(m, r) // 2)))
    d = tuple(data.draw(st.integers(0, i - 1)) for i in range(1, seq.length + 1))
    i_star = data.draw(st.one_of(st.none(), st.integers(2, seq.length)))
    seq = replace(seq, d=d, i_star=i_star)
    assert repr(verify_claim_d(seq)) == repr(fraction_verify_claim_d(seq))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6), st.data(), st.booleans(), st.booleans())
def test_star_verify_matches_pairwise_check(n, seed, data, induced, anti):
    verts = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=7))
    center = data.draw(st.sampled_from(verts))
    leaves = [v for v in verts if v != center]
    if data.draw(st.booleans()):  # an invalid star: a repeated or out-of-range vertex
        leaves.append(data.draw(st.sampled_from([-1, n, center] + leaves)))
    star = Star(center, tuple(leaves), induced, anti)
    for edges in (_random_edges(3, n, seed), (), combinations(range(n), 3)):
        h = Hypergraph(3, n, edges)
        assert star.verify(h) == pairwise_star_verify(star, h)


def test_type_family_rejects_negative_part_sizes():
    with pytest.raises(ValueError, match="nonnegative"):
        build_type_family([2, -1, 2], 1, 1, 1, 1)


@pytest.mark.parametrize("cs", [(0,) * 5, (0,) * 7, ()])
def test_pair_family_rejects_wrong_density_count(cs):
    with pytest.raises(ValueError, match="six"):
        build_pair_family(2, 2, 1, 1, 0, 0, cs)


@pytest.mark.parametrize("num, size", [(-1, 2), (2, -1)])
def test_pair_family_rejects_negative_counts(num, size):
    with pytest.raises(ValueError, match="nonnegative"):
        build_pair_family(num, size, 1, 1, 0, 0, (0,) * 6)


def test_blowup_counts_reject_negative_selections():
    with pytest.raises(ValueError, match="selection"):
        blowup_edge_count_mixed(1, 0, (1, 0, 1, 0, 1, 0), 3, [-1, 2], 0)
    with pytest.raises(ValueError, match="selection"):
        blowup_edge_count(1, 1, 1, [3, 3, 3], [1, -1, 2])


def _selections(sizes):
    # zero parts often, since an empty part must add no triple
    return st.tuples(*[st.one_of(st.just(0), st.integers(0, s)) for s in sizes])


@settings(max_examples=200, deadline=None)
@given(st.tuples(flag, flag, flag), st.lists(st.integers(0, 5), max_size=6).flatmap(
    lambda sizes: st.tuples(st.just(sizes), _selections(sizes))))
def test_type_count_by_triples_matches_all_edges_count(abc, sizes_and_x):
    sizes, x = sizes_and_x
    closed, direct = blowup_edge_count(*abc, sizes, x)
    assert direct == all_edges_type_count(sizes, x, *abc) == closed


@settings(max_examples=200, deadline=None)
@given(flag, flag, st.tuples(*[flag] * 6), flag, st.integers(0, 3).flatmap(
    lambda part: st.tuples(st.just(part), st.lists(st.one_of(st.just(0), st.integers(0, part)),
                                                  max_size=4))))
def test_mixed_count_by_triples_matches_all_edges_count(b1, b2, cs, eps, part_and_x):
    part, x = part_and_x
    closed, direct = blowup_edge_count_mixed(b1, b2, cs, part, x, eps)
    assert direct == all_edges_mixed_count(b1, b2, cs, part, x, eps) == closed


def _run_optimized(args):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ordersize.cli", "--format", "json", *args],
        capture_output=True, text=True, env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_blowup_and_buildh_checks_hold_under_optimize():
    report = _run_optimized(["verify", "blowup", "--trials", "3"])
    assert report["ok"] and report["suites"]["blowup"] == {"ok": True, "checked": 6}
    rows = _run_optimized(["buildh", "--r", "4", "--m", "80", "--sweep", "2", "--check"])["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["weight_ok"] and row["degrees_ok"] and row["cert_ok"]
        assert all(row["claims"].values()) and not row["advisory"]
