import time
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import old_stage_caps, old_step_once, old_step_to_pairs
from ordersize import stepdown
from ordersize.constructions import random_hypergraph
from ordersize.core import Hypergraph, complete_hypergraph, empty_hypergraph
from ordersize.errors import SearchFailed
from ordersize.rng import SeededRNG, keyed_coloring
from ordersize.stepdown import _stage_caps, step_once, step_to_pairs


def seeded_3graph(n, seed):
    rng = SeededRNG(seed)
    return Hypergraph(3, n, [e for e in combinations(range(n), 3) if rng.coin()])


def check_factorization(colorfn, res, r):
    for tup in combinations(res.x, r):
        if res.arity == 2:
            assert colorfn(tup) == res.chi[(tup[res.k - 1], tup[res.k])]
        else:
            assert colorfn(tup) == res.chi[tup[:-1]]


def test_constant_coloring():
    res = step_once(empty_hypergraph(3, 9), 5)
    assert res.x == (0, 1, 2, 3, 4)
    assert all(v == 0 for v in res.chi.values())
    res = step_once(complete_hypergraph(3, 9), 5)
    assert res.x == (0, 1, 2, 3, 4)
    assert set(res.chi[p] for p in combinations(res.x[:4], 2)) == {1}


def test_guaranteed_success_r3():
    # n = 2^C(3,2) meets the existence bound for l = 4
    for seed in range(100):
        h = seeded_3graph(8, seed)
        res = step_once(h, 4)
        assert len(res.x) == 4
        colorfn = lambda t: 1 if t in h.edges else 0
        check_factorization(colorfn, res, 3)


def test_step_once_exhaustion_reports_prefix():
    h = seeded_3graph(6, 1)
    with pytest.raises(SearchFailed) as err:
        step_once(h, 6)
    assert 0 < len(err.value.detail["achieved"]) < 6


def test_determinism():
    h = seeded_3graph(10, 3)
    a = step_once(h, 4)
    b = step_once(h, 4)
    assert a.x == b.x and a.chi == b.chi and a.transcript == b.transcript


def test_small_ell_never_errors():
    # with l <= r-1 no partitioning happens, so any n >= l works
    for n in (4, 5, 7):
        res = step_once(seeded_3graph(n, n), 2)
        assert res.x == (0, 1)


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("ell", [0, -2])
def test_nonpositive_ell_is_rejected(r, ell):
    h = random_hypergraph(r, 8, 50, 1)
    for step in (lambda: step_to_pairs(h, 1, ell=ell), lambda: step_once(h, ell)):
        with pytest.raises(ValueError, match=f"^ell must be positive, got {ell}$"):
            step()


def test_existence_bound_never_errors():
    # n at the guarantee threshold 2^C(l-1, r-1) always succeeds
    for seed in range(20):
        res = step_once(seeded_3graph(64, 400 + seed), 5)  # 2^C(4,2) = 64
        assert len(res.x) == 5
    for seed in range(10):
        col = keyed_coloring(500 + seed)
        res = step_once(col, 4, n=16, r=4)  # partition vectors stay tiny
        assert len(res.x) == 4


def test_step_to_pairs_k1_matches_step_once_r3():
    h = seeded_3graph(8, 9)
    a = step_once(h, 4)
    b = step_to_pairs(h, 1, 4)
    assert a.x == b.x


def test_step_to_pairs_r4_forward():
    col = keyed_coloring(5)
    res = step_to_pairs(col, k=1, ell=4, n=4096, r=4)
    assert len(res.x) >= 4
    check_factorization(col, res, 4)


def test_step_to_pairs_with_reversal():
    # k = 2 for r = 4 runs one forward and one reversed stage
    col = keyed_coloring(8)
    res = step_to_pairs(col, k=2, ell=4, n=4096, r=4)
    assert len(res.x) >= 4 and res.k == 2
    check_factorization(col, res, 4)


def test_step_to_pairs_r3_k2():
    col = keyed_coloring(13)
    res = step_to_pairs(col, k=2, ell=5, n=600, r=3)
    check_factorization(col, res, 3)


def test_step_to_pairs_r5_mixed_schedule():
    # two forward stages then one reversed stage land the pair at (2, 3)
    col = keyed_coloring(3)
    res = step_to_pairs(col, k=2, ell=3, n=3000, r=5)
    assert len(res.x) >= 3
    assert [st["direction"] for st in res.transcript] == ["F", "F", "R"]
    check_factorization(col, res, 5)


def test_transcript_structure():
    res = step_to_pairs(keyed_coloring(2), k=1, ell=4, n=512, r=4)
    assert [st["direction"] for st in res.transcript] == ["F", "F"]
    assert all("rows" in st for st in res.transcript)
    obj = res.to_json_obj()
    assert obj["k"] == 1 and len(obj["x"]) == len(res.x)


def test_stage_caps_are_cut_at_n_before_any_power():
    start = time.perf_counter()
    assert _stage_caps(5, 7, 8) == [8, 8, 7]
    assert _stage_caps(8, None, 100) == [100, 100, 100, 100, 64, None]
    assert time.perf_counter() - start < 1
    # where the full powers are cheap, every cap is the old one cut at n
    for r, ells in ((3, range(1, 20)), (4, range(1, 12)), (5, range(1, 6))):
        for ell in [None, *ells]:
            old = old_stage_caps(r, ell)
            for n in range(1, 70):
                assert _stage_caps(r, ell, n) == [min(c, n) for c in old[:-1]] + [ell], (r, ell, n)


def step_outcome(h, k, ell):
    try:
        return step_to_pairs(h, k, ell)
    except SearchFailed as e:
        return (str(e), e.detail["result"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_to_pairs_matches_the_uncut_caps(data):
    """A cap >= n never binds, so the cut caps give the same result, or the
    same failure, as the full ones."""
    r = data.draw(st.integers(3, 5))
    n = data.draw(st.integers(r, 12))
    k = data.draw(st.integers(1, r - 1))
    ell = data.draw(st.one_of(st.none(), st.integers(1, 5 if r == 5 else n + 1)))
    density = data.draw(st.one_of(st.sampled_from([0, 100]), st.integers(0, 100)))
    h = random_hypergraph(r, n, density, data.draw(st.integers(0, 999)))
    got = step_outcome(h, k, ell)
    with patch.object(stepdown, "_stage_caps", lambda r, ell, n: old_stage_caps(r, ell)):
        assert step_outcome(h, k, ell) == got


class Recorder:
    """A coloring that records every tuple it is asked for."""

    def __init__(self, fn):
        self.fn, self.queries = fn, []

    def __call__(self, t):
        self.queries.append(tuple(t))
        return self.fn(t)


def outcome_obj(step, coloring, *args, **kw):
    """The result of a stepping-down call as JSON, or its failure with the
    partial result; the queries it made, in order."""
    rec = Recorder(coloring)
    try:
        res = step(rec, *args, **kw)
    except SearchFailed as e:
        res = e.detail["result"]
        return ("failed", str(e), e.detail["achieved"], res.to_json_obj(), list(res.chi)), rec.queries
    return ("ok", res.to_json_obj(), list(res.chi)), rec.queries


@st.composite
def colorings(draw, r):
    """A stored r-graph's edge test on n <= 12 vertices, or a keyed coloring
    with a palette of 1 to 3 colors on up to 40 (1 color: up to 10)."""
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        n = draw(st.integers(r, 12))
        density = draw(st.one_of(st.sampled_from([0, 100]), st.integers(0, 100)))
        h = random_hypergraph(r, n, density, seed)
        return (lambda t: 1 if t in h.edges else 0), n
    palette = draw(st.integers(1, 3))
    return keyed_coloring(seed, palette), draw(st.integers(r, 10 if palette == 1 else 40))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_id_stages_match_the_position_stages(data):
    """Every stage, forward and reversed, gives the result, transcript, chi
    order and failure of the stage that ran on positions, and asks the
    coloring the same tuples in the same order."""
    r = data.draw(st.integers(3, 5))
    colorfn, n = data.draw(colorings(r))
    k = data.draw(st.integers(1, r - 1))
    ell = data.draw(st.one_of(st.none(), st.integers(1, 6 if r == 5 else 8)))
    got = outcome_obj(step_to_pairs, colorfn, k, ell, n=n, r=r)
    assert got == outcome_obj(old_step_to_pairs, colorfn, k, ell, n=n, r=r)
    got = outcome_obj(step_once, colorfn, ell, n=n, r=r)
    assert got == outcome_obj(old_step_once, colorfn, ell, n=n, r=r)


@pytest.mark.parametrize("r,k", [(r, k) for r in (3, 4, 5) for k in range(1, r)])
def test_id_stages_match_on_a_keyed_coloring(r, k):
    col, n = keyed_coloring(1000 + 10 * r + k), {3: 600, 4: 512, 5: 400}[r]
    for ell in (None, 3, 4):
        got = outcome_obj(step_to_pairs, col, k, ell, n=n, r=r)
        assert got == outcome_obj(old_step_to_pairs, col, k, ell, n=n, r=r)


@pytest.mark.parametrize("k", [1, 2])
def test_query_count_is_pinned(k):
    # the count the stages made when they ran on positions
    col = Recorder(keyed_coloring(12345))
    step_to_pairs(col, k=k, ell=4, n=512, r=4)
    assert len(col.queries) == 1498
