from itertools import combinations, product

import pytest

from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import random_hypergraph
from ordersize.core import Hypergraph, complete_hypergraph, density, empty_hypergraph
from ordersize.errors import SearchFailed
from ordersize.rng import SeededRNG
from ordersize.structure import (
    find_pair_chain,
    find_star_chain,
    homogenize_pair_types,
    homogenize_types,
    largest_star,
    main_structure,
    maybe_density,
    no_large_star_subset,
    refine_to_01,
    star_free_subset,
)


def seeded_3graph(n, seed, pct=50):
    rng = SeededRNG(seed)
    edges = [e for e in combinations(range(n), 3) if rng.chance(pct, 100)]
    return Hypergraph(3, n, edges)


def all_01(h, sets):
    for i, x in enumerate(sets):
        v = maybe_density(h, x, x, x)
        assert v in (None, 0, 1)
        for j, y in enumerate(sets):
            if i != j:
                v = maybe_density(h, x, x, y)
                assert v in (None, 0, 1)
    for x, y, z in combinations(sets, 3):
        assert maybe_density(h, x, y, z) in (None, 0, 1)


# --- refinement ------------------------------------------------------------------


def test_refine_blowup_unchanged():
    h, parts = build_type_family([4, 4, 4], 1, 0, 1, 0)
    out = refine_to_01(h, parts, 4)
    assert [len(s) for s in out] == [4, 4, 4]
    all_01(h, out)


def test_refine_seeded():
    h = seeded_3graph(28, 3)
    sets = [tuple(range(0, 14)), tuple(range(14, 28))]
    out = refine_to_01(h, sets, 2)
    all_01(h, out)
    assert all(len(s) == 2 for s in out)


def test_refine_reports_feasible_size():
    h = seeded_3graph(12, 1)
    with pytest.raises(SearchFailed) as err:
        refine_to_01(h, [range(0, 6), range(6, 12)], 6)
    assert "feasible_p" in err.value.detail


def test_refine_of_no_sets_is_empty():
    assert refine_to_01(seeded_3graph(8, 0), [], 3) == []


def test_refine_rejects_overlap():
    h = seeded_3graph(8, 0)
    with pytest.raises(ValueError):
        refine_to_01(h, [(0, 1, 2), (2, 3, 4)], 2)


# --- homogenization -----------------------------------------------------------------


def test_homogenize_round_trip_all_patterns():
    for m in (2, 3):
        for a, b, c, d in product((0, 1), repeat=4):
            h, parts = build_type_family([3] * (m + 1), a, b, c, d)
            fam = homogenize_types(h, parts, m)
            want_c = c if m >= 3 else None
            assert fam.constants == {"a": a, "b": b, "c": want_c, "d": d}
            assert fam.verify(h)


def test_homogenize_mixed_assignment():
    # two incompatible groups; the search must find the uniform one
    h1, p1 = build_type_family([3, 3, 3], 1, 0, 1, 0)
    fam = homogenize_types(h1, p1, 2)
    assert fam.constants["a"] == 1
    with pytest.raises(SearchFailed):
        homogenize_types(h1, p1, 5)


def test_homogenize_rejects_fractional():
    h = seeded_3graph(9, 5)
    with pytest.raises(SearchFailed):
        homogenize_types(h, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], 2)


def test_homogenize_pair_types_round_trip():
    rng = SeededRNG(8)
    for _ in range(12):
        b1, b2 = rng.coin(), rng.coin()
        cs = tuple(rng.coin() for _ in range(6))
        a1, a2 = rng.coin(), rng.coin()
        h, ap, bp = build_pair_family(3, 3, a1, a2, b1, b2, cs)
        fam = homogenize_pair_types(h, list(zip(ap, bp)), 3)
        want = {"a1": a1, "a2": a2, "b1": b1, "b2": b2, "c7": 0, "c8": 0}
        want.update({f"c{i+1}": cs[i] for i in range(6)})
        assert fam.constants == want
        assert fam.verify(h)


# --- chains ----------------------------------------------------------------------------


def test_star_chain_recovers_plant():
    h, parts = build_type_family([3, 3, 3, 3], 1, 0, 0, 0)
    chain = find_star_chain(h, 3, 3)
    assert chain == [parts[1], parts[2], parts[3]]


def test_star_chain_fails_on_complete():
    with pytest.raises(SearchFailed) as err:
        find_star_chain(complete_hypergraph(3, 10), 2, 3)
    assert err.value.detail["stage"] == 0


def test_star_chain_verified_on_seeded():
    h = seeded_3graph(12, 2, 25)
    try:
        chain = find_star_chain(h, 2, 2)
    except SearchFailed:
        return
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert density(h, chain[i], chain[j], chain[j]) == 1


def test_star_chain_of_single_leaves():
    # one-vertex leaf sets: d(A_i, A_j, A_j) has an empty denominator
    h = random_hypergraph(3, 8, 30, 0)
    chain = find_star_chain(h, 3, 1)
    assert chain == [(5,), (6,), (7,)]
    for i, j in combinations(range(3), 2):
        assert maybe_density(h, chain[i], chain[j], chain[j]) is None


def test_star_free_subset():
    h, _ = build_type_family([3, 3], 0, 0, 0, 0)  # empty graph, no stars at all
    assert star_free_subset(h, 2) == tuple(range(6))
    one_star = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    out = star_free_subset(one_star, 3, seed=1)
    assert len(out) >= 3
    h = seeded_3graph(20, 7)
    out = star_free_subset(h, 2, seed=2)
    from ordersize.search import find_stars

    assert not find_stars(h.induced(out), 2, want_induced=True).stars


def test_no_large_star_subset():
    # empty graph has induced antistars, so the precondition rejects it
    with pytest.raises(SearchFailed):
        no_large_star_subset(empty_hypergraph(3, 8), 2, 0.5)
    # a pair blow-up has neither side at size 3
    h, ap, bp = build_pair_family(3, 3, 1, 1, 1, 1, (0, 0, 0, 0, 0, 0))
    w, side = no_large_star_subset(h, 3, 0.5)
    assert side in ("star-free", "antistar-free") and len(w) >= 1


def test_no_large_star_subset_without_vertices():
    assert no_large_star_subset(empty_hypergraph(3, 0), 4, 0.5) == ((), "star-free")


def test_pair_chain_recovers_plant():
    h, ap, bp = build_pair_family(4, 3, 1, 1, 0, 0, (0, 0, 0, 0, 0, 0))
    chain = find_pair_chain(h, 3, 3)
    assert chain == [(ap[1], bp[1]), (ap[2], bp[2]), (ap[3], bp[3])]


def test_pair_chain_of_single_vertex_pairs():
    # t = 1: the doubled-set densities of the chain have empty denominators
    h = build_pair_family(3, 3, 1, 1, 0, 0, (0,) * 6)[0]
    chain = find_pair_chain(h, 2, 1)
    assert chain == [((6,), (9,)), ((12,), (15,))]
    (ai, bi), (aj, bj) = chain
    assert density(h, ai, aj, bj) == density(h, bi, aj, bj) == 1


def test_pair_chain_rejects_t_below_one():
    h, _ap, _bp = build_pair_family(2, 3, 1, 1, 0, 0, (0, 0, 0, 0, 0, 0))
    for t in (0, -1):
        with pytest.raises(ValueError):
            find_pair_chain(h, 2, t)


def test_largest_star_without_vertices():
    with pytest.raises(ValueError):
        largest_star(empty_hypergraph(3, 0))
    assert largest_star(empty_hypergraph(3, 1)) == (0, ())
    assert largest_star(complete_hypergraph(3, 5)) == (0, (1, 2, 3, 4))


def test_pair_chain_fails_on_complete():
    with pytest.raises(SearchFailed):
        find_pair_chain(complete_hypergraph(3, 10), 2, 2)


def test_pair_chain_cyclic_tournament_success_or_budget():
    from ordersize.constructions import cyclic_triangle_3graph
    from ordersize.errors import BudgetExhausted

    h = cyclic_triangle_3graph(60, 3)
    try:
        chain = find_pair_chain(h, 2, 2, budget=20_000)
    except (SearchFailed, BudgetExhausted):
        return  # honest failure report; nothing unverified escaped
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            ai, bi = chain[i]
            aj, bj = chain[j]
            assert density(h, ai, aj, bj) == 1 and density(h, bi, aj, bj) == 1


def test_refine_cyclic_tournament_never_unverified():
    from ordersize.constructions import cyclic_triangle_3graph

    h = cyclic_triangle_3graph(60, 5)
    sets = [tuple(range(0, 20)), tuple(range(20, 40)), tuple(range(40, 60))]
    try:
        out = refine_to_01(h, sets, 2)
    except SearchFailed as e:
        assert "feasible_p" in e.detail  # sizes insufficient, reported
        return
    all_01(h, out)


# --- the orchestrator ---------------------------------------------------------------------


def test_main_structure_type_a_round_trips():
    for a, b, c, d in product((0, 1), repeat=4):
        if a == b == c == d:
            continue
        if (a, d) not in ((1, 0), (0, 1)):
            continue
        h, _ = build_type_family([3, 3, 3, 3], a, b, c, d)
        out = main_structure(h, 3)
        st = out.structure
        assert out.status == "structure" and st.variant == "a"
        got = tuple(st.family.constants[k] for k in "abcd")
        assert got == (a, b, c, d)
        assert st.family.verify(h)


def test_main_structure_type_b_round_trips():
    rng = SeededRNG(31)
    for _ in range(6):
        b1, b2 = rng.coin(), rng.coin()
        cs = tuple(rng.coin() for _ in range(6))
        h, ap, bp = build_pair_family(4, 3, 1, 1, b1, b2, cs)
        out = main_structure(h, 3)
        st = out.structure
        assert out.status == "structure" and st.variant == "b", (b1, b2, cs, out.trace)
        k = st.family.constants
        assert k["a1"] == k["a2"] == 1
        assert (k["b1"], k["b2"]) == (b1, b2)
        assert tuple(k[f"c{i+1}"] for i in range(6)) == cs
        base = h if not st.complemented else h.complement()
        assert st.family.verify(base)
        assert st.family.nondistinct_zero(base)


def test_main_structure_m4_parts4():
    h, _ = build_type_family([4] * 5, 1, 0, 1, 0)
    out = main_structure(h, 4, part_size=4)
    st = out.structure
    assert out.status == "structure" and st.variant == "a"
    assert st.family.constants == {"a": 1, "b": 0, "c": 1, "d": 0}


def test_main_structure_complete_reports_homogeneous():
    out = main_structure(complete_hypergraph(3, 9), 3)
    assert out.status == "homogeneous"
    assert out.homogeneous.kind == "clique" and out.homogeneous.size() == 9


@pytest.mark.parametrize("m", [0, -1])
def test_main_structure_rejects_m_below_one(m):
    h, _ = build_type_family([3, 3, 3, 3], 1, 0, 1, 0)
    with pytest.raises(ValueError, match=f"m={m}"):
        main_structure(h, m)


def test_main_structure_digest_rows():
    h, _ = build_type_family([3, 3, 3, 3], 1, 1, 0, 0)
    out = main_structure(h, 3)
    obj = out.structure.to_json_obj()
    assert obj["variant"] == "a" and obj["digest"]
    assert {r["type"] for r in obj["digest"]} == {"a", "b", "c", "d"}
