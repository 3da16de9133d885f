import hashlib
import json
from itertools import combinations, product

import pytest

from ordersize import structure
from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import cyclic_triangle_3graph, random_hypergraph
from ordersize.core import Hypergraph, complete_hypergraph, density, empty_hypergraph
from ordersize.errors import BudgetExhausted, SearchFailed
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

from helpers import chance


def seeded_3graph(n, seed, pct=50):
    rng = SeededRNG(seed)
    edges = [e for e in combinations(range(n), 3) if chance(rng, pct, 100)]
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


def test_refine_ties_keep_the_side_of_ones():
    # the pair step, then the triple step, splits its two targets one to one
    h = Hypergraph(3, 4, [(0, 1, 2)])
    assert refine_to_01(h, [(0, 1), (2, 3)], 1) == [(0,), (2,)]
    assert refine_to_01(h, [(0,), (1,), (2, 3)], 1) == [(0,), (1,), (2,)]


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


def test_star_free_subset_of_size_zero_stars_is_empty():
    # at s = 0 every vertex alone is a star
    for h in (Hypergraph(3, 1), empty_hypergraph(3, 4), complete_hypergraph(3, 5)):
        assert star_free_subset(h, 0) == ()
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        star_free_subset(Hypergraph(3, 1), 0, trials=0)


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


def test_chains_reject_a_negative_length():
    h, _ap, _bp = build_pair_family(2, 3, 1, 1, 0, 0, (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="^ell must be nonnegative, got -2$"):
        find_pair_chain(h, -2, 1)
    with pytest.raises(ValueError, match="^ell must be nonnegative, got -1$"):
        find_star_chain(h, -1, 2)
    assert find_pair_chain(h, 0, 1) == find_star_chain(h, 0, 2) == []


def test_star_free_subset_rejects_fewer_than_one_trial():
    # every leaf pair of K_6^(3) is an edge with any center: stars of size 2 abound
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        star_free_subset(complete_hypergraph(3, 6), 2, trials=0)
    # a graph without stars is checked too, before its early return
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        star_free_subset(empty_hypergraph(3, 5), 2, trials=0)


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


def test_main_structure_rejects_a_negative_budget():
    h, _ = build_type_family([3, 3, 3, 3], 1, 0, 1, 0)
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        main_structure(h, 2, budget=-1)


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


@pytest.mark.parametrize("part_size", [0, -4])
def test_main_structure_rejects_a_part_size_below_one(part_size):
    h, _ = build_type_family([3, 3, 3, 3], 1, 0, 1, 0)
    with pytest.raises(ValueError, match=f"^part_size must be positive, got {part_size}$"):
        main_structure(h, 3, part_size=part_size)


def test_main_structure_rejects_a_negative_exact_limit():
    h, _ = build_type_family([3, 3, 3, 3], 1, 0, 1, 0)
    with pytest.raises(ValueError, match="^exact_limit must be nonnegative, got -1$"):
        main_structure(h, 3, exact_limit=-1)


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


@pytest.mark.parametrize("c7, c8, side", [(1, 0, 0), (0, 1, 1)])
def test_main_structure_lands_the_all_same_side_family(c7, c8, side):
    h, ap, bp = build_pair_family(4, 3, 1, 1, 0, 0, (0,) * 6, c7=c7, c8=c8)
    out = main_structure(h, 3)
    st = out.structure
    assert out.status == "structure" and st.variant == "a" and not st.complemented
    assert st.family.constants == {"a": 0, "b": 0, "c": 1, "d": 0}
    assert st.family.sets == tuple((ap, bp)[side][1:])
    assert out.trace[-1] == "variant (a) via the all-same-side constant"


def _outcome_record(h, m, **kw) -> list:
    """A main_structure outcome as JSON data: status, structure, witness and
    trace, or the error's type, message, reason, detail, units used and trace."""
    try:
        out = main_structure(h, m, **kw)
    except (SearchFailed, BudgetExhausted) as e:
        return [type(e).__name__, str(e), getattr(e, "reason", None),
                repr(getattr(e, "detail", None)), getattr(e, "used", None), getattr(e, "trace", None)]
    w = out.homogeneous
    return [out.status, out.structure and out.structure.to_json_obj(),
            [list(w.set), w.kind, w.exact], out.trace]


def _golden_cases():
    """(h, m, keywords): planted type and pair families, random 3-graphs
    with and without budgets, and cyclic-triangle graphs."""
    for a, b, c, d in product((0, 1), repeat=4):
        yield build_type_family([3] * 4, a, b, c, d)[0], 3, {}
    rng = SeededRNG(24)
    for _ in range(10):
        cs = tuple(rng.coin() for _ in range(6))
        yield build_pair_family(4, 3, 1, 1, rng.coin(), rng.coin(), cs, rng.coin(), rng.coin())[0], 3, {}
    for k in range(8):
        bits = [rng.coin() for _ in range(12)]
        h = build_pair_family(3, 3, *bits[:4], tuple(bits[4:10]), *bits[10:])[0]
        yield (h.complement() if k % 2 else h), 1 + k % 3, {}
    for n in range(6, 15):
        for seed in range(3):
            h = random_hypergraph(3, n, (20, 50, 80)[seed], seed + n)
            yield h, 2 + seed % 2, {}
            yield h, 3, {"budget": 40 * n}
    yield random_hypergraph(3, 16, 90, 2), 1, {}  # its pair family meets a set twice in an edge
    for n in (6, 8, 10, 12):
        yield cyclic_triangle_3graph(n, n), 2, {}
        yield cyclic_triangle_3graph(n, n), 3, {"budget": 500}


def _pair_plant_behind_the_deep_path(monkeypatch, c7: int, c8: int, cs) -> Hypergraph:
    """The complement of a planted pair family with three more vertices, with
    the star stages patched so that the complemented pair branch runs on the
    family's vertices, which are not all of h's."""
    p = build_pair_family(4, 3, 1, 1, 0, 1, cs, c7, c8)[0]
    ids = [v for v in range(p.n + 3) if v not in (0, 13, p.n + 2)]
    h = Hypergraph(3, p.n + 3, [tuple(ids[v] for v in e) for e in p.edges]).complement()

    def no_chain(g, ell, s, budget=None):
        raise SearchFailed("patched", reason="too few induced stars",
                           detail={"vertex_set": tuple(range(g.n))})

    monkeypatch.setattr(structure, "find_star_chain", no_chain)
    monkeypatch.setattr(structure, "star_free_subset", lambda g, s, trials=200, seed=0: tuple(range(g.n)))
    monkeypatch.setattr(structure, "no_large_star_subset", lambda g, s, delta: (tuple(ids), "antistar-free"))
    return h


_PLANTS_BEHIND = [(0, 0, (0, 1, 0, 0, 1, 0)), (1, 0, (0, 0, 1, 0, 0, 1)), (0, 1, (1, 0, 0, 1, 0, 0))]


def test_main_structure_outcomes_match_the_golden_digest(monkeypatch):
    """Pins every outcome on the corpus byte for byte, errors included, so a
    rewrite of the finder that changes any of them fails here."""
    records = [_outcome_record(h, m, **kw) for h, m, kw in _golden_cases()]
    for c7, c8, cs in _PLANTS_BEHIND:
        records.append(_outcome_record(_pair_plant_behind_the_deep_path(monkeypatch, c7, c8, cs), 3))
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "e27613702953e6212f0a9afb0c3725faa07b63f251ec70bfd548f0c415da6d86"


@pytest.mark.parametrize("c7, c8, cs", _PLANTS_BEHIND)
def test_complemented_pair_branch_lands_in_h_ids(monkeypatch, c7, c8, cs):
    h = _pair_plant_behind_the_deep_path(monkeypatch, c7, c8, cs)
    out = main_structure(h, 3)
    st = out.structure
    assert out.status == "structure" and st.complemented
    assert st.variant == ("a" if c7 or c8 else "b")
    assert st.family.verify(h.complement())
    assert not {0, 13, h.n - 1} & {v for sets in st.family.sides().values() for s in sets for v in s}


def test_main_structure_builds_at_most_one_complement(monkeypatch):
    calls = []
    complement = Hypergraph.complement
    monkeypatch.setattr(Hypergraph, "complement", lambda g: calls.append(g) or complement(g))
    cases = [(random_hypergraph(3, n, pct, n), 2, {}) for n in (12, 14, 16) for pct in (30, 50, 70)]
    cases += [(cyclic_triangle_3graph(12, 3), 3, {})]
    deep = 0
    for h, m, kw in cases:
        calls.clear()
        out = main_structure(h, m, **kw)
        deep += "antistar-free subset" in " ".join(out.trace)
        assert len(calls) <= 1, out.trace
    assert deep >= 5  # most cases reach the stages that used to build their own
