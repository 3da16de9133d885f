"""Differential tests of the triple-type tables.

``blowups.FAMILY_TYPES`` and ``blowups.PAIR_TYPES`` are the one definition of
which sets each triple type reads. The oracles are the structure finder as it
was with every type's sets written out by hand (kept in helpers): the two
families' ``verification_rows`` and ``verify``, ``homogenize_types``,
``homogenize_pair_types`` and ``nondistinct_zero``. Rows, families, constant
key order and ``SearchFailed`` message, reason and detail must all agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LISTED_PAIR_NAMES,
    listed_family_rows,
    listed_homogenize_pair_types,
    listed_homogenize_types,
    listed_nondistinct_zero,
    listed_pair_rows,
    listed_verify,
)
from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import random_hypergraph
from ordersize.core import Hypergraph
from ordersize.errors import SearchFailed
from ordersize.structure import (
    HomogenizedFamily,
    PairFamily,
    homogenize_pair_types,
    homogenize_types,
    main_structure,
    refine_to_01,
)

flag = st.integers(0, 1)
constant = st.sampled_from([0, 1, None])


def outcome(fn, *args):
    """The family's repr (sets and constants in key order), or the failure."""
    try:
        return repr(fn(*args))
    except SearchFailed as e:
        return ("failed", str(e), e.reason, e.detail)


def check_family(h, sets, consts):
    fam = HomogenizedFamily(tuple(sets), consts)
    assert fam.verification_rows(h) == listed_family_rows(h, sets)
    assert fam.verify(h) == listed_verify(listed_family_rows(h, sets), consts)
    for m in range(len(sets) + 2):  # m > ell included
        assert outcome(homogenize_types, h, sets, m) == outcome(listed_homogenize_types, h, sets, m)


def check_pairs(h, a_sets, b_sets, consts):
    fam = PairFamily(tuple(a_sets), tuple(b_sets), consts)
    assert fam.verification_rows(h) == listed_pair_rows(h, a_sets, b_sets)
    assert fam.verify(h) == listed_verify(listed_pair_rows(h, a_sets, b_sets), consts)
    assert fam.nondistinct_zero(h) == listed_nondistinct_zero(h, a_sets, b_sets)
    pairs = list(zip(a_sets, b_sets))
    for m in range(len(pairs) + 2):
        want = outcome(listed_homogenize_pair_types, h, pairs, m)
        assert outcome(homogenize_pair_types, h, pairs, m) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5), st.tuples(flag, flag, flag, flag),
       st.fixed_dictionaries({k: constant for k in "abcd"}))
def test_planted_type_family_matches_listed_types(sizes, densities, consts):
    h, parts = build_type_family(sizes, *densities)
    check_family(h, parts, consts)
    check_family(h.complement(), parts, consts)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.tuples(*[flag] * 4), st.tuples(*[flag] * 6),
       flag, flag, st.fixed_dictionaries({k: constant for k in LISTED_PAIR_NAMES}))
def test_planted_pair_family_matches_listed_types(num, size, abs_, cs, c7, c8, consts):
    h, a_sets, b_sets = build_pair_family(num, size, *abs_, cs, c7, c8)
    check_pairs(h, a_sets, b_sets, consts)
    check_pairs(h.complement(), a_sets, b_sets, consts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(3, 5), st.integers(1, 2))
def test_refined_random_sets_match_listed_types(seed, ell, size, p):
    h = random_hypergraph(3, ell * size, 50, seed)
    try:
        sets = refine_to_01(h, [range(i * size, (i + 1) * size) for i in range(ell)], p)
    except SearchFailed:
        return  # sizes insufficient, reported
    assert all(row["value"] in (None, 0, 1) for row in listed_family_rows(h, sets))
    for consts in ({k: 0 for k in "abcd"}, {"a": 1, "b": 0, "c": None, "d": 1}):
        check_family(h, sets, consts)
    half = ell // 2
    check_pairs(h, sets[:half], sets[half:2 * half], dict.fromkeys(LISTED_PAIR_NAMES, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
def test_fractional_densities_fail_alike(seed, ell, size):
    # a random graph on small parts: most densities are neither 0 nor 1
    h = random_hypergraph(3, 2 * ell * size, 50, seed)
    sets = [tuple(range(i * size, (i + 1) * size)) for i in range(2 * ell)]
    check_family(h, sets, {k: 1 for k in "abcd"})
    check_pairs(h, sets[:ell], sets[ell:], dict.fromkeys(LISTED_PAIR_NAMES, 0))


def test_a_fractional_family_names_its_triple():
    h, parts = build_type_family([3, 3, 3], 1, 0, 1, 0)
    h = Hypergraph(3, h.n, set(h.edges) - {(0, 3, 4)})  # d(A_0, A_1, A_1) is 8/9
    got = outcome(homogenize_types, h, parts, 2)
    assert got == outcome(listed_homogenize_types, h, parts, 2)
    assert got == ("failed", "density 8/9 is not 0/1", "precondition violated",
                   {"sets": [[0, 1, 2], [3, 4, 5], [3, 4, 5]], "value": "8/9"})


# --- pins: what the tables fix ------------------------------------------------------


def test_family_rows_run_by_size_then_indices_then_table_order():
    h, parts = build_type_family([2, 2, 2, 2], 1, 0, 1, 0)
    rows = HomogenizedFamily(tuple(parts), {}).verification_rows(h)
    assert [(r["type"], r["indices"]) for r in rows] == [
        ("d", (0,)), ("d", (1,)), ("d", (2,)), ("d", (3,)),
        ("a", (0, 1)), ("b", (0, 1)), ("a", (0, 2)), ("b", (0, 2)), ("a", (0, 3)), ("b", (0, 3)),
        ("a", (1, 2)), ("b", (1, 2)), ("a", (1, 3)), ("b", (1, 3)), ("a", (2, 3)), ("b", (2, 3)),
        ("c", (0, 1, 2)), ("c", (0, 1, 3)), ("c", (0, 2, 3)), ("c", (1, 2, 3)),
    ]


def test_pair_rows_run_by_size_then_indices_then_table_order():
    h, a_sets, b_sets = build_pair_family(3, 2, 1, 1, 0, 0, (0,) * 6)
    rows = PairFamily(tuple(a_sets), tuple(b_sets), {}).verification_rows(h)
    pair = ("a1", "a2", "b1", "b2")
    trip = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")
    assert [(r["type"], r["indices"]) for r in rows] == (
        [(t, (0, 1)) for t in pair] + [(t, (0, 2)) for t in pair]
        + [(t, (1, 2)) for t in pair] + [(t, (0, 1, 2)) for t in trip]
    )


def test_constants_keep_table_order():
    h, _ = build_type_family([3, 3, 3, 3], 1, 1, 0, 0)
    fam = main_structure(h, 3).structure.family
    assert list(fam.constants) == ["a", "b", "c", "d"]
    h, a_sets, _b_sets = build_pair_family(4, 3, 1, 1, 0, 1, (1, 0, 0, 1, 0, 1))
    fam = main_structure(h, 3).structure.family
    assert list(fam.constants) == ["a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"]
    assert list(homogenize_types(h, a_sets, 2).constants) == ["a", "b", "c", "d"]

