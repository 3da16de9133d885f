"""Differential tests of the bitset value counters and the integer-scaled forms
against the walks, the (p1, p2) DP, the tuple p1 table and the Fraction
evaluations they replaced (kept in helpers)."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    fraction_cubic_form,
    fraction_general_form,
    loop_pair_form_report,
    old_pair_form_splits,
    pair_state_form_values,
    scan_pattern_weight_exists,
    tuple_table_form_values,
    walk_cubic_report,
    walk_general_report,
)
from ordersize import values
from ordersize.spectrum import WeightFrame, pattern_weight_exists
from ordersize.values import (
    DEFAULT_COMPOSITION_CAP,
    CubicParams,
    GeneralParams,
    _count_form_values,
    _pair_form_splits,
    _pair_sum_runs,
    _spread,
    _square_sums,
    count_cubic_values,
    count_general_values,
    count_pair_form_values,
    cubic_form,
    general_form,
    transform_params,
)

coefficient = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from([2, 3, 4, 5, 6])),
)


@st.composite
def cubic_params(draw):
    a, b, c, d, e = (draw(coefficient) for _ in range(5))
    shape = draw(st.sampled_from(["free", "symmetric", "antisymmetric"]))
    if shape == "symmetric":  # a = b = c/3
        b, c = a, 3 * a
    elif shape == "antisymmetric":  # a = -b, c = 0
        b, c = -a, Fraction(0)
    return CubicParams(a, b, c, d, e)


general_params = st.builds(GeneralParams, coefficient, coefficient, coefficient,
                           coefficient, coefficient)


@given(cubic_params(), st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_cubic_counter_matches_composition_walk(p, m):
    assert count_cubic_values(p, m) == walk_cubic_report(p, m)


@given(general_params, st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_general_counter_matches_composition_walk(g, m):
    assert count_general_values(g, m) == walk_general_report(g, m)


@given(st.tuples(*[st.integers(-9, 9)] * 6), st.integers(-50, 50), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_p1_table_matches_pair_state_dp(coeffs, const, m):
    # six free coefficients reach forms neither counter builds (cc != 0
    # beside c3 != 0), and m runs past the walks' reach
    assert _count_form_values(m, coeffs, const) == pair_state_form_values(m, coeffs, const)


@given(st.tuples(*[st.integers(-9, 9)] * 6), st.integers(-50, 50), st.integers(1, 40))
@example((0, 0, 0, 0, 0, 1), 0, 12)  # ce alone: a table without ce*p1 counts one value
@example((2, -3, 5, 1, -4, 7), -9, 40)  # cc beside c3, at the top of the range
@settings(max_examples=150, deadline=None)
def test_flat_p1_table_matches_tuple_table(coeffs, const, m):
    # the inlined per-part arithmetic and the flat lists against the table of
    # (lo, bits) tuples with its step and child calls
    assert _count_form_values(m, coeffs, const) == tuple_table_form_values(m, coeffs, const)


@given(cubic_params(), st.integers(1, 10))
@settings(max_examples=20, deadline=None)
def test_transformed_counter_matches_cubic_counter(p, m):
    # the reduced form agrees with the cubic form on every composition of m,
    # so both counters see the same value set
    rc = count_cubic_values(p, m)
    rg = count_general_values(transform_params(p, m), m)
    assert (rc.count, rc.min_value, rc.max_value) == (rg.count, rg.min_value, rg.max_value)


def test_pair_form_counter_matches_square_sum_loop():
    for m in range(1, 41):
        assert count_pair_form_values(m) == loop_pair_form_report(m), m


def test_pair_form_splits_match_one_shift_per_square_sum(monkeypatch):
    """Same split bitsets as the old loop, and so the same report: the old
    kernel is the old splits under the unchanged union and witness code."""
    reports = {m: count_pair_form_values(m) for m in range(1, 61)}
    for m in range(1, 61):
        assert _pair_form_splits(m) == old_pair_form_splits(m), m
    monkeypatch.setattr(values, "_pair_form_splits", old_pair_form_splits)
    for m in range(1, 61):
        assert count_pair_form_values(m) == reports[m], m


def test_pair_sum_runs_are_the_maximal_runs():
    for total in range(61):
        runs = _pair_sum_runs(total)
        assert {s + j for s, length in runs for j in range(length)} == {
            (total * total - s) // 2 for s in _square_sums(total)}, total
        assert all(length >= 1 for _, length in runs)
        # ascending, and at least one missing integer between two runs
        assert all(s0 + n0 < s1 for (s0, n0), (s1, _) in zip(runs, runs[1:])), total


run_length = st.one_of(
    st.just(1),
    st.integers(0, 6).map(lambda k: 2**k),
    st.integers(0, 6).map(lambda k: 2**k + 1),
    st.integers(1, 80),
)


@given(st.integers(1, 2**40), st.one_of(st.just(0), st.integers(1, 9)),
       st.lists(st.tuples(st.integers(0, 5), run_length), max_size=6))
@settings(max_examples=300, deadline=None)
def test_spread_matches_one_shift_per_offset(bits, step, gaps_and_lengths):
    runs, start = [], 0
    for gap, length in gaps_and_lengths:
        runs.append((start + gap, length))
        start += gap + length + 1
    naive = 0
    for s, length in runs:
        for p in range(s, s + length):
            naive |= bits << step * p
    assert _spread(bits, step, runs) == naive


@pytest.mark.parametrize("p", [
    CubicParams(1, 0, 0, 0, 0),
    CubicParams(1, 1, 0, 0, 0),
    CubicParams(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), 1, Fraction(1, 2)),
    CubicParams(1, 1, 3, 2, -1),
])
def test_cap_witnesses_reevaluate(p):
    m = DEFAULT_COMPOSITION_CAP
    rep = count_cubic_values(p, m)
    for w, v in ((rep.min_witness, rep.min_value), (rep.max_witness, rep.max_value)):
        assert sum(w) == m and min(w) >= 1
        assert cubic_form(p, w) == v
    assert (rep.count == 1) == (rep.min_value == rep.max_value)
    g = transform_params(p, m)
    rg = count_general_values(g, m)
    assert (rg.count, rg.min_value, rg.max_value) == (rep.count, rep.min_value, rep.max_value)
    assert general_form(g, m, rg.min_witness) == rg.min_value
    assert general_form(g, m, rg.max_witness) == rg.max_value


@given(cubic_params(), general_params, st.lists(st.integers(0, 6), min_size=1, max_size=8),
       st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_scaled_forms_match_fraction_evaluation(p, g, x, m):
    assert cubic_form(p, x) == fraction_cubic_form(p, x)
    assert general_form(g, m, x) == fraction_general_form(g, m, x)


def test_scaled_forms_reject_negative_coordinates():
    with pytest.raises(ValueError):
        cubic_form(CubicParams(1, 0, 0, 0, 0), [1, -1])
    with pytest.raises(ValueError):
        general_form(GeneralParams(1, 0, 0, 0, 0), 3, [-1, 4])


def test_pattern_weight_exists_matches_scan():
    # frames of at most 15 weighted pairs: the scan walks 2^npairs edge sets
    # for every unreachable total, which is out of reach beyond that
    checked = 0
    for r in range(3, 7):
        for m in range(r, 10):
            if comb(WeightFrame(r, m).size, 2) > 15:
                continue
            for k in range(1, r):
                for f in range(-1, comb(m, r) + 2):
                    assert pattern_weight_exists(r, m, f, k) == scan_pattern_weight_exists(r, m, f, k), (
                        r, m, f, k)
                    checked += 1
    assert checked > 1000
