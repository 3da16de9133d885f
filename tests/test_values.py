from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import weak_compositions
from ordersize.rng import SeededRNG
from ordersize.values import (
    CubicParams,
    GeneralParams,
    blowup_edge_count,
    blowup_edge_count_mixed,
    count_cubic_values,
    count_general_values,
    count_pair_form_values,
    cubic_form,
    g_r,
    general_form,
    gr_table,
    pair_form,
    transform_params,
)


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# --- the recursive multipartite maximum ----------------------------------------


def g_oracle(r, m, cache={}):
    # independent recursion over ordered compositions
    if m <= r - 1:
        return 0
    if (r, m) in cache:
        return cache[(r, m)]
    best = 0
    for parts in weak_compositions(m - r, r):  # shift to force positivity
        ms = [p + 1 for p in parts]
        prod = 1
        for x in ms:
            prod *= x
        best = max(best, prod + sum(g_oracle(r, x) for x in ms))
    cache[(r, m)] = best
    return best


def test_g_r_base_cases():
    for r in range(2, 7):
        for m in range(0, r):
            assert g_r(r, m) == 0
        assert g_r(r, r) == 1
    assert g_r(3, 3) == 1 and g_r(3, 4) == 2


def test_g_r_matches_oracle():
    for r in (2, 3, 4):
        for m in range(r, 11):
            assert g_r(r, m) == g_oracle(r, m)


def test_g_r_doubling():
    for r in range(3, 7):
        assert g_r(r, 2 * r) == 2**r
    rows = gr_table([3, 4, 5])
    assert all(row["g"] == row["power"] for row in rows)


def test_g_r_zero_parts_never_help():
    # allowing a zero part zeroes the product; compare with a relaxed oracle
    for r in (3, 4):
        for m in range(r, 12):
            relaxed = max(
                (
                    prod_and_sum(r, parts)
                    for parts in weak_compositions(m, r)
                ),
            )
            assert g_r(r, m) == relaxed


def prod_and_sum(r, parts):
    prod = 1
    for x in parts:
        prod *= x
    return prod + sum(g_r(r, x) for x in parts)


# --- form evaluation -------------------------------------------------------------


def cubic_direct(p, x):
    m = len(x)
    total = Fraction(0)
    for i in range(m):
        total += p.d * x[i] ** 2
        for j in range(i + 1, m):
            total += p.a * x[i] * x[j] ** 2 + p.b * x[i] ** 2 * x[j] + p.e * x[i] * x[j]
            for k in range(j + 1, m):
                total += p.c * x[i] * x[j] * x[k]
    return total


def test_cubic_form_examples():
    p = CubicParams(2, 3, 1, 5, 7)
    assert cubic_form(p, (6, 0, 0, 0)) == 5 * 36  # only the square term survives
    ones = CubicParams(1, 0, 0, 0, 0)
    assert cubic_form(ones, (1,) * 7) == comb(7, 2)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=7), st.integers(0, 3**5 - 1))
@settings(max_examples=80, deadline=None)
def test_cubic_form_matches_direct(x, pidx):
    signs = [(pidx // 3**i) % 3 - 1 for i in range(5)]
    p = CubicParams(*signs)
    assert cubic_form(p, x) == cubic_direct(p, x)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_zero_removal(x):
    p = CubicParams(1, -1, 2, 1, 3)
    stripped = [v for v in x if v]
    assert cubic_form(p, x) == cubic_form(p, stripped or [0])
    g = GeneralParams(1, 2, -1, 0, 5)
    m = sum(x)
    assert general_form(g, m, x) == general_form(g, m, stripped or [0])


def test_degeneracy_flags():
    assert CubicParams(1, 1, 3, 0, 0).symmetric_degenerate
    assert CubicParams(1, -1, 0, 2, 2).antisymmetric_degenerate
    assert CubicParams(1, 0, 0, 0, 0).admissible
    assert GeneralParams(0, 1, 0, 0, 0).admissible
    assert not GeneralParams(1, 0, 0, 0, 0).admissible
    assert GeneralParams(1, 0, 2, 0, 0).admissible


def test_transform_degeneracy_correspondence():
    for signs in product((-1, 0, 1), repeat=5):
        p = CubicParams(*signs)
        g = transform_params(p, 9)
        assert (g.B == 0 and g.C == 0) == p.symmetric_degenerate
        assert (g.B == 0 and g.A == 0) == p.antisymmetric_degenerate


def test_general_form_symmetric_vanishing():
    # the antisymmetric term dies on palindromic vectors
    g0 = GeneralParams(0, 0, 1, 0, 0)
    for x in ((1, 2, 3, 2, 1), (4, 4), (2, 5, 2)):
        assert general_form(g0, sum(x), x) == 0
    assert general_form(GeneralParams(1, 1, 0, 1, 1), 4, (4,)) == (4 + 1) * 16 + 64 + 1


# --- distinct-value counts ----------------------------------------------------------


def brute_count(p, m):
    return len({cubic_form(p, x) for x in weak_compositions(m, m)})


def test_count_trivial_params():
    assert count_cubic_values(CubicParams(0, 0, 0, 0, 0), 6).count == 1


def test_count_square_sum_param_matches_partition_dp():
    # with only the square term, the value is determined by sum x_i^2
    p = CubicParams(0, 0, 0, 1, 0)
    for m in range(1, 11):
        want = len({sum(v * v for v in part) for part in partitions(m)})
        assert count_cubic_values(p, m).count == want


def test_count_matches_brute_force_small():
    p = CubicParams(1, 0, 0, 0, 0)
    for m in range(1, 9):
        assert count_cubic_values(p, m).count == brute_count(p, m)


def test_count_report_witnesses():
    rep = count_cubic_values(CubicParams(1, 2, 0, -1, 0), 7)
    assert cubic_form(CubicParams(1, 2, 0, -1, 0), rep.min_witness) == rep.min_value
    assert cubic_form(CubicParams(1, 2, 0, -1, 0), rep.max_witness) == rep.max_value
    assert rep.to_csv_row().startswith("7,")


def test_count_cap():
    with pytest.raises(ValueError):
        count_cubic_values(CubicParams(1, 0, 0, 0, 0), 61)


def test_degenerate_count_quadratic():
    p = CubicParams(1, 1, 3, 0, 0)
    for m in (6, 10, 14):
        assert count_cubic_values(p, m).count <= m * m


def test_count_general_values_degenerate_remark():
    g = GeneralParams(2, 0, 0, 1, 5)  # B = C = 0
    for m in (5, 8, 12):
        assert count_general_values(g, m).count <= m * m


# --- the pair form ---------------------------------------------------------------------


def test_pair_form_examples():
    assert pair_form([5, 0, 0], [0, 0, 0]) == 0  # mass on one side only
    assert pair_form([1, 1], [1, 1]) == 2 * 1 + 2 * 1


def test_pair_form_count_full_brute_small():
    for m in range(1, 7):
        values = set()
        for split in weak_compositions(m, 2):
            a_mass, b_mass = split
            for avec in weak_compositions(a_mass, m):
                for bvec in weak_compositions(b_mass, m):
                    values.add(pair_form(avec, bvec))
        assert count_pair_form_values(m).count == len(values)


def test_pair_form_count_partition_oracle():
    for m in range(1, 11):
        values = set()
        for a_mass in range(m + 1):
            for pa in partitions(a_mass):
                for pb in partitions(m - a_mass):
                    values.add(pair_form(list(pa) or [0], list(pb) or [0]))
        assert count_pair_form_values(m).count == len(values)


# --- blow-up counts, two ways ------------------------------------------------------------


def test_blowup_one_part_selected():
    closed, direct = blowup_edge_count(1, 1, 1, [5, 4, 3], [4, 0, 0])
    assert closed == direct == 0


def test_blowup_all_configs():
    rng = SeededRNG(14)
    for a, b, c in product((0, 1), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        for _ in range(12):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(3, 6))]
            x = [rng.randint(0, s) for s in sizes]
            closed, direct = blowup_edge_count(a, b, c, sizes, x)
            assert closed == direct


def test_blowup_rejects_oversized_selection():
    with pytest.raises(ValueError):
        blowup_edge_count(1, 0, 0, [2, 2], [3, 0])


def test_blowup_mixed():
    rng = SeededRNG(15)
    for _ in range(40):
        t = rng.randint(2, 4)
        part = rng.randint(1, 4)
        x = [rng.randint(0, part) for _ in range(t)]
        b1, b2 = rng.coin(), rng.coin()
        cs = tuple(rng.coin() for _ in range(6))
        eps = rng.coin()
        closed, direct = blowup_edge_count_mixed(b1, b2, cs, part, x, eps)
        assert closed == direct
