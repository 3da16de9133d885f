"""The acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every expected value here is exact; the stated time
budgets are asserted as hard ceilings.
"""

import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

from helpers import weak_compositions
from ordersize.blowups import build_pair_family, build_type_family
from ordersize.constructions import cyclic_triangle_3graph, footnote_example_r3, random_ordered_graph
from ordersize.core import Hypergraph
from ordersize.hbuilder import build_H
from ordersize.oracles import (
    appendix_runs,
    blowup_mismatches,
    h_construction_checks,
    lift_mismatches,
    transform_mismatches,
)
from ordersize.rng import SeededRNG, keyed_coloring
from ordersize.search import HomogeneousWitness, max_homogeneous
from ordersize.spectrum import (
    WeightedWitness,
    find_weighted_mf_subset,
    pattern_weight_exists_any_split,
)
from ordersize.stepdown import step_once, step_to_pairs
from ordersize.structure import main_structure
from ordersize.values import CubicParams, count_cubic_values, count_pair_form_values, g_r, pair_form


class Timer:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        over = elapsed >= self.limit
        status = "PASS" if exc_type is None else "FAIL"
        if over:
            status += " OVER BUDGET"
        print(f"criterion {self.number:02d} [{self.name}]: {status} ({elapsed:.2f}s / {self.limit}s)")
        message = f"criterion {self.number} over its time budget"
        if exc_type is None:
            assert not over, message
        elif over and hasattr(exc, "add_note"):
            # keep the body's own failure as the one reported
            exc.add_note(f"{message} ({elapsed:.2f}s / {self.limit}s)")
        return False


def test_criterion_01_gr_table():
    with Timer(1, "g_r table", 5):
        for r in range(3, 7):
            for m in range(0, r):
                assert g_r(r, m) == 0
            assert g_r(r, r) == 1
            assert g_r(r, 2 * r) == 2**r
        # brute-force oracle for the two small ternary values
        def oracle(m):
            best = 0
            for parts in weak_compositions(m - 3, 3):
                ms = [p + 1 for p in parts]
                prod = ms[0] * ms[1] * ms[2]
                best = max(best, prod + sum(oracle(x) if x >= 3 else 0 for x in ms))
            return best

        assert g_r(3, 3) == oracle(3) == 1
        assert g_r(3, 4) == oracle(4) == 2


def test_criterion_02_h_construction_suite():
    with Timer(2, "H construction", 60):
        for r, m in ((4, 80), (5, 125)):
            half = comb(m, r) // 2
            rng = SeededRNG(1000 + r)
            targets = [0, 1, half] + [rng.randrange(half + 1) for _ in range(500)]
            for f in targets:
                hc = build_H(r, m, f)
                assert not hc.complemented
                assert hc.realized_weight == f
                checks = h_construction_checks(hc)
                assert checks["weight_ok"], (r, m, f)  # (i) exact weight sum
                assert checks["degrees_ok"], (r, m, f)  # (ii) degrees
                assert checks["cert_ok"], (r, m, f)  # (iii) certificate
                # (iv) structural claims
                assert all(checks["claims"].values()) and not checks["advisory"], (r, m, f, checks)


def test_criterion_03_lift_identity():
    with Timer(3, "lift identity", 10):
        bad = lift_mismatches(1000, seed=3)
        assert not bad, bad[:3]


def test_criterion_04_weighted_subset_search():
    with Timer(4, "weighted search", 30):
        rng = SeededRNG(4)
        for trial in range(200):
            g = random_ordered_graph(64, 50, rng.subseed(trial))
            for m in (3, 4, 5):
                for f in range(comb(m, 3) // 2 + 1):
                    for h in (2, 3, 4):
                        assert 64 >= h ** (m - 2)
                        out = find_weighted_mf_subset(g, 3, m, f, h)
                        if isinstance(out, WeightedWitness):
                            assert out.verify(g), (trial, m, f, h)
                        else:
                            assert isinstance(out, HomogeneousWitness)
                            assert out.size() >= h
                            gg = g if out.kind == "clique" else g.complement()
                            assert gg.is_clique(out.set)


def test_criterion_05_stepping_down():
    with Timer(5, "stepping down", 10):
        for seed in range(100):
            rng = SeededRNG(5000 + seed)
            h = Hypergraph(3, 8, [e for e in combinations(range(8), 3) if rng.coin()])
            res = step_once(h, 4)  # success guaranteed at n = 2^C(3,2)
            assert len(res.x) == 4
            for tup in combinations(res.x, 3):
                assert (1 if tup in h.edges else 0) == res.chi[tup[:2]]
        for seed in (0, 1):
            col = keyed_coloring(seed)
            res = step_to_pairs(col, k=1, ell=4, n=65536, r=4)
            assert len(res.x) >= 4
            for tup in combinations(res.x, 4):
                assert col(tup) == res.chi[(tup[0], tup[1])]


def test_criterion_06_cubic_value_counts():
    with Timer(6, "cubic counts", 120):
        # (i) positive-composition counts match the weak-composition brute force
        all_params = list(product((-1, 0, 1), repeat=5))
        for m in range(1, 11):
            basis = set()
            for x in weak_compositions(m, m):
                p1 = p2 = e2 = ta = tb = tc = td = 0
                for v in x:
                    ta += v * v * p1
                    tb += v * p2
                    tc += v * e2
                    td += v * v
                    e2 += v * p1
                    p1 += v
                    p2 += v * v
                basis.add((ta, tb, tc, td, e2))
            for signs in all_params:
                a, b, c, d, e = signs
                brute = len({a * ta + b * tb + c * tc + d * td + e * e2
                             for ta, tb, tc, td, e2 in basis})
                fast = count_cubic_values(CubicParams(*signs), m).count
                assert fast == brute, (m, signs)
        # (iii) the degenerate family stays quadratic
        for d, e in ((0, 0), (2, -1)):
            p = CubicParams(1, 1, 3, d, e)
            for m in range(8, 21):
                assert count_cubic_values(p, m).count <= m * m
        # (ii) ratio monotonicity for two admissible parameter sets. This
        # holds for (1,0,0,0,0) but is FALSE on exact data for (1,1,0,0,0):
        # there the value is m*S2 - S3, and x^3 = x (mod 3) forces every
        # value to be divisible by 3 whenever 3 | m, collapsing the value
        # set (counts 18 -> 17 at m = 8 -> 9, brute-force confirmed above).
        # The assertion is kept as stated and fails honestly.
        for signs in ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)):
            p = CubicParams(*signs)
            counts = {m: count_cubic_values(p, m).count for m in range(8, 21)}
            ratios = [Fraction(counts[m], m * m) for m in range(8, 21)]
            assert all(x <= y for x, y in zip(ratios, ratios[1:])), (
                f"count/m^2 not nondecreasing for params {signs}: "
                f"counts {counts}"
            )


def test_criterion_07_pair_form_dp():
    with Timer(7, "pair form", 60):
        def partitions(n, largest=None):
            if n == 0:
                yield ()
                return
            top = n if largest is None else min(n, largest)
            for first in range(top, 0, -1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        for m in range(1, 11):
            values = set()
            for a_mass in range(m + 1):
                for pa in partitions(a_mass):
                    for pb in partitions(m - a_mass):
                        values.add(pair_form(list(pa) or [0], list(pb) or [0]))
            assert count_pair_form_values(m).count == len(values), m
        # Ratio monotonicity over 8..40. FALSE on exact data at one point:
        # counts 2645 -> 2820 across m = 29 -> 30 give ratios 3.1451 ->
        # 3.1333 (independently recomputed with a bounded-part DP). The
        # assertion is kept as stated and fails honestly.
        counts = {m: count_pair_form_values(m).count for m in range(8, 41)}
        ratios = [Fraction(counts[m], m * m) for m in range(8, 41)]
        assert all(x <= y for x, y in zip(ratios, ratios[1:])), (
            f"count/m^2 dips within 8..40: counts {counts}"
        )


def test_criterion_08_transform_identity():
    with Timer(8, "transform identity", 60):
        bad = transform_mismatches(10)
        assert not bad, bad[:3]


def test_criterion_09_blowup_equivalence():
    with Timer(9, "blow-up counts", 60):
        bad = blowup_mismatches(500, seed=9)
        assert not bad, bad[:3]


def test_criterion_10_cyclic_triangle_bound():
    with Timer(10, "cyclic bound", 30):
        for seed in range(20):
            h = cyclic_triangle_3graph(10, seed)
            worst = max(h.edge_count(s) for s in combinations(range(10), 6))
            assert worst <= 8 == 6 * 35 // 24
            assert worst < 10 == comb(6, 3) // 2


def test_criterion_11_appendix():
    with Timer(11, "appendix", 120):
        foot = footnote_example_r3()
        assert len(foot.graph.edges) == 7
        assert g_r(5, 10) == 32
        for rep in appendix_runs(5, 40, samples=100_000, seeds=5, base_seed=1100):
            assert rep.mode == "sampled" and rep.samples == 100_000
            assert rep.histogram.get(31, 0) == 0, rep.violations
            assert rep.max_edges <= 32
            assert rep.ok


def test_criterion_12_ordered_pattern_nonexistence():
    with Timer(12, "weight-33 remark", 5):
        splits = pattern_weight_exists_any_split(10, 12, 33, 5)
        assert set(splits) == {1, 2, 3, 4, 5}
        assert not any(splits.values())
        # sanity: the scan does find realizable weights
        assert pattern_weight_exists_any_split(10, 12, 0, 1)[1]
        assert pattern_weight_exists_any_split(10, 12, comb(12, 10), 1)[1]


def test_criterion_13_structure_round_trips():
    with Timer(13, "structure round trips", 120):
        rng = SeededRNG(13)
        unverified = 0
        instances = 0
        # type-(a) plants: the star side and its mirror, both m = 2 and 3
        a_patterns = [(1, b, c, 0) for b, c in product((0, 1), repeat=2)]
        a_patterns += [(0, b, c, 1) for b, c in product((0, 1), repeat=2)]
        for i in range(26):
            a, b, c, d = a_patterns[i % len(a_patterns)]
            m = 2 + (i % 2)
            h, _ = build_type_family([3] * (m + 1), a, b, c, d)
            out = main_structure(h, m)
            st = out.structure
            assert out.status == "structure" and st.variant == "a", (i, out.trace)
            want = {"a": a, "b": b, "d": d, "c": c if m >= 3 else None}
            assert st.family.constants == want, (i, st.family.constants)
            if not st.family.verify(h if not st.complemented else h.complement()):
                unverified += 1
            instances += 1
        # type-(b) plants: random constants at m = 3, the four b-combos at m = 2
        for i in range(24):
            m = 3 if i < 20 else 2
            b1, b2 = (rng.coin(), rng.coin()) if m == 3 else [(0, 0), (0, 1), (1, 0), (1, 1)][i - 20]
            cs = tuple(rng.coin() for _ in range(6)) if m == 3 else (0,) * 6
            h, ap, bp = build_pair_family(m + 1, 3, 1, 1, b1, b2, cs)
            out = main_structure(h, m)
            st = out.structure
            assert out.status == "structure" and st.variant == "b", (i, b1, b2, cs, out.trace)
            k = st.family.constants
            assert k["a1"] == 1 and k["a2"] == 1
            assert (k["b1"], k["b2"]) == (b1, b2)
            if m >= 3:
                assert tuple(k[f"c{j+1}"] for j in range(6)) == cs
            base = h if not st.complemented else h.complement()
            if not (st.family.verify(base) and st.family.nondistinct_zero(base)):
                unverified += 1
            instances += 1
        assert instances == 50
        assert unverified == 0


def test_criterion_14_search_exactness():
    with Timer(14, "homogeneous exactness", 60):
        rng = SeededRNG(14)
        for trial in range(100):
            edges = [e for e in combinations(range(12), 3) if rng.coin()]
            h = Hypergraph(3, 12, edges)
            w = max_homogeneous(h)
            assert w.exact and w.verify(h)
            k = w.size()
            # exhaustive refutation one size up proves optimality
            if k < 12:
                for s in combinations(range(12), k + 1):
                    cnt = h.edge_count(s)
                    assert 0 < cnt < comb(k + 1, 3)
