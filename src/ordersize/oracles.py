"""Oracle checks of the constructive claims, called by both the acceptance
criteria and the CLI (``verify``, ``values identity``, ``buildh --check``).
Each re-checks one claim by direct counting and returns what it finds wrong;
a negative instance count is rejected, not read as zero, and so are zero
samples or seeds for the appendix scan, which would pass having checked
nothing."""

from __future__ import annotations

from itertools import combinations, product

from . import constructions, hbuilder, spectrum, values
from .core import Hypergraph
from .errors import at_least
from .rng import SeededRNG

# transform_mismatches evaluates 243 * 2^(m-1) compositions for each m, so
# each step of max_m doubles its run
MAX_IDENTITY_M = 12


def positive_compositions(m: int):
    """All ordered tuples of positive integers summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in positive_compositions(m - first):
            yield (first,) + rest


def lift_mismatches(trials: int, seed: int) -> list[dict]:
    """``verify_lift`` on random factoring r-graphs (n = 12, r = 3, 4, 3, ...)."""
    at_least(0, trials=trials)
    rng = SeededRNG(seed)
    bad, n = [], 12
    for i in range(trials):
        r = 3 if i % 2 == 0 else 4
        chig = constructions.random_ordered_graph(n, 50, rng.subseed("chi", i))
        h = Hypergraph(r, n, [t for t in combinations(range(n), r) if chig.has_edge(t[0], t[1])])
        top = n - (r - 2)
        u = sorted(rng.sample(top, rng.randint(2, top)))
        # max(u) < top, so at least r - 2 vertices follow it
        tail = sorted(rng.sample(list(range(u[-1] + 1, n)), r - 2))
        if not spectrum.verify_lift(h, list(range(n)), u, tail):
            bad.append({"r": r, "u": u, "tail": tail})
    return bad


def transform_mismatches(max_m: int) -> list[dict]:
    """``transform_params`` against the direct cubic form, for every sign
    pattern in {-1, 0, 1}^5 and positive composition of m = 1..max_m."""
    at_least(0, max_m=max_m)
    if max_m > MAX_IDENTITY_M:
        raise ValueError(f"max_m={max_m} above the identity cap {MAX_IDENTITY_M}")
    bad = []
    for m in range(1, max_m + 1):
        comps = list(positive_compositions(m))
        for signs in product((-1, 0, 1), repeat=5):
            p = values.CubicParams(*signs)
            g = values.transform_params(p, m)
            bad += [{"m": m, "params": signs, "x": list(x)} for x in comps
                    if values.cubic_form(p, x) != values.general_form(g, m, x)]
    return bad


def blowup_mismatches(trials: int, seed: int) -> list[dict]:
    """Closed-form blow-up edge counts against direct counts: ``trials``
    type blow-ups cycling through the seven (a, b, c), then ``trials``
    mixed pair blow-ups."""
    at_least(0, trials=trials)
    rng = SeededRNG(seed)
    configs = [abc for abc in product((0, 1), repeat=3) if abc != (0, 0, 0)]
    bad = []
    for i in range(trials):
        abc = configs[i % len(configs)]
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(3, 8))]
        x = [rng.randint(0, s) for s in sizes]
        closed, direct = values.blowup_edge_count(*abc, sizes, x)
        if closed != direct:
            bad.append({"config": abc, "sizes": sizes, "x": x})
    for _ in range(trials):
        t, part = rng.randint(2, 4), rng.randint(1, 4)
        x = [rng.randint(0, part) for _ in range(t)]
        b1, b2 = rng.coin(), rng.coin()
        cs = tuple(rng.coin() for _ in range(6))
        eps = rng.coin()
        closed, direct = values.blowup_edge_count_mixed(b1, b2, cs, part, x, eps)
        if closed != direct:
            bad.append({"b": (b1, b2), "cs": cs, "part": part, "x": x, "eps": eps})
    return bad


def appendix_runs(r: int, n: int, samples: int, seeds: int, base_seed: int) -> list:
    """Sampled ``scan_counterexample`` reports on implicit G_r(n) seeded
    base_seed, base_seed + 1, ...; the mismatches are their ``violations``."""
    at_least(1, samples=samples, seeds=seeds)
    return [constructions.scan_counterexample(
        constructions.build_gr(n, r, base_seed + i, materialize_cap=0), samples=samples, seed=base_seed + i)
        for i in range(seeds)]


def h_construction_checks(hc: hbuilder.HConstruction) -> dict:
    """The weight recounted from the edges, the backward degrees, the
    expanded certificate, and claim (d). The graph passes when the three
    flags hold and every claim holds or the report is advisory."""
    rep = hbuilder.verify_claim_d(hc.d)
    _weight, checks = hbuilder.recount_construction(hc)
    return {**checks, "claims": rep.items, "advisory": rep.advisory}
