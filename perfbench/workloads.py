"""The four job lists, generated from the workload seed.

Every input is made in set-up by ordersize's own seeded generators
(``random_hypergraph``, ``cyclic_triangle_3graph``, ``build_gr``,
``random_ordered_graph``, the planted blow-up families, ``keyed_coloring``);
a job then makes one call into the public API, or one in-process CLI run, and
its outcome is classified and digested by :mod:`outcome`. The benchmark's own
``check`` functions re-verify witnesses by direct counting where that is
cheap, independently of the program's internal postconditions.

Why each workload exists:

* ``scan-lex``: exhaustive subset scans in consecutive lexicographic order;
  nearly all time is per-subset induced counting.
* ``scan-sampled``: the same counting layer driven by seeded random subsets,
  so consecutive subsets share no prefix and sampling does real work.
* ``search``: homogeneous sets, stars, pair chains, weighted (m,f)-search and
  stepping-down; time sits in graph construction, complements, link graphs
  and clique enumeration, almost none in subset scans.
* ``values``: exact value counters and the H builder; pure integer work with
  no hypergraph scan.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable

from outcome import ABSENT, BUDGET_EXHAUSTED, FOUND, PRECONDITION_UNMET, Outcome

WORKLOADS = ("scan-lex", "scan-sampled", "search", "values")

# Input sizes per scale. "full" is what the benchmark measures: about a
# hundred jobs per workload, so that the per-job latency percentiles have at
# least ten jobs beyond p90, and jobs of a few milliseconds, so that a run
# repeats each job often enough for its fastest run to be steady. "tiny" keeps the
# self-tests fast while running every job kind.
SIZES = {
    "full": {
        "lex_spectra": ((3, 11, 5, 30), (3, 12, 6, 12), (4, 10, 6, 8)),  # r, n, m, graphs
        "lex_mf": (11, 6, 8),            # n, m, cyclic-triangle graphs
        "lex_gr": ((10, 4, 8, 12), (9, 3, 7, 4)),  # n, r, m, instances
        "lex_budget": (2, 150),          # jobs, subsets
        "lex_cli": (11, 5, 4),           # n, m, runs
        "smp_spectra": ((3, 20, 7, 100, 36), (4, 18, 7, 80, 8)),  # r, n, m, samples, graphs
        "smp_counterexample": (40, 5, 60, 32),  # n, r, samples, instances
        "smp_gr": (30, 4, 8, 80, 16),    # n, r, m, samples, instances
        "smp_cli": (40, 5, 60, 4),       # appendix: n, r, samples, runs
        "smp_cli_spectrum": (20, 7, 100, 4),
        "srch_type": 18,
        "srch_pair": 1,
        "srch_cli": 1,
        "srch_budget": 2,
        "srch_weighted": (32, 2),        # n, graphs (one job per m = 3, 4, 5)
        "srch_r4": (12, 6, 4),           # n, m, graphs
        "srch_homog": ((22, 44),),       # n, graphs
        "srch_stars": ((14, 3, 10),),    # n, s, graphs
        "srch_step": (512, 4, 2),        # n, ell, colorings (each at k = 1 and 2)
        "srch_spencer": (40, 20, 5, 3),  # n, density %, trials, graphs
        "val_cubic": (6, 13, 8),         # m from, m to, parameter sets
        "val_pair": (6, 32),
        "val_h": (2, 6),                 # sweeps per (r, m), f values per sweep
        "val_cli_m": "8..12",
    },
    "tiny": {
        "lex_spectra": ((3, 9, 5, 1), (4, 8, 5, 1)),
        "lex_mf": (9, 5, 1),
        "lex_gr": ((9, 4, 6, 1),),
        "lex_budget": (1, 20),
        "lex_cli": (8, 5, 1),
        "smp_spectra": ((3, 10, 5, 50, 1),),
        "smp_counterexample": (14, 5, 30, 1),
        "smp_gr": (12, 4, 8, 30, 1),
        "smp_cli": (14, 5, 30, 1),
        "smp_cli_spectrum": (10, 5, 40, 1),
        "srch_type": 1,
        "srch_pair": 1,
        "srch_cli": 1,
        "srch_budget": 1,
        "srch_weighted": (16, 1),
        "srch_r4": (9, 6, 1),
        "srch_homog": ((12, 1),),
        "srch_stars": ((9, 3, 1),),
        "srch_step": (64, 3, 1),
        "srch_spencer": (12, 20, 2, 1),
        "val_cubic": (8, 9, 1),
        "val_pair": (8, 9),
        "val_h": (1, 1),
        "val_cli_m": "8..9",
    },
}


@dataclass
class Job:
    """One call into ordersize.

    ``run`` is the timed call; ``outcome`` classifies its return value (an
    exception is classified by :func:`outcome.from_exception`); ``check``
    re-verifies the result and runs outside the timed region.
    """

    id: str
    expect: str
    run: Callable[[], object]
    outcome: Callable[[object], Outcome]
    check: Callable[[object], bool] = lambda _result: True


@dataclass
class Inputs:
    """Set-up output: the job list plus what the traced run needs."""

    jobs: list[Job]
    parallel_graph: object
    parallel_m: int
    color_hooks: list = field(default_factory=list)


class ColorCounter:
    """Counts the queries step_to_pairs makes to a coloring callable."""

    def __init__(self, fn):
        self.fn = fn
        self.queries = 0
        self.counting = False

    def __call__(self, t):
        if self.counting:
            self.queries += 1
        return self.fn(t)


# --- helpers shared by the job lists ---------------------------------------------


def _edges_inside(h, subset) -> int:
    s = set(subset)
    return sum(1 for e in h.edges if s.issuperset(e))


def _found(payload) -> Outcome:
    return Outcome(FOUND, payload)


def _spectrum_check(h, m, exhaustive: bool):
    def check(rep) -> bool:
        if exhaustive and rep.subsets_examined != comb(h.n, m):
            return False
        if sorted(rep.witnesses) != rep.achieved:
            return False
        return all(
            len(w) == m and list(w) == sorted(set(w)) and _edges_inside(h, w) == f
            for f, w in rep.witnesses.items()
        )
    return check


def _homog_payload(w) -> dict:
    return {"kind": w.kind, "set": list(w.set), "exact": w.exact}


def _cli_job(jid: str, argv: list[str], workdir: str) -> Job:
    """In-process ``ordersize`` CLI run with ``--out`` into a fresh directory.

    The outcome is the exit code plus the manifest's report digests (the
    manifest's own wall time is left out).
    """
    from ordersize import cli

    base = os.path.join(workdir, "cli")
    counter = [0]

    def run():
        counter[0] += 1
        out = os.path.join(base, f"{jid}-{counter[0]}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--out", out] + argv)
        return code, out

    def outcome(result) -> Outcome:
        code, out = result
        try:
            with open(os.path.join(out, "manifest.json")) as f:
                outputs = json.load(f)["outputs"]
        except FileNotFoundError:
            outputs = None
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(FOUND if code == 0 else f"exit-{code}", {"exit": code, "outputs": outputs})

    return Job(jid, FOUND, run, outcome)


def _warm(g) -> None:
    """Fill the lazy per-graph caches through the public API."""
    from ordersize import Hypergraph

    if isinstance(g, Hypergraph):
        g.edge_count_mask((1 << g.n) - 1)
    else:
        g.forward_non_neighbors(0)


# --- scan-lex ----------------------------------------------------------------------


def _scan_lex(rng, z, workdir) -> Inputs:
    import ordersize as api
    from ordersize import build_gr, cyclic_triangle_3graph, random_hypergraph, save_hypergraph
    from ordersize.constructions import cyclic_triangle_cap

    jobs: list[Job] = []
    for r, n, m, count in z["lex_spectra"]:
        for i in range(count):
            h = random_hypergraph(r, n, 50, rng.subseed("lex-spectrum", r, n, i))
            _warm(h)
            jobs.append(Job(f"spectrum.r{r}n{n}.{i}", FOUND,
                            lambda h=h, m=m: api.size_spectrum(h, m),
                            lambda rep: _found(rep.to_json_obj()), _spectrum_check(h, m, True)))

    def mf_outcome(w) -> Outcome:
        return Outcome(ABSENT if w is None else FOUND, {"witness": w and list(w)})

    n, m, count = z["lex_mf"]
    cap = cyclic_triangle_cap(m)
    budget_jobs, budget = z["lex_budget"]
    for i in range(count):
        ct = cyclic_triangle_3graph(n, rng.subseed("lex-ct", i))
        _warm(ct)
        # proven absent: no m tournament vertices carry more than cap cyclic triangles
        for f in (cap + 1, cap + 2):
            jobs.append(Job(f"mf.absent.{i}.f{f}", ABSENT,
                            lambda ct=ct, m=m, f=f: api.find_mf_subset(ct, m, f), mf_outcome))
        # present: the target is the count of a seeded subset, so a witness exists
        for j in range(2):
            f = _edges_inside(ct, rng.spawn("lex-present", i, j).sorted_sample(n, m))
            jobs.append(Job(f"mf.present.{i}.{j}", FOUND,
                            lambda ct=ct, m=m, f=f: api.find_mf_subset(ct, m, f), mf_outcome,
                            lambda w, ct=ct, m=m, f=f: w is not None and len(w) == m
                            and _edges_inside(ct, w) == f))
        if i < budget_jobs:
            jobs.append(Job(f"mf.budget.{i}", BUDGET_EXHAUSTED,
                            lambda ct=ct, m=m, f=cap + 1, budget=budget:
                                api.find_mf_subset(ct, m, f, budget=budget),
                            mf_outcome))

    for n, r, m, count in z["lex_gr"]:
        for i in range(count):
            inst = build_gr(n, r, rng.subseed("lex-gr", r, i))
            jobs.append(Job(
                f"fact_gr.r{r}.{i}", FOUND,
                lambda inst=inst, m=m: api.check_fact_gr(inst, m, mode="exhaustive"),
                lambda rep: _found(rep.to_json_obj()),
                lambda rep, m=m, n=n: rep.ok and sum(rep.histogram.values()) == comb(n, m),
            ))

    n, m, count = z["lex_cli"]
    for i in range(count):
        path = os.path.join(workdir, f"lex{i}.hg")
        save_hypergraph(random_hypergraph(3, n, 50, rng.subseed("lex-cli", i)), path)
        jobs.append(_cli_job(f"cli.spectrum.{i}", ["spectrum", "--in", path, "--m", str(m)],
                             workdir))
    return Inputs(jobs, *_parallel_probe(rng))


# --- scan-sampled ---------------------------------------------------------------


def _scan_sampled(rng, z, workdir) -> Inputs:
    import ordersize as api
    from ordersize import build_gr, random_hypergraph, save_hypergraph

    jobs: list[Job] = []
    for r, n, m, samples, count in z["smp_spectra"]:
        for i in range(count):
            h = random_hypergraph(r, n, 50, rng.subseed("smp-spectrum", r, i))
            _warm(h)
            seed = rng.subseed("smp-spectrum-draws", r, i)
            jobs.append(Job(
                f"spectrum.sampled.r{r}.{i}", FOUND,
                lambda h=h, m=m, samples=samples, seed=seed:
                    api.size_spectrum(h, m, mode="sampled", samples=samples, seed=seed),
                lambda rep: _found(rep.to_json_obj()),
                _spectrum_check(h, m, False),
            ))

    n, r, samples, count = z["smp_counterexample"]
    for i in range(count):
        inst = build_gr(n, r, rng.subseed("smp-counterexample", i), materialize_cap=0)
        seed = rng.subseed("smp-counterexample-draws", i)
        jobs.append(Job(
            f"counterexample.r{r}.{i}", FOUND,
            lambda inst=inst, samples=samples, seed=seed:
                api.scan_counterexample(inst, samples=samples, seed=seed),
            lambda rep: _found(rep.to_json_obj()),
            # r >= 5: no 2r vertices span 2^r - 1 edges, nothing exceeds g_r(2r)
            lambda rep: not rep.violations and sum(rep.histogram.values()) == rep.samples,
        ))
    n, r, m, samples, count = z["smp_gr"]
    for i in range(count):
        inst = build_gr(n, r, rng.subseed("smp-gr", i), materialize_cap=0)
        seed = rng.subseed("smp-gr-draws", i)
        jobs.append(Job(
            f"fact_gr.sampled.r{r}.{i}", FOUND,
            lambda inst=inst, m=m, samples=samples, seed=seed:
                api.check_fact_gr(inst, m, mode="sampled", samples=samples, seed=seed),
            lambda rep: _found(rep.to_json_obj()),
            lambda rep: rep.ok and sum(rep.histogram.values()) == rep.samples,
        ))

    n, r, samples, count = z["smp_cli"]
    for i in range(count):
        jobs.append(_cli_job(f"cli.verify.appendix.{i}", [
            "--seed", str(rng.subseed("smp-cli", i) % 10**6), "verify", "appendix",
            "--r", str(r), "--n", str(n), "--samples", str(samples), "--seeds", "1"], workdir))
    n, m, samples, count = z["smp_cli_spectrum"]
    for i in range(count):
        path = os.path.join(workdir, f"sampled{i}.hg")
        save_hypergraph(random_hypergraph(3, n, 50, rng.subseed("smp-cli-spectrum", i)), path)
        jobs.append(_cli_job(f"cli.spectrum.sampled.{i}", [
            "--seed", str(rng.subseed("smp-cli-spectrum-draws", i) % 10**6), "spectrum",
            "--in", path, "--m", str(m), "--mode", "sampled", "--samples", str(samples)],
            workdir))
    return Inputs(jobs, *_parallel_probe(rng))


# --- search -----------------------------------------------------------------------

# Planted type-(a) patterns on which main_structure lands on variant (a):
# the star side (a=1, d=0) and its mirror (a=0, d=1).
_TYPE_PATTERNS = [(1, b, c, 0) for b in (0, 1) for c in (0, 1)] + [
    (0, b, c, 1) for b in (0, 1) for c in (0, 1)
]
# All four (b1, b2) plants of the pair family at m = 2 land on variant (b).
# The m = 3 plants are left out: their run time ranges over a factor of three
# with the constants, which would make the workload's figures depend on the
# seed more than on the program.
_PAIR_PLANTS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _structure_payload(out) -> dict:
    return {
        "status": out.status,
        "structure": out.structure.to_json_obj() if out.structure else None,
        "homogeneous": _homog_payload(out.homogeneous) if out.homogeneous else None,
    }


def _structure_check(h):
    def check(out) -> bool:
        if out.status != "structure":
            return False
        st = out.structure
        return st.family.verify(h.complement() if st.complemented else h)
    return check


def _weighted_payload(out):
    from ordersize import WeightedWitness

    if isinstance(out, WeightedWitness):
        return ["W", list(out.vertices), out.f]
    return ["H", out.kind, list(out.set), out.exact]


def _weighted_ok(g, out, h) -> bool:
    from ordersize import HomogeneousWitness, WeightedWitness

    if isinstance(out, WeightedWitness):
        return out.verify(g)
    gg = g if out.kind == "clique" else g.complement()
    return isinstance(out, HomogeneousWitness) and out.size() >= h and gg.is_clique(out.set)


def _search(rng, z, workdir) -> Inputs:
    import ordersize as api
    from ordersize import keyed_coloring, random_hypergraph, random_ordered_graph, save_hypergraph
    from ordersize.blowups import build_pair_family, build_type_family

    jobs: list[Job] = []

    def structure_job(jid, h, m, budget=None, expect=FOUND):
        _warm(h)
        jobs.append(Job(jid, expect, lambda: api.main_structure(h, m, budget=budget),
                        lambda out: _found(_structure_payload(out)), _structure_check(h)))

    # every pattern at both m before any repeats, so the mix does not hinge on the seed
    first = rng.randrange(len(_TYPE_PATTERNS))
    for i in range(z["srch_type"]):
        a, b, c, d = _TYPE_PATTERNS[(first + i // 2) % len(_TYPE_PATTERNS)]
        m = 2 + i % 2
        h, _parts = build_type_family([3] * (m + 1), a, b, c, d)
        structure_job(f"structure.type.{i}", h, m)
    for i, (b1, b2) in enumerate(_PAIR_PLANTS[: z["srch_pair"]]):
        h, _a, _b = build_pair_family(3, 3, 1, 1, b1, b2, (0,) * 6)
        structure_job(f"structure.pair.{i}", h, 2)
    for i in range(z["srch_budget"]):
        h, _a, _b = build_pair_family(3, 3, 1, 1, rng.coin(), rng.coin(), (0,) * 6)
        structure_job(f"structure.budget.{i}", h, 2, budget=5, expect=BUDGET_EXHAUSTED)
    for i in range(z["srch_cli"]):
        a, b, c, d = _TYPE_PATTERNS[rng.randrange(len(_TYPE_PATTERNS))]
        path = os.path.join(workdir, f"planted{i}.hg")
        save_hypergraph(build_type_family([3] * 3, a, b, c, d)[0], path)
        jobs.append(_cli_job(f"cli.structure.{i}", ["structure", "--in", path, "--m", "2"],
                             workdir))

    n, count = z["srch_weighted"]
    for i in range(count):
        g = random_ordered_graph(n, 50, rng.subseed("srch-weighted", i))
        _warm(g)
        for m in (3, 4, 5):
            # n >= h^(m-2) on the whole grid, so every call is guaranteed to land
            grid = [(f, h) for f in range(comb(m, 3) + 1) for h in (2, 3, 4) if h ** (m - 2) <= n]
            jobs.append(Job(
                f"weighted.r3.{i}.m{m}", FOUND,
                lambda g=g, m=m, grid=grid:
                    [api.find_weighted_mf_subset(g, 3, m, f, h) for f, h in grid],
                lambda outs: _found([_weighted_payload(o) for o in outs]),
                lambda outs, g=g, grid=grid: all(
                    _weighted_ok(g, o, h) for o, (_f, h) in zip(outs, grid)),
            ))
    n, m, count = z["srch_r4"]
    fs = range(0, comb(m, 4) + 1, 3)
    for i in range(count):
        g = random_ordered_graph(n, 50, rng.subseed("srch-r4", i))
        _warm(g)
        jobs.append(Job(
            f"weighted.r4.{i}", FOUND,
            lambda g=g, m=m, fs=fs:
                [api.find_weighted_mf_subset(g, 4, m, f, 2, budget=2000) for f in fs],
            lambda outs: _found([_weighted_payload(o) for o in outs]),
            lambda outs, g=g: all(_weighted_ok(g, o, 2) for o in outs),
        ))
    for i in range(2):
        # six vertices, target h = 7 and no forward non-neighborhood of 7^3:
        # the guarantee's precondition cannot hold
        small = random_ordered_graph(6, 50, rng.subseed("srch-precondition", i))
        jobs.append(Job(f"weighted.precondition.{i}", PRECONDITION_UNMET,
                        lambda small=small: api.find_weighted_mf_subset(small, 3, 6, 3, 7),
                        lambda out: _found(_weighted_payload(out))))

    for n, count in z["srch_homog"]:
        for i in range(count):
            h = random_hypergraph(3, n, 50, rng.subseed("srch-homog", n, i))
            _warm(h)
            jobs.append(Job(
                f"homogeneous.n{n}.{i}", FOUND, lambda h=h: api.max_homogeneous(h),
                lambda w: _found(_homog_payload(w)),
                lambda w, h=h: w.exact and all(
                    (t in h.edges) == (w.kind == "clique") for t in combinations(w.set, 3)),
            ))

    for n, s, count in z["srch_stars"]:
        for i in range(count):
            h = random_hypergraph(3, n, 50, rng.subseed("srch-stars", n, i))
            _warm(h)
            jobs.append(Job(
                f"stars.n{n}.{i}", FOUND,
                lambda h=h, s=s, anti=bool(i % 2): api.find_stars(h, s, want_anti=anti),
                lambda res: _found({"complete": res.complete,
                                    "stars": [[st.center, list(st.leaves)] for st in res.stars]}),
                lambda res, h=h: res.complete and all(st.verify(h) for st in res.stars),
            ))

    n, density_pct, trials, count = z["srch_spencer"]
    for i in range(count):
        h = random_hypergraph(3, n, density_pct, rng.subseed("srch-spencer", i))
        _warm(h)
        seed = rng.subseed("srch-spencer-draws", i)
        jobs.append(Job(
            f"spencer.{i}", FOUND, lambda h=h, trials=trials, seed=seed:
                api.spencer_independent(h, trials, seed),
            lambda res: _found({"set": list(res.set), "target": res.target,
                                "met": res.met_target}),
            lambda res, h=h: not any(set(e) <= set(res.set) for e in h.edges),
        ))

    color_hooks = []
    n, ell, count = z["srch_step"]
    for i in range(count):
        col = ColorCounter(keyed_coloring(rng.subseed("srch-step", i)))
        color_hooks.append(col)
        for k in (1, 2):
            jobs.append(Job(
                f"stepdown.r4.{i}.k{k}", FOUND,
                lambda col=col, k=k, ell=ell, n=n: api.step_to_pairs(col, k=k, ell=ell, n=n, r=4),
                lambda res: _found({"x": list(res.x), "k": res.k, "arity": res.arity,
                                    "chi": sorted([list(t), c] for t, c in res.chi.items())}),
                lambda res, col=col, k=k, ell=ell: len(res.x) >= ell and all(
                    col.fn(t) == res.chi[(t[k - 1], t[k])] for t in combinations(res.x, 4)),
            ))
    return Inputs(jobs, *_parallel_probe(rng), color_hooks=color_hooks)


# --- values ---------------------------------------------------------------------


def _values(rng, z, workdir) -> Inputs:
    from fractions import Fraction

    import ordersize as api
    from ordersize import cubic_form
    from ordersize.values import CubicParams

    jobs: list[Job] = []

    def admissible_params(tag):
        draw = rng.spawn("val-params", tag)
        while True:
            p = CubicParams(*[draw.randint(-2, 2) for _ in range(5)])
            if p.admissible:
                return p

    lo, hi, sets = z["val_cubic"]
    for pi in range(sets):
        p = admissible_params(pi)
        for m in range(lo, hi + 1):
            jobs.append(Job(
                f"cubic.p{pi}.m{m}", FOUND, lambda p=p, m=m: api.count_cubic_values(p, m),
                lambda rep: _found(rep.to_json_obj()),
                lambda rep, p=p, m=m: (
                    sum(rep.min_witness) == m == sum(rep.max_witness)
                    and cubic_form(p, rep.min_witness) == rep.min_value
                    and cubic_form(p, rep.max_witness) == rep.max_value
                    and (rep.count == 1) == (rep.min_value == rep.max_value)),
            ))
    lo, hi = z["val_pair"]
    for m in range(lo, hi + 1):
        jobs.append(Job(
            f"pairform.m{m}", FOUND, lambda m=m: api.count_pair_form_values(m),
            lambda rep: _found(rep.to_json_obj()),
            lambda rep: rep.count >= 1 and rep.min_value <= rep.max_value,
        ))

    def sweep(r, m, fs):
        out = []
        for f in fs:
            hc = api.build_H(r, m, f)
            out.append((hc, api.expand_certificate(hc.cert), api.verify_claim_d(hc.d)))
        return out

    def sweep_payload(rows):
        return _found([[hc.to_json_obj(), sorted(rep.items.items()), rep.advisory]
                       for hc, _g, rep in rows])

    def sweep_check(rows):
        return all(g.edges == hc.graph.edges and rep.items["c"] for hc, g, rep in rows)

    sweeps, per_sweep = z["val_h"]
    for r, m in ((4, 80), (5, 125)):
        draw = rng.spawn("val-h", r)
        half = comb(m, r) // 2
        for i in range(sweeps):
            fs = [draw.randrange(half + 1) for _ in range(per_sweep)]
            jobs.append(Job(f"buildh.r{r}.{i}", FOUND, lambda r=r, m=m, fs=fs: sweep(r, m, fs),
                            sweep_payload, sweep_check))

    cli_seed = str(rng.subseed("val-cli") % 10**6)
    params = ",".join(str(Fraction(x)) for x in admissible_params("cli").astuple())
    jobs.append(_cli_job("cli.values.cubic", ["values", "cubic", f"--params={params}",
                                              "--m", z["val_cli_m"]], workdir))
    jobs.append(_cli_job("cli.values.gr-table", ["values", "gr-table"], workdir))
    jobs.append(_cli_job("cli.buildh", ["--seed", cli_seed, "buildh", "--r", "4", "--m", "80",
                                        "--sweep", str(per_sweep), "--check"], workdir))
    jobs.append(_cli_job("cli.verify.weights", ["verify", "weights"], workdir))
    # a fixed suite seed: the cost of a blow-up trial grows with the cube of its
    # random size, so a seeded suite would swing the pass time by a factor of four
    jobs.append(_cli_job("cli.verify.blowup", ["--seed", "0", "verify", "blowup",
                                               "--trials", "10"], workdir))
    return Inputs(jobs, *_parallel_probe(rng))


def _parallel_probe(rng):
    """Exhaustive spectrum input timed at threads=1 and threads=2 (traced run only)."""
    from ordersize import random_hypergraph

    h = random_hypergraph(3, 16, 50, rng.subseed("parallel-probe"))
    _warm(h)
    return h, 6


def build(workload: str, seed: int, scale: str, workdir: str) -> Inputs:
    """Generate the workload's inputs and job list from the seed."""
    from ordersize import SeededRNG

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = SeededRNG(seed).spawn("perfbench", workload)
    z = SIZES[scale]
    os.makedirs(workdir, exist_ok=True)
    if workload == "scan-lex":
        return _scan_lex(rng, z, workdir)
    if workload == "scan-sampled":
        return _scan_sampled(rng, z, workdir)
    if workload == "search":
        return _search(rng, z, workdir)
    return _values(rng, z, workdir)
