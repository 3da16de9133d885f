"""Command-line surface: generation, spectra, stepping-down, the builder,
value counters, structure extraction, and the oracle checks of ``oracles``.

Every randomized command runs under an explicit or defaulted-and-logged seed,
and a run with ``--out`` leaves exactly one ``manifest.json`` next to its
reports; re-running the recorded command reproduces the reports byte for
byte.

Exit codes: 0 success, 1 a verified-property violation was found (witness
saved when ``--out`` is given) or a result failed its re-verification, 2
invalid input, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb

from . import __version__
from .core import load_hypergraph, save_hypergraph, write_hg_text
from .errors import BudgetExhausted, FactorizationError, OrderSizeError, SearchFailed, VerificationError
from .rng import SeededRNG
from . import constructions, hbuilder, oracles, search, spectrum, stepdown, structure, values

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


@dataclass
class RunContext:
    seed: int
    threads: int
    format: str
    out: str | None
    budget: int | None
    exact_limit: int
    argv: list[str]
    reports: dict[str, object] = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)

    def emit(self, name: str, obj) -> None:
        self.reports[name] = obj
        if self.format == "json":
            printable = obj.to_json_obj() if hasattr(obj, "to_json_obj") else obj
            print(json.dumps(printable, indent=2, sort_keys=True))

    def say(self, line: str) -> None:
        if self.format != "json":
            print(line)

    def finalize(self) -> None:
        if not self.out:
            return
        os.makedirs(self.out, exist_ok=True)
        digests = {}
        for name, obj in self.reports.items():
            path = os.path.join(self.out, name)
            if name.endswith(".hg"):
                data = obj if isinstance(obj, str) else write_hg_text(obj)
            else:
                data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
            with open(path, "w") as f:
                f.write(data)
            digests[name] = hashlib.sha256(data.encode()).hexdigest()
        manifest = {
            "argv": self.argv,
            "version": __version__,
            "seed": self.seed,
            "threads": self.threads,
            "budget": self.budget,
            "exact_limit": self.exact_limit,
            "wall_time_s": round(time.monotonic() - self.started, 3),
            "outputs": digests,
        }
        with open(os.path.join(self.out, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        out = list(range(int(lo), int(hi) + 1))
        if not out:
            raise ValueError(f"empty range {text!r}")
        return out
    return [int(text)]


# --- subcommands -------------------------------------------------------------


def cmd_gen(args, ctx: RunContext) -> int:
    if args.kind == "cyclic":
        h = constructions.cyclic_triangle_3graph(args.n, ctx.seed)
    elif args.kind == "gr":
        inst = constructions.build_gr(args.n, args.r, ctx.seed)
        if inst.graph is None:
            ctx.say("instance kept implicit (above the materialization cap)")
            return EXIT_OK
        h = inst.graph
    else:
        h = constructions.random_hypergraph(args.r, args.n, args.density, ctx.seed)
    ctx.say(f"generated r={h.r} n={h.n} with {len(h.edges)} edges (seed {ctx.seed})")
    if args.to:
        save_hypergraph(h, args.to)
    ctx.emit("generated.hg", h)
    return EXIT_OK


def cmd_spectrum(args, ctx: RunContext) -> int:
    h = load_hypergraph(args.input)
    rep = spectrum.size_spectrum(
        h, args.m, mode=args.mode, samples=args.samples, seed=ctx.seed, threads=ctx.threads
    )
    ctx.say(f"s(G;{args.m}) >= {rep.s} over {rep.subsets_examined} subsets ({rep.mode})")
    ctx.say("achieved: " + " ".join(str(f) for f in rep.achieved))
    ctx.emit("spectrum.json", rep.to_json_obj())
    return EXIT_OK


def cmd_homog(args, ctx: RunContext) -> int:
    h = load_hypergraph(args.input)
    w = search.max_homogeneous(h, ctx.exact_limit)
    ctx.say(f"{w.kind} of size {w.size()} (exact={w.exact}): {list(w.set)}")
    ctx.emit("homogeneous.json", {"kind": w.kind, "size": w.size(), "exact": w.exact, "set": list(w.set)})
    return EXIT_OK


def cmd_stepdown(args, ctx: RunContext) -> int:
    h = load_hypergraph(args.input)
    try:
        if args.pairs or args.k != 1:
            res = stepdown.step_to_pairs(h, args.k, args.ell)
        else:
            res = stepdown.step_once(h, args.ell)
    except FactorizationError as e:
        ctx.say(f"stepping down failed: {e} at {list(e.offending)}")
        ctx.emit("stepdown.json", {"error": str(e), "offending": list(e.offending)})
        return EXIT_VIOLATION
    except SearchFailed as e:
        ctx.say(f"stepping down failed: {e}")
        detail = {"achieved": e.detail.get("achieved", [])}
        ctx.emit("stepdown.json", {"error": str(e), **detail})
        return EXIT_INVALID
    ctx.say(f"X = {list(res.x)} (arity {res.arity}, k={res.k})")
    ctx.emit("stepdown.json", res.to_json_obj())
    return EXIT_OK


def cmd_buildh(args, ctx: RunContext) -> int:
    rng = SeededRNG(ctx.seed)
    half = comb(args.m, args.r) // 2
    targets = [args.f] if args.f is not None else []
    for _ in range(args.sweep or 0):
        targets.append(rng.randrange(half + 1))
    if not targets:
        raise ValueError("buildh needs --f or --sweep")
    rows = []
    bad = 0
    for f in targets:
        hc = hbuilder.build_H(args.r, args.m, f)
        row = {"f": f, "edges": len(hc.graph.edges), "complemented": hc.complemented}
        if args.check:
            checks = oracles.h_construction_checks(hc)
            row.update(checks)
            claims_ok = all(checks["claims"].values()) or checks["advisory"]
            if not (checks["weight_ok"] and checks["degrees_ok"] and checks["cert_ok"] and claims_ok):
                bad += 1
        rows.append(row)
    ctx.say(f"built {len(rows)} graphs for r={args.r}, m={args.m}" + (f"; {bad} failed checks" if bad else ""))
    if len(rows) == 1:
        ctx.emit("hconstruction.json", hc.to_json_obj())
    ctx.emit("buildh.json", {"r": args.r, "m": args.m, "rows": rows})
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_values(args, ctx: RunContext) -> int:
    if args.what == "gr-table":
        rows = values.gr_table(_parse_range(args.r))
        ok = all(row["g"] == row["power"] for row in rows)
        for row in rows:
            ctx.say(f"r={row['r']}  g_r({row['m']}) = {row['g']}  (2^r = {row['power']})")
        ctx.emit("gr_table.json", {"rows": rows, "doubling_identity": ok})
        return EXIT_OK if ok else EXIT_VIOLATION
    if args.what == "identity":  # the rewrite agrees with the direct evaluation
        bad = oracles.transform_mismatches(args.max_m)
        ctx.say(f"identity checked through m={args.max_m}: {'ok' if not bad else f'{len(bad)} mismatches'}")
        ctx.emit("identity.json", {"max_m": args.max_m, "mismatches": bad})
        return EXIT_OK if not bad else EXIT_VIOLATION
    if args.what == "cubic":
        try:
            coeffs = [Fraction(t) for t in args.params.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"--params has a zero denominator: {args.params!r}") from None
        if len(coeffs) != 5:
            raise ValueError(f"--params needs five values a,b,c,d,e, got {len(coeffs)}")
        count = partial(values.count_cubic_values, values.CubicParams(*coeffs))
        name, head, power = "cubic_counts.json", {"params": args.params}, 3
    else:
        count, name, head, power = values.count_pair_form_values, "pairform_counts.json", {}, 2
    rows = []
    for m in _parse_range(args.m):
        rep = count(m)
        rows.append(rep.to_json_obj())
        if ctx.format == "csv":
            print(rep.to_csv_row())
        else:
            ctx.say(f"m={m}: {rep.count} distinct values, count/m^{power} = {rep.count / m**power:.4f}")
    ctx.emit(name, {**head, "rows": rows})
    return EXIT_OK


def cmd_structure(args, ctx: RunContext) -> int:
    h = load_hypergraph(args.input)
    try:
        out = structure.main_structure(
            h, args.m, budget=ctx.budget, part_size=args.part_size,
            exact_limit=ctx.exact_limit, seed=ctx.seed,
        )
    except BudgetExhausted as e:
        ctx.say(f"budget exhausted: {e}")
        for line in getattr(e, "trace", []):
            ctx.say(f"  {line}")
        return EXIT_BUDGET
    if out.status == "structure":
        st = out.structure
        ctx.say(f"variant ({st.variant}) found; constants {st.family.constants}")
        ctx.emit("structure.json", st.to_json_obj())
    else:
        w = out.homogeneous
        ctx.say(f"no structure; homogeneous {w.kind} of size {w.size()}")
        ctx.emit(
            "structure.json",
            {"status": out.status, "homogeneous": {"kind": w.kind, "set": list(w.set)}, "trace": out.trace},
        )
    return EXIT_OK


def _suite(mismatches: list[dict], checked: int) -> dict:
    """A pass reports how many instances were checked; a failure, the first mismatch."""
    return {"ok": False, "instance": mismatches[0]} if mismatches else {"ok": True, "checked": checked}


def cmd_verify(args, ctx: RunContext) -> int:
    suites = {}
    which = args.suite
    if which in ("lift", "all"):
        suites["lift"] = _suite(oracles.lift_mismatches(args.trials, ctx.seed), args.trials)
    if which in ("weights", "all"):
        rows = [
            {"r": r, "m": m, "k": k, "total": spectrum.WeightFrame(r, m, k).total(), "expected": comb(m, r)}
            for r in range(3, args.max_r + 1)
            for m in range(r + 1, args.max_m + 1)
            for k in range(1, r)
        ]
        splits = spectrum.pattern_weight_exists_any_split(10, 12, 33, 5)
        ok = all(row["total"] == row["expected"] for row in rows) and not any(splits.values())
        suites["weights"] = {"ok": ok, "tables": rows, "weight33_splits": splits}
    if which in ("blowup", "all"):
        suites["blowup"] = _suite(oracles.blowup_mismatches(args.trials, ctx.seed), 2 * args.trials)
    if which in ("appendix", "all"):
        runs = oracles.appendix_runs(args.r, args.n, args.samples, args.seeds, ctx.seed)
        footnote_edges = len(constructions.footnote_example_r3().graph.edges)
        violations = [v for rep in runs for v in rep.violations]
        suites["appendix"] = {
            "ok": footnote_edges == 7 and not violations,
            "footnote_edges": footnote_edges,
            "runs": [rep.to_json_obj() for rep in runs],
            "violations": violations,
        }
    ok = all(s["ok"] for s in suites.values())
    for name, s in suites.items():
        ctx.say(f"{name}: {'ok' if s['ok'] else 'VIOLATION'}")
    ctx.emit("report.json", {"suites": suites, "ok": ok})
    return EXIT_OK if ok else EXIT_VIOLATION


# --- parser -----------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    in-process callers of ``main`` run many commands."""
    ap = argparse.ArgumentParser(
        prog="ordersize",
        description="Order-size pairs and homogeneous sets in uniform hypergraphs.",
    )
    ap.add_argument("--seed", type=int, default=None, help="RNG seed (default 0, logged)")
    ap.add_argument("--threads", type=int, default=None, help="worker count (default 1)")
    ap.add_argument("--format", choices=("text", "json", "csv"), default=None)
    ap.add_argument("--out", default=None, help="directory for reports and the manifest")
    ap.add_argument("--budget", type=int, default=None, help="search budget in evaluations")
    ap.add_argument("--exact-limit", type=int, default=None, help="exact-search vertex cap (default 40)")
    ap.add_argument("--config", default=None, help="JSON file with default options")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate hypergraphs")
    gen.add_argument("kind", choices=("cyclic", "gr", "random"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, default=3)
    gen.add_argument("--density", type=int, default=50, help="percent, for random")
    gen.add_argument("--to", default=None, help="write the graph to this path")
    gen.set_defaults(func=cmd_gen)

    sp = sub.add_parser("spectrum", help="achieved induced sizes over m-subsets")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.set_defaults(func=cmd_spectrum)

    hg = sub.add_parser("homog", help="largest clique or independent set")
    hg.add_argument("--in", dest="input", required=True)
    hg.set_defaults(func=cmd_homog)

    sd = sub.add_parser("stepdown", help="stepping-down to a lower-arity coloring")
    sd.add_argument("--in", dest="input", required=True)
    sd.add_argument("--k", type=int, default=1)
    sd.add_argument("--ell", type=int, default=None)
    sd.add_argument("--pairs", action="store_true", help="reduce all the way to pairs")
    sd.set_defaults(func=cmd_stepdown)

    bh = sub.add_parser("buildh", help="weighted-total graphs with certificates")
    bh.add_argument("--r", type=int, required=True)
    bh.add_argument("--m", type=int, required=True)
    bh.add_argument("--f", type=int, default=None)
    bh.add_argument("--sweep", type=int, default=None, help="additional random f values")
    bh.add_argument("--check", action="store_true")
    bh.set_defaults(func=cmd_buildh)

    va = sub.add_parser("values", help="distinct-value counters and the g_r table")
    va.add_argument("what", choices=("cubic", "pairform", "identity", "gr-table"))
    va.add_argument("--params", default="1,0,0,0,0", help="a,b,c,d,e for cubic")
    va.add_argument("--m", default="8..16", help="m or a..b range")
    va.add_argument("--max-m", type=int, default=8,
                    help=f"for identity, at most {oracles.MAX_IDENTITY_M}")
    va.add_argument("--r", default="3..6", help="r or a..b range for gr-table")
    va.set_defaults(func=cmd_values)

    st = sub.add_parser("structure", help="extract one of the two target configurations")
    st.add_argument("--in", dest="input", required=True)
    st.add_argument("--m", type=int, required=True)
    st.add_argument("--part-size", type=int, default=None)
    st.set_defaults(func=cmd_structure)

    ve = sub.add_parser("verify", help="oracle checks")
    ve.add_argument("suite", choices=("lift", "weights", "blowup", "appendix", "all"))
    ve.add_argument("--trials", type=int, default=200)
    ve.add_argument("--max-r", type=int, default=5)
    ve.add_argument("--max-m", type=int, default=12)
    ve.add_argument("--r", type=int, default=5)
    ve.add_argument("--n", type=int, default=40)
    ve.add_argument("--samples", type=int, default=20_000)
    ve.add_argument("--seeds", type=int, default=2)
    ve.set_defaults(func=cmd_verify)

    return ap


def _resolve_options(args) -> dict:
    config = {}
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
    def pick(name, default):
        cli = getattr(args, name, None)
        return cli if cli is not None else config.get(name, default)
    return {
        "seed": pick("seed", 0),
        "threads": pick("threads", 1),
        "format": pick("format", "text"),
        "budget": pick("budget", None),
        "exact_limit": pick("exact_limit", search.DEFAULT_EXACT_LIMIT),
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    ctx = RunContext(**_resolve_options(args), out=args.out, argv=argv)
    ctx.say(f"seed {ctx.seed}")
    try:
        code = args.func(args, ctx)
    except BudgetExhausted as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OrderSizeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    ctx.finalize()
    return code


if __name__ == "__main__":
    sys.exit(main())
