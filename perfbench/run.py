"""The ordersize benchmark.

    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 0

runs every workload untraced and prints each end-to-end metric by name with
its unit; ``--workload <name>`` runs one workload, and ``--trace 1`` makes
the separate traced run that reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.

An untraced run starts, one after another and each with its own recorded
PYTHONHASHSEED, three workload processes that split ``--seconds`` and, before
each of them, four of twelve processes that only set up; the workload
processes' outcome digests must agree with each other and, on a seed recorded under
``digests/``, with the recording. On any other seed the digests are written
to ``.perfbench_out/digests/<workload>-seed<n>.json``, in the format of
``digests/``, so two commits can be compared on it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from tracer import ROOT_JOB, ROOT_SETUP, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every process sets up once; setup_s is the fastest of them
UNTRACED_WORKERS = 3
SETUP_ONLY_WORKERS = 12
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# rate name -> counter; the denominator is the untraced latency of the jobs
# that added to the counter
RATES = {
    "spectrum.size_spectrum.subsets_per_s": "spectrum.size_spectrum.subsets",
    "constructions.scan.subsets_per_s": "constructions.scan.subsets",
}
# ratio name -> (counter, span whose call count is the denominator)
RATIOS = {
    "search.find_stars.complete_ratio": ("search.find_stars.complete", "search.find_stars"),
    "spectrum.find_mf_subset.found_ratio": (
        "spectrum.find_mf_subset.found", "spectrum.find_mf_subset"),
    "spectrum.find_weighted_mf_subset.weighted_ratio": (
        "spectrum.find_weighted_mf_subset.weighted", "spectrum.find_weighted_mf_subset"),
    "structure.main_structure.structure_ratio": (
        "structure.main_structure.structure", "structure.main_structure"),
}
COUNTS = ["spectrum.size_spectrum.subsets", "constructions.scan.subsets",
          "search.find_stars.examined"]
OUTCOMES = ["found", "absent", "budget_exhausted", "precondition_unmet"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES + [ROOT_JOB]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    for name in RATES:
        units[name] = "1/s"
    for name in RATIOS:
        units[name] = "ratio"
    units["stepdown.color_queries"] = "count"
    for kind in OUTCOMES:
        units[f"outcome.{kind}"] = "count"
    units["spectrum.size_spectrum.parallel_speedup"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["bench.pass_excess_ratio"] = "ratio"
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def job_latencies(passes: list[list[float]]) -> list[float]:
    """Each job's latency: the fastest of its runs over the measured passes.

    Other tenants of a shared machine only ever slow a run down, by up to
    half for seconds to minutes at a time, so the median of repeated runs
    moves with their load; the minimum stays put much better (see README.md
    for the measurements). wall_s is their sum, and setup_s is taken the
    same way, as the fastest set-up.
    """
    return [min(runs) for runs in zip(*passes)]


def pass_excess(passes: list[list[float]]) -> float:
    """The fastest pass as it ran over the sum of the job latencies, minus 1.

    It holds what lands on only some runs of a job (a full garbage
    collection, a cache refill) and so drops out of the job latencies.
    """
    return min(sum(p) for p in passes) / sum(job_latencies(passes)) - 1


def hash_seeds(seed: int, count: int) -> list[str]:
    """Distinct PYTHONHASHSEED values for the workers of one run."""
    return [str((seed * 7919 + 104729 * (i + 1)) % 4294967295) for i in range(count)]


def worker_env(hash_seed: str) -> dict:
    """Environment of a workload process.

    The parent's sys.path travels through PYTHONPATH, led by this checkout's
    src/, so the process imports the ordersize under test and not whatever
    else is installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src")] + [p for p in sys.path if p])
    env["PYTHONHASHSEED"] = hash_seed
    return env


def digest_file(workload: str, seed: int) -> str:
    return f"{workload}-seed{seed}.json"


def _recorded(workload: str, seed: int) -> dict | None:
    path = os.path.join(HERE, "digests", digest_file(workload, seed))
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def _spawn(workload, seed, scale, seconds, trace, hash_seed, expect_path,
           setup_only: bool = False) -> dict:
    workdir = os.path.join(OUT, f"w{os.getpid()}")
    out = os.path.join(OUT, f"result-{os.getpid()}.json")
    env = worker_env(hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--seconds", repr(seconds), "--trace", str(trace), "--workdir", workdir,
           "--out", out, "--spawned-at", repr(time.monotonic())]
    if expect_path:
        cmd += ["--expect", expect_path]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(out) as f:
        record = json.load(f)
    os.remove(out)
    return record


def _write_digests(workload: str, seed: int, digests: dict) -> str:
    path = os.path.join(OUT, "digests", digest_file(workload, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One run; returns {correct, attempted, failed, metrics}."""
    os.makedirs(OUT, exist_ok=True)
    # the recorded digests are of the full-scale inputs
    recorded = _recorded(workload, seed) if scale == "full" else None
    expect_path = None
    if recorded is not None:
        expect_path = os.path.join(OUT, f"expect-{os.getpid()}.json")
        with open(expect_path, "w") as f:
            json.dump(recorded, f)
    setups = []
    try:
        if trace:
            records = [_spawn(workload, seed, scale, seconds / 2, 1, hash_seeds(seed, 1)[0],
                              expect_path)]
        else:
            seeds = hash_seeds(seed, SETUP_ONLY_WORKERS + UNTRACED_WORKERS)
            setup_seeds = seeds[UNTRACED_WORKERS:]
            deadline = time.monotonic() + seconds
            records = []
            # the set-up-only processes go between the workload processes, so
            # the set-ups are spread over the whole run
            for k, hs in enumerate(seeds[:UNTRACED_WORKERS]):
                setups += [_spawn(workload, seed, scale, 0, 0, setup_hs, None, setup_only=True)
                           for setup_hs in setup_seeds[k::UNTRACED_WORKERS]]
                share = max(deadline - time.monotonic(), 0.0) / (UNTRACED_WORKERS - k)
                records.append(_spawn(workload, seed, scale, share, 0, hs, expect_path))
    finally:
        if expect_path:
            os.remove(expect_path)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    # results must not depend on the interpreter's hash seed
    base = records[0]["digests"]
    for r in records[1:]:
        for jid, digest in r["digests"].items():
            if base.get(jid) != digest:
                runs = 1 + len(r["passes"])
                failed += runs
                failures.append(f"{jid}: digest differs under PYTHONHASHSEED={r['hash_seed']}")
    if recorded is None:
        path = _write_digests(workload, seed, base)
        print(f"# {workload}: digests for seed {seed} written to {os.path.relpath(path, ROOT)}")
    elif set(recorded) != set(base):
        failed += 1
        failures.append("job list differs from the recorded digests")

    passes = [p for r in records for p in r["passes"]]
    samples = job_latencies(passes)
    beyond_p90 = sum(1 for t in samples if t > percentile(samples, 0.9))
    summary = {
        "wall_s": sum(samples),
        "job_p50_ms": 1000 * percentile(samples, 0.5),
        "job_p90_ms": 1000 * percentile(samples, 0.9),
        "setup_s": min(r["setup_s"] for r in records + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    correct = failed == 0
    hs = ",".join(r["hash_seed"] for r in records)
    print(f"# {workload}: seed {seed}, PYTHONHASHSEED {hs}, {len(passes)} passes, "
        f"{len(records[0]['job_ids'])} jobs per pass")
    if setups:
        print(f"# {workload}: setup_s of {len(records + setups)} processes: "
              + " ".join(f"{r['setup_s']:.4f}" for r in records + setups))
    for problem in failures[:20]:
        print(f"# FAILED {problem}")

    if trace:
        metrics = _per_layer(records[0]["trace"], records[0]["passes"])
        balance = records[0]["trace"]["job_balance_s"]
        if balance > 1e-6:
            correct = False
            print(f"# traced self times miss the job time by {balance:.3g} s")
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            extra = ""
            if name.startswith("job_p"):
                extra = f"  ({len(samples)} jobs, {beyond_p90} beyond p90)"
            print(f"{workload:13s} {name:12s} {m['value']:12.4f} {m['unit']}{extra}")
        print(f"{workload:13s} {'fail_ratio':12s} {failed / attempted:12.4f} ratio"
            f"  ({failed} of {attempted} jobs)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _per_layer(trace: dict, passes: list[list[float]]) -> dict:
    units = per_layer_units()
    layers = trace["layers"]
    counters = trace["counters"]
    values: dict[str, float] = {}
    for name in SPAN_NAMES + [ROOT_JOB]:
        values[f"{name}.calls"] = layers[name]["calls"]
        values[f"{name}.self_s"] = layers[name]["self_s"]
    for name in COUNTS:
        values[name] = counters.get(name, 0)
    latency = job_latencies(passes)
    for name, count in RATES.items():
        per_job = trace["job_counters"].get(count, {})
        seconds = sum(latency[int(job)] for job, amount in per_job.items() if amount)
        values[name] = sum(per_job.values()) / seconds if seconds else 0.0
    for name, (count, span) in RATIOS.items():
        calls = layers[span]["calls"]
        values[name] = counters.get(count, 0) / calls if calls else 0.0
    values["stepdown.color_queries"] = trace["color_queries"]
    for kind in OUTCOMES:
        values[f"outcome.{kind}"] = trace["outcomes"].get(kind, 0)
    values["spectrum.size_spectrum.parallel_speedup"] = trace["parallel_speedup"]
    values["trace.overhead_ratio"] = min(trace["traced_pass_s"]) / min(trace["untraced_pass_s"]) - 1
    values["bench.pass_excess_ratio"] = pass_excess(passes)
    print(f"# {trace['spans']} spans written to {os.path.relpath(trace['spans_file'], ROOT)}; "
        f"set-up self time {layers[ROOT_SETUP]['self_s']:.4f} s")
    for name in sorted(values):
        print(f"{name:58s} {values[name]:14.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "ordersize", "__init__.py")):
        raise SystemExit(f"no ordersize sources under {os.path.join(ROOT, 'src')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the self-tests")
    args = ap.parse_args(argv)
    _check_checkout()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.scale)
               for w in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
