"""One workload process: set up, run passes over the job list, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src/``
and a recorded ``PYTHONHASHSEED``. It writes one JSON record to ``--out``.

With ``--setup-only`` it stops after set-up. Untraced: set-up, one warm-up
pass (its outcomes become the reference digests and are re-checked by the
benchmark), then measured passes until the time slice is used. Traced: the
same, then eight traced passes, each after an untraced one; the first
traced pass's spans and counts are kept (so the counts repeat exactly), the
others are only timed. Last comes the threads=1 vs threads=2 spectrum probe.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

MIN_PASSES = 2
TRACED_PASSES = 8
PARALLEL_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--expect", default=None, help="JSON file of recorded digests")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    return ap.parse_args(argv)


class Runner:
    """Runs jobs, classifies outcomes and counts failures."""

    def __init__(self, jobs, expected: dict | None):
        self.jobs = jobs
        self.expected = expected or {}
        self.reference: dict[str, str] = {}
        self.kinds: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None

    def run_job(self, index: int, job, first: bool) -> float:
        from outcome import from_exception

        tracer = self.tracer
        if tracer is not None:
            tracer.open_root("bench.job", index)
        t0 = time.perf_counter()
        try:
            result = job.run()
            error = None
        except Exception as exc:  # classified below; anything unexpected is a failure
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close_root()
        self.attempted += 1
        if error is not None:
            out = from_exception(error)
            if out is None:
                self._fail(job.id, "raised " + "".join(
                    traceback.format_exception_only(type(error), error)).strip())
                return elapsed
        else:
            out = job.outcome(result)
        digest = out.digest()
        if first:
            self.reference[job.id] = digest
            self.kinds[job.id] = out.kind
            if out.kind != job.expect:
                self._fail(job.id, f"outcome {out.kind}, expected {job.expect}")
            elif error is None and not job.check(result):
                self._fail(job.id, "result failed the benchmark's re-check")
        want = self.expected.get(job.id, self.reference.get(job.id))
        if digest != want:
            self._fail(job.id, "digest mismatch")
        return elapsed

    def _fail(self, job_id: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{job_id}: {why}")

    def run_pass(self, first: bool = False) -> list[float]:
        return [self.run_job(i, job, first) for i, job in enumerate(self.jobs)]


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.realpath(args.root)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import ordersize

    src = os.path.join(root, "src") + os.sep
    if not os.path.realpath(ordersize.__file__).startswith(src):
        print(f"ordersize imported from {ordersize.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.open_root("bench.setup", -1)
    inputs = workloads.build(args.workload, args.seed, args.scale, args.workdir)
    if tracer is not None:
        tracer.close_root()
        tracer.uninstall()

    expected = None
    if args.expect:
        with open(args.expect) as f:
            expected = json.load(f)
    runner = Runner(inputs.jobs, expected)

    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with open(args.out, "w") as f:
            json.dump({"hash_seed": os.environ.get("PYTHONHASHSEED"), "setup_s": setup_s}, f)
        return 0
    started = time.perf_counter()
    runner.run_pass(first=True)
    passes: list[list[float]] = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + sum(passes[-1]) <= args.seconds
    ):
        passes.append(runner.run_pass())

    record = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": setup_s,
        "passes": passes,
        "job_ids": [job.id for job in inputs.jobs],
        "digests": runner.reference,
        "kinds": runner.kinds,
    }

    if tracer is not None:
        record["trace"] = _traced(runner, tracer, inputs, args)

    record.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    with open(args.out, "w") as f:
        json.dump(record, f)
    return 0


def _traced(runner: Runner, tracer, inputs, args) -> dict:
    from ordersize import size_spectrum

    trace: dict = {}
    untraced_totals, traced_totals = [], []
    # traced and untraced passes alternate, so that the overhead compares
    # passes run under the same machine load
    for k in range(TRACED_PASSES):
        untraced_totals.append(sum(runner.run_pass()))
        for hook in inputs.color_hooks:
            hook.counting = k == 0
        runner.tracer = tracer
        tracer.install()
        traced_totals.append(sum(runner.run_pass()))
        tracer.uninstall()
        runner.tracer = None
        for hook in inputs.color_hooks:
            hook.counting = False
        if k == 0:
            # spans and counts come from the first traced pass alone, so
            # they repeat exactly; the further passes are only timed
            path = os.path.join(os.path.dirname(args.out),
                                f"trace-{args.workload}-seed{args.seed}.tsv")
            tracer.write(path)
            trace = {
                "layers": tracer.aggregate(),
                "counters": dict(tracer.counters),
                "job_counters": {key: dict(per_job)
                                 for key, per_job in tracer.job_counters.items()},
                "color_queries": sum(hook.queries for hook in inputs.color_hooks),
                "job_balance_s": tracer.job_balance(),
                "spans": len(tracer.spans),
                "spans_file": path,
            }
        tracer.reset()

    kinds: dict[str, int] = {}
    for kind in runner.kinds.values():
        kinds[kind] = kinds.get(kind, 0) + 1

    timings: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(PARALLEL_REPEATS):
        for threads in (1, 2):
            t0 = time.perf_counter()
            size_spectrum(inputs.parallel_graph, inputs.parallel_m, threads=threads)
            timings[threads].append(time.perf_counter() - t0)

    trace.update({
        "outcomes": kinds,
        "traced_pass_s": traced_totals,
        "untraced_pass_s": untraced_totals,
        "parallel_speedup": min(timings[1]) / min(timings[2]),
    })
    return trace


if __name__ == "__main__":
    sys.exit(main())
