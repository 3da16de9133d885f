"""Self-tests of the benchmark, at the tiny input size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

They check that every metric named in BENCHMARK.json is printed with its
unit, that traced self times add up to the traced job time, that the count
metrics repeat exactly across two traced runs, that workload processes import
ordersize from this checkout's src/, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import ROOT_JOB  # noqa: E402

SECONDS = "1"


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_end_to_end_metrics_printed_with_units():
    spec = _benchmark_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        result, stdout = _run(workload, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric in spec["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], metric
            assert got["value"] > 0, metric
            assert metric["name"] in stdout
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert "fail_ratio" in stdout


def test_traced_metrics_and_counts_repeat():
    spec = _benchmark_spec()
    count_units = ("count",)
    for workload in [w["name"] for w in spec["workloads"]]:
        first, stdout = _run(workload, 1)
        second, _ = _run(workload, 1)
        assert first["correct"] and second["correct"]
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert set(first["metrics"]) == set(names)
        printed = {line.split()[0]: line.split()[-1] for line in stdout.splitlines()
                   if line and not line.startswith(("#", "{"))}
        for name, unit in names.items():
            assert first["metrics"][name]["unit"] == unit, name
            assert printed.get(name) == unit, name
            if unit in count_units:
                assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][f"{ROOT_JOB}.calls"]["value"] >= 1


def test_self_times_sum_to_job_time():
    _run("search", 1)
    path = os.path.join(run.OUT, "trace-search-seed3.tsv")
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    spans = [(name, float(t0), float(t1), int(parent), int(job))
             for name, t0, t1, parent, job in rows]
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _job in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_sum: dict[int, float] = {}
    job_time: dict[int, float] = {}
    for i, (name, t0, t1, _parent, job) in enumerate(spans):
        self_sum[job] = self_sum.get(job, 0.0) + (t1 - t0) - child[i]
        if name == ROOT_JOB:
            job_time[job] = t1 - t0
    assert job_time
    for job, total in job_time.items():
        assert abs(self_sum[job] - total) < 1e-6, (job, self_sum[job], total)


def test_worker_imports_this_checkout():
    env = run.worker_env("0")
    proc = subprocess.run([sys.executable, "-c", "import ordersize; print(ordersize.__file__)"],
                          env=env, cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    path = os.path.realpath(proc.stdout.strip())
    assert path.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep), path


def test_hash_seeds_differ():
    seeds = run.hash_seeds(5, run.UNTRACED_WORKERS)
    assert len(set(seeds)) == len(seeds)


def test_refuses_without_sources():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "values", "--seed", "0",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    bad = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {name}: {exc}")
    sys.exit(1 if bad else 0)
