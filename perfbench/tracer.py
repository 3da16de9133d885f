"""Boundary spans around the public functions of each ordersize module.

The tracer replaces each named function by a wrapper that records a span
(name, start, end, parent span, job) in memory. The wrapper is installed on
the defining class or module and on every ``ordersize`` module attribute that
re-binds the same function object (``structure.find_stars`` as well as
``search.find_stars``), and ``uninstall`` puts the originals back. Nothing in
the program changes. Functions too hot to wrap without drowning the signal
(``PalettedColoring.color``, ``*.has_edge``, ``bits_of``, ``pair_rank``) are
left alone, so their time shows up as self time of the nearest wrapped
caller.

A span's self time is its duration minus the durations of its child spans;
the untraced rest of each job goes to the job's root ``bench.job`` span, and
set-up work to ``bench.setup``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> wrapped names ("Class.method" for methods); metric names are
# "<module>.<name>" with "__init__" shortened to "init".
TARGETS = {
    "core": ["Hypergraph.edge_count_mask", "Hypergraph.complement", "Hypergraph.induced",
             "OrderedGraph.__init__", "OrderedGraph.complement", "OrderedGraph.induced",
             "density"],
    "search": ["max_homogeneous", "find_stars", "link_graph", "enumerate_induced_ktt",
               "max_clique", "spencer_independent"],
    "spectrum": ["size_spectrum", "find_mf_subset", "find_weighted_mf_subset",
                 "find_induced_ordered_copy", "verify_lift"],
    "stepdown": ["step_to_pairs", "step_once"],
    "structure": ["main_structure", "find_star_chain", "find_pair_chain", "refine_to_01",
                  "homogenize_types", "homogenize_pair_types", "star_free_subset"],
    "values": ["count_cubic_values", "count_pair_form_values"],
    "hbuilder": ["build_H", "expand_certificate", "verify_claim_d"],
    "constructions": ["GrInstance.count_in_subset", "check_fact_gr", "scan_counterexample",
                      "materialize"],
    "blowups": ["build_type_family", "build_pair_family"],
    "rng": ["SeededRNG.sorted_sample"],
    "cli": ["main"],
}

ROOT_JOB = "bench.job"
ROOT_SETUP = "bench.setup"


def metric_name(module: str, name: str) -> str:
    return f"{module}.{name.replace('__init__', 'init')}"


SPAN_NAMES = [metric_name(mod, name) for mod, names in TARGETS.items() for name in names]


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.names: list[str] = [ROOT_JOB, ROOT_SETUP] + SPAN_NAMES
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.job = -1
        self.counters: dict[str, int] = {}
        # counter -> job -> amount, for rates over the jobs that did the work
        self.job_counters: dict[str, dict[int, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open_root(self, name: str, job: int) -> None:
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append((self.ids[name], time.perf_counter(), None, -1, job))

    def reset(self) -> None:
        """Forget every span and count, to time another pass from scratch."""
        self.spans.clear()
        self.counters.clear()
        self.job_counters.clear()

    def close_root(self) -> None:
        idx = self.stack.pop()
        fid, t0, _t1, parent, job = self.spans[idx]
        self.spans[idx] = (fid, t0, time.perf_counter(), parent, job)
        self.job = -1

    def _wrap(self, fn, name: str, hook):
        fid = self.ids[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tracer.job)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ordersize" or name.startswith("ordersize."))]
        for mod_name, names in TARGETS.items():
            module = importlib.import_module(f"ordersize.{mod_name}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__.get(attr)
                if original is None:
                    continue  # function gone from the program: reported as zero
                wrapper = self._wrap(original, metric_name(mod_name, name), hooks.get(name))
                self._set(owner, attr, wrapper)
                if not owner_name:
                    for other in modules:
                        if other is not owner and other.__dict__.get(attr) is original:
                            self._set(other, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount
        per_job = self.job_counters.setdefault(key, {})
        per_job[self.job] = per_job.get(self.job, 0) + amount

    def _hooks(self) -> dict:
        """Work counts taken from return values at the same boundaries."""
        from ordersize import WeightedWitness

        def spectrum(rep):
            self._count("spectrum.size_spectrum.subsets", rep.subsets_examined)

        def scan(rep):
            self._count("constructions.scan.subsets", rep.samples)

        def stars(res):
            self._count("search.find_stars.examined", res.examined)
            self._count("search.find_stars.complete", int(res.complete))

        def mf(w):
            self._count("spectrum.find_mf_subset.found", int(w is not None))

        def weighted(out):
            self._count("spectrum.find_weighted_mf_subset.weighted",
                        int(isinstance(out, WeightedWitness)))

        def structure(out):
            self._count("structure.main_structure.structure", int(out.status == "structure"))

        return {"size_spectrum": spectrum, "check_fact_gr": scan, "find_stars": stars,
                "find_mf_subset": mf, "find_weighted_mf_subset": weighted,
                "main_structure": structure}

    # --- aggregation ------------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        self_s = [t1 - t0 for _fid, t0, t1, _parent, _job in self.spans]
        for _fid, t0, t1, parent, _job in self.spans:
            if parent >= 0:
                self_s[parent] -= t1 - t0
        return self_s

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds."""
        self_s = self._self_times()
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i, (fid, t0, t1, _parent, _job) in enumerate(self.spans):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["self_s"] += self_s[i]
            row["total_s"] += t1 - t0
        return out

    def job_balance(self) -> float:
        """Largest gap, over jobs, between the summed self times and the job span."""
        self_s = self._self_times()
        root = self.ids[ROOT_JOB]
        self_sum: dict[int, float] = {}
        job_len: dict[int, float] = {}
        for i, (fid, t0, t1, _parent, job) in enumerate(self.spans):
            self_sum[job] = self_sum.get(job, 0.0) + self_s[i]
            if fid == root:
                job_len[job] = t1 - t0
        return max((abs(self_sum[j] - job_len[j]) for j in job_len), default=0.0)

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: name, start, end, parent, job."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name\tstart_s\tend_s\tparent\tjob\n")
            for fid, t0, t1, parent, job in self.spans:
                f.write(f"{self.names[fid]}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{job}\n")
