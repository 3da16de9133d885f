"""Cross-process checks: seeded runs replay bit-exactly regardless of the
interpreter's hash randomization, and postconditions hold under ``-O``."""

import json
import os
import re
import subprocess
import sys

import ordersize
from helpers import child_env

PROBE = r"""
import json, hashlib
import ordersize
from ordersize import (build_H, build_gr, cyclic_triangle_3graph,
                       main_structure, max_homogeneous, size_spectrum,
                       step_to_pairs)
from ordersize.blowups import build_pair_family
from ordersize.rng import SeededRNG

out = []
h = cyclic_triangle_3graph(11, 9)
out.append(size_spectrum(h, 6).to_json_obj())
out.append(size_spectrum(h, 6, mode="sampled", samples=300, seed=5).to_json_obj())
w = max_homogeneous(h)
out.append([w.kind, list(w.set)])
out.append(step_to_pairs(h, 1, 4).to_json_obj())
out.append(build_H(4, 80, 424242).to_json_obj())
hb, _, _ = build_pair_family(3, 3, 1, 1, 1, 0, (0, 1, 0, 0, 1, 0))
out.append(main_structure(hb, 2).structure.to_json_obj())
out.append(sorted(map(list, build_gr(20, 4, 12).graph.edges)))
rng = SeededRNG(1)
out.append([rng.sample(50, 10), rng.randint(0, 10**9), rng.bits(64)])
print(ordersize.__file__)
print(hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest())
"""


def test_replay_across_hash_seeds():
    digests = set()
    for hash_seed in ("0", "7"):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE],
            capture_output=True,
            text=True,
            env=child_env(hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        module_file, digest = proc.stdout.splitlines()
        assert os.path.realpath(module_file) == os.path.realpath(ordersize.__file__)
        assert re.fullmatch(r"[0-9a-f]{64}", digest), proc.stdout
        digests.add(digest)
    assert len(digests) == 1


OPTIMIZED_PROBE = r"""
from ordersize import VerificationError, complete_hypergraph, find_stars, search
from helpers import center_in_first_leaf_set
assert False, "asserts must be stripped under -O"
search._cliques = center_in_first_leaf_set(search._cliques)
try:
    find_stars(complete_hypergraph(3, 5), 2)
except VerificationError as e:
    print("raised:", e)
"""


def test_postconditions_hold_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: postcondition failed: star"), proc.stdout


HOMOGENEOUS_PROBE = r"""
from ordersize import Hypergraph, VerificationError, max_homogeneous, search
from helpers import with_one_more_vertex
assert False, "asserts must be stripped under -O"
search._first_max_clique = with_one_more_vertex(search._first_max_clique)
try:
    max_homogeneous(Hypergraph(3, 4, [(0, 1, 2)]))  # the clique 012, and 0123 is none
except VerificationError as e:
    print("raised:", e)
"""


def test_homogeneous_witness_is_checked_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", HOMOGENEOUS_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: postcondition failed: homogeneous witness\n", proc.stdout


WEIGHTED_PROBE = r"""
from ordersize import HomogeneousWitness, OrderedGraph, VerificationError, spectrum
assert False, "asserts must be stripped under -O"
# the one exit without its size test: the 4-clique comes back for h = 5
spectrum._large_or_fail = lambda found, kind, exact, *rest: HomogeneousWitness(found, kind, exact)
try:
    spectrum.find_weighted_mf_subset(OrderedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
                                     3, 6, 3, 5)
except VerificationError as e:
    print("raised:", e)
"""


def test_small_weighted_homogeneous_witness_is_caught_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WEIGHTED_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: postcondition failed: homogeneous witness\n", proc.stdout


NO_DROP_PROBE = r"""
import dataclasses
from ordersize import VerificationError, hbuilder
assert False, "asserts must be stripped under -O"
# a sequence with every degree at its cap weighs C(m, r), so no target reaches it
sequence = hbuilder.d_sequence
hbuilder.d_sequence = lambda r, m, f: dataclasses.replace(sequence(r, m, f), i_star=None)
try:
    hbuilder.build_H(4, 80, 7)
except VerificationError as e:
    print("raised:", e)
"""


def test_missing_degree_drop_is_a_fault_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NO_DROP_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: postcondition failed: "), proc.stdout


MIDDLE_DEGREE_PROBE = r"""
import dataclasses
from ordersize import VerificationError, hbuilder
assert False, "asserts must be stripped under -O"
# the greedy gives every middle position after i_star degree 0 or 1
sequence = hbuilder.d_sequence

def raised(r, m, f):
    seq = sequence(r, m, f)
    d = list(seq.d)
    d[seq.i_star] = 2  # position i_star + 1
    return dataclasses.replace(seq, d=tuple(d))

hbuilder.d_sequence = raised
try:
    hbuilder.build_H(4, 80, 7)
except VerificationError as e:
    print("raised:", e)
"""


def test_middle_degree_above_one_is_a_fault_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MIDDLE_DEGREE_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: postcondition failed: middle degrees are at most 1\n", proc.stdout


FAILED_RECOUNT_PROBE = r"""
from ordersize import VerificationError, hbuilder
assert False, "asserts must be stripped under -O"
hbuilder.recount_construction = lambda hc: (3, {"degrees_ok": True, "weight_ok": False, "cert_ok": True})
try:
    hbuilder.build_H(4, 80, 7)
except VerificationError as e:
    print("raised:", e)
"""


def test_failed_recount_is_a_fault_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAILED_RECOUNT_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: postcondition failed: total weight 3 is the target 7\n", proc.stdout


SAMPLED_GR_PROBE = r"""
import json
from ordersize import build_gr, check_fact_gr
assert False, "asserts must be stripped under -O"
inst = build_gr(24, 3, 0, materialize_cap=0)
print(json.dumps(check_fact_gr(inst, 7, mode="sampled", samples=300, seed=4).to_json_obj()))
print(inst._pos[0] is not None)
"""


def test_sampled_gr_scan_is_the_same_under_optimize():
    """The position index is built and used alike with asserts stripped."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SAMPLED_GR_PROBE],
        capture_output=True,
        text=True,
        env=child_env("0"),
    )
    assert proc.returncode == 0, proc.stderr
    report, indexed = proc.stdout.splitlines()
    want = ordersize.check_fact_gr(
        ordersize.build_gr(24, 3, 0, materialize_cap=0), 7, mode="sampled", samples=300, seed=4)
    assert len(want.histogram) > 1
    assert json.loads(report) == want.to_json_obj()
    assert indexed == "True"


def test_child_env_passes_only_the_bytecode_switch(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONHASHSEED", "5")
    assert set(child_env("0")) == {"PYTHONHASHSEED", "PATH", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"}
    assert child_env("0")["PYTHONHASHSEED"] == "0"
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert "PYTHONDONTWRITEBYTECODE" not in child_env("0")
