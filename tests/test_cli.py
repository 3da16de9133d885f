import hashlib
import json
import os
import time
from dataclasses import replace

import pytest

from ordersize import cli
from ordersize.cli import main
from ordersize.core import load_hypergraph


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_gr_table_and_exit_codes(capsys):
    assert run(["values", "gr-table", "--r", "3..6"]) == 0
    out = capsys.readouterr().out
    assert "g_r(12) = 64" in out


def test_gen_and_spectrum(tmp_path, capsys):
    path = str(tmp_path / "g.hg")
    assert run(["--seed", "7", "gen", "cyclic", "--n", "10", "--to", path]) == 0
    h = load_hypergraph(path)
    assert h.r == 3 and h.n == 10
    assert run(["spectrum", "--in", path, "--m", "6"]) == 0
    out = capsys.readouterr().out
    assert "s(G;6)" in out
    # a sampled scan of no subsets would report s(G;6) >= 0 having checked nothing
    assert run(["spectrum", "--in", path, "--m", "6", "--mode", "sampled", "--samples", "-4"]) == 2
    assert "samples must be positive, got -4" in capsys.readouterr().err


def test_gen_json_format(tmp_path, capsys):
    path = str(tmp_path / "g.hg")
    assert run(["--seed", "1", "--format", "json", "gen", "random",
                "--n", "8", "--r", "3", "--to", path]) == 0


def test_homog_and_stepdown(tmp_path, capsys):
    path = str(tmp_path / "g.hg")
    run(["--seed", "3", "gen", "random", "--n", "8", "--r", "3", "--to", path])
    assert run(["homog", "--in", path]) == 0
    assert run(["stepdown", "--in", path, "--ell", "4"]) == 0
    out = capsys.readouterr().out
    assert "X = " in out


def test_stepdown_failure_exit_codes(tmp_path, monkeypatch, capsys):
    from ordersize import stepdown
    from ordersize.errors import FactorizationError, SearchFailed

    path = str(tmp_path / "g.hg")
    run(["--seed", "3", "gen", "random", "--n", "8", "--r", "3", "--to", path])

    def broken_postcondition(h, ell=None):
        raise FactorizationError("stage postcondition failed", (0, 2, 5))

    monkeypatch.setattr(stepdown, "step_once", broken_postcondition)
    out = str(tmp_path / "violation")
    assert run(["--out", out, "stepdown", "--in", path, "--ell", "4"]) == 1
    report = json.load(open(os.path.join(out, "stepdown.json")))
    assert report == {"error": "stage postcondition failed", "offending": [0, 2, 5]}

    def exhausted(h, ell=None):
        raise SearchFailed("candidates exhausted after 2 of 4 vertices",
                           detail={"achieved": [0, 1]})

    monkeypatch.setattr(stepdown, "step_once", exhausted)
    out = str(tmp_path / "invalid")
    assert run(["--out", out, "stepdown", "--in", path, "--ell", "4"]) == 2
    report = json.load(open(os.path.join(out, "stepdown.json")))
    assert report["achieved"] == [0, 1]


def test_stepdown_rejects_nonpositive_ell(tmp_path, capsys):
    path = str(tmp_path / "g.hg")
    run(["--seed", "3", "gen", "random", "--n", "8", "--r", "3", "--to", path])
    out = str(tmp_path / "out")
    assert run(["--out", out, "stepdown", "--in", path, "--pairs", "--ell", "0"]) == 2
    assert "ell must be positive, got 0" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_verification_failure_exits_1(tmp_path, monkeypatch, capsys):
    from ordersize.search import HomogeneousWitness

    path = str(tmp_path / "g.hg")
    run(["--seed", "3", "gen", "random", "--n", "8", "--r", "3", "--to", path])
    monkeypatch.setattr(HomogeneousWitness, "verify", lambda self, h: False)
    assert run(["homog", "--in", path]) == 1
    assert "postcondition failed: homogeneous witness" in capsys.readouterr().err


def test_buildh_check(capsys):
    assert run(["buildh", "--r", "4", "--m", "80", "--f", "12345", "--check"]) == 0
    assert run(["--seed", "2", "buildh", "--r", "4", "--m", "80", "--sweep", "5", "--check"]) == 0
    capsys.readouterr()
    assert run(["buildh", "--r", "4", "--m", "80"]) == 2
    assert "needs --f or --sweep" in capsys.readouterr().err


def test_buildh_small_m_at_large_r_reports_or_exits_2(capsys):
    # m <= 2r - 6 puts the whole sequence in the tail: a gap error, not a traceback
    for r, m in ((8, 10), (10, 12), (12, 14)):
        assert run(["buildh", "--r", str(r), "--m", str(m), "--f", "1"]) == 2
        assert "error: no zero run long enough to host the tail leaves" in capsys.readouterr().err
    assert run(["buildh", "--r", "8", "--m", "16", "--f", "1", "--check"]) == 0


def test_verify_suites(capsys):
    assert run(["--seed", "7", "verify", "lift", "--trials", "40"]) == 0
    assert run(["verify", "weights", "--max-r", "4", "--max-m", "8"]) == 0
    assert run(["--seed", "5", "verify", "blowup", "--trials", "10"]) == 0
    assert run(["--seed", "2", "verify", "appendix", "--r", "5", "--n", "30",
                "--samples", "500", "--seeds", "1"]) == 0
    capsys.readouterr()
    for suite in ("lift", "blowup"):
        assert run(["verify", suite, "--trials", "-3"]) == 2
        assert "trials must be nonnegative" in capsys.readouterr().err
    # 2r = 10 vertices cannot be drawn from 6: an error, not a vacuous pass
    assert run(["verify", "appendix", "--r", "5", "--n", "6"]) == 2
    assert "error: m=10 exceeds n=6" in capsys.readouterr().err
    # zero samples, or zero seeds (no report at all), would pass having checked nothing
    for name, samples, seeds in (("samples", "0", "1"), ("seeds", "10", "0")):
        assert run(["verify", "appendix", "--r", "5", "--n", "40", "--samples", samples,
                    "--seeds", seeds]) == 2
        assert f"{name} must be positive, got 0" in capsys.readouterr().err


def test_verify_all_report(tmp_path, capsys):
    out = str(tmp_path / "all")
    assert run(["--seed", "3", "--out", out, "verify", "all", "--trials", "20",
                "--max-r", "4", "--max-m", "8", "--n", "25", "--samples", "200",
                "--seeds", "1"]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["ok"]
    assert set(report["suites"]) == {"lift", "weights", "blowup", "appendix"}


def test_values_identity(capsys):
    assert run(["values", "identity", "--max-m", "4"]) == 0


def test_values_cubic_csv(capsys):
    assert run(["--format", "csv", "values", "cubic", "--params", "1,0,0,0,0", "--m", "6..8"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 3


def test_values_text_lines_carry_the_growth_ratio(capsys):
    assert run(["values", "cubic", "--params", "1,0,0,0,0", "--m", "6..7"]) == 0
    out = capsys.readouterr().out
    assert "m=6: 22 distinct values, count/m^3 = 0.1019" in out
    assert "m=7: 34 distinct values, count/m^3 = 0.0991" in out
    assert run(["values", "pairform", "--m", "29..30"]) == 0
    out = capsys.readouterr().out
    assert "m=29: 2645 distinct values, count/m^2 = 3.1451" in out
    assert "m=30: 2820 distinct values, count/m^2 = 3.1333" in out


def test_structure_cli(tmp_path, capsys):
    from ordersize.blowups import build_type_family
    from ordersize.core import save_hypergraph

    h, _ = build_type_family([3, 3, 3, 3], 1, 0, 1, 0)
    path = str(tmp_path / "plant.hg")
    save_hypergraph(h, path)
    assert run(["structure", "--in", path, "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "variant (a) found; constants {'a': 1, 'b': 0, 'c': 1, 'd': 0}" in out
    assert run(["structure", "--in", path, "--m", "0"]) == 2
    assert capsys.readouterr().err == "error: m must be at least 1, got m=0\n"
    # a negative budget is invalid input, not a budget that ran out
    assert run(["--budget", "-1", "structure", "--in", path, "--m", "2"]) == 2
    assert capsys.readouterr().err == "error: budget must be nonnegative, got -1\n"


def test_structure_cli_exits_3_when_the_budget_runs_out(tmp_path, capsys):
    from ordersize.blowups import build_pair_family
    from ordersize.core import save_hypergraph

    path = str(tmp_path / "pairs.hg")
    save_hypergraph(build_pair_family(3, 3, 1, 1, 0, 1, (0,) * 6)[0], path)
    assert run(["--budget", "5", "structure", "--in", path, "--m", "3"]) == 3
    out = capsys.readouterr().out
    assert out.endswith(
        "budget exhausted: star enumeration budget exhausted\n"
        "  advisory thresholds theta=0.5, delta=0.5 (reported, not enforced)\n")


def test_structure_cli_reports_a_homogeneous_set(tmp_path, capsys):
    from ordersize.constructions import random_hypergraph
    from ordersize.core import save_hypergraph

    path = str(tmp_path / "random.hg")
    save_hypergraph(random_hypergraph(3, 16, 50, 3), path)
    out_dir = str(tmp_path / "out")
    assert run(["--out", out_dir, "structure", "--in", path, "--m", "2"]) == 0
    assert "no structure; homogeneous clique of size 5\n" in capsys.readouterr().out
    report = json.load(open(os.path.join(out_dir, "structure.json")))
    assert report["status"] != "structure"
    assert report["homogeneous"]["kind"] == "clique" and len(report["homogeneous"]["set"]) == 5


def test_gen_gr_writes_the_materialized_graph(tmp_path, capsys):
    from ordersize.constructions import build_gr
    from ordersize.core import write_hg_text

    out_dir = str(tmp_path / "small")
    assert run(["--seed", "4", "--out", out_dir, "gen", "gr", "--n", "7", "--r", "3"]) == 0
    assert "generated r=3 n=7 with 1 edges (seed 4)\n" in capsys.readouterr().out
    with open(os.path.join(out_dir, "generated.hg")) as f:
        assert f.read() == write_hg_text(build_gr(7, 3, 4).graph)
    # C(200, 5) is above the materialization cap: no graph to write
    out_dir = str(tmp_path / "large")
    assert run(["--out", out_dir, "gen", "gr", "--n", "200", "--r", "5"]) == 0
    assert "instance kept implicit (above the materialization cap)\n" in capsys.readouterr().out
    assert not [name for name in os.listdir(out_dir) if name.endswith(".hg")]


def test_negative_search_limits_exit_2_without_a_manifest(tmp_path, capsys):
    from ordersize.blowups import build_type_family
    from ordersize.core import save_hypergraph

    path = str(tmp_path / "plant.hg")
    save_hypergraph(build_type_family([3, 3, 3, 3], 1, 0, 1, 0)[0], path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact_limit": -2}))
    for i, (argv, err) in enumerate((
        (["--exact-limit", "-1", "homog", "--in", path], "exact_limit must be nonnegative, got -1"),
        (["--exact-limit", "-1", "structure", "--in", path, "--m", "3"],
         "exact_limit must be nonnegative, got -1"),
        (["--config", str(cfg), "homog", "--in", path], "exact_limit must be nonnegative, got -2"),
        (["structure", "--in", path, "--m", "3", "--part-size", "-4"], "part_size must be positive, got -4"),
        (["structure", "--in", path, "--m", "3", "--part-size", "0"], "part_size must be positive, got 0"),
    )):
        out = tmp_path / f"out{i}"
        assert run(["--out", str(out)] + argv) == 2, argv
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["values", "gr-table", "--bogus"])
    assert err.value.code == 2


def test_cached_parser_carries_nothing_between_runs(tmp_path, monkeypatch):
    """One process reuses one parser; every run's manifest seed and output
    digests equal those of the same run on a freshly built parser."""
    assert cli.build_parser() is cli.build_parser()
    path = str(tmp_path / "g.hg")
    assert run(["--seed", "2", "gen", "random", "--n", "12", "--to", path]) == 0
    sampled = ["spectrum", "--in", path, "--m", "5", "--mode", "sampled", "--samples", "40"]
    runs = [
        (["--seed", "5"] + sampled, 0),
        (sampled, 0),
        (["verify", "appendix", "--r", "4", "--n", "12", "--samples", "40", "--seeds", "1"], 0),
        (["values", "gr-table", "--bogus"], 2),
        (["values", "gr-table"], 0),
    ]

    def manifests(tag):
        out = []
        for i, (argv, want) in enumerate(runs):
            where = str(tmp_path / f"{tag}{i}")
            try:
                code = main(["--out", where] + argv)
            except SystemExit as e:
                code = e.code
            assert code == want, argv
            if code == 0:
                with open(os.path.join(where, "manifest.json")) as f:
                    m = json.load(f)
                out.append((m["seed"], m["outputs"]))
        return out

    cached = manifests("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert manifests("fresh") == cached
    (seed5, spec5), (seed0, spec0) = cached[:2]
    assert (seed5, seed0) == (5, 0) and spec5 != spec0


def test_invalid_input_exits_2(tmp_path):
    missing = str(tmp_path / "nope.hg")
    assert run(["homog", "--in", missing]) == 2


def test_manifest_and_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["--seed", "11", "--out", out, "verify", "blowup", "--trials", "5"]) == 0
    r1 = open(os.path.join(out1, "report.json")).read()
    r2 = open(os.path.join(out2, "report.json")).read()
    assert r1 == r2
    man = json.load(open(os.path.join(out1, "manifest.json")))
    assert man["seed"] == 11 and "report.json" in man["outputs"]
    man2 = json.load(open(os.path.join(out2, "manifest.json")))
    assert man["outputs"] == man2["outputs"]


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 23, "format": "text"}))
    assert run(["--config", str(cfg), "values", "gr-table", "--r", "3..3"]) == 0
    out = capsys.readouterr().out
    assert "seed 23" in out
    assert run(["--config", str(cfg), "--seed", "4", "values", "gr-table", "--r", "3..3"]) == 0
    out = capsys.readouterr().out
    assert "seed 4" in out


def test_threads_match_sequential(tmp_path):
    from ordersize.constructions import cyclic_triangle_3graph
    from ordersize.core import save_hypergraph
    from ordersize.spectrum import size_spectrum

    h = cyclic_triangle_3graph(11, 4)
    seq = size_spectrum(h, 6, threads=1)
    par = size_spectrum(h, 6, threads=3)
    assert seq.achieved == par.achieved
    assert seq.witnesses == par.witnesses


def test_gen_gr_names_r_below_two(tmp_path, capsys):
    assert run(["gen", "gr", "--r", "1", "--n", "5", "--to", str(tmp_path / "g.hg")]) == 2
    assert capsys.readouterr().err == "error: r must be at least 2, got 1\n"


def test_spectrum_rejects_nonpositive_threads(tmp_path, capsys):
    path = str(tmp_path / "g.hg")
    assert run(["gen", "cyclic", "--n", "8", "--to", path]) == 0
    for threads in ("0", "-3"):
        out = str(tmp_path / f"out{threads}")
        assert run(["--threads", threads, "--out", out, "spectrum", "--in", path, "--m", "4"]) == 2
        assert f"threads must be positive, got {threads}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_values_cubic_rejects_wrong_param_count(capsys):
    assert run(["values", "cubic", "--params", "1,0,0", "--m", "5"]) == 2
    assert "five values" in capsys.readouterr().err
    assert run(["values", "cubic", "--params", "1/0,0,0,0,0", "--m", "5"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_value_caps_exit_2(capsys):
    assert run(["values", "cubic", "--m", "60"]) == 0
    assert run(["values", "cubic", "--m", "61"]) == 2
    assert "enumeration cap 60" in capsys.readouterr().err
    start = time.perf_counter()
    assert run(["values", "identity", "--max-m", "13"]) == 2
    assert time.perf_counter() - start < 1
    assert "identity cap 12" in capsys.readouterr().err


def test_empty_ranges_are_rejected(capsys):
    assert run(["values", "gr-table", "--r", "9..8"]) == 2
    assert "empty range" in capsys.readouterr().err
    assert run(["values", "cubic", "--m", "9..8"]) == 2
    assert run(["values", "pairform", "--m", "9..9"]) == 0


# sha256 of each report as written by the commit before the oracle checks moved
# into ordersize.oracles; a pass report must keep its bytes
REPORT_DIGESTS = [
    (["--seed", "3", "verify", "all", "--trials", "20", "--max-r", "4", "--max-m", "8",
      "--n", "25", "--samples", "200", "--seeds", "1"],
     "report.json", "a8d20868abee0a08340c58c8128aa71c0e0f125efe0eec0c9f65497ee91f7fbe"),
    (["values", "identity", "--max-m", "4"],
     "identity.json", "7583ae7f07fc88f06441099b193b677aae9b067dfe8bee8d3547a2bc7109fc73"),
    (["--seed", "2", "buildh", "--r", "4", "--m", "80", "--sweep", "3", "--check"],
     "buildh.json", "56c3d5f622d7f0b51708e3a79077e33ab4c09138296ba02a6b3802c04187cf64"),
]


def test_report_bytes_are_stable(tmp_path, capsys):
    for i, (argv, name, digest) in enumerate(REPORT_DIGESTS):
        out = str(tmp_path / str(i))
        assert run(["--out", out] + argv) == 0
        with open(os.path.join(out, name), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest, argv


def test_oracle_mismatches_exit_1(tmp_path, monkeypatch, capsys):
    from ordersize import constructions, hbuilder, spectrum, values

    def report(argv, name):
        out = str(tmp_path / str(len(os.listdir(tmp_path))))
        assert run(["--out", out] + argv) == 1
        with open(os.path.join(out, name)) as f:
            return json.load(f)

    monkeypatch.setattr(spectrum, "verify_lift", lambda h, x, u, tail: False)
    lift = report(["verify", "lift", "--trials", "4"], "report.json")["suites"]["lift"]
    assert lift["ok"] is False and lift["instance"]["r"] == 3
    assert set(lift["instance"]) == {"r", "u", "tail"}

    monkeypatch.setattr(values, "blowup_edge_count", lambda a, b, c, sizes, x: (1, 0))
    blowup = report(["verify", "blowup", "--trials", "4"], "report.json")["suites"]["blowup"]
    assert blowup["ok"] is False and blowup["instance"]["config"] == [0, 0, 1]

    monkeypatch.setattr(values, "general_form", lambda g, m, x: None)
    identity = report(["values", "identity", "--max-m", "2"], "identity.json")
    assert identity["mismatches"][0] == {"m": 1, "params": [-1, -1, -1, -1, -1], "x": [1]}

    monkeypatch.setattr(constructions.GrInstance, "count_in_subset", lambda self, subset: 31)
    appendix = report(["verify", "appendix", "--samples", "3", "--seeds", "1"],
                      "report.json")["suites"]["appendix"]
    assert appendix["ok"] is False and {"count": 31, "subsets": 3} in appendix["violations"]

    # build_H checks its own degrees, so the mismatch enters after it: a
    # construction whose sequence claims one more backward edge at the end
    build_H = hbuilder.build_H

    def off_by_one(*args):
        hc = build_H(*args)
        return replace(hc, d=replace(hc.d, d=hc.d.d[:-1] + (hc.d.d[-1] + 1,)))

    monkeypatch.setattr(hbuilder, "build_H", off_by_one)
    (row,) = report(["buildh", "--r", "4", "--m", "80", "--f", "7", "--check"], "buildh.json")["rows"]
    assert row["degrees_ok"] is False and row["cert_ok"] and row["f"] == 7
