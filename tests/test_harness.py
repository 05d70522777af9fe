"""Claim registry, report serialization, graph I/O, and the command line."""

import csv
import hashlib
import importlib
import io
import json
import logging
import os
import pkgutil
import random
import runpy
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import pebblekit
from pebblekit import (
    REGISTRY,
    VERSION,
    CampaignConfig,
    Configuration,
    Distribution,
    GraphError,
    HarnessError,
    build_graph,
    graph_to_json,
    is_solvable,
    kneser,
    load_graph,
    num_configs,
    pi_D,
    run_campaign,
)
from pebblekit import cli, harness, numbers
from pebblekit.harness import atomic_write

from oracles import unrank_config

REPORT_FIELDS = ["claim", "parameters", "expected", "computed", "verdict",
                 "witnesses", "configs_checked", "wall_time_s", "version",
                 "seed"]


# child interpreters import the pebblekit these tests import, so a run from
# a checkout needs no PYTHONPATH of its own
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(pebblekit.__file__)), os.environ.get("PYTHONPATH"))))}


def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "pebblekit.cli", *args],
                          capture_output=True, text=True, input=stdin, env=CHILD_ENV)


def test_registry_shape():
    assert len(REGISTRY) == 11
    covered = set()
    for claim, spec in REGISTRY.items():
        assert spec.claim == claim
        assert spec.description
        assert isinstance(spec.defaults, dict)
        # an optional parameter is no default, and replaces only defaults
        assert not set(spec.optional) & set(spec.defaults)
        assert all(set(replaced) <= set(spec.defaults)
                   for replaced in spec.optional.values())
        assert spec.criteria and all(1 <= c <= 12 for c in spec.criteria)
        covered.update(spec.criteria)
    # criterion 12 is the engine property-suite battery, covered by tests
    assert covered == set(range(1, 12))


def test_run_campaign_unknown_claim():
    with pytest.raises(HarnessError, match="unknown claim"):
        run_campaign(CampaignConfig(claim="thm-0.0"))


def test_each_claim_refuses_a_parameter_it_does_not_read(monkeypatch):
    """run_campaign refuses a parameter outside a claim's defaults and
    optional ones before its runner starts, naming what the claim takes."""
    def runner(*args):
        raise AssertionError("the runner ran")

    for claim, spec in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, claim, replace(spec, runner=runner))
        takes = ", ".join([*spec.defaults, *spec.optional]) or "no parameters"
        with pytest.raises(HarnessError) as err:
            run_campaign(CampaignConfig(claim=claim, params={"bogus": 1}))
        assert str(err.value) == f"{claim} does not read bogus; it takes {takes}"


def test_verify_refuses_what_a_claim_would_ignore(monkeypatch, capsys):
    """A parameter a claim would ignore is a usage error (exit 2) before any
    scan or engine call, with a message naming what the claim takes."""
    def scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    for name in ("_petersen_pi1_scan", "_petersen_size13_scan", "_scan_chunk",
                 "find_unsolvable_witness", "verify_target_conjecture",
                 "is_solvable", "vertex_connectivity"):
        monkeypatch.setattr(harness, name, scan)
    for argv, msg in (
            (["thm-3.11", "--t", "3"], "thm-3.11 is checked at t=2 only, got t=[3]"),
            (["lem-3.6", "--m", "7"],
             "lem-3.6 does not read m; it takes m_values, t_values"),
            (["cor-3.3", "--m", "9"], "cor-3.3 does not read m; it takes m_values"),
            (["cor-3.10", "--t", "3"],
             "cor-3.10 does not read t; it takes t_values"),
            (["cor-3.10", "--t-values", "1,3"],
             "cor-3.10 verification covers t in (1, 2), got [1, 3]"),
            (["claim-A", "--samples", "5"],
             "claim-A does not read samples; it takes no parameters"),
            (["thm-3.5", "--samples", "5"],
             "thm-3.5 takes samples only with m=6; at m=5 it scans every "
             "configuration"),
            (["thm-2.6", "--spec", "1", "--max-n", "5"],
             "thm-2.6 reads spec in place of max_n; it takes max_n, "
             "d_values, t, spec"),
            (["thm-2.6", "--spec", "1", "--d-values", "2"],
             "thm-2.6 reads spec in place of d_values"),
            (["thm-2.1", "--spec", "1", "--enumerate", "6"],
             "thm-2.1 reads enumerate in place of spec; it takes spec, t, "
             "enumerate"),
            (["thm-2.1", "--d-values", "2,3"], "thm-2.1 does not read d_values")):
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert msg in captured.err and captured.out == ""


def test_benchmark_workloads_pass_the_parameter_check():
    """perfbench/workloads.py is pure data; every (claim, params) it runs
    must pass run_campaign's parameter check, so that a registry edit
    cannot turn a workload into a usage error."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "perfbench", "workloads.py")
    workloads = runpy.run_path(path)["WORKLOADS"]
    assert workloads
    for workload in workloads.values():
        for claim, params in workload.claims:
            got = harness._claim_params(REGISTRY[claim], params)
            assert got == {**REGISTRY[claim].defaults, **params}


def test_report_shape_and_determinism(tmp_path):
    config = CampaignConfig(claim="thm-2.1", seed=3)
    report = run_campaign(config)
    assert report.verdict == "pass"
    assert report.version == VERSION and report.seed == 3
    data = json.loads(report.to_json())
    assert list(data) == REPORT_FIELDS
    assert data["expected"]["provenance"] in ("[PAPER]", "[DERIVED]", "[TRIVIAL]")

    again = run_campaign(CampaignConfig(claim="thm-2.1", seed=3))
    a, b = report.to_dict(), again.to_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


# The reproducibility contract: each report, less wall_time_s, hashed as
# the first 16 hex digits of sha256 of json.dumps(..., sort_keys=True),
# for the registry's defaults and two seeded thm-3.5 samplings, run in
# this order in one process.
REPORT_HASHES = (
    ("thm-2.1", {}, 0, "bee3e89423195ee9"),
    ("fact-2.2", {}, 0, "457e748a36fa3df6"),
    ("cor-2.3", {}, 0, "c97e2fd3cc90f89d"),
    ("thm-2.6", {}, 0, "618fd90659225a1e"),
    ("cor-3.3", {}, 0, "72fb1ac9ff90d9bd"),
    ("thm-3.5", {}, 0, "19369b18668a1099"),
    ("lem-3.6", {}, 0, "41a5cb721ff84579"),
    ("claim-A", {}, 0, "13ed8f6c22185c44"),
    ("claim-B", {}, 0, "ae206585bcf229e8"),
    ("cor-3.10", {}, 0, "a972188ef93dd421"),
    ("thm-3.11", {}, 0, "f7f12c588dc94cb2"),
    ("thm-3.5", {"m": 6, "samples": 100000}, 7, "8d28bbccef1b1b54"),
    ("thm-3.5", {"m": 6, "samples": 250000}, 7, "c5ca2c16859633d4"),
)


def report_hash(report) -> str:
    record = report.to_dict()
    record.pop("wall_time_s")
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_reports_match_their_pinned_hashes():
    """Every report is identical, apart from wall_time_s, to the one the
    pinned hash was taken from: verdicts, witnesses, counts and key names
    alike. A change that alters any report on purpose must say why and
    re-pin its hash."""
    got = [report_hash(run_campaign(CampaignConfig(claim=claim, params=params,
                                                   seed=seed)))
           for claim, params, seed, _ in REPORT_HASHES]
    assert got == [want for *_, want in REPORT_HASHES]


def test_report_csv_round_trip():
    report = run_campaign(CampaignConfig(claim="cor-3.3"))
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == REPORT_FIELDS
    record = dict(zip(rows[0], rows[1]))
    assert record["claim"] == "cor-3.3"
    assert json.loads(record["computed"]) == report.to_dict()["computed"]
    assert int(record["configs_checked"]) == report.configs_checked


def test_report_out_file_is_written(tmp_path):
    out = tmp_path / "report.json"
    report = run_campaign(CampaignConfig(claim="cor-3.3", out=str(out)))
    assert out.read_text() == report.to_json()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".pebblekit-")]

    out_csv = tmp_path / "report.csv"
    report = run_campaign(CampaignConfig(claim="cor-3.3", out=str(out_csv),
                                         format="csv"))
    assert out_csv.read_text() == report.to_csv()


def test_budget_exhaustion_yields_budget_verdict():
    report = run_campaign(CampaignConfig(claim="cor-3.10", budget=100))
    assert report.verdict == "budget"
    assert "budget of 100" in report.to_dict()["computed"]["error"]
    assert report.configs_checked > 100


def test_bad_jobs_and_budgets_are_usage_errors(tmp_path, capsys):
    """jobs below 1 and negative budgets are usage errors (exit 2) in pi,
    witness and verify, and ValueErrors for run_campaign, before any
    configuration is checked. A budget of 0 is legal: the claim reports
    the budget verdict."""
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_campaign(CampaignConfig(claim="lem-3.6", jobs=jobs))
    with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
        run_campaign(CampaignConfig(claim="cor-3.10", budget=-5))
    graph = tmp_path / "petersen.json"
    graph.write_text(graph_to_json(kneser(5, 2)) + "\n")
    scans = (["pi", "--graph", str(graph)],
             ["witness", "--graph", str(graph), "--root", "0", "--size", "9"],
             ["verify", "cor-3.10"])
    for argv in scans:
        for bad, msg in ((["--jobs", "0"], "jobs must be at least 1, got 0"),
                         (["--jobs", "-3"], "jobs must be at least 1, got -3"),
                         (["--budget", "-1"], "budget must be at least 0, got -1")):
            assert cli.main([*argv, *bad]) == 2
            captured = capsys.readouterr()
            assert msg in captured.err and captured.out == ""
    assert cli.main(["verify", "cor-3.10", "--budget", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "budget" and report["configs_checked"] > 0


def test_thm_3_5_needs_a_sample():
    for samples in (0, -5):
        with pytest.raises(HarnessError, match="at least one sample"):
            run_campaign(CampaignConfig(claim="thm-3.5",
                                        params={"m": 6, "samples": samples}))
    proc = run_cli("verify", "thm-3.5", "--m", "6", "--samples", "0")
    assert proc.returncode == 2
    assert "at least one sample" in proc.stderr


def test_fact_2_2_needs_trees_of_at_least_three_vertices(capsys):
    """An empty tree range or tree count is a usage error (exit 2), not a
    failed check (exit 1)."""
    for argv, msg in ((["--max-n", "2"], "max_n of at least 3, got 2"),
                      (["--max-n", "0"], "max_n of at least 3, got 0"),
                      (["--count", "0"], "at least one tree, got 0"),
                      (["--count", "-3"], "at least one tree, got -3")):
        assert cli.main(["verify", "fact-2.2", *argv]) == 2
        assert msg in capsys.readouterr().err


def test_empty_value_lists_are_refused(capsys):
    """A claim asked to check no m, no t or no 2-path would pass with no
    cases; an empty list or an empty fan-spec range is a usage error
    (exit 2) instead."""
    for argv, msg in ((["lem-3.6", "--m-values", "[]"], "m_values needs at least one"),
                      (["lem-3.6", "--t-values", "[]"], "t_values needs at least one"),
                      (["cor-3.10", "--t-values", "[]"], "t_values needs at least one"),
                      (["cor-3.3", "--m-values", "[]"], "m_values needs at least one"),
                      (["thm-2.1", "--t", "[]"], "t needs at least one"),
                      (["thm-2.1", "--enumerate", "3"], "no 2-path has max_n=3"),
                      (["thm-2.1", "--enumerate", "6", "--d-values", "[]"],
                       "no 2-path has max_n=6 and d_values=[]"),
                      (["cor-2.3", "--max-n", "3"], "no 2-path has max_n=3"),
                      (["thm-2.6", "--max-n", "3"], "no 2-path has max_n=3")):
        assert cli.main(["verify", *argv]) == 2
        assert msg in capsys.readouterr().err
    with pytest.raises(HarnessError, match="t_values needs at least one"):
        run_campaign(CampaignConfig(claim="lem-3.6", params={"t_values": ()}))


def test_symmetry_is_not_a_flag(tmp_path, capsys):
    """No command takes --symmetry: every scan covers every configuration,
    and a scan that overruns the budget is answered by raising --budget.
    pi takes no --hint either: its size search has no starting guess."""
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")
    pi = ["pi", "--graph", str(graph), "--root", "0"]
    for argv, flag in ((pi, ["--symmetry"]),
                       (["witness", "--graph", str(graph), "--root", "0",
                         "--size", "3"], ["--symmetry"]),
                       (["verify-target", "--graph", str(graph), "--t", "1",
                         "--expected-pi", "4"], ["--symmetry"]),
                       (["verify", "lem-3.6"], ["--symmetry"]),
                       (pi, ["--hint", "4"])):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in \
            capsys.readouterr().err


def test_thm_3_5_sampler_charges_whole_batches():
    """After the one C11 check, the sampler charges each 16,384-rank batch
    before settling it, so a budget that ends inside a batch is refused at
    that batch's end."""
    for budget, spent in ((16_384, 16_385), (16_385, 32_769),
                          (20_000, 32_769)):
        report = run_campaign(CampaignConfig(
            claim="thm-3.5", params={"m": 6, "samples": 100_000},
            budget=budget))
        assert report.verdict == "budget"
        assert report.configs_checked == spent


def test_thm_3_5_samples_the_randrange_draws(monkeypatch):
    """The sampler settles, in order and across the 16,384-rank batch
    boundary, the configurations at the ranks that one
    random.Random(seed).randrange call per sample draws."""
    blocks = []
    accept = numbers._FastFilter.accept

    def recording(self, rows, cache=None):
        blocks.append(rows.tolist())
        return accept(self, rows, cache)

    monkeypatch.setattr(numbers._FastFilter, "accept", recording)
    seed, samples = 5, 20_000
    report = run_campaign(CampaignConfig(
        claim="thm-3.5", params={"m": 6, "samples": samples}, seed=seed))
    assert report.verdict == "pass"
    assert report.configs_checked == 1 + samples
    assert [len(b) for b in blocks] == [16_384, samples - 16_384]
    rng = random.Random(seed)
    total = num_configs(15, 15)
    assert [row for b in blocks for row in b] == [
        list(unrank_config(15, 15, rng.randrange(total)).counts)
        for _ in range(samples)]


def test_thm_3_5_leaves_numpy_random_unimported():
    """The sampler reads the seeded random.Random's words itself: importing
    numpy.random would add about 5 MB to a sampling run's peak memory."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from pebblekit import cli\n"
         "code = cli.main(['verify', 'thm-3.5', '--m', '6', "
         "'--samples', '20000'])\n"
         "print(code, 'numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_thm_3_5_reports_the_first_bad_sample(monkeypatch):
    """With a prescreen that rejects every row and an engine that finds
    every row unsolvable, the sampler stops at the first row drawn for the
    seed and reports it."""
    monkeypatch.setattr(numbers._FastFilter, "accept",
                        lambda self, rows, cache=None:
                        np.zeros(rows.shape[0], dtype=bool))
    monkeypatch.setattr(numbers, "is_solvable",
                        lambda *args: SimpleNamespace(solvable=False))
    seed = 11
    first = unrank_config(15, 15,
                          random.Random(seed).randrange(num_configs(15, 15)))
    report = run_campaign(CampaignConfig(
        claim="thm-3.5", params={"m": 6, "samples": 50}, seed=seed))
    assert report.verdict == "fail" and report.computed is None
    assert report.witnesses[-1] == {"bad_sample": list(first.counts)}
    assert report.configs_checked == 1 + 50


def test_pi_t_claims_record_the_certificate_counterexample(monkeypatch):
    """thm-2.1 and fact-2.2 certify through verify_target_conjecture, so a
    wrong expected value fails with its counterexample: a configuration of
    the expected size that fails a stacked demand when the value is too
    low, the missing lower witness when it is too high."""
    two_path_pi_t, tree_pi = harness.two_path_pi_t, harness.tree_pi
    monkeypatch.setattr(harness, "two_path_pi_t",
                        lambda n, d, t: two_path_pi_t(n, d, t) - 1)
    report = run_campaign(CampaignConfig(claim="thm-2.1", params={"t": [1]}))
    assert report.verdict == "fail"
    (key, got), = report.computed.items()
    ce = got["1"]["mismatch"]
    assert sorted(ce) == ["config", "demand"]
    assert sum(ce["config"]) == report.expected["value"][key]["1"]
    assert sorted(ce["demand"]) == [0, 0, 0, 1]
    monkeypatch.setattr(harness, "tree_pi",
                        lambda partition, t: tree_pi(partition, t) + 1)
    report = run_campaign(CampaignConfig(claim="fact-2.2",
                                         params={"count": 1, "t": [1]}))
    assert report.verdict == "fail"
    assert [m["detail"] for m in report.computed["detail"]] == [
        {"reason": "no unsolvable configuration at size pi_t - 1"}]


def test_package_exports_the_union_of_the_submodule_exports():
    """Every name in a submodule's __all__ resolves there, and the package
    exports exactly their union plus VERSION, each the submodule's object,
    so a removed name cannot linger in an export list."""
    union = {"VERSION": pebblekit.VERSION}
    for info in pkgutil.iter_modules(pebblekit.__path__):
        mod = importlib.import_module(f"pebblekit.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"pebblekit.{info.name}.{name}"
            union[name] = getattr(mod, name)
    assert len(set(pebblekit.__all__)) == len(pebblekit.__all__)
    assert set(pebblekit.__all__) == set(union)
    for name, value in union.items():
        assert getattr(pebblekit, name) is value, name


def test_atomic_write_overwrites_in_place(tmp_path):
    path = tmp_path / "x.json"
    atomic_write(str(path), "one\n")
    atomic_write(str(path), "two\n")
    assert path.read_text() == "two\n"
    assert list(tmp_path.iterdir()) == [path]


def test_save_and_load_graph_round_trip(tmp_path, petersen):
    path = tmp_path / "petersen.json"
    path.write_text(graph_to_json(petersen) + "\n")
    assert load_graph(str(path)) == petersen


def test_load_graph_merges_duplicate_edges(tmp_path, caplog, monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **kw: calls.append(1) or loads(*a, **kw))
    path = tmp_path / "dup.json"
    path.write_text('{"n": 3,\n "edges": [[0, 1], [1, 0], [2, 1], [1, 2]]}\n')
    with caplog.at_level(logging.WARNING, logger="pebblekit"):
        g = load_graph(str(path))
    assert g.edges == ((0, 1), (1, 2))
    assert any("2 duplicate edge(s)" in rec.message for rec in caplog.records)
    assert len(calls) == 1  # one parse serves the graph and the count

    bad = tmp_path / "disconnected.json"
    bad.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}\n')
    with pytest.raises(GraphError):
        load_graph(str(bad))

    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"n": 3,\n "edges": [[0, 1],\n  [1,\n')
    with pytest.raises(GraphError) as err:
        load_graph(str(truncated))
    assert "at line 4 column 1" in str(err.value)


def test_cli_version_and_usage_errors():
    proc = run_cli("--version")
    assert proc.returncode == 0 and proc.stdout.strip() == VERSION
    proc = run_cli()
    assert proc.returncode == 2
    proc = run_cli("verify", "thm-0.0")
    assert proc.returncode == 2 and "unknown claim" in proc.stderr


def test_cli_gen(tmp_path):
    proc = run_cli("gen", "kneser", "--m", "5")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == 10 and len(data["edges"]) == 15

    out = tmp_path / "tp.json"
    proc = run_cli("gen", "twopath", "--spec", "k=1,2", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text())["n"] == 7

    proc = run_cli("gen", "tree", "--n", "6", "--seed", "1")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["edges"]) == 5


def test_cli_formula():
    proc = run_cli("formula", "kneser-p", "--m", "5", "--t", "2")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert data["p"] == 13 and data["t0"] == "3/2"

    proc = run_cli("formula", "twopath", "--n", "14", "--d", "4")
    assert json.loads(proc.stdout)["value"] == 22

    proc = run_cli("formula", "tree-pi", "--partition", "5,1", "--t", "2")
    assert json.loads(proc.stdout)["value"] == 65

    proc = run_cli("formula", "spinal", "--n", "14", "--d", "4", "--ecc", "4",
                   "--spinal")
    assert json.loads(proc.stdout)["value"] == 25
    proc = run_cli("formula", "spinal", "--n", "14", "--d", "4", "--ecc", "3",
                   "--no-spinal")
    assert json.loads(proc.stdout)["value"] == 19

    proc = run_cli("formula", "twopath", "--n", "3", "--d", "1")
    assert proc.returncode == 2 and "error:" in proc.stderr


def path3_json():
    return json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})


def test_cli_solve(tmp_path):
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")

    proc = run_cli("solve", "--graph", str(graph), "--config", "4,0,0",
                   "--root", "2")
    assert proc.returncode == 0 and json.loads(proc.stdout)["solvable"]

    proc = run_cli("solve", "--graph", str(graph), "--config", "3,0,0",
                   "--root", "2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["solvable"] is False

    proc = run_cli("solve", "--graph", "-", "--config", "4,0,0", "--root", "2",
                   "--min-cost", stdin=path3_json())
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert data["cost"] == 4 and len(data["moves"]) == 3 and data["is_cheap"]


def test_cli_graphs_from_files_and_stdin_merge_duplicates_alike(tmp_path):
    """--graph FILE and --graph - read through one loader: both merge a
    duplicate edge and warn about it, and give the same answer."""
    text = json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [1, 0]]})
    graph = tmp_path / "dup.json"
    graph.write_text(text + "\n")
    argv = ("solve", "--config", "4,0,0", "--root", "2")
    from_file = run_cli(argv[0], "--graph", str(graph), *argv[1:])
    from_stdin = run_cli(argv[0], "--graph", "-", *argv[1:], stdin=text)
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout
    assert f"{graph}: 1 duplicate edge(s) merged" in from_file.stderr
    assert "<stdin>: 1 duplicate edge(s) merged" in from_stdin.stderr


def _cli_out(capsys, *argv):
    """Exit code and stdout of one in-process CLI call."""
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _report_sans_time(text):
    record = json.loads(text)
    record.pop("wall_time_s")
    return record


def test_cli_integer_lists_read_ranges_and_files(tmp_path, capsys):
    """An integer list may be a 'a..b' range or '@file' holding a JSON
    array or the comma form; each gives the report of the explicit list."""
    as_json, as_commas = tmp_path / "ms.json", tmp_path / "ms.txt"
    as_json.write_text("[5, 6]\n")
    as_commas.write_text("5,6\n")
    reports = []
    for form in ("5,6", "5..6", f"@{as_json}", f"@{as_commas}"):
        code, out = _cli_out(capsys, "verify", "cor-3.3", "--m-values", form)
        assert code == 0
        reports.append(_report_sans_time(out))
    assert reports[0]["parameters"] == {"m_values": [5, 6]}
    assert all(r == reports[0] for r in reports)


def test_cli_fan_specs_read_every_documented_form(tmp_path, capsys):
    """A fan spec may be 'k=..;overlap=..', a bare '2,2,2' with no overlaps,
    inline JSON or '@file' with the JSON; overlap flags read true/1/yes and
    false/0/no. Each gives the graph of the explicit form. A flag that is
    no boolean, an unknown field and a spec with no k are usage errors."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"k": [2, 2, 2], "overlap": [true, false]}\n')
    explicit = _cli_out(capsys, "gen", "twopath", "--spec",
                        "k=2,2,2;overlap=true,false")
    for form in ("k=2,2,2;overlap=yes,0", "overlap=1,no; k=2,2,2;",
                 '{"k": [2, 2, 2], "overlap": [true, false]}', f"@{spec}"):
        assert _cli_out(capsys, "gen", "twopath", "--spec", form) == explicit
    plain = _cli_out(capsys, "gen", "twopath", "--spec",
                     "k=2,2,2;overlap=false,false")
    assert _cli_out(capsys, "gen", "twopath", "--spec", "2,2,2") == plain
    assert plain != explicit
    for form, msg in (("k=2,2;overlap=maybe", "not a boolean: 'maybe'"),
                      ("k=2,2;fans=2", "unknown fan spec field 'fans'"),
                      ("overlap=true", "fan spec needs k=...")):
        assert cli.main(["gen", "twopath", "--spec", form]) == 2
        assert msg in capsys.readouterr().err


def test_cli_demand_vectors_and_min_cost_refusals(tmp_path, capsys):
    """--demand gives the answer of the --root it spells out, and a vector
    of the wrong length is a usage error. solve --min-cost reports an
    unsolvable configuration with exit 1, and refuses a demand that is not
    one pebble on one vertex."""
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")
    solve = ("solve", "--graph", str(graph), "--config", "0,0,8")
    for cmd in (solve, ("pi", "--graph", str(graph))):
        assert _cli_out(capsys, *cmd, "--demand", "2,0,0") == \
            _cli_out(capsys, *cmd, "--root", "0", "--t", "2")
        assert cli.main([*cmd, "--demand", "0,1"]) == 2
        assert "demand has 2 entries for 3 vertices" in capsys.readouterr().err
    code, out = _cli_out(capsys, "solve", "--graph", str(graph), "--config",
                         "3,0,0", "--root", "2", "--min-cost")
    assert code == 1
    assert json.loads(out) == {"solvable": False, "moves": None, "cost": None}
    for extra in (("--root", "2", "--t", "2"), ("--demand", "1,0,1")):
        assert cli.main([*solve, *extra, "--min-cost"]) == 2
        assert "--min-cost needs a single unit demand" in capsys.readouterr().err


def test_cli_enumerate_takes_d_values_inside_it(capsys):
    """With --enumerate, --d-values goes into the enumerate parameter only,
    and the report matches the one run from the same parameters."""
    code, out = _cli_out(capsys, "verify", "thm-2.1", "--enumerate", "6",
                         "--d-values", "2,3", "--t", "1..2")
    assert code == 0
    report = _report_sans_time(out)
    params = {"enumerate": {"max_n": 6, "d_values": [2, 3]}, "t": [1, 2]}
    assert report["parameters"] == {"spec": {"k": [1]}, **params}
    direct = run_campaign(CampaignConfig(claim="thm-2.1", params=params))
    assert report == _report_sans_time(direct.to_json())


def test_cli_pi_and_witness(tmp_path):
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")

    proc = run_cli("pi", "--graph", str(graph), "--root", "0", "--expect", "4")
    assert proc.returncode == 0 and json.loads(proc.stdout)["match"]

    out = tmp_path / "pi.json"
    proc = run_cli("pi", "--graph", str(graph), "--root", "0", "--expect", "5",
                   "--out", str(out))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["match"] is False
    assert out.read_text() == proc.stdout

    proc = run_cli("pi", "--graph", str(graph), "--t", "2")
    assert json.loads(proc.stdout)["pi_t"] == 8

    proc = run_cli("witness", "--graph", str(graph), "--root", "0",
                   "--size", "3", "--all")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert data["witness"] == [0, 0, 3] and data["witnesses"] == [[0, 0, 3]]

    proc = run_cli("witness", "--graph", str(graph), "--root", "0",
                   "--size", "4")
    assert proc.returncode == 1 and json.loads(proc.stdout)["found"] is False


def test_cli_mode_reaches_solve_pi_and_witness(tmp_path):
    """--mode greedy gives the library's greedy answers: on the 5-cycle
    greedy pebbling needs 7 pebbles at a root where 5 suffice without
    restriction. pi without --demand or --root is pi_t, which has no mode,
    so a restricted --mode there is refused rather than ignored."""
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    graph = tmp_path / "c5.json"
    graph.write_text(graph_to_json(c5) + "\n")
    d = Distribution.stacked(5, 0, 1)
    greedy = ("--mode", "greedy")

    proc = run_cli("pi", "--graph", str(graph), "--root", "0", *greedy)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi"] == pi_D(c5, d, mode="greedy") == 7
    assert pi_D(c5, d) == 5

    proc = run_cli("witness", "--graph", str(graph), "--root", "0",
                   "--size", "6", *greedy)
    assert proc.returncode == 0
    witness = json.loads(proc.stdout)["witness"]
    assert not is_solvable(c5, Configuration(tuple(witness)), d,
                           mode="greedy").solvable

    config = ("--config", ",".join(map(str, witness)), "--root", "0")
    proc = run_cli("solve", "--graph", str(graph), *config, *greedy)
    assert proc.returncode == 1 and json.loads(proc.stdout)["solvable"] is False
    proc = run_cli("solve", "--graph", str(graph), *config)
    assert proc.returncode == 0 and json.loads(proc.stdout)["solvable"]

    for mode in ("greedy", "semi_greedy"):
        proc = run_cli("pi", "--graph", str(graph), "--t", "1", "--mode", mode)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: --mode {mode} needs --demand or --root\n"


def test_cli_seed_is_an_option_of_verify_only(tmp_path):
    """pi, witness and verify-target draw nothing at random, so they take
    no --seed; verify passes its seed to the sampling claims."""
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")
    for cmd in (["pi", "--root", "0"], ["witness", "--root", "0", "--size", "3"],
                ["verify-target", "--t", "1"]):
        proc = run_cli(cmd[0], "--graph", str(graph), *cmd[1:], "--seed", "1")
        assert proc.returncode == 2 and "--seed" in proc.stderr
    proc = run_cli("verify", "cor-3.3", "--m-values", "5", "--seed", "1")
    assert proc.returncode == 0 and json.loads(proc.stdout)["seed"] == 1


def test_cli_refuses_bad_roots_and_t(tmp_path, capsys):
    """--root must name a vertex and --t must be at least 1 in solve, pi
    and witness; only a missing --t reads as 1."""
    petersen = tmp_path / "petersen.json"
    petersen.write_text(graph_to_json(kneser(5, 2)) + "\n")
    config = ["--config", ",".join(["1"] * 10)]
    size = ["--size", "3"]
    for cmd, extra in (("solve", config), ("pi", []), ("witness", size)):
        for root in ("10", "-1"):
            assert cli.main([cmd, "--graph", str(petersen), "--root", root,
                             *extra]) == 2
            assert f"root {root} is not a vertex" in capsys.readouterr().err
        for t in ("0", "-1"):
            assert cli.main([cmd, "--graph", str(petersen), "--root", "0",
                             "--t", t, *extra]) == 2
            assert "t must be at least 1" in capsys.readouterr().err
    assert cli.main(["pi", "--graph", str(petersen), "--t", "0"]) == 2
    assert "t must be at least 1" in capsys.readouterr().err
    graph = tmp_path / "p3.json"
    graph.write_text(path3_json() + "\n")
    assert cli.main(["pi", "--graph", str(graph), "--root", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["demand"] == [1, 0, 0]
    assert cli.main(["pi", "--graph", str(graph), "--root", "0",
                     "--t", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"demand": [2, 0, 0],
                                                   "pi": 8}


def test_cli_verify_and_verify_target(tmp_path):
    proc = run_cli("verify", "thm-2.1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "pass" and list(data) == REPORT_FIELDS

    proc = run_cli("verify", "cor-3.3", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(REPORT_FIELDS)

    proc = run_cli("verify", "cor-3.10", "--budget", "100")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "budget"

    tp = tmp_path / "tp.json"
    proc = run_cli("gen", "twopath", "--spec", "k=1", "--out", str(tp))
    assert proc.returncode == 0
    proc = run_cli("verify-target", "--graph", str(tp), "--t", "2",
                   "--expected-pi", "8")
    assert proc.returncode == 0 and json.loads(proc.stdout)["pass"]
    proc = run_cli("verify-target", "--graph", str(tp), "--t", "2",
                   "--expected-pi", "9")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False


def test_cli_verify_target_refuses_demands_of_the_wrong_length(tmp_path):
    """A demand vector shorter or longer than the vertex count is a usage
    error (exit 2) with the engine's message, not a pass or a traceback."""
    graph = tmp_path / "p4.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    for demands in ("[[0,1]]", "[[0,1,0,0,0]]"):
        proc = run_cli("verify-target", "--graph", str(graph), "--t", "1",
                       "--demands", demands)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: demand length must equal vertex count\n"
