"""Tests for the benchmark's own code.

    python3 -m pytest perfbench

The traced-count tests run one cold traced repetition each of petersen13
and kneser-stack (about a minute and a half on two cores). The counts are
fixed by the claims, so they must come out exactly.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
import tracing  # noqa: E402
from tracing import CLAIM, ENUM, MINCOST, PAIR, SCAN, SOLVE, STACK  # noqa: E402


def traced(workload: str, tmp_path: Path):
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", "0", "--trace", "1", "--spans-out", str(spans),
         "--spawned-at", repr(time.monotonic())],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == []
    assert out["problems"] == []
    with np.load(spans) as sp:
        return out["layers"], {key: sp[key] for key in sp.files}


def test_self_time_subtracts_child_spans():
    # claim [0, 10] > scan [1, 5] > enum [1, 2] and solve [3, 4];
    # claim > mincost [6, 9] > solve [7, 8.5]
    layer = [CLAIM, SCAN, ENUM, SOLVE, MINCOST, SOLVE]
    parent = [-1, 0, 1, 1, 0, 4]
    start = [0.0, 1.0, 1.0, 3.0, 6.0, 7.0]
    end = [10.0, 5.0, 2.0, 4.0, 9.0, 8.5]
    n = [0, 40, 40, 6, 0, 2]
    k = [0, 0, 0, 0, 0, 1]
    spans = {"layer": np.array(layer, np.uint8), "tag": np.zeros(6, np.uint8),
             "parent": np.array(parent, np.int32),
             "start": np.array(start), "end": np.array(end),
             "n": np.array(n, np.int64), "k": np.array(k, np.int64)}
    m = tracing.layer_metrics(spans, memo_entries=7)
    assert m["harness.claim.self_s"] == 10 - 4 - 3
    assert m["numbers.scan.self_s"] == 4 - 1 - 1
    assert m["engine.mincost.self_s"] == 3 - 1.5
    assert m["numbers.enum.rows"] == 40
    assert m["numbers.enum.rows_per_s"] == 40.0
    assert m["engine.solve.solvable.calls"] == 1
    assert m["engine.solve.solvable.states_per_call"] == 2.0
    assert m["engine.solve.unsolvable.calls"] == 1
    assert m["engine.solve.unsolvable.busy_s"] == 1.0
    assert m["numbers.prescreen.pair.accept_ratio"] == 0.0
    assert m["engine.memo.entries"] == 7


def test_warm_caches_names_a_second_call():
    rep.load_pebblekit()
    from pebblekit import engine, harness

    engine._solver_cache.clear()
    harness._petersen.cache_clear()
    harness._petersen_pi1_scan.cache_clear()
    assert rep.warm_caches() == []
    harness.run_campaign(harness.CampaignConfig(claim="claim-A"))
    assert rep.warm_caches() == ["pebblekit.engine._solver_cache",
                                 "pebblekit.harness._petersen",
                                 "pebblekit.harness._petersen_pi1_scan"]


def test_without_sources_the_benchmark_fails(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "petersen13",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_petersen13_traced_counts(tmp_path):
    layers, sp = traced("petersen13", tmp_path)
    layer, n, k = sp["layer"], sp["n"], sp["k"]
    assert layers["numbers.enum.rows"] == 638_418
    # stacked 2-fold root demand at size 13: 3,329 rows go to the engine
    two_fold = (layer == STACK) & (sp["tag"] == 2)
    assert n[two_fold].sum() == 497_420
    assert k[two_fold].sum() == 494_091
    assert n[layer == PAIR].sum() == layers["numbers.prescreen.pair.rows"]
    assert layers["numbers.prescreen.pair.rows"] == 994_840
    assert k[layer == PAIR].sum() == 925_322
    assert layers["engine.mincost.calls"] == 497_420
    assert layers["engine.solve.solvable.calls"] == 570_937
    assert layers["engine.solve.unsolvable.calls"] == 2
    # every solve under min-cost search is traced through engine's binding
    nested = sp["parent"][(layer == SOLVE) & (sp["parent"] >= 0)]
    assert (layer[nested] == MINCOST).sum() == 497_420
    assert (layer == SCAN).sum() == 2


def test_kneser_stack_traced_counts(tmp_path):
    layers, sp = traced("kneser-stack", tmp_path)
    assert layers["engine.solve.unsolvable.calls"] == 12
    assert layers["engine.solve.solvable.calls"] == 0
    assert layers["numbers.enum.rows"] == 0
    assert (sp["layer"] == ENUM).sum() == 0
    assert layers["numbers.prescreen.stack.rows"] == 0
    assert layers["engine.memo.entries"] > 0
