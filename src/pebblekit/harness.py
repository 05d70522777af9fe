"""Verification campaigns: a registry of checkable claims, runners that
dispatch to the exact machinery, and reproducible report I/O."""

from __future__ import annotations

import functools
import json
import logging
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .engine import Configuration, Distribution, is_solvable
from .families import FanSpec, enumerate_fan_specs, is_spinal_root, kneser, \
    max_path_partition, random_tree, spinal_tree, two_path
from .formulas import KneserParams, build_C_t1, build_C_t2, build_J_r, \
    kneser_p, spinal_pi, tree_pi, two_path_pi_t
from .graph import _decode_graph, Graph, graph_to_json, pair_orbits, \
    vertex_connectivity
from .numbers import _ascending_blocks, _coerce_budget, _FastFilter, \
    _min_moves_upto3, _unrank_cols, BudgetExceededError, check_pi_t_equals, \
    find_unsolvable_witness, num_configs, tree_dust_witness, \
    two_path_lower_candidates, verify_target_conjecture
from .version import VERSION

__all__ = [
    "HarnessError",
    "CampaignConfig",
    "ExperimentReport",
    "REGISTRY",
    "run_campaign",
    "load_graph",
    "save_graph",
    "atomic_write",
]

log = logging.getLogger("pebblekit")


class HarnessError(ValueError):
    """Unknown claim id or malformed campaign configuration."""


@dataclass
class CampaignConfig:
    claim: str
    params: dict = field(default_factory=dict)
    budget: int | None = None
    jobs: int = 1
    seed: int = 0
    out: str | None = None
    format: str = "json"


_REPORT_FIELDS = ("claim", "parameters", "expected", "computed", "verdict",
                  "witnesses", "configs_checked", "wall_time_s", "version",
                  "seed")


@dataclass
class ExperimentReport:
    """Self-contained record of one verification campaign. Serialization is
    deterministic: fixed key order, so identical (config, seed, version)
    runs differ at most in wall_time_s."""

    claim: str
    parameters: dict
    expected: dict
    computed: object
    verdict: str
    witnesses: list
    configs_checked: int
    wall_time_s: float
    version: str
    seed: int

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REPORT_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        row = []
        for name in _REPORT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            row.append(value)
        writer.writerow(row)
        return buf.getvalue()


def atomic_write(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial data."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pebblekit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_graph(g: Graph, path: str):
    atomic_write(path, graph_to_json(g) + "\n")


def load_graph(path: str) -> Graph:
    """Read a graph JSON file; duplicate edges are merged with a warning,
    parse errors carry line/column, invariant violations raise."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    g, edges = _decode_graph(text)
    listed = [tuple(sorted((int(u), int(v)))) for u, v in edges]
    dupes = len(listed) - len(set(listed))
    if dupes:
        log.warning("%s: %d duplicate edge(s) merged", path, dupes)
    return g


def _cfg_list(c: Configuration) -> list:
    return [int(x) for x in c.counts]


# ---------------------------------------------------------------------------
# Shared exhaustive scans on the Kneser graph of 2-subsets of a 5-set.
# Several claims rest on the same passes, so each runs once per process.
# ---------------------------------------------------------------------------

_PETERSEN_ROOT = 0


@functools.cache
def _petersen() -> Graph:
    return kneser(5, 2)


@functools.cache
def _petersen_pi1_scan() -> dict:
    """Every size-9 configuration for demand 1 on root 0 (collecting every
    unsolvable one), plus every size-10 configuration (expecting none)."""
    g = _petersen()
    d = Distribution.stacked(g.n, _PETERSEN_ROOT, 1)
    res9 = find_unsolvable_witness(g, d, 9, collect_all=True)
    res10 = find_unsolvable_witness(g, d, 10)
    return {
        "witnesses_size9": [_cfg_list(w) for w in res9.witnesses],
        "size10_witness": _cfg_list(res10.witness) if res10.found else None,
        "configs_checked": res9.configs_checked + res10.configs_checked,
    }


@functools.cache
def _petersen_size13_scan() -> dict:
    """One pass over all size-13 configurations checking, per row: 2-fold
    solvability to the root, solvability for an adjacent and a distance-2
    demand pair, and the minimum cost of a root solution (expected <= 4
    everywhere). Also confirms the size-12 doubled-stack construction is
    2-fold unsolvable (the matching lower bound).

    Each demand's _FastFilter accepts most rows by its spanning-tree masks
    and, on the rest, by the one-move lookahead (a row whose child the
    masks accept is solvable); the exact engine decides only what is left.
    Cost is moves + 1, read from `_min_moves_upto3`, which is exact for
    0 to 3 moves; a row it leaves at -1 needs at least 4 moves, or cannot
    reach the root, and is a cost<=4 failure."""
    g = _petersen()
    r = _PETERSEN_ROOT
    n = g.n
    dist = g.distances(r)
    u = min(v for v in range(n) if dist[v] == 1)
    w = min(v for v in range(n) if dist[v] == 2)

    def pair(a: int, b: int) -> Distribution:
        vec = [0] * n
        vec[a] += 1
        vec[b] += 1
        return Distribution(tuple(vec))

    demands = [Distribution.stacked(n, r, 2), pair(r, u), pair(r, w)]
    filters = [_FastFilter(g, d) for d in demands]

    failures = []
    max_cost = 0
    checked = 0
    for rows in _ascending_blocks(n, 13):
        checked += rows.shape[0]
        cache: dict = {}
        for di, d in enumerate(demands):
            for i in np.flatnonzero(~filters[di].accept(rows, cache)):
                counts = tuple(rows[i].tolist())
                if not is_solvable(g, counts, d).solvable:
                    failures.append({"demand": list(d.demands),
                                     "config": list(counts)})
        # cost <= 4 means at most 3 pebbling steps reach the root
        moves = _min_moves_upto3(g, rows, r)
        max_cost = max(max_cost, int(moves.max()) + 1)
        for i in np.flatnonzero(moves < 0):
            failures.append({"demand": "cost<=4",
                             "config": rows[i].tolist()})

    c22 = build_C_t2(g, r, 2)
    c22_unsolvable = not is_solvable(g, c22, demands[0]).solvable
    return {
        "configs_checked": checked,
        "failures": failures,
        "max_cost": max_cost,
        "demand_vectors": [list(d.demands) for d in demands],
        "c22": _cfg_list(c22),
        "c22_size": c22.size,
        "c22_unsolvable": c22_unsolvable,
    }


# ---------------------------------------------------------------------------
# Claim runners. Each returns a dict:
#   expected, provenance, computed, witnesses, passed
# and charges every configuration it scans to the supplied budget.
# ---------------------------------------------------------------------------


def _as_int_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [int(x) for x in value]
    return [int(value)]


def _as_int(value) -> int:
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise HarnessError(f"expected a single integer, got {value!r}")
        return int(value[0])
    return int(value)


def _parse_spec(params) -> FanSpec:
    raw = params.get("spec", {"k": [1]})
    if isinstance(raw, FanSpec):
        return raw
    if isinstance(raw, dict):
        return FanSpec(tuple(raw["k"]), tuple(raw.get("overlap", ())))
    return FanSpec(tuple(raw))


def _specs_for(params):
    if "enumerate" in params:
        en = params["enumerate"]
        return list(enumerate_fan_specs(en["max_n"], en.get("d_values")))
    return [_parse_spec(params)]


def _run_thm_2_1(params, budget, jobs, seed):
    ts = _as_int_list(params.get("t", (1, 2, 3)))
    specs = _specs_for(params)
    expected = {}
    computed = {}
    witnesses = []
    passed = True
    for spec in specs:
        tp = two_path(spec)
        g = tp.graph
        key = spec.to_json()
        expected[key] = {}
        computed[key] = {}
        for t in ts:
            want = two_path_pi_t(g.n, tp.d, t)
            expected[key][str(t)] = want
            res = check_pi_t_equals(g, t, want, budget=budget, jobs=jobs,
                                    lower_candidates=two_path_lower_candidates(tp, t))
            if res["pass"]:
                computed[key][str(t)] = want
                lw = res["lower_witness"]
                witnesses.append({"spec": key, "t": t, "root": lw["root"],
                                  "config": _cfg_list(lw["witness"]),
                                  "source": lw["source"]})
            else:
                computed[key][str(t)] = {"mismatch": res["reason"]}
                passed = False
    return {"expected": expected, "provenance": "[PAPER]",
            "computed": computed, "witnesses": witnesses, "passed": passed}


def _run_fact_2_2(params, budget, jobs, seed):
    count = int(params.get("count", 50))
    max_n = int(params.get("max_n", 9))
    ts = _as_int_list(params.get("t", (1, 2, 3)))
    cap = int(params.get("scan_cap", 3_000_000))
    trees = []
    attempt = 0
    while len(trees) < count:
        n = 3 + attempt % (max_n - 2)
        tree = random_tree(n, seed + attempt)
        attempt += 1
        partition = max_path_partition(tree)
        if num_configs(n, tree_pi(partition, max(ts))) <= cap:
            trees.append((tree, partition))
    mismatches = []
    witnesses = []
    for idx, (tree, partition) in enumerate(trees):
        g = tree.graph
        for t in ts:
            want = tree_pi(partition, t)
            dust = tree_dust_witness(tree, t)
            res = check_pi_t_equals(g, t, want, roots=[tree.root],
                                    lower_candidates=[(tree.root, dust)],
                                    budget=budget, jobs=jobs)
            if not res["pass"]:
                mismatches.append({"tree": idx, "n": g.n, "t": t,
                                   "expected": want, "detail": res["reason"]})
        witnesses.append({"tree": idx, "n": g.n,
                          "partition": list(partition)})
    return {"expected": {"trees": count, "mismatches": 0},
            "provenance": "[PAPER]",
            "computed": {"trees": len(trees), "mismatches": len(mismatches),
                         "detail": mismatches},
            "witnesses": witnesses[:10], "passed": not mismatches}


def _run_cor_2_3(params, budget, jobs, seed):
    max_n = int(params.get("max_n", 12))
    d_values = params.get("d_values")
    pairs = 0
    mismatches = []
    for spec in enumerate_fan_specs(max_n, d_values):
        tp = two_path(spec)
        g = tp.graph
        n, d = g.n, tp.d
        bound = (1 << d) + n - d - 1
        for r in range(n):
            tr = spinal_tree(tp, r)
            got = tree_pi(max_path_partition(tr), 1)
            want = spinal_pi(n, d, g.metrics.ecc[r], is_spinal_root(tp, r))
            pairs += 1
            if got != want or got > bound:
                mismatches.append({"spec": spec.to_json(), "root": r,
                                   "tree_value": got, "formula": want,
                                   "bound": bound})
    return {"expected": {"mismatches": 0}, "provenance": "[PAPER]",
            "computed": {"roots_checked": pairs,
                         "mismatches": len(mismatches), "detail": mismatches},
            "witnesses": [], "passed": not mismatches}


def _run_thm_2_6(params, budget, jobs, seed):
    t = _as_int(params.get("t", 2))
    if "spec" in params:
        specs = [_parse_spec(params)]
    else:
        specs = list(enumerate_fan_specs(int(params.get("max_n", 8)),
                                         params.get("d_values", [2, 3])))
    failures = []
    witnesses = []
    for spec in specs:
        tp = two_path(spec)
        g = tp.graph
        rep = verify_target_conjecture(
            g, t, expected_pi=two_path_pi_t(g.n, tp.d, t),
            lower_candidates=two_path_lower_candidates(tp, t),
            budget=budget, jobs=jobs)
        if not rep["pass"]:
            failures.append({"spec": spec.to_json(),
                             "counterexample": _json_safe(rep["counterexample"])})
        else:
            lw = rep["lower_witness"]
            witnesses.append({"spec": spec.to_json(), "pi_t": rep["pi_t"],
                              "demands": rep["demand_count"],
                              "lower_root": lw["root"]})
    return {"expected": {"counterexamples": 0}, "provenance": "[PAPER]",
            "computed": {"two_paths": len(specs),
                         "counterexamples": len(failures), "detail": failures},
            "witnesses": witnesses, "passed": not failures}


def _run_cor_3_3(params, budget, jobs, seed):
    ms = _as_int_list(params.get("m_values", (5, 6, 7)))
    expected = {str(m): comb(m - 2, 2) for m in ms}
    computed = {str(m): vertex_connectivity(kneser(m, 2)) for m in ms}
    return {"expected": expected, "provenance": "[PAPER]",
            "computed": computed, "witnesses": [],
            "passed": expected == computed}


def _run_thm_3_5(params, budget, jobs, seed):
    m = _as_int(params.get("m", 5))
    expected = comb(m, 2)
    if m == 5:
        scan = _petersen_pi1_scan()
        budget.charge(scan["configs_checked"])
        jr = _cfg_list(build_J_r(_petersen(), _PETERSEN_ROOT))
        ok = scan["witnesses_size9"] == [jr] and scan["size10_witness"] is None
        return {"expected": expected, "provenance": "[PAPER]",
                "computed": expected if ok else None,
                "witnesses": scan["witnesses_size9"],
                "passed": ok}
    if m == 6:
        g = kneser(6, 2)
        r = 0
        c11 = build_C_t1(g, r, 1)
        budget.charge(1)
        d = Distribution.stacked(g.n, r, 1)
        lower_ok = c11.size == expected - 1 and not is_solvable(g, c11, d).solvable
        samples = int(params.get("samples", 10 ** 6))
        filt = _FastFilter(g, d)
        total = num_configs(g.n, expected)
        rng = random.Random(seed)
        bad = None
        batch = 1 << 14
        remaining = samples
        while remaining > 0 and bad is None:
            k = min(batch, remaining)
            remaining -= k
            budget.charge(k)
            rows = _unrank_cols(g.n, expected,
                                [rng.randrange(total) for _ in range(k)]).T
            for i in np.flatnonzero(~filt.accept(rows)):
                counts = tuple(rows[i].tolist())
                if not is_solvable(g, counts, d).solvable:
                    bad = list(counts)
                    break
        witnesses = [{"size14_witness": _cfg_list(c11),
                      "unsolvable": lower_ok, "samples": samples}]
        exhaustive = bool(params.get("exhaustive", False))
        if exhaustive:
            res = find_unsolvable_witness(g, d, expected - 1,
                                          collect_all=True, budget=budget,
                                          jobs=jobs)
            witnesses.append({"size14_witness_count": len(res.witnesses)})
        ok = lower_ok and bad is None
        return {"expected": expected, "provenance": "[PAPER]",
                "computed": expected if ok else None,
                "witnesses": witnesses + ([{"bad_sample": bad}] if bad else []),
                "passed": ok}
    raise HarnessError(f"no verification route for m={m}; supported: 5, 6")


def _run_lem_3_6(params, budget, jobs, seed):
    ms = _as_int_list(params.get("m_values", (5, 6)))
    ts = _as_int_list(params.get("t_values", (1, 2, 3)))
    results = []
    passed = True
    for m in ms:
        g = kneser(m, 2)
        r = 0
        n = g.n
        for t in ts:
            d = Distribution.stacked(n, r, t)
            for name, cfg, want_size in (
                    ("C_t1", build_C_t1(g, r, t), n + 2 * t - 3),
                    ("C_t2", build_C_t2(g, r, t), 4 * t + 2 * (m - 2) - 2)):
                budget.charge(1)
                unsolv = not is_solvable(g, cfg, d).solvable
                ok = unsolv and cfg.size == want_size
                passed &= ok
                results.append({"m": m, "t": t, "config": name,
                                "size": cfg.size, "size_expected": want_size,
                                "unsolvable": unsolv})
    return {"expected": {"all_unsolvable": True, "size_mismatches": 0},
            "provenance": "[PAPER]",
            "computed": {"cases": results},
            "witnesses": [], "passed": passed}


def _run_claim_a(params, budget, jobs, seed):
    scan = _petersen_pi1_scan()
    budget.charge(scan["configs_checked"])
    jr = _cfg_list(build_J_r(_petersen(), _PETERSEN_ROOT))
    ok = scan["witnesses_size9"] == [jr]
    return {"expected": [jr], "provenance": "[PAPER]",
            "computed": scan["witnesses_size9"],
            "witnesses": scan["witnesses_size9"], "passed": ok}


def _run_claim_b(params, budget, jobs, seed):
    scan = _petersen_size13_scan()
    budget.charge(scan["configs_checked"])
    cost_failures = [f for f in scan["failures"] if f["demand"] == "cost<=4"]
    return {"expected": {"cost_violations": 0, "max_cost": 4},
            "provenance": "[PAPER]",
            "computed": {"cost_violations": len(cost_failures),
                         "max_cost": scan["max_cost"],
                         "detail": cost_failures},
            "witnesses": [], "passed": not cost_failures}


def _run_cor_3_10(params, budget, jobs, seed):
    ts = _as_int_list(params.get("t_values", (1, 2)))
    expected = {}
    computed = {}
    witnesses = []
    passed = True
    for t in ts:
        p = kneser_p(KneserParams(5, t))["p"]
        expected[str(t)] = p
        if t == 1:
            scan = _petersen_pi1_scan()
            budget.charge(scan["configs_checked"])
            ok = (len(scan["witnesses_size9"]) > 0
                  and scan["size10_witness"] is None)
            computed[str(t)] = p if ok else None
            passed &= ok
        elif t == 2:
            scan = _petersen_size13_scan()
            budget.charge(scan["configs_checked"])
            stacked_fail = [f for f in scan["failures"]
                            if f["demand"] == scan["demand_vectors"][0]]
            ok = not stacked_fail and scan["c22_unsolvable"] \
                and scan["c22_size"] == p - 1
            computed[str(t)] = p if ok else None
            witnesses.append({"t": 2, "lower_witness": scan["c22"]})
            passed &= ok
        else:
            raise HarnessError(f"cor-3.10 verification covers t in (1, 2), got {t}")
    return {"expected": expected, "provenance": "[PAPER]",
            "computed": computed, "witnesses": witnesses, "passed": passed}


def _run_thm_3_11(params, budget, jobs, seed):
    g = _petersen()
    orbits = pair_orbits(g)
    reps = [orbit[0] for orbit in orbits]
    scan = _petersen_size13_scan()
    budget.charge(scan["configs_checked"])
    demand_fails = [f for f in scan["failures"] if f["demand"] != "cost<=4"]
    orbit_ok = len(orbits) == 3 and reps == [(0, 0), (0, 1), (0, 7)]
    ok = orbit_ok and not demand_fails and scan["c22_unsolvable"]
    return {"expected": {"orbits": 3, "counterexamples": 0},
            "provenance": "[PAPER]",
            "computed": {"orbits": len(orbits),
                         "orbit_representatives": [list(p) for p in reps],
                         "counterexamples": len(demand_fails),
                         "detail": demand_fails},
            "witnesses": [{"pi_2_lower_witness": scan["c22"]}],
            "passed": ok}


def _json_safe(value):
    if isinstance(value, Configuration):
        return _cfg_list(value)
    if isinstance(value, Distribution):
        return [int(x) for x in value.demands]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    return value


@dataclass(frozen=True)
class ClaimSpec:
    claim: str
    description: str
    criteria: tuple[int, ...]
    defaults: dict
    runner: object


REGISTRY: dict[str, ClaimSpec] = {
    spec.claim: spec for spec in (
        ClaimSpec("thm-2.1",
                  "t-fold pebbling number of a 2-path is t*2^d + n - 2d",
                  (4,), {"spec": {"k": [1]}, "t": [1, 2, 3]}, _run_thm_2_1),
        ClaimSpec("fact-2.2",
                  "rooted tree pebbling number from the maximum path partition",
                  (6,), {"count": 50, "max_n": 9, "t": [1, 2, 3]},
                  _run_fact_2_2),
        ClaimSpec("cor-2.3",
                  "spinal-tree pebbling numbers match the case formula and bound",
                  (7,), {"max_n": 12}, _run_cor_2_3),
        ClaimSpec("thm-2.6",
                  "target conjecture holds on 2-paths for size-2 demands",
                  (5,), {"max_n": 8, "d_values": [2, 3], "t": 2},
                  _run_thm_2_6),
        ClaimSpec("cor-3.3",
                  "Kneser 2-subset graph connectivity is binom(m-2, 2)",
                  (8,), {"m_values": [5, 6, 7]}, _run_cor_3_3),
        ClaimSpec("thm-3.5",
                  "pebbling number of the Kneser 2-subset graph is binom(m, 2)",
                  (1, 11), {"m": 5}, _run_thm_3_5),
        ClaimSpec("lem-3.6",
                  "doubled/quadrupled stack constructions are t-fold unsolvable",
                  (9,), {"m_values": [5, 6], "t_values": [1, 2, 3]},
                  _run_lem_3_6),
        ClaimSpec("claim-A",
                  "the all-ones-except-root configuration is the unique "
                  "size-9 unsolvable one on the Petersen graph",
                  (1,), {}, _run_claim_a),
        ClaimSpec("claim-B",
                  "every size-13 Petersen configuration reaches the root at "
                  "cost at most 4",
                  (10,), {}, _run_claim_b),
        ClaimSpec("cor-3.10",
                  "t-fold Petersen pebbling number equals the size threshold p(5,t)",
                  (2,), {"t_values": [1, 2]}, _run_cor_3_10),
        ClaimSpec("thm-3.11",
                  "target conjecture on the Petersen graph for size-2 demands, "
                  "via pair-orbit representatives",
                  (3,), {"t": 2}, _run_thm_3_11),
    )
}


def run_campaign(config: CampaignConfig) -> ExperimentReport:
    """Dispatch a registry claim, time it, and build (optionally persist)
    the report. Verdicts: pass, fail, or budget."""
    spec = REGISTRY.get(config.claim)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise HarnessError(f"unknown claim id {config.claim!r}; known: {known}")
    params = {**spec.defaults, **(config.params or {})}
    budget = _coerce_budget(config.budget)
    start = time.perf_counter()
    try:
        out = spec.runner(params, budget, config.jobs, config.seed)
        verdict = "pass" if out["passed"] else "fail"
    except BudgetExceededError as exc:
        out = {"expected": None, "provenance": "[PAPER]",
               "computed": {"error": str(exc)}, "witnesses": []}
        verdict = "budget"
    wall = time.perf_counter() - start
    report = ExperimentReport(
        claim=config.claim,
        parameters=_json_safe(params),
        expected={"value": _json_safe(out["expected"]),
                  "provenance": out["provenance"]},
        computed=_json_safe(out["computed"]),
        verdict=verdict,
        witnesses=_json_safe(out["witnesses"]),
        configs_checked=budget.spent,
        wall_time_s=round(wall, 3),
        version=VERSION,
        seed=config.seed,
    )
    if config.out:
        text = report.to_csv() if config.format == "csv" else report.to_json()
        atomic_write(config.out, text)
    return report
