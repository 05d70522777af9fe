"""Verification campaigns: a registry of checkable claims, runners that
dispatch to the exact machinery, and reproducible report I/O."""

from __future__ import annotations

import functools
import json
import logging
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from math import comb

import numpy as np

from .engine import Configuration, Distribution, is_solvable
from .families import FanSpec, enumerate_fan_specs, is_spinal_root, kneser, \
    max_path_partition, random_tree, spinal_tree, two_path
from .formulas import KneserParams, build_C_t1, build_C_t2, build_J_r, \
    kneser_p, spinal_pi, tree_pi, two_path_pi_t
from .graph import _decode_graph, Graph, pair_orbits, vertex_connectivity
from .numbers import _ascending_blocks, _check_jobs, _coerce_budget, \
    _min_moves_upto3, _scan_chunk, _uniform_ranks, _unrank_cols, \
    BudgetExceededError, find_unsolvable_witness, num_configs, \
    tree_dust_witness, two_path_lower_candidates, verify_target_conjecture
from .version import VERSION

__all__ = [
    "HarnessError",
    "CampaignConfig",
    "ExperimentReport",
    "REGISTRY",
    "run_campaign",
    "load_graph",
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


@dataclass
class ExperimentReport:
    """Self-contained record of one verification campaign. Serialization is
    deterministic: the fields in declaration order, so identical (config,
    seed, version) runs differ at most in wall_time_s."""

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        record = self.to_dict()
        writer.writerow(record.keys())
        writer.writerow(json.dumps(value) if isinstance(value, (dict, list))
                        else value for value in record.values())
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


def _read_source(path: str) -> str:
    """The text of a file, or of standard input when path is '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_graph(path: str) -> Graph:
    """Read a graph JSON file, or standard input when path is '-';
    duplicate edges are merged with a warning, parse errors carry
    line/column, invariant violations raise."""
    g, edges = _decode_graph(_read_source(path))
    listed = [tuple(sorted((int(u), int(v)))) for u, v in edges]
    dupes = len(listed) - len(set(listed))
    if dupes:
        log.warning("%s: %d duplicate edge(s) merged",
                    "<stdin>" if path == "-" else path, dupes)
    return g


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
        "witnesses_size9": list(res9.witnesses),
        "size10_witness": res10.witness,
        "configs_checked": res9.configs_checked + res10.configs_checked,
    }


@functools.cache
def _petersen_size13_scan() -> dict:
    """One pass of numbers._scan_chunk over all 497,420 size-13
    configurations, serial and unbudgeted (the claims charge its count),
    with three demands: 2-fold to the root, and the pairs {root, u} and
    {root, w} for the least u at distance 1 and w at distance 2. The
    block generator adds claim-B's cost classes to each block before
    yielding it: cost is moves + 1, read from _min_moves_upto3, which is
    exact for 0 to 3 moves; a row it leaves at -1 needs at least 4 moves,
    or cannot reach the root, and is a cost<=4 failure. The classes read
    the int8 moves and the rows as Python ints (int(), tolist()), so no
    arithmetic runs on the narrow dtypes. Also confirms that
    the size-12 doubled-stack construction C22 is 2-fold unsolvable (the
    matching lower bound).

    The failures come back as two lists, each in scan order:
    demand_failures holds the engine-confirmed failures of the three
    demands, and cost_failures the rows that need a cost above 4."""
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
    cost_failures = []
    max_cost = 0

    def cost_classes(rows):
        # cost <= 4 means at most 3 pebbling steps reach the root
        nonlocal max_cost
        moves = _min_moves_upto3(g, rows, r)
        max_cost = max(max_cost, int(moves.max()) + 1)
        cost_failures.extend({"demand": "cost<=4", "config": row}
                             for row in rows[moves < 0].tolist())

    def blocks():
        for rows in _ascending_blocks(n, 13):
            cost_classes(rows)
            yield rows

    _, failed, checked = _scan_chunk(g, demands, blocks(), stops=0)
    c22 = build_C_t2(g, r, 2)
    return {
        "configs_checked": checked,
        "demand_failures": [{"demand": demands[di], "config": c}
                            for di, c in failed],
        "cost_failures": cost_failures,
        "max_cost": max_cost,
        "demand_vectors": demands,
        "c22": c22,
        "c22_unsolvable": not is_solvable(g, c22, demands[0]).solvable,
    }


# ---------------------------------------------------------------------------
# Claim runners. Each returns a dict:
#   expected, computed, witnesses, passed
# and charges every configuration it scans to the supplied budget. The
# values may hold pebblekit objects (Configuration, Distribution, tuples);
# run_campaign turns them into JSON values with _json_safe.
# ---------------------------------------------------------------------------


def _as_int_list(params, name: str) -> list:
    """The integer list params[name]; an empty list is refused, since a
    claim checked for no value would pass vacuously."""
    value = params[name]
    out = [int(x) for x in value] if isinstance(value, (list, tuple)) else [int(value)]
    if not out:
        raise HarnessError(f"{name} needs at least one value, got {value!r}")
    return out


def _as_int(value) -> int:
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise HarnessError(f"expected a single integer, got {value!r}")
        return int(value[0])
    return int(value)


def _parse_spec(raw) -> FanSpec:
    if isinstance(raw, FanSpec):
        return raw
    if isinstance(raw, dict):
        return FanSpec(tuple(raw["k"]), tuple(raw.get("overlap", ())))
    return FanSpec(tuple(raw))


def _fan_specs(max_n, d_values) -> list:
    """Every fan spec with at most max_n vertices; an empty set is refused,
    since a claim checked on no 2-path would pass vacuously."""
    specs = list(enumerate_fan_specs(max_n, d_values))
    if not specs:
        raise HarnessError(f"no 2-path has max_n={max_n} and d_values={d_values}")
    return specs


def _run_thm_2_1(params, budget, jobs, seed):
    ts = _as_int_list(params, "t")
    if "enumerate" in params:
        en = params["enumerate"]
        specs = _fan_specs(en["max_n"], en.get("d_values"))
    else:
        specs = [_parse_spec(params["spec"])]
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
            res = verify_target_conjecture(
                g, t, [], expected_pi=want,
                lower_candidates=two_path_lower_candidates(tp, t),
                budget=budget, jobs=jobs)
            if res["pass"]:
                computed[key][str(t)] = want
                lw = res["lower_witness"]
                witnesses.append({"spec": key, "t": t, "root": lw["root"],
                                  "config": lw["witness"],
                                  "source": lw["source"]})
            else:
                computed[key][str(t)] = {"mismatch": res["counterexample"]}
                passed = False
    return {"expected": expected, "computed": computed,
            "witnesses": witnesses, "passed": passed}


# fact-2.2 keeps a drawn tree only if its largest pi_t scan has at most
# this many configurations
_TREE_SCAN_CAP = 3_000_000


def _run_fact_2_2(params, budget, jobs, seed):
    count = int(params["count"])
    max_n = int(params["max_n"])
    if count < 1:
        raise HarnessError(f"fact-2.2 needs at least one tree, got {count}")
    if max_n < 3:
        raise HarnessError(f"fact-2.2 needs max_n of at least 3, got {max_n}")
    ts = _as_int_list(params, "t")
    trees = []
    attempt = 0
    while len(trees) < count:
        n = 3 + attempt % (max_n - 2)
        tree = random_tree(n, seed + attempt)
        attempt += 1
        partition = max_path_partition(tree)
        if num_configs(n, tree_pi(partition, max(ts))) <= _TREE_SCAN_CAP:
            trees.append((tree, partition))
    mismatches = []
    witnesses = []
    for idx, (tree, partition) in enumerate(trees):
        g = tree.graph
        for t in ts:
            want = tree_pi(partition, t)
            dust = tree_dust_witness(tree, t)
            res = verify_target_conjecture(
                g, t, [], expected_pi=want, roots=[tree.root],
                lower_candidates=[(tree.root, dust)], budget=budget, jobs=jobs)
            if not res["pass"]:
                mismatches.append({"tree": idx, "n": g.n, "t": t,
                                   "expected": want,
                                   "detail": res["counterexample"]})
        witnesses.append({"tree": idx, "n": g.n, "partition": partition})
    return {"expected": {"trees": count, "mismatches": 0},
            "computed": {"trees": len(trees), "mismatches": len(mismatches),
                         "detail": mismatches},
            "witnesses": witnesses[:10], "passed": not mismatches}


def _run_cor_2_3(params, budget, jobs, seed):
    max_n = int(params["max_n"])
    d_values = params.get("d_values")
    pairs = 0
    mismatches = []
    for spec in _fan_specs(max_n, d_values):
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
    return {"expected": {"mismatches": 0},
            "computed": {"roots_checked": pairs,
                         "mismatches": len(mismatches), "detail": mismatches},
            "witnesses": [], "passed": not mismatches}


def _run_thm_2_6(params, budget, jobs, seed):
    t = _as_int(params["t"])
    if "spec" in params:
        specs = [_parse_spec(params["spec"])]
    else:
        specs = _fan_specs(int(params["max_n"]), params["d_values"])
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
                             "counterexample": rep["counterexample"]})
        else:
            lw = rep["lower_witness"]
            witnesses.append({"spec": spec.to_json(), "pi_t": rep["pi_t"],
                              "demands": rep["demand_count"],
                              "lower_root": lw["root"]})
    return {"expected": {"counterexamples": 0},
            "computed": {"two_paths": len(specs),
                         "counterexamples": len(failures), "detail": failures},
            "witnesses": witnesses, "passed": not failures}


def _run_cor_3_3(params, budget, jobs, seed):
    ms = _as_int_list(params, "m_values")
    expected = {str(m): comb(m - 2, 2) for m in ms}
    computed = {str(m): vertex_connectivity(kneser(m, 2)) for m in ms}
    return {"expected": expected, "computed": computed, "witnesses": [],
            "passed": expected == computed}


def _run_thm_3_5(params, budget, jobs, seed):
    m = _as_int(params["m"])
    expected = comb(m, 2)
    if m == 5:
        if "samples" in params:
            raise HarnessError("thm-3.5 takes samples only with m=6; at m=5 "
                               "it scans every configuration")
        scan = _petersen_pi1_scan()
        budget.charge(scan["configs_checked"])
        jr = build_J_r(_petersen(), _PETERSEN_ROOT)
        ok = scan["witnesses_size9"] == [jr] and scan["size10_witness"] is None
        return {"expected": expected,
                "computed": expected if ok else None,
                "witnesses": scan["witnesses_size9"],
                "passed": ok}
    if m == 6:
        g = kneser(6, 2)
        r = 0
        samples = int(params.get("samples", 10 ** 6))
        if samples < 1:
            raise HarnessError(
                f"thm-3.5 needs at least one sample, got {samples}")
        c11 = build_C_t1(g, r, 1)
        budget.charge(1)
        d = Distribution.stacked(g.n, r, 1)
        lower_ok = c11.size == expected - 1 and not is_solvable(g, c11, d).solvable
        total = num_configs(g.n, expected)
        rng = random.Random(seed)

        def draws():
            # uniform ranks from rng, in 16,384-rank batches
            left = samples
            while left > 0:
                k = min(1 << 14, left)
                left -= k
                yield _unrank_cols(g.n, expected,
                                   _uniform_ranks(rng, total, k)).T

        first, _, _ = _scan_chunk(g, [d], draws(), stops=1, budget=budget)
        bad = first[1] if first is not None else None
        witnesses = [{"size14_witness": c11,
                      "unsolvable": lower_ok, "samples": samples}]
        if bad is not None:
            witnesses.append({"bad_sample": bad})
        ok = lower_ok and bad is None
        return {"expected": expected,
                "computed": expected if ok else None,
                "witnesses": witnesses,
                "passed": ok}
    raise HarnessError(f"no verification route for m={m}; supported: 5, 6")


def _run_lem_3_6(params, budget, jobs, seed):
    ms = _as_int_list(params, "m_values")
    ts = _as_int_list(params, "t_values")
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
            "computed": {"cases": results},
            "witnesses": [], "passed": passed}


def _run_claim_a(params, budget, jobs, seed):
    scan = _petersen_pi1_scan()
    budget.charge(scan["configs_checked"])
    jr = build_J_r(_petersen(), _PETERSEN_ROOT)
    ok = scan["witnesses_size9"] == [jr]
    return {"expected": [jr], "computed": scan["witnesses_size9"],
            "witnesses": scan["witnesses_size9"], "passed": ok}


def _run_claim_b(params, budget, jobs, seed):
    scan = _petersen_size13_scan()
    budget.charge(scan["configs_checked"])
    cost_failures = scan["cost_failures"]
    return {"expected": {"cost_violations": 0, "max_cost": 4},
            "computed": {"cost_violations": len(cost_failures),
                         "max_cost": scan["max_cost"],
                         "detail": cost_failures},
            "witnesses": [], "passed": not cost_failures}


def _run_cor_3_10(params, budget, jobs, seed):
    ts = _as_int_list(params, "t_values")
    if not set(ts) <= {1, 2}:
        raise HarnessError(f"cor-3.10 verification covers t in (1, 2), got {ts}")
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
        else:
            scan = _petersen_size13_scan()
            budget.charge(scan["configs_checked"])
            stacked_fail = [f for f in scan["demand_failures"]
                            if f["demand"] == scan["demand_vectors"][0]]
            ok = not stacked_fail and scan["c22_unsolvable"] \
                and scan["c22"].size == p - 1
            computed[str(t)] = p if ok else None
            witnesses.append({"t": 2, "lower_witness": scan["c22"]})
            passed &= ok
    return {"expected": expected, "computed": computed,
            "witnesses": witnesses, "passed": passed}


def _run_thm_3_11(params, budget, jobs, seed):
    if _as_int(params["t"]) != 2:
        raise HarnessError(f"thm-3.11 is checked at t=2 only, got t={params['t']}")
    g = _petersen()
    orbits = pair_orbits(g)
    reps = [orbit[0] for orbit in orbits]
    scan = _petersen_size13_scan()
    budget.charge(scan["configs_checked"])
    demand_fails = scan["demand_failures"]
    orbit_ok = len(orbits) == 3 and reps == [(0, 0), (0, 1), (0, 7)]
    ok = orbit_ok and not demand_fails and scan["c22_unsolvable"]
    return {"expected": {"orbits": 3, "counterexamples": 0},
            "computed": {"orbits": len(orbits),
                         "orbit_representatives": reps,
                         "counterexamples": len(demand_fails),
                         "detail": demand_fails},
            "witnesses": [{"pi_2_lower_witness": scan["c22"]}],
            "passed": ok}


def _json_safe(value):
    """value as JSON data, the one conversion the reports and the CLI use:
    a Configuration or Distribution becomes its count list, a tuple a list
    and a numpy integer an int, item by item through dicts and lists."""
    if isinstance(value, Configuration):
        return [int(x) for x in value.counts]
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
    """One registry claim: the parameters its runner reads are the keys of
    defaults and of optional. optional maps each parameter read beyond the
    defaults to the defaults it replaces, which a run may not also pass."""
    claim: str
    description: str
    criteria: tuple[int, ...]
    defaults: dict
    runner: object
    optional: dict = field(default_factory=dict)


REGISTRY: dict[str, ClaimSpec] = {
    spec.claim: spec for spec in (
        ClaimSpec("thm-2.1",
                  "t-fold pebbling number of a 2-path is t*2^d + n - 2d",
                  (4,), {"spec": {"k": [1]}, "t": [1, 2, 3]}, _run_thm_2_1,
                  {"enumerate": ("spec",)}),
        ClaimSpec("fact-2.2",
                  "rooted tree pebbling number from the maximum path partition",
                  (6,), {"count": 50, "max_n": 9, "t": [1, 2, 3]},
                  _run_fact_2_2),
        ClaimSpec("cor-2.3",
                  "spinal-tree pebbling numbers match the case formula and bound",
                  (7,), {"max_n": 12}, _run_cor_2_3, {"d_values": ()}),
        ClaimSpec("thm-2.6",
                  "target conjecture holds on 2-paths for size-2 demands",
                  (5,), {"max_n": 8, "d_values": [2, 3], "t": 2},
                  _run_thm_2_6, {"spec": ("max_n", "d_values")}),
        ClaimSpec("cor-3.3",
                  "Kneser 2-subset graph connectivity is binom(m-2, 2)",
                  (8,), {"m_values": [5, 6, 7]}, _run_cor_3_3),
        ClaimSpec("thm-3.5",
                  "pebbling number of the Kneser 2-subset graph is binom(m, 2)",
                  (1, 11), {"m": 5}, _run_thm_3_5, {"samples": ()}),
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


def _claim_params(spec: ClaimSpec, given: dict) -> dict:
    """The parameters a run of spec reads: its defaults, updated by given.
    A parameter the claim does not read, or one given with a default it
    replaces, is refused, since the runner would ignore it."""
    takes = ", ".join([*spec.defaults, *spec.optional]) or "no parameters"
    for key in given:
        if key not in spec.defaults and key not in spec.optional:
            raise HarnessError(f"{spec.claim} does not read {key}; it takes {takes}")
        both = [k for k in spec.optional.get(key, ()) if k in given]
        if both:
            raise HarnessError(f"{spec.claim} reads {key} in place of "
                               f"{', '.join(both)}; it takes {takes}")
    return {**spec.defaults, **given}


def run_campaign(config: CampaignConfig) -> ExperimentReport:
    """Dispatch a registry claim, time it, and build (optionally persist)
    the report. Verdicts: pass, fail, or budget."""
    spec = REGISTRY.get(config.claim)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise HarnessError(f"unknown claim id {config.claim!r}; known: {known}")
    params = _claim_params(spec, config.params or {})
    _check_jobs(config.jobs)
    budget = _coerce_budget(config.budget)
    start = time.perf_counter()
    try:
        out = spec.runner(params, budget, config.jobs, config.seed)
        verdict = "pass" if out["passed"] else "fail"
    except BudgetExceededError as exc:
        out = {"expected": None, "computed": {"error": str(exc)},
               "witnesses": []}
        verdict = "budget"
    wall = time.perf_counter() - start
    report = ExperimentReport(
        claim=config.claim,
        parameters=_json_safe(params),
        expected={"value": _json_safe(out["expected"]),
                  "provenance": "[PAPER]"},
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
