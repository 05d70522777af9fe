"""Command-line interface.

Exit codes: 0 the command succeeded (verification passed, solve found a
solution, expectation matched); 1 the check ran to completion and failed;
2 usage error or configuration-check budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import Configuration, Distribution, PebblingError, is_solvable, \
    min_cost_solution, replay, stats
from .families import FamilyError, FanSpec, kneser, random_tree, two_path
from .formulas import FormulaError, KneserParams, kneser_p, spinal_pi, \
    tree_pi, two_path_pi_t
from .graph import GraphError, graph_to_json
from .harness import _json_safe, _read_source, CampaignConfig, HarnessError, \
    atomic_write, load_graph, run_campaign
from .numbers import BudgetExceededError, find_unsolvable_witness, pi_D, \
    pi_t, verify_target_conjecture
from .version import VERSION

PASS, FAIL, ERROR = 0, 1, 2


def _parse_ints(text: str) -> list:
    """Integer list syntax: '1,2,3', a '1..3' range, or '@file' holding a
    JSON array or the same comma form."""
    text = text.strip()
    if text.startswith("@"):
        text = _read_source(text[1:]).strip()
    if text.startswith("["):
        return [int(x) for x in json.loads(text)]
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_bools(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok in ("true", "1", "yes"):
            out.append(True)
        elif tok in ("false", "0", "no"):
            out.append(False)
        elif tok:
            raise ValueError(f"not a boolean: {tok!r}")
    return out


def _parse_spec_arg(text: str) -> dict:
    """Fan spec syntax: 'k=1,2;overlap=true', bare '1,2' (no overlaps), or
    '@file' with the JSON form."""
    text = text.strip()
    if text.startswith("@"):
        return json.loads(_read_source(text[1:]))
    if text.startswith("{"):
        return json.loads(text)
    spec = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "k":
                spec["k"] = _parse_ints(value)
            elif key == "overlap":
                spec["overlap"] = _parse_bools(value)
            else:
                raise ValueError(f"unknown fan spec field {key!r}")
        else:
            spec["k"] = _parse_ints(part)
    if "k" not in spec:
        raise ValueError("fan spec needs k=...")
    return spec


def _t_from_args(args) -> int:
    """--t, or 1 when it is missing; refuses t < 1."""
    t = 1 if args.t is None else args.t
    if t < 1:
        raise PebblingError("t must be at least 1")
    return t


def _demand_from_args(args, n: int) -> Distribution:
    t = _t_from_args(args)
    if getattr(args, "demand", None):
        vec = _parse_ints(args.demand)
        if len(vec) != n:
            raise PebblingError(f"demand has {len(vec)} entries for {n} vertices")
        return Distribution(tuple(vec))
    if getattr(args, "root", None) is not None:
        return Distribution.stacked(n, args.root, t)
    raise PebblingError("need --demand or --root")


def _emit(args, payload: dict) -> None:
    """Print the payload as JSON, its pebblekit values converted by
    harness._json_safe, and also write it to --out when given."""
    text = json.dumps(_json_safe(payload), indent=2) + "\n"
    if getattr(args, "out", None):
        atomic_write(args.out, text)
    sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.family == "kneser":
        g = kneser(args.m, args.h)
    elif args.family == "twopath":
        spec = _parse_spec_arg(args.spec)
        g = two_path(FanSpec(tuple(spec["k"]), tuple(spec.get("overlap", ())))).graph
    else:
        g = random_tree(args.n, args.seed).graph
    text = graph_to_json(g) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return PASS


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    cfg = Configuration(tuple(_parse_ints(args.config)))
    if len(cfg) != g.n:
        raise PebblingError(f"config has {len(cfg)} entries for {g.n} vertices")
    d = _demand_from_args(args, g.n)
    if args.min_cost:
        if len(d.support) != 1 or max(d.demands) != 1:
            raise PebblingError("--min-cost needs a single unit demand")
        found = min_cost_solution(g, cfg, d.support[0])
        if found is None:
            _emit(args, {"solvable": False, "moves": None, "cost": None})
            return FAIL
        sol, cheap = found
        replay(g, cfg, sol.moves)
        _emit(args, {"solvable": True, "moves": sol.moves,
                     "cost": sol.cost, "is_cheap": cheap})
        return PASS
    outcome = is_solvable(g, cfg, d, mode=args.mode)
    payload = {"solvable": outcome.solvable,
               "moves": None, "cost": None,
               "states_explored": outcome.states_explored,
               "stats": stats(cfg)}
    if outcome.solvable:
        replay(g, cfg, outcome.solution.moves)
        payload["moves"] = outcome.solution.moves
        payload["cost"] = outcome.solution.cost
    _emit(args, payload)
    return PASS if outcome.solvable else FAIL


def _cmd_pi(args) -> int:
    g = load_graph(args.graph)
    if args.demand or args.root is not None:
        d = _demand_from_args(args, g.n)
        value = pi_D(g, d, budget=args.budget, jobs=args.jobs, mode=args.mode)
        payload = {"demand": d, "pi": value}
    else:
        if args.mode != "unrestricted":
            raise PebblingError(f"--mode {args.mode} needs --demand or --root")
        t = _t_from_args(args)
        value = pi_t(g, t, budget=args.budget, jobs=args.jobs)
        payload = {"t": t, "pi_t": value}
    if args.expect is not None:
        payload["expected"] = args.expect
        payload["match"] = value == args.expect
    _emit(args, payload)
    if args.expect is not None and value != args.expect:
        return FAIL
    return PASS


def _cmd_witness(args) -> int:
    g = load_graph(args.graph)
    d = _demand_from_args(args, g.n)
    res = find_unsolvable_witness(g, d, args.size, mode=args.mode,
                                  collect_all=args.all, jobs=args.jobs,
                                  budget=args.budget)
    payload = {"size": res.size,
               "found": res.found,
               "witness": res.witness,
               "configs_checked": res.configs_checked}
    if args.all:
        payload["witnesses"] = res.witnesses
    _emit(args, payload)
    return PASS if res.found else FAIL


def _cmd_verify_target(args) -> int:
    g = load_graph(args.graph)
    classes = None
    if args.demands:
        raw = json.loads(_read_source(args.demands[1:])
                         if args.demands.startswith("@") else args.demands)
        classes = [tuple(int(x) for x in vec) for vec in raw]
    rep = verify_target_conjecture(g, args.t, classes,
                                   expected_pi=args.expected_pi,
                                   budget=args.budget, jobs=args.jobs)
    _emit(args, rep)
    return PASS if rep["pass"] else FAIL


# verify's parameter flags: (params key, parser of the flag's text, help),
# in the order a report records them; the flag is --key with - for _
_VERIFY_PARAMS = (
    ("m", int, None),
    ("t", _parse_ints, "e.g. '2' or '1..3'"),
    ("spec", _parse_spec_arg, None),
    ("max_n", int, None),
    ("d_values", _parse_ints, None),
    ("count", int, None),
    ("samples", int, None),
    ("m_values", _parse_ints, None),
    ("t_values", _parse_ints, None),
    ("enumerate", lambda text: {"max_n": int(text)},
     "run over every fan spec up to this vertex count"),
)


def _cmd_verify(args) -> int:
    params = {key: parse(getattr(args, key)) for key, parse, _ in _VERIFY_PARAMS
              if getattr(args, key) is not None}
    if "enumerate" in params and "d_values" in params:
        params["enumerate"]["d_values"] = params.pop("d_values")
    config = CampaignConfig(claim=args.claim, params=params,
                            budget=args.budget, jobs=args.jobs,
                            seed=args.seed, out=args.out, format=args.format)
    report = run_campaign(config)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json())
    if report.verdict == "pass":
        return PASS
    if report.verdict == "fail":
        return FAIL
    return ERROR


def _cmd_formula(args) -> int:
    if args.formula == "tree-pi":
        value = tree_pi(tuple(_parse_ints(args.partition)), args.t)
        payload = {"partition": _parse_ints(args.partition), "t": args.t,
                   "value": value}
    elif args.formula == "twopath":
        payload = {"n": args.n, "d": args.d, "t": args.t,
                   "value": two_path_pi_t(args.n, args.d, args.t)}
    elif args.formula == "spinal":
        payload = {"n": args.n, "d": args.d, "ecc": args.ecc,
                   "spinal": args.spinal,
                   "value": spinal_pi(args.n, args.d, args.ecc, args.spinal)}
    else:
        params = KneserParams(args.m, args.t)
        out = kneser_p(params)
        payload = {"m": args.m, "t": args.t, "n": params.n,
                   "t0": str(params.t0), **out}
    _emit(args, payload)
    return PASS


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--budget", type=int, default=None,
                   help="cap on configurations checked, at least 0 "
                        "(default from PEBBLEKIT_BUDGET or 10^8)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for exhaustive scans, at least 1")
    p.add_argument("--out", default=None, help="also write the result here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblekit",
        description="Exact graph pebbling: solvers, pebbling numbers, and "
                    "verification campaigns.")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as JSON")
    gsub = p.add_subparsers(dest="family", required=True)
    pk = gsub.add_parser("kneser", help="Kneser graph of h-subsets of an m-set")
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--h", type=int, default=2)
    pt = gsub.add_parser("twopath", help="2-path from fan sizes and overlaps")
    pt.add_argument("--spec", required=True,
                    help="e.g. 'k=1,2;overlap=true' or '@spec.json'")
    pr = gsub.add_parser("tree", help="uniform random labeled tree")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--seed", type=int, default=0)
    for q in (pk, pt, pr):
        q.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="decide solvability of one configuration")
    p.add_argument("--graph", required=True, help="graph JSON path, '-' for stdin")
    p.add_argument("--config", required=True,
                   help="pebble counts: '0,2,1,...' or '@file'")
    p.add_argument("--demand", default=None, help="demand vector, same syntax")
    p.add_argument("--root", type=int, default=None,
                   help="shorthand: demand t pebbles on this vertex")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--mode", choices=("unrestricted", "greedy", "semi_greedy"),
                   default="unrestricted")
    p.add_argument("--min-cost", action="store_true",
                   help="also minimize the solution cost (single unit demand)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pi", help="exact pebbling number")
    p.add_argument("--graph", required=True)
    p.add_argument("--demand", default=None)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--expect", type=int, default=None,
                   help="exit nonzero unless the result equals this")
    p.add_argument("--mode", choices=("unrestricted", "greedy", "semi_greedy"),
                   default="unrestricted")
    _add_common(p)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("witness", help="search one size for an unsolvable "
                                       "configuration")
    p.add_argument("--graph", required=True)
    p.add_argument("--demand", default=None)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--all", action="store_true", help="collect every witness")
    p.add_argument("--mode", choices=("unrestricted", "greedy", "semi_greedy"),
                   default="unrestricted")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify-target",
                       help="check pi(G, D) <= pi_t(G) over demand classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--demands", default=None,
                   help="JSON list of demand vectors, inline or '@file' "
                        "(default: all size-t multisets)")
    p.add_argument("--expected-pi", type=int, default=None,
                   help="certify pi_t = this value (at least 1) by a witness "
                        "one below it and one scan at it; with --demands '[]' "
                        "that certificate alone")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_target)

    p = sub.add_parser("verify", help="run a registered claim verification")
    p.add_argument("claim", help="claim id, e.g. thm-3.5")
    for key, _, help_text in _VERIFY_PARAMS:
        p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampling claims (thm-3.5 at m=6, fact-2.2)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("formula", help="closed-form pebbling values")
    fsub = p.add_subparsers(dest="formula", required=True)
    pf = fsub.add_parser("tree-pi")
    pf.add_argument("--partition", required=True, help="path lengths, e.g. '3,1,1'")
    pf.add_argument("--t", type=int, default=1)
    pf = fsub.add_parser("twopath")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--d", type=int, required=True)
    pf.add_argument("--t", type=int, default=1)
    pf = fsub.add_parser("spinal")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--d", type=int, required=True)
    pf.add_argument("--ecc", type=int, required=True)
    spin = pf.add_mutually_exclusive_group(required=True)
    spin.add_argument("--spinal", dest="spinal", action="store_true")
    spin.add_argument("--no-spinal", dest="spinal", action="store_false")
    pf = fsub.add_parser("kneser-p")
    pf.add_argument("--m", type=int, required=True)
    pf.add_argument("--t", type=int, default=1)
    for pf in fsub.choices.values():
        pf.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_formula)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (GraphError, FamilyError, FormulaError, PebblingError,
            HarnessError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
