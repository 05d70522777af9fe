"""One cold repetition of a benchmark workload.

run.py starts this script in a fresh interpreter for every repetition.
pebblekit keeps per-process caches (the functools-cached Petersen passes in
`harness`, the solvers and their failed-state memos in
`engine._solver_cache`), so a second claim in a warm process can be served
almost for free; a `pebblekit verify` user pays the cold cost every time.

    python3 perfbench/rep.py --workload petersen13 --seed 1 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = ("verdict", "computed", "configs_checked", "witnesses")


def load_pebblekit():
    sys.path.insert(0, str(ROOT / "src"))
    import pebblekit

    where = Path(pebblekit.__file__).resolve().parent
    if where != ROOT / "src" / "pebblekit":
        raise SystemExit(f"imported pebblekit from {where}, not from this checkout")


def build_graphs(workload):
    """The workload's graphs with their metrics, as a user's script would
    construct them before the first claim."""
    from pebblekit import enumerate_fan_specs, kneser, two_path

    graphs = []
    for kind, *args in workload.graphs:
        if kind == "kneser":
            graphs.append(kneser(args[0], 2))
        else:
            max_n, d_values = args
            graphs += [two_path(spec).graph
                       for spec in enumerate_fan_specs(max_n, list(d_values))]
    for g in graphs:
        g.metrics


def warm_caches() -> list:
    """pebblekit caches that already hold entries. A repetition must start
    with none, or its claims could be served from an earlier call."""
    from pebblekit import engine

    warm = ["pebblekit.engine._solver_cache"] if engine._solver_cache else []
    for name, mod in sorted(sys.modules.items()):
        if name != "pebblekit" and not name.startswith("pebblekit."):
            continue
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{name}.{attr}")
    return warm


def check(report, pin) -> list:
    """Pinned report fields that differ from the recorded ones."""
    got = json.loads(json.dumps({key: getattr(report, key) for key in PINNED}))
    return [key for key in PINNED if got[key] != pin[key]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", type=Path,
                   help="with --trace 1, write the spans here (.npz)")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    load_pebblekit()
    build_graphs(workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from pebblekit import engine, harness

    pins = json.loads((HERE / "pins.json").read_text())[workload.name]
    if [pin["claim"] for pin in pins] != [claim for claim, _ in workload.claims]:
        raise SystemExit(f"pins.json does not match the {workload.name} claims")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    warm = warm_caches()

    results = []
    start = time.perf_counter()
    for claim, params in workload.claims:
        span = tracer.begin(tracing.CLAIM) if tracer else None
        try:
            report = harness.run_campaign(harness.CampaignConfig(
                claim=claim, params=params, jobs=1, seed=args.seed))
            error = None
        except Exception as exc:  # a claim that raises counts as failed
            report, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(span)
        results.append((claim, report, error))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = []
    for (claim, report, error), pin in zip(results, pins):
        if error is None:
            diff = check(report, pin)
            error = f"differs from pinned {', '.join(diff)}" if diff else None
        if error is not None:
            failed.append({"claim": claim, "error": error})
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rows": sum(r.configs_checked for _, r, _ in results if r is not None),
        "peak_rss_mb": peak_rss_mb,
        "claims": len(results),
        "failed": failed,
        "problems": [f"cache already warm: {name}" for name in warm],
    }
    if tracer:
        spans = tracer.arrays()
        memo = sum(len(s.failed) for s in engine._solver_cache.values())
        out["layers"] = tracing.layer_metrics(spans, memo)
        rows = out["layers"]["numbers.enum.rows"]
        if workload.enum_rows is not None and rows != workload.enum_rows:
            out["problems"].append(f"enumerated {rows} rows, expected "
                                   f"{workload.enum_rows}: a scan was skipped")
        if args.spans_out:
            import numpy as np

            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            np.savez(args.spans_out, layers=np.array(tracing.LAYERS), **spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
