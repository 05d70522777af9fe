"""Cold-process claim benchmark for pebblekit.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every timed repetition is a fresh interpreter (rep.py) that imports
pebblekit from this checkout's src/, builds the workload's graphs, and runs
the workload's claims one after another through `harness.run_campaign` with
`jobs=1`: one closed-loop client, the cold state a `pebblekit verify` user
pays for. Parallel scans are left out: on a two-core machine their workers
would time the neighbours, not the program.

--trace 0 runs set-up probes and then cold repetitions until the next one
would end past --seconds (at least one), and reports medians of the
end-to-end metrics. --trace 1 runs one untraced and one traced repetition
and reports the per-layer metrics of the traced one, with the tracing
overhead as traced over untraced wall time; the spans go to
perfbench/out/<workload>.spans.npz. Every claim's verdict, computed value,
configs_checked and witnesses are checked against pins.json.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# a workload's measurement must end well inside the 180 s a run may take
RUN_LIMIT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # a budget from the caller's environment could turn verdicts into "budget"
    env.pop("PEBBLEKIT_BUDGET", None)
    return env


def spawn(name: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name,
           "--seed", str(seed), *flags, "--spawned-at"]
    now = time.monotonic()
    proc = subprocess.run(cmd + [repr(now)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(deadline - now, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name}: repetition exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def report_problems(name: str, reps: list) -> bool:
    """Print every failed claim and failed self-check; True if none."""
    ok = True
    for rep in reps:
        for item in rep["failed"]:
            print(f"{name}: FAILED {item['claim']}: {item['error']}")
            ok = False
        for problem in rep["problems"]:
            print(f"{name}: FAILED self-check: {problem}")
            ok = False
    return ok


def measure(name: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics: medians over cold repetitions."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(name, seed, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(spawn(name, seed, deadline))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    ok = report_problems(name, reps)
    attempted = sum(rep["claims"] for rep in reps)
    failed = sum(len(rep["failed"]) for rep in reps)
    metrics = {
        "setup_s": median(setups + [rep["setup_s"] for rep in reps]),
        "wall_s": median(rep["wall_s"] for rep in reps),
        "rows_per_s": median(rep["rows"] / rep["wall_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
    }
    print(f"{name}: {len(reps)} cold repetition(s), {len(setups)} set-up "
          f"probes, {reps[0]['rows']} configs checked per repetition; "
          + " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
          + f" fail_ratio={failed / attempted:.6g} ({failed}/{attempted} claims)")
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_layers(name: str, seed: int) -> dict:
    """Per-layer metrics of one traced repetition."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(name, seed, deadline)
    spans = HERE / "out" / f"{name}.spans.npz"
    traced = spawn(name, seed, deadline, "--trace", "1", "--spans-out",
                   str(spans))
    ok = report_problems(name, [plain, traced])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    print(f"{name}: untraced wall_s={plain['wall_s']:.6g}, traced "
          f"wall_s={traced['wall_s']:.6g}, overhead "
          f"{metrics['trace.overhead_ratio'] - 1:+.1%}; spans in {spans}")
    failed = len(plain["failed"]) + len(traced["failed"])
    return {"correct": ok, "attempted": plain["claims"] + traced["claims"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pebblekit" / "__init__.py").is_file():
        print(f"no pebblekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    # byte-compile first, so no set-up probe pays for compilation
    compileall.compile_dir(ROOT / "src" / "pebblekit", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    print(f"machine: {os.cpu_count()} cpus, {platform.machine()}, python "
          f"{platform.python_version()}, numpy {metadata.version('numpy')}")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            results[name] = measure_layers(name, args.seed)
        else:
            results[name] = measure(name, args.seed, args.seconds)
        if set(results[name]["metrics"]) != set(units):
            raise SystemExit(f"{name}: metrics do not match BENCHMARK.json "
                             f"{kind}")

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
