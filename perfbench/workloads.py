"""Workload definitions for the cold-process claim benchmark.

Pure data: the parent process (run.py) reads it without importing numpy or
pebblekit. Each workload is a batch of registry claims, run one after the
other in a fresh interpreter through `harness.run_campaign` with `jobs=1`,
the call `pebblekit verify` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

# thm-3.5 at m=6 draws this many uniform size-15 configurations of K(6,2).
# At the registry default (10**6) one repetition takes about 14 s; a quarter
# of that lets several cold repetitions fit in one run and still measures the
# same per-sample path.
KNESER_SAMPLES = 250_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (claim id, params) in call order; every claim gets the benchmark seed
    claims: tuple
    # graphs built during set-up: ("kneser", m) or ("two_paths", max_n, d_values)
    graphs: tuple
    # exact rows the enumeration layer must yield per traced repetition;
    # a claim served from a previous call's cache enumerates fewer
    enum_rows: int | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "twopath-tfold",
        "thm-2.1 on every 2-path with n<=7, d in {2,3}, t<=3: enumeration "
        "and the single-target prescreen dominate, min-cost never runs",
        (("thm-2.1", {"enumerate": {"max_n": 7, "d_values": [2, 3]},
                      "t": [1, 2, 3]}),),
        (("two_paths", 7, (2, 3)),)),
    Workload(
        "petersen13",
        "cor-3.10, claim-B, thm-3.11: the shared size-13 Petersen pass, "
        "dominated by min-cost and many shallow solvable exact searches",
        (("cor-3.10", {}), ("claim-B", {}), ("thm-3.11", {})),
        (("kneser", 5),),
        enum_rows=638_418),
    Workload(
        "kneser-stack",
        "lem-3.6 at its defaults: 12 deep unsolvable exact searches, no "
        "enumeration or prescreen; stresses the DFS and its memo",
        (("lem-3.6", {}),),
        (("kneser", 5), ("kneser", 6))),
    Workload(
        "kneser-sample",
        "thm-3.5 at m=6 seeded by the benchmark seed: per-sample unranking "
        "and the prescreen, the only workload on the sampling path",
        (("thm-3.5", {"m": 6, "samples": KNESER_SAMPLES}),),
        (("kneser", 6),)),
)}
