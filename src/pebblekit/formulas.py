"""Closed-form pebbling numbers for structured families, and the extremal
configurations that realize them."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .engine import Configuration
from .graph import Graph

__all__ = [
    "FormulaError",
    "KneserParams",
    "tree_pi",
    "two_path_pi_t",
    "spinal_pi",
    "kneser_p",
    "build_C_t1",
    "build_C_t2",
    "build_J_r",
]


class FormulaError(ValueError):
    """Formula arguments outside the valid range."""


@dataclass(frozen=True)
class KneserParams:
    """Parameters for t-fold pebbling thresholds on the Kneser graph of
    2-subsets of an m-set. n = binom(m,2); the crossover t0 = binom(m-2,2)/2
    may be a half-integer."""

    m: int
    t: int
    n: int = field(init=False)
    t0: Fraction = field(init=False)

    def __post_init__(self):
        if self.m < 5:
            raise FormulaError("need m >= 5 for diameter 2")
        if self.t < 1:
            raise FormulaError("t must be at least 1")
        object.__setattr__(self, "n", comb(self.m, 2))
        object.__setattr__(self, "t0", Fraction(comb(self.m - 2, 2), 2))


def tree_pi(partition, t: int = 1) -> int:
    """t-fold rooted pebbling number of a tree from its maximum path
    partition (a_1 >= a_2 >= ... >= a_k, a_1 = root eccentricity):
    t*2^a1 + sum(2^ai for i >= 2) - k + 1."""
    parts = tuple(int(a) for a in partition)
    if t < 1:
        raise FormulaError("t must be at least 1")
    if len(parts) == 0:
        raise FormulaError("partition must be nonempty")
    if any(a < 1 for a in parts):
        raise FormulaError("partition entries must be at least 1")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise FormulaError("partition must be non-increasing")
    k = len(parts)
    return t * (1 << parts[0]) + sum(1 << a for a in parts[1:]) - k + 1


def two_path_pi_t(n: int, d: int, t: int = 1) -> int:
    """t-fold pebbling number of a 2-path with n vertices and diameter d:
    t*2^d + n - 2d."""
    if t < 1:
        raise FormulaError("t must be at least 1")
    if d < 2 or n < d + 1:
        raise FormulaError("need d >= 2 and n >= d + 1")
    return t * (1 << d) + n - 2 * d


def spinal_pi(n: int, d: int, ecc_r: int, spinal: bool) -> int:
    """Rooted pebbling number of the spanning tree built from a 2-path at a
    root of eccentricity ecc_r: spinal roots give
    2^ecc + 2^(d-ecc) + n - d - 2; non-spinal roots give
    2^ecc + 2^(d+1-ecc) + n - d - 3. Both are at most 2^d + n - d - 1."""
    if d < 1 or n < d + 1:
        raise FormulaError("need d >= 1 and n >= d + 1")
    if spinal:
        # a spinal root at spine position i has ecc = max(i, d - i) >= d/2
        if not (2 * ecc_r >= d and ecc_r <= d):
            raise FormulaError("spinal root eccentricity must satisfy ceil(d/2) <= ecc <= d")
        value = (1 << ecc_r) + (1 << (d - ecc_r)) + n - d - 2
    else:
        if not (1 <= ecc_r <= d):
            raise FormulaError("eccentricity must be between 1 and d")
        value = (1 << ecc_r) + (1 << (d + 1 - ecc_r)) + n - d - 3
    bound = (1 << d) + n - d - 1
    if value > bound:
        raise FormulaError(f"eccentricity {ecc_r} out of range: value {value} "
                           f"exceeds the uniform bound {bound}")
    return value


def kneser_p(params: KneserParams) -> dict:
    """Size thresholds above which every configuration on the Kneser graph
    of 2-subsets is t-fold solvable to any root: p1 = n + 2t - 2,
    p2 = 4t + 2m - 5, p = max(p1, p2). p1 dominates for t <= t0, p2 for
    t >= t0."""
    m, t = params.m, params.t
    p1 = params.n + 2 * t - 2
    p2 = 4 * t + 2 * m - 5
    return {"p1": p1, "p2": p2, "p": max(p1, p2)}


def _distance_classes(g: Graph, r: int):
    dist = g.metrics.dist[r]
    v1 = tuple(v for v in range(g.n) if dist[v] == 1)
    v2 = tuple(v for v in range(g.n) if dist[v] == 2)
    return v1, v2


def build_C_t1(g: Graph, r: int, t: int) -> Configuration:
    """Unsolvable witness of size n + 2t - 3 for demand t on r in a
    diameter-2 graph: 2t - 1 pebbles on the least distance-2 vertex, one on
    every other vertex except r."""
    if t < 1:
        raise FormulaError("t must be at least 1")
    if g.metrics.diameter != 2:
        raise FormulaError("construction requires diameter 2")
    _, v2 = _distance_classes(g, r)
    if not v2:
        raise FormulaError(f"no distance-2 vertices from root {r}")
    counts = [1] * g.n
    counts[r] = 0
    counts[v2[0]] = 2 * t - 1
    return Configuration(tuple(counts))


def build_C_t2(g: Graph, r: int, t: int) -> Configuration:
    """Unsolvable witness of size 4t + 2(m-2) - 2 for demand t on r in the
    Kneser graph of 2-subsets: 4t - 1 pebbles on the least distance-2
    vertex, one on each other distance-2 vertex, nothing on r or its
    neighbors."""
    if t < 1:
        raise FormulaError("t must be at least 1")
    if g.metrics.diameter != 2:
        raise FormulaError("construction requires diameter 2")
    _, v2 = _distance_classes(g, r)
    if not v2:
        raise FormulaError(f"no distance-2 vertices from root {r}")
    counts = [0] * g.n
    for v in v2:
        counts[v] = 1
    counts[v2[0]] = 4 * t - 1
    return Configuration(tuple(counts))


def build_J_r(g: Graph, r: int) -> Configuration:
    """One pebble everywhere except the root."""
    if not (0 <= r < g.n):
        raise FormulaError(f"root {r} out of range")
    counts = [1] * g.n
    counts[r] = 0
    return Configuration(tuple(counts))
