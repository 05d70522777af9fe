"""Exact pebbling engine: configurations, distributions, pebbling moves,
solvability search with pruning, minimum-cost solutions, slides, and
weight/potential statistics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import ge, mul

from .graph import Graph

__all__ = [
    "PebblingError",
    "Configuration",
    "Distribution",
    "Solution",
    "SolveOutcome",
    "Solver",
    "MODES",
    "apply_move",
    "replay",
    "stats",
    "weight",
    "is_solvable",
    "min_cost_solution",
    "find_slides",
    "max_fold",
]

MODES = ("unrestricted", "greedy", "semi_greedy")


class PebblingError(ValueError):
    """Invalid pebbling operation or malformed input."""


def _as_counts(values, name: str) -> tuple[int, ...]:
    counts = tuple(int(x) for x in values)
    if any(x < 0 for x in counts):
        raise PebblingError(f"{name} must be nonnegative")
    return counts


@dataclass(frozen=True)
class Configuration:
    """Pebble supply: nonnegative count per vertex."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", _as_counts(self.counts, "pebble counts"))

    @cached_property
    def size(self) -> int:
        return sum(self.counts)

    def __getitem__(self, v: int) -> int:
        return self.counts[v]

    def __len__(self) -> int:
        return len(self.counts)

    def add(self, v: int, k: int = 1) -> "Configuration":
        counts = list(self.counts)
        counts[v] += k
        return Configuration(tuple(counts))


@dataclass(frozen=True)
class Distribution:
    """Pebble demand: nonnegative target count per vertex."""

    demands: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "demands", _as_counts(self.demands, "demands"))

    @cached_property
    def size(self) -> int:
        return sum(self.demands)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, x in enumerate(self.demands) if x > 0)

    def __getitem__(self, v: int) -> int:
        return self.demands[v]

    def __len__(self) -> int:
        return len(self.demands)

    @classmethod
    def stacked(cls, n: int, r: int, t: int = 1) -> "Distribution":
        demands = [0] * n
        demands[r] = t
        return cls(tuple(demands))


@dataclass(frozen=True)
class Solution:
    """Ordered pebbling steps. Cost (pebbles used, = moves + 1) is defined
    only for demands of total size one; otherwise it is None."""

    moves: tuple[tuple[int, int], ...]
    cost: int | None = None


@dataclass(frozen=True)
class SolveOutcome:
    solvable: bool
    solution: Solution | None
    states_explored: int


def apply_move(c: Configuration, u: int, v: int, g: Graph) -> Configuration:
    """One pebbling step: remove two pebbles from u, place one on adjacent v."""
    if not g.has_edge(u, v):
        raise PebblingError(f"vertices {u} and {v} are not adjacent")
    if c[u] < 2:
        raise PebblingError(f"insufficient pebbles at {u}: have {c[u]}, need 2")
    counts = list(c.counts)
    counts[u] -= 2
    counts[v] += 1
    return Configuration(tuple(counts))


def replay(g: Graph, c: Configuration, moves) -> Configuration:
    """Apply a move sequence, validating every step."""
    cur = c
    for u, v in moves:
        cur = apply_move(cur, u, v, g)
    return cur


def stats(c: Configuration) -> dict:
    """potential = sum of floor(count/2); zeros = empty vertices; support."""
    pot = sum(x // 2 for x in c.counts)
    zeros = sum(1 for x in c.counts if x == 0)
    return {"potential": pot, "zeros": zeros, "support_size": len(c.counts) - zeros}


def weight(c: Configuration, r: int, g: Graph) -> Fraction:
    """Exact weighted supply sum(c(v) * 2^-dist(v,r)), never increased by a
    pebbling step. Computed as scaled integers over 2^diameter."""
    m = g.metrics
    diam = m.diameter
    scaled = sum(c[v] << (diam - m.dist[r][v]) for v in range(g.n))
    return Fraction(scaled, 1 << diam)


# The failed-state memo stops growing at this many entries per solver.
MEMO_CAP = 4_000_000


class Solver:
    """Reusable exact search for one (graph, demand, mode) triple.

    `solve(c, max_moves=None)` is the package's one exact search: a
    depth-first search over move sequences, kept on an explicit stack so
    that no input can reach Python's recursion limit. Every move removes a
    pebble, so the states form a finite DAG and the search ends. Sources are
    tried by decreasing count (ties to the least index), and each source's
    neighbours by decreasing weight towards the demand's targets, so the
    solution found and the state count are deterministic.

    Pruning, and why each rule is sound:
    - Weight. For a target r, w_r(c) = sum c(v) 2^-dist(v,r) never increases
      under a move (|dist(u,r) - dist(v,r)| <= 1, so the pebble placed on v
      weighs at most the two taken from u; the `weight_monotonicity` property
      suite checks this). A configuration meeting the demand has w_r at least
      sum D(x) 2^-dist(x,r), so a state below that can never be solved.
    - Memo. `failed` holds only states with no solution of any length: an
      unbounded call adds a state once the weight rule cuts it or all of its
      moves have failed. Such a state fails under any bound as well, so
      bounded calls read the memo; a bounded failure may only mean the bound
      was hit, so bounded calls never write it. The memo stops growing at
      MEMO_CAP entries.
    Restricted modes decide a move's legality from the state alone, so the
    memo stays sound for them too.

    The weights are w_r scaled to integers by 2^scale, where scale is the
    largest eccentricity among the targets; set-up runs one BFS per target
    and never builds the all-pairs distance matrix. Any common scale of at
    least that eccentricity would do: a common power-of-two factor on every
    weight and every need leaves each comparison, the neighbour order, the
    solutions and the state counts unchanged.
    """

    def __init__(self, g: Graph, d: Distribution, mode: str = "unrestricted"):
        if mode not in MODES:
            raise PebblingError(f"unknown mode {mode!r}; expected one of {MODES}")
        if len(d) != g.n:
            raise PebblingError("demand length must equal vertex count")
        self.g = g
        self.demand = d.demands
        self.mode = mode
        self.n = g.n
        self.targets = d.support
        # only the targets' BFS rows: dist[x] for each target x
        self.dist = {r: g.distances(r) for r in self.targets}
        scale = max((max(self.dist[r]) for r in self.targets), default=0)
        self.W = tuple(tuple(1 << (scale - self.dist[r][v]) for v in range(self.n))
                       for r in self.targets)
        self.need = tuple(sum(self.demand[x] * w[x] for x in self.targets)
                          for w in self.W)
        score = [sum(w[v] for w in self.W) for v in range(self.n)]
        # the moves out of each vertex, best-scoring neighbour first
        self.moves_from = tuple(
            tuple((u, v) for v in sorted(g.adjacency[u], key=lambda v: (-score[v], v)))
            for u in range(self.n))
        self.failed: set[tuple[int, ...]] = set()

    def solve(self, c, max_moves: int | None = None) -> SolveOutcome:
        """Search for moves from c that meet the demand; with max_moves, only
        sequences of at most that many moves count."""
        if max_moves is not None and max_moves < 0:
            raise PebblingError("max_moves must be nonnegative")
        counts = list(c.counts if isinstance(c, Configuration) else c)
        n = self.n
        if len(counts) != n:
            raise PebblingError("configuration length must equal vertex count")
        demand = self.demand
        targets = self.targets
        single = sum(demand) == 1
        deficit = sum(max(0, demand[x] - counts[x]) for x in targets)
        if deficit == 0:
            return SolveOutcome(True, Solution((), 1 if single else None), 0)
        W = self.W
        need = self.need
        weights = [sum(map(mul, counts, w)) for w in W]
        tix = range(len(W))
        failed = self.failed
        write = max_moves is None
        moves_from = self.moves_from
        vertices = range(n)
        mode = self.mode
        dist = self.dist

        def allowed(move) -> bool:
            u, v = move
            if mode == "greedy":
                return any(demand[x] > counts[x] and dist[x][v] < dist[x][u]
                           for x in targets)
            return any(demand[x] > counts[x] and dist[x][v] <= dist[x][u]
                       for x in targets)

        # open_states[i] holds the i-th state on the current path, as its key
        # and its untried moves; path[i] is the move taken out of it and
        # saved[i] the deficit before that move
        open_states: list = []
        path: list[tuple[int, int]] = []
        saved: list[int] = []
        states = 0
        while True:
            # enter the state in `counts`
            states += 1
            key = tuple(counts)
            if key not in failed and len(path) != max_moves:
                if all(map(ge, weights, need)) and (
                        sources := [v for v in vertices if counts[v] > 1]):
                    sources.sort(key=counts.__getitem__, reverse=True)
                    cand = chain.from_iterable(map(moves_from.__getitem__, sources))
                    if mode != "unrestricted":
                        cand = filter(allowed, cand)
                    open_states.append((key, cand))
                elif write and len(failed) < MEMO_CAP:
                    failed.add(key)
            # take the next untried move, backtracking past exhausted states
            while True:
                if len(path) == len(open_states):
                    if not path:
                        return SolveOutcome(False, None, states)
                    u, v = path.pop()
                    counts[u] += 2
                    counts[v] -= 1
                    deficit = saved.pop()
                    for i in tix:
                        weights[i] += 2 * W[i][u] - W[i][v]
                key, cand = open_states[-1]
                move = next(cand, None)
                if move is None:
                    open_states.pop()
                    if write and len(failed) < MEMO_CAP:
                        failed.add(key)
                    continue
                u, v = move
                path.append(move)
                saved.append(deficit)
                counts[u] -= 2
                counts[v] += 1
                for i in tix:
                    weights[i] += W[i][v] - 2 * W[i][u]
                if demand[u] or demand[v]:
                    deficit = sum(max(0, demand[x] - counts[x]) for x in targets)
                    if deficit == 0:
                        return SolveOutcome(
                            True, Solution(tuple(path), len(path) + 1 if single else None),
                            states)
                break


_solver_cache: dict[tuple, Solver] = {}


def get_solver(g: Graph, d: Distribution, mode: str = "unrestricted") -> Solver:
    key = (g, d.demands, mode)
    solver = _solver_cache.get(key)
    if solver is None:
        solver = Solver(g, d, mode)
        _solver_cache[key] = solver
    return solver


def is_solvable(g: Graph, c: Configuration, d: Distribution,
                mode: str = "unrestricted") -> SolveOutcome:
    """Exact decision: can c reach a configuration pointwise >= d?

    greedy mode permits only moves strictly decreasing the distance to some
    unmet target; semi_greedy permits non-increasing ones. Solvers (with
    their memo of failed states) are cached per (graph, demand, mode).
    """
    if d.size < 1:
        return SolveOutcome(True, Solution((), None), 0)
    return get_solver(g, d, mode).solve(c)


def min_cost_solution(g: Graph, c: Configuration, r: int, max_moves: int | None = None):
    """Minimum-cost solution delivering one pebble to r (cost = moves + 1).
    One unbounded solve gives a move count that suffices; the same search,
    bounded, then bisects for the fewest. Solvability within k moves is
    monotone in k, and the solution returned is the first one the search
    meets under the least bound, as iterative deepening would return.
    Returns (solution, is_cheap) where is_cheap means cost <= 2^ecc(r), or
    None when no solution exists within the move cap."""
    d = Distribution.stacked(g.n, r, 1)
    base = is_solvable(g, c, d)
    if not base.solvable:
        return None
    cap = len(base.solution.moves)
    if max_moves is not None:
        cap = min(cap, max_moves)
    solver = get_solver(g, d)
    best = solver.solve(c, cap)
    if not best.solvable:
        return None
    lo = 0  # no solution within fewer than lo moves; best has at most cap
    while lo < cap:
        mid = (lo + cap) // 2
        out = solver.solve(c, mid)
        if out.solvable:
            cap, best = mid, out
        else:
            lo = mid + 1
    cost = best.solution.cost
    return best.solution, cost <= (1 << max(solver.dist[r]))


def solvable_within(g: Graph, c: Configuration, r: int, max_moves: int) -> bool:
    """Can one pebble reach r using at most max_moves pebbling steps?"""
    return get_solver(g, Distribution.stacked(g.n, r, 1)).solve(c, max_moves).solvable


def find_slides(g: Graph, c: Configuration, cap: int | None = None):
    """All maximal slides: paths v_1..v_k with c(v_1) >= 2 and at least one
    pebble on every interior vertex, so a pebble can travel the whole path.
    Maximal = not extendable (extending needs a pebble on the current end)
    or at the length cap (default n). Deterministic sorted order."""
    if cap is None:
        cap = g.n
    out = []
    stack = [(u,) for u in range(g.n) if c[u] >= 2]
    while stack:
        path = stack.pop()
        last = path[-1]
        grown = False
        if len(path) < cap and (len(path) == 1 or c[last] >= 1):
            for w in g.adjacency[last]:
                if w not in path:
                    grown = True
                    stack.append(path + (w,))
        if not grown and len(path) >= 2:
            out.append(path)
    return tuple(sorted(out))


def max_fold(g: Graph, c: Configuration, r: int) -> int:
    """Largest t >= 0 with c solvable for the demand of t pebbles on r.
    Binary search between c(r) and the weight upper bound floor(w_r(c))."""
    m = g.metrics
    diam = m.diameter
    scaled = sum(c[v] << (diam - m.dist[r][v]) for v in range(g.n))
    hi = scaled >> diam
    lo = min(c[r], hi)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_solvable(g, c, Distribution.stacked(g.n, r, mid)).solvable:
            lo = mid
        else:
            hi = mid - 1
    return lo
