"""Exact pebbling numbers pi(G, D), pi_t(G, r), pi_t(G) by exhaustive
configuration enumeration, plus unsolvable-witness search.

Enumeration scans ascend in lexicographic order so the first witness found
is the lexicographically least one; the public enumerate_configs stream is
the conventional descending order starting at (m, 0, ..., 0).

Scan pipeline. One numpy kernel, _unrank_cols, maps an array of ranks to
their configurations in the ascending order; scans feed it consecutive
ranks and thm-3.5's sampler feeds it random ones. It writes column-major
(n, B) blocks, one contiguous column per vertex, so the prescreen adds
whole vertex rows at a time. The dtype is int16 when the size m is below
2**15 and int64 otherwise: every count is at most m, and delivery never
creates pebbles. Ranks are int64, so the kernel refuses (n, m) with 2**63
or more configurations; unrank_config stays the arbitrary-precision scalar
reference.

Prescreen. _FastFilter accepts the rows it can prove solvable: pebbles
delivered along one BFS spanning tree per demand target (exact on trees),
with pay and cut rules for two-target demands. It then looks one move
ahead on the rows it rejects. Lemma: if c reaches c' in one legal move
(c(u) >= 2, uv an edge, c' = c - 2e_u + e_v) and c' is D-solvable, then c
is D-solvable. _one_move_children yields those children one directed edge
at a time, and _min_moves_upto3 uses the same step to settle the exact
3-move class. Every rejected row goes to the exact engine as a plain count
tuple, and every witness carries the engine's verdict.

Budgets. Every scanned configuration is charged to the budget. A parallel
scan splits the ranks into contiguous chunks, each bounded by the budget
left when the scan began, charges each chunk's count as its result arrives
in chunk order, and cancels the chunks not yet started once one has
returned a witness or the budget is spent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .engine import Configuration, Distribution, PebblingError, is_solvable
from .families import RootedTree, TwoPath, _peel_paths, max_path_partition
from .formulas import build_C_t1, build_C_t2, tree_pi
from .graph import Graph, automorphisms, build_graph

__all__ = [
    "BudgetExceededError",
    "WitnessResult",
    "DEFAULT_BUDGET",
    "num_configs",
    "enumerate_configs",
    "unrank_config",
    "find_unsolvable_witness",
    "multi_demand_scan",
    "pi_D",
    "pi_t",
    "check_pi_t_equals",
    "verify_target_conjecture",
    "demands_of_size",
    "tree_dust_witness",
    "two_path_lower_candidates",
]

DEFAULT_BUDGET = 10 ** 8
_BLOCK = 1 << 16


class BudgetExceededError(RuntimeError):
    """Raised when a search exceeds its configuration-check budget."""

    def __init__(self, cap: int, spent: int):
        super().__init__(f"budget of {cap} configuration checks exceeded "
                         f"(attempted {spent})")
        self.cap = cap
        self.spent = spent


class _Budget:
    __slots__ = ("cap", "spent")

    def __init__(self, cap: int):
        self.cap = cap
        self.spent = 0

    def charge(self, k: int):
        self.spent += k
        if self.spent > self.cap:
            raise BudgetExceededError(self.cap, self.spent)


def _coerce_budget(budget) -> _Budget:
    if isinstance(budget, _Budget):
        return budget
    if budget is None:
        budget = int(os.environ.get("PEBBLEKIT_BUDGET", DEFAULT_BUDGET))
    return _Budget(int(budget))


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one fixed-size witness scan. witness is the
    lexicographically least unsolvable configuration, when one exists;
    witnesses holds all of them when the scan collected exhaustively."""

    size: int
    witness: Configuration | None
    configs_checked: int
    witnesses: tuple = ()

    @property
    def found(self) -> bool:
        return self.witness is not None


def num_configs(n: int, m: int) -> int:
    """Number of pebble configurations of size m on n vertices."""
    return comb(n + m - 1, n - 1)


def enumerate_configs(n: int, m: int):
    """All weak compositions of m into n parts, lexicographically descending
    from (m, 0, ..., 0)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError("pebble count must be nonnegative")
    a = [0] * n
    a[0] = m
    while True:
        yield Configuration(tuple(a))
        j = next((i for i in range(n - 2, -1, -1) if a[i] > 0), None)
        if j is None:
            return
        tail = sum(a[j + 1:])
        a[j] -= 1
        a[j + 1] = tail + 1
        for i in range(j + 2, n):
            a[i] = 0


def unrank_config(n: int, m: int, rank: int) -> Configuration:
    """Configuration at the given rank in the ascending lexicographic order
    used by the internal scans (rank 0 is (0, ..., 0, m))."""
    if not (0 <= rank < num_configs(n, m)):
        raise ValueError(f"rank {rank} out of range for ({n}, {m})")
    counts = []
    for slot in range(n - 1):
        parts = n - slot - 1
        v = 0
        while True:
            block = comb(m - v + parts - 1, parts - 1)
            if rank < block:
                break
            rank -= block
            v += 1
        counts.append(v)
        m -= v
    counts.append(m)
    return Configuration(tuple(counts))


def _int64_total(n: int, m: int) -> int:
    """num_configs(n, m), refusing sizes whose ranks do not fit in int64."""
    total = num_configs(n, m)
    if total >= 1 << 63:
        raise ValueError(f"{total} configurations of size {m} on {n} vertices: "
                         f"vectorized scans need fewer than 2**63")
    return total


def _unrank_cols(n: int, m: int, ranks) -> np.ndarray:
    """The configurations at the given ascending-lex ranks (unrank_config's
    order) as one contiguous (n, B) block, column b holding ranks[b].

    Slot by slot: with m' pebbles left for the slot and p slots after it,
    the configurations whose slot count is below v number
    sum_{u<v} C(m'-u+p-1, p-1) = C(m'+p, p) - C(m'-v+p, p) (hockey stick).
    So the count is m' - k for the least k with C(k+p, p) >= C(m'+p, p) - rank,
    one searchsorted on the table of C(k+p, p). The dtype is int16 when
    m < 2**15, else int64."""
    total = _int64_total(n, m)
    rank = np.array(ranks, dtype=np.int64)
    if rank.size and (rank.min() < 0 or rank.max() >= total):
        raise ValueError(f"ranks out of range for ({n}, {m})")
    out = np.empty((n, rank.size), dtype=np.int16 if m < 1 << 15 else np.int64)
    rest = np.full(rank.size, m, dtype=np.int64)
    for slot in range(n - 1):
        p = n - 1 - slot
        table = np.array([comb(k + p, p) for k in range(m + 1)], dtype=np.int64)
        top = table[rest]
        k = np.searchsorted(table, top - rank)
        out[slot] = rest - k
        rank -= top - table[k]
        rest = k
    out[n - 1] = rest
    return out


def _ascending_blocks(n: int, m: int, start: int = 0, stop: int | None = None,
                      block: int = _BLOCK):
    """Consecutive ascending-lex configurations as (B, n) blocks. Each is the
    transposed view of a contiguous _unrank_cols block, so rows[:, v] reads
    one contiguous column."""
    total = _int64_total(n, m)
    stop = total if stop is None else min(stop, total)
    for s in range(start, stop, block):
        yield _unrank_cols(n, m, np.arange(s, min(s + block, stop))).T


def _bfs_parents(g: Graph, r: int) -> list:
    par = [-1] * g.n
    seen = [False] * g.n
    seen[r] = True
    frontier = [r]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    par[v] = u
                    nxt.append(v)
        frontier = nxt
    return par


def _delivery_tree(g: Graph, r: int):
    """The (processing order, parent array) of the BFS spanning tree that
    the vectorized delivery prescreen routes along: deepest vertices first.
    BFS trees preserve distances, so any amount deliverable to r inside one
    is deliverable in g. Uses r's BFS row only, never the all-pairs
    metrics."""
    dist = g.distances(r)
    order = sorted((v for v in range(g.n) if v != r),
                   key=lambda v: (-dist[v], v))
    return tuple(order), tuple(_bfs_parents(g, r))


def _deliver(cols: np.ndarray, order, par, target: int) -> np.ndarray:
    """Max pebbles deliverable to target moving only along the given
    spanning tree: children flush floor(count/2) to their parent, deepest
    first. Exact on trees. Lemma: a BFS spanning tree preserves every
    vertex's distance to the root and every tree edge is a graph edge, so
    every tree move is a graph move, and the result is a lower bound on what
    the graph can deliver. Takes an (n, B) column-major block and works on a
    copy; no count ever exceeds the configuration size, so the dtype cannot
    overflow."""
    a = cols.copy()
    for v in order:
        a[par[v]] += a[v] >> 1
    return a[target]


def _one_move_children(g: Graph, cols: np.ndarray, idx: np.ndarray):
    """The one-move children of the rows of an (n, B) column-major block
    that idx marks, one directed edge uv at a time: yields (sel, child),
    where sel lists the marked columns with c(u) >= 2 and child is an
    (n, len(sel)) copy of them with the move applied (c - 2e_u + e_v).

    idx is a boolean mask over the block's columns and is the work list: a
    caller clears a column once that row is settled, and the edges after
    that skip it. Counts stay within the configuration size, so the dtype
    cannot overflow."""
    todo = np.flatnonzero(idx)
    for u in range(g.n):
        src = todo[cols[u, todo] >= 2]
        for v in g.adjacency[u]:
            src = src[idx[src]]
            if src.size == 0:
                break
            child = cols[:, src]
            child[u] -= 2
            child[v] += 1
            yield src, child
        todo = todo[idx[todo]]
        if todo.size == 0:
            return


class _FastFilter:
    """Sound fast-accept masks for one demand D: rows flagged True are
    provably D-solvable; the exact engine decides the rest. Each demand
    target r routes along one BFS spanning tree (_delivery_tree), and
    _deliver gives what that tree carries to r. The masks, and the lemma
    that makes each sound:
      - stack (one target r): the tree delivers D(r) to r. Every tree move
        is a graph move.
      - deliver-and-route (two targets a, b at distance k): everything the
        tree of a delivers reaches D(a) + 2^k D(b), or symmetrically. A
        pebble pile of 2^k D(b) on a walks k edges to b and arrives as D(b),
        leaving D(a) in place.
      - pay (two targets): one target's demand is already in place on it,
        and the other's tree delivers its demand from the rest. The paid
        pebbles never move.
      - cut (two targets): in the tree of one target, the other target
        keeps what its own subtree flushes into it and the rest reaches the
        root. The two deliveries use disjoint moves on disjoint pebbles.
      - in place (two or more targets): every target already holds its
        demand.
      - lookahead (any demand): some one-move child c - 2e_u + e_v, with
        c(u) >= 2 and uv an edge, is accepted by the masks above. If c
        reaches c' in one legal move and c' is D-solvable, so is c.
    """

    def __init__(self, g: Graph, d: Distribution):
        self.g = g
        self.d = d
        self.targets = d.support
        self.demands = d.demands
        self.trees = {r: _delivery_tree(g, r) for r in self.targets}
        if len(self.targets) == 2:
            a, b = self.targets
            self.pair_dist = g.distances(a)[b]

    def accept(self, rows: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Accept a (B, n) block's rows by the direct masks, then by the
        lookahead on the rows they reject. The optional cache shares
        delivered columns for the same block across filters whose demands
        hit the same target; the children are other rows and never use
        it."""
        solv = self._masks(rows, cache)
        todo = ~solv
        for sel, child in _one_move_children(self.g, rows.T, todo):
            hit = sel[self._masks(child.T)]
            solv[hit] = True
            todo[hit] = False
        return solv

    def _masks(self, rows: np.ndarray, cache: dict | None = None) -> np.ndarray:
        B = rows.shape[0]
        ts = self.targets
        if len(ts) == 0:
            return np.ones(B, dtype=bool)
        if cache is None:
            cache = {}
        cols = rows.T

        def delivered(r: int) -> np.ndarray:
            col = cache.get(r)
            if col is None:
                order, par = self.trees[r]
                col = _deliver(cols, order, par, r)
                cache[r] = col
            return col

        if len(ts) == 1:
            r = ts[0]
            return delivered(r) >= self.demands[r]
        if len(ts) == 2:
            a, b = ts
            da, db = self.demands[a], self.demands[b]
            shift = self.pair_dist
            solv = (cols[a] >= da) & (cols[b] >= db)
            # deliver everything to one target, then route the rest across
            solv |= delivered(a) >= da + (db << shift)
            solv |= delivered(b) >= db + (da << shift)
            # pay one target from pebbles already in place, deliver the other
            # from what remains (only rows not yet accepted)
            for keep, pay, amt, need in ((b, a, da, db), (a, b, db, da)):
                todo = np.flatnonzero((cols[pay] >= amt) & ~solv)
                if todo.size == 0:
                    continue
                tmp = cols[:, todo]
                tmp[pay] -= amt
                order, par = self.trees[keep]
                solv[todo[_deliver(tmp, order, par, keep) >= need]] = True
            # cut one target out of the other's tree: the cut vertex keeps
            # what its subtree flushes into it, the rest reaches the root;
            # the two deliveries use disjoint vertex sets
            for root, cut, need_r, need_c in ((a, b, da, db), (b, a, db, da)):
                todo = np.flatnonzero(~solv)
                if todo.size == 0:
                    break
                tmp = cols[:, todo]
                order, par = self.trees[root]
                for v in order:
                    if v != cut:
                        tmp[par[v]] += tmp[v] >> 1
                hit = (tmp[root] >= need_r) & (tmp[cut] >= need_c)
                solv[todo[hit]] = True
            return solv
        ok = np.ones(B, dtype=bool)
        for r in ts:
            ok &= cols[r] >= self.demands[r]
        return ok


def _min_moves_upto3(g: Graph, rows: np.ndarray, r: int) -> np.ndarray:
    """Exact fewest pebbling moves putting one pebble on r, per row of a
    (B, n) block, when that number is 0, 1, 2 or 3; -1 when it is at least
    4 or no sequence of moves reaches r.

    Lemma (any graph). Write c for a row.
      - 0 moves iff c(r) >= 1.
      - 1 move iff c(r) = 0 and some u in N(r) has c(u) >= 2: the only move
        is the last one, u -> r, and it needs two pebbles on u.
      - 2 moves iff neither of the above and some u in N(r) with c(u) = 1
        has a neighbour x with c(x) >= 2. The moves x -> u, u -> r do it.
        Conversely, the last move is u -> r for some u in N(r), so u holds
        2 after the first move. Before it u held at most 1 (no neighbour
        of r holds 2), and only a move into u raises c(u), by one; so
        c(u) = 1 and the first move is x -> u with c(x) >= 2.
      - 3 moves iff none of the above and some one-move child of c needs
        at most 2. Every 3-move sequence starts with one move to a child
        that then needs at most 2; a child needing k <= 2 gives c a
        (k + 1)-move sequence, and c needs at least 3.
    Each test is applied over the previous ones, so a row gets the least
    class whose condition it meets.
    """

    def upto2(rows: np.ndarray) -> np.ndarray:
        rich = rows >= 2
        moves = np.full(rows.shape[0], -1, dtype=np.int8)
        two = np.zeros(rows.shape[0], dtype=bool)
        for u in g.adjacency[r]:
            two |= (rows[:, u] == 1) & rich[:, list(g.adjacency[u])].any(axis=1)
        moves[two] = 2
        moves[rich[:, list(g.adjacency[r])].any(axis=1)] = 1
        moves[rows[:, r] >= 1] = 0
        return moves

    moves = upto2(rows)
    todo = moves < 0
    for sel, child in _one_move_children(g, rows.T, todo):
        hit = sel[upto2(child.T) >= 0]
        moves[hit] = 3
        todo[hit] = False
    return moves


def _lex_le_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row lexicographic a <= b for equal-shaped integer arrays."""
    neq = a != b
    any_neq = neq.any(axis=1)
    first = np.where(any_neq, neq.argmax(axis=1), 0)
    idx = np.arange(a.shape[0])
    lt = a[idx, first] < b[idx, first]
    return np.where(any_neq, lt, True)


def _canonical_mask(rows: np.ndarray, perms) -> np.ndarray:
    """Keep rows that are lexicographic minima of their orbit under the
    given column permutations."""
    keep = np.ones(rows.shape[0], dtype=bool)
    for p in perms:
        keep &= _lex_le_rows(rows, rows[:, p])
    return keep


def _demand_stabilizer(g: Graph, demands) -> list:
    """Nontrivial automorphisms preserving every demand vector: solvability
    is invariant under them, so scanning orbit minima suffices."""
    vecs = [d.demands for d in demands]
    perms = []
    for p in automorphisms(g):
        if all(p[i] == i for i in range(g.n)):
            continue
        if all(v[p[i]] == v[i] for v in vecs for i in range(g.n)):
            perms.append(np.array(p, dtype=np.intp))
    return perms


def _scan_chunk(g: Graph, demands, size: int, start: int, stop: int, *,
                mode: str = "unrestricted", collect_all: bool = False,
                perms=(), budget: _Budget | None = None):
    """Scan one contiguous ascending-lex range. Returns
    (first_failure, witnesses, checked) where first_failure is
    (demand_index, Configuration) or None. With collect_all (single demand
    only) the scan continues past failures and gathers every witness."""
    n = g.n
    use_filters = mode == "unrestricted"
    filters = [_FastFilter(g, d) for d in demands] if use_filters else None
    checked = 0
    witnesses = []
    first = None
    for rows in _ascending_blocks(n, size, start, stop):
        if len(perms):
            rows = rows[_canonical_mask(rows, perms)]
            if rows.shape[0] == 0:
                continue
        if budget is not None:
            budget.charge(rows.shape[0])
        checked += rows.shape[0]
        cache: dict = {}
        for di, d in enumerate(demands):
            if use_filters:
                pending = np.flatnonzero(~filters[di].accept(rows, cache))
            else:
                pending = range(rows.shape[0])
            for i in pending:
                counts = tuple(rows[i].tolist())
                if is_solvable(g, counts, d, mode).solvable:
                    continue
                cfg = Configuration(counts)
                if first is None:
                    first = (di, cfg)
                if collect_all:
                    witnesses.append(cfg)
                else:
                    return first, witnesses, checked
    return first, witnesses, checked


def _scan_worker(payload):
    """One chunk of a parallel scan, bounded by what was left of the budget
    when the scan began. An overrun comes back as the count checked, which
    the caller's charge then refuses."""
    (g, demand_vecs, size, start, stop, mode, collect_all, perms, left) = payload
    demands = [Distribution(v) for v in demand_vecs]
    try:
        return _scan_chunk(g, demands, size, start, stop, mode=mode,
                           collect_all=collect_all, perms=perms,
                           budget=_Budget(left))
    except BudgetExceededError as err:
        return None, [], err.spent


def _scan(g: Graph, demands, size: int, *, mode: str = "unrestricted",
          collect_all: bool = False, jobs: int = 1, symmetry: bool = False,
          budget=None):
    """Full fixed-size scan, optionally split into contiguous chunks
    processed in parallel and merged in order.

    Chunks are whole blocks, about four per worker. Each chunk stops once
    it has checked more than the budget left when the scan began, so no
    chunk outruns the cap. Results are read in chunk order and each chunk's
    count is charged as it arrives; at the first chunk that returns a
    witness (unless collect_all) or overruns the budget, the chunks not yet
    started are cancelled. The chunks before it found nothing, so the
    witness, the witnesses and the count checked are the serial scan's."""
    budget = _coerce_budget(budget)
    total = num_configs(g.n, size)
    perms = _demand_stabilizer(g, demands) if symmetry else ()
    if jobs <= 1 or total < 4 * _BLOCK:
        return _scan_chunk(g, demands, size, 0, total, mode=mode,
                           collect_all=collect_all, perms=perms,
                           budget=budget)
    chunk = -(-total // (4 * jobs * _BLOCK)) * _BLOCK
    vecs = [d.demands for d in demands]
    left = budget.cap - budget.spent
    first = None
    witnesses = []
    checked = 0
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_scan_worker,
                               (g, vecs, size, s, min(s + chunk, total),
                                mode, collect_all, perms, left))
                   for s in range(0, total, chunk)]
        try:
            for fut in futures:
                cfirst, cwits, cchecked = fut.result()
                budget.charge(cchecked)
                checked += cchecked
                witnesses.extend(cwits)
                if first is None and cfirst is not None:
                    first = cfirst
                    if not collect_all:
                        break
        finally:
            for fut in futures:
                fut.cancel()
    return first, witnesses, checked


def find_unsolvable_witness(g: Graph, d: Distribution, size: int, *,
                            mode: str = "unrestricted",
                            collect_all: bool = False, jobs: int = 1,
                            symmetry: bool = False,
                            budget=None) -> WitnessResult:
    """Scan every configuration of the given size (ascending lex; optionally
    orbit minima only when symmetry reduction is on) and report the first
    D-unsolvable one. Every reported witness carries an exact engine
    verdict, never just a prescreen rejection."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    first, wits, checked = _scan(g, [d], size, mode=mode,
                                 collect_all=collect_all, jobs=jobs,
                                 symmetry=symmetry, budget=budget)
    witness = first[1] if first is not None else None
    return WitnessResult(size=size, witness=witness, configs_checked=checked,
                         witnesses=tuple(wits))


def multi_demand_scan(g: Graph, demands, size: int, *, mode: str = "unrestricted",
                      jobs: int = 1, symmetry: bool = False,
                      budget=None) -> dict:
    """One pass over all size-m configurations checking several demands at
    once. Stops at the first configuration unsolvable for any demand."""
    first, _, checked = _scan(g, list(demands), size, mode=mode, jobs=jobs,
                              symmetry=symmetry, budget=budget)
    failure = None
    if first is not None:
        failure = {"demand_index": first[0], "config": first[1]}
    return {"failure": failure, "configs_checked": checked}


def pi_D(g: Graph, d: Distribution, hint: int | None = None, *,
         budget=None, jobs: int = 1, symmetry: bool = False,
         mode: str = "unrestricted") -> int:
    """Smallest m such that every size-m configuration is D-solvable.

    Solvability is monotone in the configuration (extra pebbles never
    hurt), so "some size-s configuration is unsolvable" is a monotone
    predicate in s; the answer is found by probing it. A correct hint costs
    two scans (none at hint, a witness at hint-1); wrong hints only move
    the bracket, never the answer.
    """
    if d.size < 1:
        raise PebblingError("demand must have size at least 1")
    budget = _coerce_budget(budget)
    cache: dict[int, bool] = {0: True}  # the empty configuration fails |d| >= 1

    def has_witness(s: int) -> bool:
        if s not in cache:
            res = find_unsolvable_witness(g, d, s, jobs=jobs,
                                          symmetry=symmetry, budget=budget,
                                          mode=mode)
            cache[s] = res.found
        return cache[s]

    lo, hi = 0, None  # witness exists at lo; none at hi
    if hint is not None and hint >= 1:
        if has_witness(hint):
            lo = hint
        else:
            hi = hint
            if hint >= 2 and has_witness(hint - 1):
                lo = hint - 1
    if hi is None:
        probe = max(lo + 1, d.size)
        while has_witness(probe):
            lo = probe
            probe *= 2
        hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if has_witness(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _bfs_rooted_tree(g: Graph, r: int) -> RootedTree:
    par = _bfs_parents(g, r)
    edges = [(v, par[v]) for v in range(g.n) if par[v] >= 0]
    return RootedTree(build_graph(g.n, edges), r)


def _tree_hint(g: Graph, r: int, t: int) -> int:
    """Upper bound on pi_t(g, r) from a BFS spanning tree: every tree move
    is a graph move, so the tree's t-fold rooted pebbling number bounds the
    graph's from above."""
    if g.n == 1:
        return t
    tree = _bfs_rooted_tree(g, r)
    return tree_pi(max_path_partition(tree), t)


def _root_list(g: Graph, roots) -> list:
    if roots is None:
        return list(range(g.n))
    if isinstance(roots, int):
        return [roots]
    return list(roots)


def pi_t(g: Graph, t: int = 1, roots=None, *, budget=None, jobs: int = 1,
         symmetry: bool = False, hints=None) -> int:
    """t-fold pebbling number: max over the requested roots (all by
    default; pass a single root for vertex-transitive graphs) of the
    smallest m making every size-m configuration t-fold r-solvable."""
    if t < 1:
        raise PebblingError("t must be at least 1")
    budget = _coerce_budget(budget)
    best = 0
    for r in _root_list(g, roots):
        if hints is None:
            h = _tree_hint(g, r, t)
        elif isinstance(hints, dict):
            h = hints.get(r, _tree_hint(g, r, t))
        else:
            h = int(hints)
        d = Distribution.stacked(g.n, r, t)
        best = max(best, pi_D(g, d, h, budget=budget, jobs=jobs,
                              symmetry=symmetry))
    return best


def tree_dust_witness(tree: RootedTree, t: int = 1) -> Configuration:
    """The standard unsolvable configuration one pebble short of the tree's
    t-fold rooted pebbling number: 2^(path length) - 1 pebbles at the far
    end of each partition path, t-scaled on the longest."""
    paths = _peel_paths(tree)
    counts = [0] * tree.graph.n
    for idx, path in enumerate(paths):
        length = len(path) - 1
        amount = (1 << length) - 1
        if idx == 0:
            amount = t * (1 << length) - 1
        counts[path[-1]] += amount
    return Configuration(tuple(counts))


def two_path_lower_candidates(tp: TwoPath, t: int = 1):
    """Candidate unsolvable configurations of size pi_t - 1 for a 2-path,
    rooted at a simplicial spine end: the opposite end carries t*2^d - 1
    pebbles; the root, the spine interior, and one interior vertex per fan
    are empty; all other vertices carry one pebble. Candidates whose zero
    pattern collapses (shared fan vertices) are dropped by the size check;
    callers confirm every candidate with the exact engine."""
    g = tp.graph
    spine = tp.spine
    d = tp.d
    n = g.n
    want = t * (1 << d) + n - 2 * d - 1
    out = []
    seen = set()
    for r, far in ((spine[0], spine[-1]), (spine[-1], spine[0])):
        for pick_near in (True, False):
            zeros = {r} | set(spine[1:-1])
            for interior in tp.interiors:
                q = interior if r == spine[0] else tuple(reversed(interior))
                zeros.add(q[0] if pick_near else q[-1])
            counts = [0 if v in zeros else 1 for v in range(n)]
            counts[far] = t * (1 << d) - 1
            cfg = Configuration(tuple(counts))
            if cfg.size == want and cfg.counts not in seen:
                seen.add(cfg.counts)
                out.append((r, cfg))
    return out


def _default_lower_candidates(g: Graph, t: int, roots, want_size: int):
    cands = []
    diam = g.metrics.diameter
    for r in roots:
        if g.n == 1:
            if want_size >= 0:
                cands.append((r, Configuration((want_size,))))
            continue
        cands.append((r, tree_dust_witness(_bfs_rooted_tree(g, r), t)))
        if diam == 2 and g.metrics.ecc[r] == 2:
            cands.append((r, build_C_t1(g, r, t)))
            cands.append((r, build_C_t2(g, r, t)))
    return [(r, c) for r, c in cands if c.size == want_size]


def _confirm_lower(g: Graph, t: int, roots, want_size: int, candidates,
                   budget: _Budget, jobs: int, symmetry: bool):
    """Certify pi_t(g) > want_size by exhibiting one engine-confirmed
    unsolvable configuration: constructed candidates first, full scan as a
    fallback."""
    for r, cfg in candidates:
        if cfg.size != want_size:
            continue
        budget.charge(1)
        d = Distribution.stacked(g.n, r, t)
        if not is_solvable(g, cfg, d).solvable:
            return {"root": r, "witness": cfg, "source": "constructed"}
    for r in roots:
        d = Distribution.stacked(g.n, r, t)
        res = find_unsolvable_witness(g, d, want_size, jobs=jobs,
                                      symmetry=symmetry, budget=budget)
        if res.found:
            return {"root": r, "witness": res.witness, "source": "scan"}
    return None


def check_pi_t_equals(g: Graph, t: int, expected: int, *, roots=None,
                      lower_candidates=None, budget=None, jobs: int = 1,
                      symmetry: bool = False) -> dict:
    """Prove pi_t(g) == expected with one combined scan: no root has an
    unsolvable configuration at size expected (upper bound), and some root
    has one at expected - 1 (lower bound, constructed witness when
    possible)."""
    if t < 1:
        raise PebblingError("t must be at least 1")
    budget = _coerce_budget(budget)
    root_list = _root_list(g, roots)
    demands = [Distribution.stacked(g.n, r, t) for r in root_list]
    scan = multi_demand_scan(g, demands, expected, jobs=jobs,
                             symmetry=symmetry, budget=budget)
    if scan["failure"] is not None:
        fail = scan["failure"]
        return {
            "expected": expected,
            "pass": False,
            "reason": "unsolvable configuration at the expected size",
            "counterexample": {"root": root_list[fail["demand_index"]],
                               "config": fail["config"]},
            "lower_witness": None,
            "configs_checked": budget.spent,
        }
    candidates = list(lower_candidates or [])
    candidates += _default_lower_candidates(g, t, root_list, expected - 1)
    lower = None
    if expected >= 1:
        lower = _confirm_lower(g, t, root_list, expected - 1, candidates,
                               budget, jobs, symmetry)
        if lower is None:
            return {
                "expected": expected,
                "pass": False,
                "reason": "no unsolvable configuration one below the expected size",
                "counterexample": None,
                "lower_witness": None,
                "configs_checked": budget.spent,
            }
    return {
        "expected": expected,
        "pass": True,
        "reason": None,
        "counterexample": None,
        "lower_witness": lower,
        "configs_checked": budget.spent,
    }


def demands_of_size(g: Graph, t: int):
    """Every demand multiset of total size t as a Distribution, in
    lexicographic vertex-multiset order."""
    out = []
    for combo in combinations_with_replacement(range(g.n), t):
        vec = [0] * g.n
        for v in combo:
            vec[v] += 1
        out.append(Distribution(tuple(vec)))
    return out


def verify_target_conjecture(g: Graph, t: int = 1, demand_classes=None, *,
                             expected_pi: int | None = None, roots=None,
                             lower_candidates=None, budget=None,
                             jobs: int = 1, symmetry: bool = False) -> dict:
    """Check pi(G, D) <= pi_t(G) for every demand D of size t in the
    requested classes (all multisets by default).

    With expected_pi given, one combined scan at that size over the demand
    classes plus all stacked demands, together with a lower witness at
    expected_pi - 1, certifies pi_t(G) = expected_pi and the conjecture in
    a single pass. Otherwise pi_t is computed first and only the
    non-stacked classes are rescanned.
    """
    if t < 1:
        raise PebblingError("t must be at least 1")
    budget = _coerce_budget(budget)
    root_list = _root_list(g, roots)
    if demand_classes is None:
        classes = demands_of_size(g, t)
    else:
        classes = [d if isinstance(d, Distribution) else Distribution(tuple(d))
                   for d in demand_classes]
    for d in classes:
        if d.size != t:
            raise PebblingError(f"demand {d.demands} has size {d.size}, expected {t}")

    report = {"t": t, "pi_t": None, "pass": False, "counterexample": None,
              "lower_witness": None, "demand_count": len(classes),
              "configs_checked": 0}

    if expected_pi is None:
        M = pi_t(g, t, roots=root_list, budget=budget, jobs=jobs,
                 symmetry=symmetry)
        covered = set(root_list)
        scan_demands = [d for d in classes
                        if not (len(d.support) == 1 and d.support[0] in covered)]
        lower = None
    else:
        M = expected_pi
        stacked = [Distribution.stacked(g.n, r, t) for r in root_list]
        seen = {d.demands for d in classes}
        scan_demands = list(classes)
        scan_demands += [d for d in stacked if d.demands not in seen]
        candidates = list(lower_candidates or [])
        candidates += _default_lower_candidates(g, t, root_list, M - 1)
        lower = _confirm_lower(g, t, root_list, M - 1, candidates, budget,
                               jobs, symmetry)
        if lower is None:
            report.update(pi_t=M, configs_checked=budget.spent)
            report["counterexample"] = {
                "reason": "no unsolvable configuration at size pi_t - 1"}
            return report
        report["lower_witness"] = lower

    report["pi_t"] = M
    if scan_demands:
        scan = multi_demand_scan(g, scan_demands, M, jobs=jobs,
                                 symmetry=symmetry, budget=budget)
        if scan["failure"] is not None:
            fail = scan["failure"]
            report["counterexample"] = {
                "demand": list(scan_demands[fail["demand_index"]].demands),
                "config": fail["config"],
            }
            report["configs_checked"] = budget.spent
            return report
    report["pass"] = True
    report["configs_checked"] = budget.spent
    return report
