"""Exact pebbling numbers pi(G, D), pi_t(G, r), pi_t(G) by exhaustive
configuration enumeration, plus unsolvable-witness search.

Enumeration scans ascend in lexicographic order so the first witness found
is the lexicographically least one. It is the package's one enumeration
order.

Scan pipeline. One numpy kernel, _unrank_cols, maps an array of ranks to
their configurations in the ascending order, one table lookup per
vertex: a branch-free count of the table entries below each key when the
ranks are not ascending and m is small (below 255 with int32 ranks, 64
with int64 ones), where binary search mispredicts on unordered keys, and
searchsorted otherwise; both give the same index
(see _unrank_cols for timings). thm-3.5's sampler feeds it random ranks,
which _uniform_ranks reads in bulk from the seeded random.Random's own
word stream: the same draws as randrange. Scans read consecutive ranks
from _ascending_blocks, which calls the kernel twice per scan, for a
table of heads (the first counts) and a table of tails (the rest), and
builds each block by repeating heads and gathering tails; sizes whose
tables would outgrow one block feed the kernel every rank instead.
Blocks are column-major (n, B), one contiguous column per vertex, so the
prescreen adds whole vertex rows at a time. The dtype is int8 when the
size m is below 128, int16 below 2**15 and int64 otherwise: every count
is at most m, and neither delivery nor a move ever puts more than m
pebbles on a vertex. The kernel's rank arithmetic is int32 below 2**31
configurations and int64 otherwise, so the kernel refuses (n, m) with
2**63 or more configurations, and so does unrank_config, its one-rank
view.

Prescreen. _FastFilter accepts the rows it can prove solvable from
pebbles moved along one BFS spanning tree per demand target (exact on
trees): for each target, a route rule and a sink rule, the same two for
every demand shape. A demand on two or more targets also gets a forest
rule, which gives each vertex to its nearest target and flushes every
part to its own target (_forests). It then looks one move ahead on the
rows it rejects, and two moves ahead on the rows that still fail. Lemma:
if c reaches c' in one legal move (c(u) >= 2, uv an edge,
c' = c - 2e_u + e_v) and c' is D-solvable, then c is D-solvable; applied
twice, so is a row with a two-move descendant that the masks accept. No
move raises a row's weight w_a(c) = sum_x c(x) 2^-dist(a, x) towards a
target a, so a row with w_a(c) < w_a(D) at some target is unsolvable, and
neither level looks at it or at its children. accept, the prescreen's one
entry point, runs the masks on the whole block, then copies the rows they
reject into one compact block and runs the weight bound and both levels
on that copy. _flat_children builds the one-move children of a block
flat, at most _CHUNK columns at a time, from _arc_table's directed edges
and move matrix; both levels use it, and so does _min_moves_upto3 to
settle the exact 3-move class. Every row left goes to the exact engine as
a plain count tuple, and every witness carries the engine's verdict.

Settle loop. _scan_chunk is the one loop that prescreens a block and sends
the rows the prescreen rejects to the engine. It takes any iterable of
(B, n) blocks, and has three callers: _scan (serially, or per chunk through
_scan_worker) over _ascending_blocks ranges; harness's size-13 Petersen
pass over _ascending_blocks(10, 13), whose generator adds claim-B's cost
classes to each block before yielding it; and harness's thm-3.5 sampler
over batches of _uniform_ranks unranked by _unrank_cols.

Size search. pi_D, pi_t and verify_target_conjecture without expected_pi
share one climb, _climb: for each size upward, one _scan over a list of
demands whose leading "stop" demands end the size at their first failure,
while the failures of the rest are kept. The first size with no stop
failure is the answer. Lemma: each demand's unsolvable configurations
form a down-set, since any move sequence that works from c works from
every c' >= c, so a pebble taken off an unsolvable configuration leaves
an unsolvable one. So "some size-s configuration fails D" holds for every
s below pi(G, D) and for none above; a stop failure at size s proves the
answer exceeds s, and the first clean size is the maximum of pi(G, D)
over the stop demands. A size below the answer stops at its first
failure, so only the answer is scanned in full. A kept demand that fails
at that size has a larger pebbling number than every stop demand, which
is how verify_target_conjecture finds its counterexample in the same
pass; once one kept demand has failed, the kept demands are no longer
settled, since only that first failure is reported. The climb starts one
above the largest constructed candidate that the engine refuses for a
stop demand (_climb_start: the demand's one-vertex pile, and the default
candidates for a demand on one vertex), since a refused candidate proves
the same bound for every smaller size.

Budgets. Every scanned configuration is charged to the budget. A parallel
scan splits the ranks into contiguous chunks, each bounded by the budget
left when the scan began, charges each chunk's count as its result arrives
in chunk order, and cancels the chunks not yet started once one has
returned a witness or the budget is spent.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .engine import Configuration, Distribution, PebblingError, is_solvable
from .families import RootedTree, TwoPath, _peel_paths
from .formulas import build_C_t1, build_C_t2
from .graph import Graph, build_graph

__all__ = [
    "BudgetExceededError",
    "WitnessResult",
    "DEFAULT_BUDGET",
    "num_configs",
    "unrank_config",
    "find_unsolvable_witness",
    "pi_D",
    "pi_t",
    "verify_target_conjecture",
    "demands_of_size",
    "tree_dust_witness",
    "two_path_lower_candidates",
]

DEFAULT_BUDGET = 10 ** 8
_BLOCK = 1 << 16
_CHUNK = _BLOCK >> 2  # lookahead children per _masks call


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
    """A fresh _Budget for a cap given as an int, or read from
    PEBBLEKIT_BUDGET (default DEFAULT_BUDGET) when None. A cap of 0 is
    legal; a negative one is refused."""
    if isinstance(budget, _Budget):
        return budget
    if budget is None:
        budget = os.environ.get("PEBBLEKIT_BUDGET", DEFAULT_BUDGET)
    cap = int(budget)
    if cap < 0:
        raise ValueError(f"budget must be at least 0, got {cap}")
    return _Budget(cap)


def _check_jobs(jobs: int):
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _check_lengths(g: Graph, demands):
    if any(len(d) != g.n for d in demands):
        raise PebblingError("demand length must equal vertex count")


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


def unrank_config(n: int, m: int, rank: int) -> Configuration:
    """Configuration at the given rank in the ascending lexicographic order
    used by the internal scans (rank 0 is (0, ..., 0, m)): one column of
    _unrank_cols, so it refuses (n, m) with 2**63 or more configurations.
    The rank must be an integer (an int or a numpy integer); anything else
    raises TypeError rather than being truncated."""
    rank = operator.index(rank)
    if not 0 <= rank < _int64_total(n, m):
        raise ValueError(f"rank {rank} out of range for ({n}, {m})")
    return Configuration(tuple(_unrank_cols(n, m, [rank])[:, 0].tolist()))


def _int64_total(n: int, m: int) -> int:
    """num_configs(n, m), refusing sizes whose ranks do not fit in int64."""
    total = num_configs(n, m)
    if total >= 1 << 63:
        raise ValueError(f"{total} configurations of size {m} on {n} vertices: "
                         f"vectorized scans need fewer than 2**63")
    return total


def _unrank_cols(n: int, m: int, ranks) -> np.ndarray:
    """The configurations at the given ascending-lex ranks as one
    contiguous (n, B) block, column b holding ranks[b].

    Slot by slot: with m' pebbles left for the slot and p slots after it,
    the configurations whose slot count is below v number
    sum_{u<v} C(m'-u+p-1, p-1) = C(m'+p, p) - C(m'-v+p, p) (hockey stick).
    So the count is m' - k for the least k with C(k+p, p) >= C(m'+p, p) - rank,
    which on the increasing table of C(k+p, p) is both searchsorted (side
    "left") and the number of entries below the key, so either form gives
    the same block. Ranks that are not ascending (the thm-3.5 sampler's)
    take the count when m < 255 with int32 ranks, or m < 64 with int64
    ranks: one branch-free comparison of each of the m + 1 entries with
    every key into a uint8 sum, which holds k <= m. Every other call takes
    searchsorted. A binary search on unordered keys mispredicts about one
    branch in two, while ascending ranks walk the table in runs (Khuong and
    Morin, JEA 2017).

    The integers are as narrow as (n, m) allows, since the kernel is bound
    by memory traffic. Rows are int8 when m < 128, int16 when m < 2**15,
    else int64: every count is at most m. The table and the rank arithmetic
    are int32 when total < 2**31, else int64: every table entry, rank and
    key top - rank lies in [0, total]. The incoming ranks are range-checked
    as int64 first. Both gathers use take, which costs about a third of
    fancy indexing on the count's uint8 k (17 against 47 us for 16,384
    indices into a 16-entry int32 table).

    Measured on a 2-core x86_64 with numpy 2.4 at these widths, one call
    on 16,384 random ranks takes 1.6-1.8 ms counting against 5.9-6.1 ms
    by searchsorted at (15, 15). With int32 ranks the count pays up to
    the uint8 limit: 2.7 against 4.3-4.5 ms at (5, 127), 3.9-4.2 against
    4.6-4.8 ms at (5, 200), and 4.8-5.1 against 5.0-5.1 ms at (5, 254).
    With int64 ranks it pays at (8, 63), 2.5 against 6.4-6.9 ms, but not
    at (8, 127), 8.5 against 7.4-8.0 ms, or (6, 254), 10.8-12.4 against
    6.5-6.6 ms. Counting still slows 10**6 ascending ranks: 0.10-0.12 s
    to 0.25-0.32 s at (7, 60), 0.18-0.20 s to 0.19-0.23 s at (15, 15)."""
    total = _int64_total(n, m)
    rank = np.array(ranks, dtype=np.int64)
    if rank.size and (rank.min() < 0 or rank.max() >= total):
        raise ValueError(f"ranks out of range for ({n}, {m})")
    wide = np.int32 if total < 1 << 31 else np.int64
    rank = rank.astype(wide, copy=False)
    # the uint8 count holds every k <= m < 255
    count = m < (255 if wide is np.int32 else 64) and \
        bool((rank[1:] < rank[:-1]).any())
    row = np.int8 if m < 1 << 7 else np.int16 if m < 1 << 15 else np.int64
    out = np.empty((n, rank.size), dtype=row)
    rest = np.full(rank.size, m, dtype=row)
    # table[k] = C(k + p, p): p cumulative sums of ones give p = n - 1, and
    # each slot steps p down by differences, C(k+p, p) - C(k-1+p, p) =
    # C(k+p-1, p-1); no entry exceeds C(m+n-1, n-1) = total
    table = np.ones(m + 1, dtype=wide)
    for _ in range(n - 1):
        table = table.cumsum(dtype=wide)
    for slot in range(n - 1):
        top = table.take(rest)
        if count:
            k = np.add.reduce(table[:, None] < top - rank, axis=0,
                              dtype=np.uint8)
        else:
            k = np.searchsorted(table, top - rank)
        out[slot] = rest - k
        rank -= top - table.take(k)
        rest = k
        table[1:] -= table[:-1]
    out[n - 1] = rest
    return out


def _uniform_ranks(rng, total: int, k: int) -> np.ndarray:
    """[rng.randrange(total) for _ in range(k)] as an int64 array, leaving
    the random.Random rng in the state that loop leaves it in.

    randrange(total) repeats getrandbits(b), b = total.bit_length(), until
    a try is below total. With b <= 32, that is total < 2**32, each try is
    one 32-bit Mersenne Twister word shifted right by 32 - b, and
    getrandbits(32 * w) returns w consecutive words, the first in the low
    32 bits. So each round reads one try per rank still missing in one call
    and keeps the tries below total in order; a round never reads past the
    try that gives the k-th rank, so the word stream ends where the loop's
    ends."""
    if not 1 <= total < 1 << 32:
        raise ValueError(f"uniform ranks need 1 <= total < 2**32, got {total}")
    shift = 32 - total.bit_length()
    kept = [np.empty(0, dtype=np.int64)]
    need = k
    while need > 0:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        tries = np.frombuffer(words, dtype="<u4").astype(np.int64) >> shift
        kept.append(tries[tries < total])
        need -= kept[-1].size
    return np.concatenate(kept)


def _tail_split(n: int, m: int) -> int:
    """The tail length p at which _ascending_blocks splits size-m rows on n
    vertices: the p in 1..n-1 whose larger table, C(m+n-p, n-p) heads or
    C(m+p, p) tails, is least. 0 when even that table has more than _BLOCK
    columns (n = 1, or m large for n), and then every rank is unranked."""
    size, p = min(((max(num_configs(n - p + 1, m), num_configs(p + 1, m)), p)
                   for p in range(1, n)), default=(0, 0))
    return p if size <= _BLOCK else 0


def _ascending_blocks(n: int, m: int, start: int = 0, stop: int | None = None,
                      block: int = _BLOCK):
    """Consecutive ascending-lex configurations as (B, n) blocks, each the
    transposed view of a contiguous (n, B) block, so rows[:, v] reads one
    contiguous column. Every block equals _unrank_cols over its ranks.

    Call the first n-p counts of a row its head and the last p its tail.
    In ascending lex order the rows sharing a head form one contiguous run,
    whose tails step through the p-part compositions of the m' = m - |head|
    pebbles left, in ascending order. The heads, read with m' appended, are
    the (n-p+1)-part compositions of m in ascending order, and the
    (p+1)-part ones hold every tail table back to back: first part m - m',
    rest the tail, starting at column C(m+p, p) - C(m'+p, p). So two
    _unrank_cols tables build every block: one searchsorted finds the runs
    a block meets, np.repeat copies their heads, and one gather reads the
    tails. _tail_split picks p so that neither table has more than _BLOCK
    columns, and the tables live for this call only; (n, m) with no such p
    unrank every rank. Both tables have size m, so they share the row dtype
    _unrank_cols picks for (n, m), and each block inherits it."""
    total = _int64_total(n, m)
    stop = total if stop is None else min(stop, total)
    if start < 0:
        raise ValueError(f"ranks out of range for ({n}, {m})")
    p = _tail_split(n, m) if start < stop else 0
    if not p:
        for s in range(start, stop, block):
            yield _unrank_cols(n, m, np.arange(s, min(s + block, stop))).T
        return
    h = n - p
    heads = _unrank_cols(h + 1, m, np.arange(num_configs(h + 1, m)))
    tails = _unrank_cols(p + 1, m, np.arange(num_configs(p + 1, m)))[1:]
    widths = np.array([num_configs(p, k) for k in range(m + 1)],
                      dtype=np.int64)
    left = heads[h].astype(np.int64)
    runs = widths[left]
    ends = np.cumsum(runs)
    # tail table m' follows those of m'+1..m; rank r in head j's run reads
    # tail column r + off[j]
    off = (widths.sum() - np.cumsum(widths))[left] - (ends - runs)
    for s in range(start, stop, block):
        e = min(s + block, stop)
        j0, j1 = np.searchsorted(ends, (s, e - 1), side="right")
        counts = np.diff(np.concatenate(([s], ends[j0:j1], [e])))
        out = np.empty((n, e - s), dtype=heads.dtype)
        out[:h] = np.repeat(heads[:h, j0:j1 + 1], counts, axis=1)
        col = np.repeat(off[j0:j1 + 1], counts)
        col += np.arange(s, e)
        np.take(tails, col, axis=1, out=out[h:])
        yield out.T


def _delivery_tree(g: Graph, r: int):
    """The (processing order, parent array) of the BFS spanning tree that
    the vectorized delivery prescreen routes along: deepest vertices first.
    BFS trees preserve distances, so any amount deliverable to r inside one
    is deliverable in g. It is the one-part forest of _part_forest, so it
    runs one BFS from r and never reads the all-pairs metrics."""
    return _part_forest(g, [r] * g.n, (r,))


def _deliver(cols: np.ndarray, order, par, target: int) -> np.ndarray:
    """Max pebbles deliverable to target moving only along the given
    spanning tree: children flush floor(count/2) to their parent, deepest
    first. Exact on trees. Lemma: a BFS spanning tree preserves every
    vertex's distance to the root and every tree edge is a graph edge, so
    every tree move is a graph move, and the result is a lower bound on what
    the graph can deliver. Takes an (n, B) column-major block and works on a
    copy. No count exceeds m, the configuration size: by induction up the
    tree, a vertex ends with at most the pebbles of its subtree, its own
    plus at most half of each child's. So the row dtype, int8 below m = 128,
    cannot overflow. Returns the target's row as an array of its own, so that a
    cached result does not keep the whole working copy alive."""
    a = cols.copy()
    for v in order:
        a[par[v]] += a[v] >> 1
    return a[target].copy()


def _part_forest(g: Graph, part, targets):
    """The (processing order, parent array) of the forest that flushes each
    target's part along the BFS tree of the subgraph the part induces,
    rooted at the target; part[v] is the target vertex v belongs to. A
    vertex this BFS does not reach has no parent and keeps its pebbles.
    The order runs deepest first within each part, and the parts share no
    vertex, so one pass over it flushes every tree."""
    par = [-1] * g.n
    depth = {}
    for a in targets:
        depth[a] = 0
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if part[v] == a and v not in depth:
                        depth[v] = depth[u] + 1
                        par[v] = u
                        nxt.append(v)
            frontier = nxt
    order = sorted((v for v in depth if par[v] >= 0),
                   key=lambda v: (-depth[v], v))
    return tuple(order), tuple(par)


def _forests(g: Graph, targets) -> list:
    """The delivery forests of a demand on two or more targets, one per
    target i, identical ones dropped: forest i gives every vertex to its
    nearest target, ties going to i and then to the least target, and
    flushes each part along _part_forest's trees. Each target is its own
    nearest, so it roots its own part. The ties follow one order of the
    targets, so the vertex after x on a shortest path from x to its
    target t has t among its nearest targets and no nearer target that
    x lacks, and joins t too: every part is connected, and each tree
    spans its part."""
    dist = {a: g.distances(a) for a in targets}
    out = []
    for i in targets:
        part = [min(targets, key=lambda a: (dist[a][v], a != i, a))
                for v in range(g.n)]
        forest = _part_forest(g, part, targets)
        if forest not in out:
            out.append(forest)
    return out


def _arc_table(g: Graph):
    """Every directed edge uv of g, tails ascending, as (tails, delta): the
    length-A array of tails and the (n, A) int8 move matrix whose column a
    is arc a's move, -2 at its tail and +1 at its head. Adding a column of
    delta to an int8, int16 or int64 column applies that move in the
    column's own dtype."""
    arcs = [(u, v) for u in range(g.n) for v in g.adjacency[u]]
    us, vs = np.array(arcs, dtype=np.intp).reshape(-1, 2).T
    delta = np.zeros((g.n, us.size), dtype=np.int8)
    delta[us, np.arange(us.size)] = -2
    delta[vs, np.arange(us.size)] = 1
    return us, delta


def _flat_children(cols: np.ndarray, live: np.ndarray, arcs, limit: int):
    """The one-move children of the live columns of an (n, k) column-major
    block, in chunks of at most limit columns: yields (src, child), where
    column j of child is column src[j] of cols with the move of one
    directed edge uv applied (c(u) >= 2, c - 2e_u + e_v). arcs is
    _arc_table's (tails, delta); a _FastFilter builds it once, in its
    constructor. The deltas, -2 and +1, fit every row dtype, and a child is
    a legal move's result: c(u) - 2 >= 0, and c(v) + 1 <= m - 1 since
    c(u) >= 2 of the m pebbles sit elsewhere. So counts stay in [0, m] and
    an int8 block cannot overflow.

    The arcs are taken in order, and each one's live columns with c(u) >= 2
    are gathered until more than limit // 8 children are waiting; these are
    then built, one gather of the parent columns and one of the moves per
    chunk. So arcs with few children share a chunk, an arc with many fills
    several, and a caller that settles rows between chunks (the
    lookahead) sees few children of a settled row. live is a boolean mask
    over the columns and is the work list, read again after each chunk: a
    caller clears a column once its row is settled, and no later chunk
    holds a child of it."""
    todo = np.flatnonzero(live)
    if todo.size == 0:
        return
    us, delta = arcs

    def chunks(srcs, ids):
        src = np.concatenate(srcs)
        arc = np.repeat(ids, [x.size for x in srcs])
        for c in range(0, src.size, limit):
            s, a = src[c:c + limit], arc[c:c + limit]
            keep = live[s]
            if keep.any():
                s = s[keep]
                child = cols.take(s, axis=1)
                child += delta.take(a[keep], axis=1)
                yield s, child

    srcs, ids, waiting = [], [], 0
    tails = us.tolist()
    for a, u in enumerate(tails):
        if a == 0 or u != tails[a - 1]:
            todo = todo[live[todo]]
            if todo.size == 0:
                break
            rich = todo[cols[u, todo] >= 2]
        elif not srcs:
            rich = rich[live[rich]]
        if rich.size:
            srcs.append(rich)
            ids.append(a)
            waiting += rich.size
        if waiting > limit // 8:
            yield from chunks(srcs, ids)
            srcs, ids, waiting = [], [], 0
    if srcs:
        yield from chunks(srcs, ids)


class _FastFilter:
    """Sound fast-accept masks for one demand D: rows flagged True are
    provably D-solvable; the exact engine decides the rest. Each demand
    target a routes along one BFS spanning tree (_delivery_tree), whose
    moves are all graph moves, and _deliver gives what that tree carries to
    a. The rules are each sound for any demand, and a row is accepted when
    any of them accepts it, so their order changes only the cost: every
    target's route first, whose delivered columns a block's filters share,
    then the forests, which accept most of what the routes leave on a
    distance-2 pair, then one sink per target, each flushing only the rows
    still rejected. The weight bound and the lookahead run last, on one
    compact copy of the rows the masks reject:
      - route: a's tree delivers at least sum_x D(x) 2^dist(a,x) to a
        (route[a]). A pile of D(x) 2^k pebbles on a walks the k edges of a
        shortest path to x and arrives as D(x), leaving every vertex it
        passes as it was, and D(a) stays on a.
      - sink: flush a's tree deepest first, where every other target x
        keeps D(x) of what reaches it and flushes only the excess; every
        target then holds its demand. Each flush is floor(e/2) moves from a
        vertex holding e spare pebbles to its tree parent, made after its
        subtree has flushed, so the flushes are legal moves in order.
      - forest (two or more targets): on the rows the routes leave, one
        forest per target i from _forests, every vertex in the part of
        its nearest target (ties to i first, then to the least target),
        each part a BFS tree of the subgraph it induces, rooted at its
        target. A row is accepted when every target's tree delivers at
        least its demand. Lemma (the tree strategy of Hurlbert's weight
        function lemma, J. Combin. Optim. 2017, for several targets): for
        any partition of V into parts P_a holding one target each, and any
        tree T_a of G[P_a] rooted at a, flushing T_a deepest first makes
        legal moves along graph edges between vertices of P_a and leaves
        its delivery on a. The parts are disjoint, so no flush touches
        another's pebbles, and the flushes run one after another as one
        move sequence that meets D. So the rule is sound for any partition
        and any trees; the nearest-target one is a choice.
      - weight: no row lighter than D at some target a goes on to the
        lookahead. Writing w_a(c) = sum_x c(x) 2^-dist(a,x), a move from u
        to v removes 2^(1-dist(a,u)) and adds 2^-dist(a,v), no more since
        dist(a,v) >= dist(a,u) - 1, so no move raises w_a, and a
        configuration meeting D has w_a >= w_a(D). A row below w_a(D) is
        unsolvable, and so is each of its descendants; the engine confirms
        it. The weights are float64, so rounding on huge counts can only
        change which rows the lookahead tries, never what it accepts.
      - lookahead: some one-move child c - 2e_u + e_v, with c(u) >= 2 and
        uv an edge, is accepted by the rules above. If c reaches c' in one
        legal move and c' is D-solvable, so is c.
      - second level: on the rows the lookahead leaves, some one-move
        child of a one-move child is accepted by the rules above. By the
        same lemma twice, c -> c' -> c'' with c'' D-solvable makes c
        D-solvable. Children below the weight bound build no grandchildren.
    The children and grandchildren come in chunks of at most _CHUNK
    columns, so no _masks call sees more than one block's rows, and a row's
    chunks stop once one of them accepts it.
    With one target both rules are the stack mask, delivered(r) >= D(r),
    and so is the forest rule: its one part is the whole graph, whose BFS
    tree rooted at r is _delivery_tree(g, r), so a one-target filter keeps
    the stack mask and builds no forest. With two targets, route is
    deliver-and-route and sink covers the cut rule (the
    other target keeps everything), the pay rule (it keeps only its demand
    of its own pebbles and the rest flows on) and the in-place test (every
    target already holds its demand, so flushing only adds to it). So
    neither pay nor in place is a rule of its own.
    """

    def __init__(self, g: Graph, d: Distribution):
        self.d = d
        self.targets = d.support
        self.demands = d.demands
        self.trees = {a: _delivery_tree(g, a) for a in self.targets}
        self.forests = _forests(g, self.targets) if len(self.targets) > 1 \
            else []
        self.arcs = _arc_table(g)
        self.route = {}
        self.weight = []
        for a in self.targets:
            dist = g.distances(a)
            self.route[a] = sum(d[x] << dist[x] for x in self.targets)
            w = [2.0 ** -k for k in dist]
            self.weight.append((w, sum(w[x] * d[x] for x in self.targets)))

    def accept(self, rows: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """The whole prescreen on a (B, n) block: True on the rows that the
        direct masks accept, or that reach a row they accept in one move or
        in two; no row or child below the weight bound is expanded. The
        rows the masks reject are copied once into the compact (n, L) block
        rest, column j holding row left[j], and the weight bound and both
        levels run on it, so they pay for those L rows, not for the block.
        live is both levels' work list over rest, the columns that meet the
        bound and are not yet settled; each hit is written back through
        left. The optional cache shares delivered columns for the same
        block across filters whose demands hit the same target; the
        children are other rows and never use it."""
        solv = self._masks(rows, cache)
        left = np.flatnonzero(~solv)
        if left.size == 0:
            return solv
        rest = rows.T.take(left, axis=1)
        live = self._heavy(rest)
        for src, child in _flat_children(rest, live, self.arcs, _CHUNK):
            hit = src[self._masks(child.T)]
            solv[left[hit]] = True
            live[hit] = False
        for src, kids in _flat_children(rest, live, self.arcs, _CHUNK):
            kid_live = self._heavy(kids)
            for sub, grand in _flat_children(kids, kid_live, self.arcs,
                                             _CHUNK):
                hit = src[sub[self._masks(grand.T)]]
                solv[left[hit]] = True
                live[hit] = False
                kid_live &= live[src]
        return solv

    def _heavy(self, cols: np.ndarray) -> np.ndarray:
        """The columns of an (n, k) block whose weight towards every target
        a is at least w_a(D), summed one vertex row at a time. The sums are
        float64 (a count row times a Python float), so no integer
        arithmetic happens on the rows."""
        ok = np.ones(cols.shape[1], dtype=bool)
        for w, need in self.weight:
            tot = np.zeros(cols.shape[1])
            for x, wx in enumerate(w):
                tot += cols[x] * wx
            ok &= tot >= need
        return ok

    def _masks(self, rows: np.ndarray, cache: dict | None = None) -> np.ndarray:
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

        # demands and routes may be 128 or more against int8 rows (or past
        # int16 against int16 rows): numpy compares an array with an
        # out-of-range Python int exactly, never wrapping it
        ts = self.targets
        if len(ts) == 1:
            r = ts[0]
            return delivered(r) >= self.demands[r]
        # every row meets an empty demand; the route tests run first, so
        # each flush below takes only the rows no earlier rule accepts: todo
        # is found once over the block and then shrinks with each rule
        solv = np.full(rows.shape[0], not ts)
        for a in ts:
            solv |= delivered(a) >= self.route[a]
        todo = np.flatnonzero(~solv)
        # the forests, which accept most of the rows the routes leave, then
        # the sink trees; a forest holds every target at a root, so none of
        # the vertices it flushes keeps a demand back. No count exceeds cap,
        # so a target demanding more flushes nothing and fails the test
        # below; with keep <= cap, tmp[v] - keep lies in [-cap, cap], and
        # each flush, like _deliver's, leaves at most m on a vertex
        cap = np.iinfo(rows.dtype).max
        for order, par in self.forests + [self.trees[a] for a in ts]:
            if todo.size == 0:
                break
            tmp = cols.take(todo, axis=1)
            for v in order:
                keep = min(self.demands[v], cap)
                if keep:
                    tmp[par[v]] += np.maximum(tmp[v] - keep, 0) >> 1
                else:
                    tmp[par[v]] += tmp[v] >> 1
            hit = tmp[ts[0]] >= self.demands[ts[0]]
            for x in ts[1:]:
                hit &= tmp[x] >= self.demands[x]
            todo = todo[~hit]
        solv.fill(True)
        solv[todo] = False
        return solv


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
    class whose condition it meets. The tests only compare counts with 1
    and 2, and the children are _flat_children's, so any row dtype (int8
    included) is safe; the int8 result holds -1 to 3. The tests read the
    block column-major, (n, B), one vertex row per count, and gather a
    vertex's neighbours as whole rows. A block whose every row holds a
    pebble on r is all class 0 and skips the tests.
    """
    if rows.T[r].all():
        return np.zeros(rows.shape[0], dtype=np.int8)

    def upto2(cols: np.ndarray) -> np.ndarray:
        rich = cols >= 2
        moves = np.full(cols.shape[1], -1, dtype=np.int8)
        two = np.zeros(cols.shape[1], dtype=bool)
        for u in g.adjacency[r]:
            two |= (cols[u] == 1) & \
                rich.take(g.adjacency[u], axis=0).any(axis=0)
        moves[two] = 2
        moves[rich.take(g.adjacency[r], axis=0).any(axis=0)] = 1
        moves[cols[r] >= 1] = 0
        return moves

    moves = upto2(rows.T)
    todo = moves < 0
    for src, child in _flat_children(rows.T, todo, _arc_table(g), _CHUNK):
        hit = src[upto2(child) >= 0]
        moves[hit] = 3
        todo[hit] = False
    return moves


def _scan_chunk(g: Graph, demands, blocks, *, stops: int,
                mode: str = "unrestricted", budget: _Budget | None = None):
    """The one settle loop. Settles every row of each (B, n) block that
    blocks yields against every demand: charges the rows to budget,
    prescreens them with one _FastFilter per demand (unrestricted mode
    only; in a restricted mode every row goes to the engine), and sends
    each row the filter's accept rejects to the exact engine as a plain
    count tuple, in ascending order.

    A failure is a (demand_index, Configuration) pair the engine confirmed
    unsolvable. A failure of one of the first stops demands ends the scan;
    the failures of the others are kept. Returns (stop, failures, checked):
    the failure that ended the scan or None; the kept failures before it,
    in block, then demand, then row order; and the number of rows checked.
    stops=0 collects every failure, and stops=len(demands) stops at the
    first. With 0 < stops < len(demands) only the first kept failure is
    wanted, so the other demands are no longer settled after the block in
    which one fails.

    The stop failure is the least row that some stop demand fails, ties
    going to the first such demand in list order, whatever the order of
    the demands; so is the first kept failure among the other demands.
    Once a demand fails a block at row i, the later demands of its kind
    settle only the block's rows below i, so a scan with no failure makes
    the same engine calls as one that settles every demand in full."""
    use_filters = mode == "unrestricted"
    filters = [_FastFilter(g, d) for d in demands] if use_filters else None
    checked = 0
    failures = []
    for rows in blocks:
        if budget is not None:
            budget.charge(rows.shape[0])
        checked += rows.shape[0]
        cache: dict = {}
        least = None  # (row, failure) of the block's least failure so far
        for di, d in enumerate(demands):
            if di == stops and least is not None:
                return least[1], failures, checked
            if failures and 0 < stops <= di:
                break
            end = rows.shape[0] if least is None else least[0]
            if use_filters:
                left = np.flatnonzero(
                    ~filters[di].accept(rows, cache)[:end]).tolist()
            else:
                left = range(end)
            for i in left:
                counts = tuple(rows[i].tolist())
                if is_solvable(g, counts, d, mode).solvable:
                    continue
                failure = (di, Configuration(counts))
                if stops:
                    least = (i, failure)
                    break
                failures.append(failure)
        if least is not None:
            if least[1][0] < stops:
                return least[1], failures, checked
            failures.append(least[1])
    return None, failures, checked


def _scan_worker(payload):
    """One chunk of a parallel scan, bounded by what was left of the budget
    when the scan began. An overrun comes back as the count checked, which
    the caller's charge then refuses."""
    (g, demand_vecs, size, start, stop, stops, mode, left) = payload
    demands = [Distribution(v) for v in demand_vecs]
    blocks = _ascending_blocks(g.n, size, start, stop)
    try:
        return _scan_chunk(g, demands, blocks, stops=stops, mode=mode,
                           budget=_Budget(left))
    except BudgetExceededError as err:
        return None, [], err.spent


def _scan(g: Graph, demands, size: int, *, stops: int,
          mode: str = "unrestricted", jobs: int = 1, budget=None):
    """Full fixed-size scan, _scan_chunk over every block of the size,
    optionally split into contiguous chunks processed in parallel and
    merged in order.

    Chunks are whole blocks, about four per worker. Each chunk stops once
    it has checked more than the budget left when the scan began, so no
    chunk outruns the cap. Results are read in chunk order and each chunk's
    count is charged as it arrives; at the first chunk that returns a stop
    failure or overruns the budget, the chunks not yet started are
    cancelled. The chunks before it had no stop failure, so the stop
    failure, the kept failures and the count checked are the serial
    scan's: with stops > 0 each chunk keeps its first kept failure and
    only the first chunk's that has one is merged.

    A demand vector whose length is not g.n is refused here, the entry of
    every public scan. It is not the entry of every scan: harness's size-13
    Petersen pass and its thm-3.5 sampler call _scan_chunk directly, on
    demands they build from the graph itself."""
    _check_jobs(jobs)
    _check_lengths(g, demands)
    budget = _coerce_budget(budget)
    total = num_configs(g.n, size)
    if jobs <= 1 or total < 4 * _BLOCK:
        return _scan_chunk(g, demands, _ascending_blocks(g.n, size),
                           stops=stops, mode=mode, budget=budget)
    chunk = -(-total // (4 * jobs * _BLOCK)) * _BLOCK
    vecs = [d.demands for d in demands]
    left = budget.cap - budget.spent
    stop = None
    failures = []
    checked = 0
    # imported here: only a parallel scan needs the process pool, and the
    # import would otherwise add to every `import pebblekit`
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_scan_worker,
                               (g, vecs, size, s, min(s + chunk, total),
                                stops, mode, left))
                   for s in range(0, total, chunk)]
        try:
            for fut in futures:
                stop, cfails, cchecked = fut.result()
                budget.charge(cchecked)
                checked += cchecked
                if not (stops and failures):
                    failures.extend(cfails)
                if stop is not None:
                    break
        finally:
            for fut in futures:
                fut.cancel()
    return stop, failures, checked


def find_unsolvable_witness(g: Graph, d: Distribution, size: int, *,
                            mode: str = "unrestricted",
                            collect_all: bool = False, jobs: int = 1,
                            budget=None) -> WitnessResult:
    """Scan every configuration of the given size in ascending lex order
    and report the first D-unsolvable one. Every reported witness carries
    an exact engine verdict, never just a prescreen rejection."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    stop, fails, checked = _scan(g, [d], size, stops=0 if collect_all else 1,
                                 mode=mode, jobs=jobs, budget=budget)
    wits = tuple(cfg for _, cfg in fails)
    witness = stop[1] if stop is not None else (wits[0] if wits else None)
    return WitnessResult(size=size, witness=witness, configs_checked=checked,
                         witnesses=wits)


def _climb(g: Graph, demands, stops: int, *, budget: _Budget,
           jobs: int = 1, mode: str = "unrestricted"):
    """The size search (see the module docstring): one _scan per size over
    the demands, the first stops of them stop demands, from _climb_start's
    size upward until a size has no stop failure. Returns that size and
    the first kept failure of the other demands there, or None."""
    _check_jobs(jobs)
    _check_lengths(g, demands)
    size = _climb_start(g, demands[:stops], budget)
    while True:
        stop, failures, _ = _scan(g, demands, size, stops=stops, mode=mode,
                                  jobs=jobs, budget=budget)
        if stop is None:
            return size, (failures[0] if failures else None)
        size += 1


def pi_D(g: Graph, d: Distribution, *, budget=None, jobs: int = 1,
         mode: str = "unrestricted") -> int:
    """Smallest m such that every size-m configuration is D-solvable.

    The size search over [d] alone, from one above the largest lower
    candidate the engine refuses (_climb_start), or |D|. Each size below
    the answer stops at its lexicographically least witness, and only the
    answer is scanned in full.
    """
    if d.size < 1:
        raise PebblingError("demand must have size at least 1")
    return _climb(g, [d], 1, budget=_coerce_budget(budget), jobs=jobs,
                  mode=mode)[0]


def _bfs_rooted_tree(g: Graph, r: int) -> RootedTree:
    par = _delivery_tree(g, r)[1]
    edges = [(v, par[v]) for v in range(g.n) if par[v] >= 0]
    return RootedTree(build_graph(g.n, edges), r)


def _root_list(g: Graph, roots) -> list:
    """The requested roots as a list: every vertex for None, a one-item list
    for a single root. An empty list is refused: pi_t is a maximum over the
    roots, and a maximum over no roots has no value."""
    if roots is None:
        return list(range(g.n))
    if isinstance(roots, int):
        return [roots]
    out = list(roots)
    if not out:
        raise PebblingError("roots must name at least one vertex")
    return out


def pi_t(g: Graph, t: int = 1, roots=None, *, budget=None,
         jobs: int = 1) -> int:
    """t-fold pebbling number: the largest over the requested roots r (all
    by default; pass a single root for vertex-transitive graphs) of the
    smallest m making every size-m configuration t-fold r-solvable.

    One size search covers the stacked demand of every requested root at
    once, so each size below the answer stops at the first configuration
    some root fails, and the answer is scanned in full once for all of
    them. It starts one above the largest default lower candidate the
    engine refuses (_climb_start), or t.
    """
    if t < 1:
        raise PebblingError("t must be at least 1")
    stacked = [Distribution.stacked(g.n, r, t) for r in _root_list(g, roots)]
    return _climb(g, stacked, len(stacked), budget=_coerce_budget(budget),
                  jobs=jobs)[0]


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


def _default_lower_candidates(g: Graph, t: int, roots):
    """The BFS-tree dust witness at each root, plus the Kneser stacks C_t1
    and C_t2 at each root of eccentricity 2 in a graph of diameter 2, as a
    generator: each candidate is built only when the caller asks for it.
    Each root's eccentricity comes from its own BFS row; the all-pairs
    diameter is read only for a root of eccentricity 2."""
    for r in roots:
        yield r, tree_dust_witness(_bfs_rooted_tree(g, r), t)
        if max(g.distances(r)) == 2 and g.metrics.diameter == 2:
            yield r, build_C_t1(g, r, t)
            yield r, build_C_t2(g, r, t)


def _refused(g: Graph, candidates, budget: _Budget):
    """The (demand, configuration) candidates the engine refuses, lazily
    and in the given order; every candidate tried is charged once."""
    for d, cfg in candidates:
        budget.charge(1)
        if not is_solvable(g, cfg, d).solvable:
            yield d, cfg


def _pile(g: Graph, d: Distribution) -> Configuration:
    """The largest one-vertex configuration that fails d. A pebble moved to
    u from a pile at v used 2^dist(v, u) pebbles of it, so a pile at v
    meets d exactly when it holds sum_u d(u) 2^dist(v, u) pebbles or more;
    this one holds one fewer, at the vertex where that sum is largest."""
    need = [sum(k << dist[u] for u, k in enumerate(d.demands))
            for dist in g.metrics.dist]
    v = need.index(max(need))
    counts = [0] * g.n
    counts[v] = need[v] - 1
    return Configuration(tuple(counts))


def _climb_start(g: Graph, demands, budget: _Budget) -> int:
    """The size a search over the stop demands starts at: one above the
    largest lower candidate the engine refuses, or the largest |D|, below
    which no configuration meets that demand. The candidates are each
    demand's pile and, for a demand on one vertex, its default ones. A
    refused candidate of size s proves every size up to s has a stop
    failure (the down-set lemma); refused without restriction means refused
    in every mode, since a restricted mode only drops moves."""
    cands = []
    for d in demands:
        cands.append((d, _pile(g, d)))
        if len(d.support) == 1:
            cands += [(d, cfg) for _, cfg in
                      _default_lower_candidates(g, d.size, d.support)]
    floor = max(d.size for d in demands)
    for _, cfg in _refused(g, sorted(cands, key=lambda dc: -dc[1].size),
                           budget):
        return max(floor, cfg.size + 1)
    return floor


def _confirm_lower(g: Graph, t: int, roots, want_size: int, candidates,
                   budget: _Budget, jobs: int):
    """Certify pi_t(g) > want_size by exhibiting one engine-confirmed
    unsolvable configuration: the candidates of that size first, in order,
    and as a fallback one scan of that size over the stacked demands of
    every requested root, which stops at its first failure: the least row
    that some root fails, at the first root in roots order that fails it.
    candidates may be a generator; it is read only up to the first
    candidate the engine refuses."""
    sized = ((Distribution.stacked(g.n, r, t), cfg) for r, cfg in candidates
             if cfg.size == want_size)
    for d, cfg in _refused(g, sized, budget):
        return {"root": d.support[0], "witness": cfg, "source": "constructed"}
    stacked = [Distribution.stacked(g.n, r, t) for r in roots]
    stop, _, _ = _scan(g, stacked, want_size, stops=len(stacked), jobs=jobs,
                       budget=budget)
    if stop is None:
        return None
    return {"root": roots[stop[0]], "witness": stop[1], "source": "scan"}


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
                             jobs: int = 1) -> dict:
    """Check pi(G, D) <= pi_t(G) for every demand D of size t in the
    requested classes (all multisets by default).

    With expected_pi given, an engine-confirmed unsolvable configuration of
    size expected_pi - 1 at some root (a constructed candidate first, a scan
    as the fallback), then one combined scan at expected_pi over the demand
    classes plus all stacked demands, certify pi_t(G) = expected_pi and the
    conjecture in a single pass. With no demand classes (an empty list)
    that is the pi_t(G) = expected_pi certificate alone: the scan covers
    the stacked demands of the requested roots. Otherwise pi_t's size
    search runs with the classes that are not stacked demands kept after
    the stacked ones: the first size with no stacked failure is pi_t, and
    the first class failure kept there is the counterexample.
    """
    if t < 1:
        raise PebblingError("t must be at least 1")
    if expected_pi is not None and expected_pi < 1:
        raise PebblingError(f"expected_pi must be at least 1, got {expected_pi}")
    _check_jobs(jobs)
    budget = _coerce_budget(budget)
    root_list = _root_list(g, roots)
    if demand_classes is None:
        classes = demands_of_size(g, t)
    else:
        classes = [d if isinstance(d, Distribution) else Distribution(tuple(d))
                   for d in demand_classes]
    for d in classes:
        if len(d) != g.n:
            raise PebblingError("demand length must equal vertex count")
        if d.size != t:
            raise PebblingError(f"demand {d.demands} has size {d.size}, expected {t}")

    report = {"t": t, "pi_t": None, "pass": False, "counterexample": None,
              "lower_witness": None, "demand_count": len(classes),
              "configs_checked": 0}

    stacked = [Distribution.stacked(g.n, r, t) for r in root_list]
    if expected_pi is None:
        covered = {d.demands for d in stacked}
        demands = stacked + [d for d in classes if d.demands not in covered]
        M, fail = _climb(g, demands, len(stacked), budget=budget, jobs=jobs)
    else:
        M = expected_pi
        seen = {d.demands for d in classes}
        demands = classes + [d for d in stacked if d.demands not in seen]
        # the defaults come after the caller's candidates and are built
        # only if every one of those is of the wrong size or solvable
        candidates = chain(lower_candidates or [],
                           _default_lower_candidates(g, t, root_list))
        lower = _confirm_lower(g, t, root_list, M - 1, candidates, budget,
                               jobs)
        if lower is None:
            report.update(pi_t=M, configs_checked=budget.spent)
            report["counterexample"] = {
                "reason": "no unsolvable configuration at size pi_t - 1"}
            return report
        report["lower_witness"] = lower
        fail, _, _ = _scan(g, demands, M, stops=len(demands), jobs=jobs,
                           budget=budget)

    report["pi_t"] = M
    report["configs_checked"] = budget.spent
    if fail is None:
        report["pass"] = True
    else:
        report["counterexample"] = {"demand": list(demands[fail[0]].demands),
                                    "config": fail[1]}
    return report
