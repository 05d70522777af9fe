"""Exact pebbling engine: configurations, distributions, pebbling moves,
solvability search with pruning, minimum-cost solutions, and
weight/potential statistics."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add, le, lshift, lt, mul

import numpy as np

from .graph import Graph, stabilizer

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
        if not 0 <= r < n:
            raise PebblingError(f"root {r} is not a vertex of a {n}-vertex graph")
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
    pebbling step. Computed as scaled integers over 2^ecc(r) from r's BFS
    row; any common scale of at least ecc(r) gives the same Fraction."""
    dist = g.distances(r)
    ecc = max(dist)
    scaled = sum(c[v] << (ecc - dist[v]) for v in range(g.n))
    return Fraction(scaled, 1 << ecc)


# The failed-state memo stops growing at this many entries per solver.
MEMO_CAP = 4_000_000
# get_solver keeps at most this many solvers, dropping the least recently
# used one; no registry claim builds more than a few hundred at its defaults.
SOLVER_CACHE_CAP = 1024
# a symmetric solver whose stabilizer has at least this many elements, and
# whose image keys fit in 63 bits, probes a state's children in one numpy step
BATCH_GROUP = 24


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
    - Dead ends. A state with no vertex holding two pebbles has no move, so
      if it misses the demand it can never be solved. A child is checked
      for this in O(1): it is a dead end exactly when its parent's only
      vertex holding two or more pebbles is the move's source u, u holds 2
      or 3, and the head v held none (v held at most 1, as every vertex
      but u did, and gets one more).
    - Memo. `failed` holds exactly the states a search expanded and saw
      fail: an unbounded call adds a state once all of its moves have
      failed. Such a state has no solution of any length, so it fails under
      any bound as well, and bounded calls read the memo; a bounded failure
      may only mean the bound was hit, so bounded calls never write it. A
      child below the weight cut, or a dead end, is settled before its memo
      key is built and is never written: every state a cut child reaches
      fails the same cut, and a dead end reaches none, so an entry would
      spare no work. The state a call starts from, once its demand is
      found unmet, is settled the same way, in 1 state and before any key
      is built, when it is below the weight cut or a dead end, or when
      max_moves == 0 allows no move: such a call reads no memo and writes
      none. The memo stops growing at MEMO_CAP entries.
    - Sleep sets (Godefroid, "Partial-Order Methods for the Verification of
      Concurrent Systems", LNCS 1032, 1996). Move m_k is independent of
      move m_i when src(m_k) != src(m_i) and, in greedy and semi_greedy
      mode, m_k puts no pebble on a demand vertex. Each state S on the path
      carries a sleep set and a done set: done(S) gains each move out of S
      once its child is settled (a memo hit, a weight cut, a dead end, or
      one expanded and failed; at a state whose children sit at the move
      bound no child is expanded, so done goes unread). A move in
      sleep(S) is skipped before the demand check and is not counted as a
      state; the child S+m_i gets the sleep set (sleep(S) | done(S)) &
      indep(m_i), and the root gets none. Lemma: for every m in sleep(X),
      X+m has no solution within X's remaining bound less one move. Step:
      take m_k in sleep(S) | done(S) independent of m_i. Then S+m_i+m_k =
      (S+m_k)+m_i, and m_i is legal at S+m_k: m_k takes its pebbles from
      another vertex, and in a restricted mode it meets no unmet target, so
      m_i still approaches one. So S+m_i+m_k is one legal move below a
      state that fails within S's bound less one, and it fails with one
      move less. Only failing children are skipped, so every verdict and
      every solution is the one the search without them returns, under
      every bound (min_cost_solution's bisection included), and every
      state written to the memo has no solution.
    Restricted modes decide a move's legality from the state alone, so the
    memo stays sound for them too.

    Memo keys are plain ints: vertex v's count sits in bits [k*v, k*v + k),
    where k is the bit length of the largest bound max_v floor((c(v) +
    |c|)/2) over the configurations c this solver has searched from. Width
    lemma: Phi_v = c(v) + |c| never rises. A move into v leaves it
    unchanged (v gains a pebble, the size loses one), a move out of v
    lowers it by 3 and every other move by 1. A state c' reached from c has
    c'(v) <= |c'|, so 2 c'(v) <= Phi_v(c') <= Phi_v(c), and no count
    reached exceeds the bound: no field overflows. A move takes two pebbles
    from a vertex holding at least two, so no field borrows either.
    lem-3.6's size-18 configurations on K(6,2) hold at most 11 pebbles on a
    vertex, so k = 4 where the size's own bit length is 5: 60-bit keys in
    place of 75. A move u -> v therefore adds the fixed delta
    (1 << k*v) - (2 << k*u) to the key. Each arc's record (`arcs`) holds
    that delta, the arc's packed weight change and whether the arc touches
    a demand vertex, built at each width, and the arc's sleep-set bit and
    the mask of the arcs independent of it, which do not depend on k and
    are built once, in __init__, from per-source and into-demand masks. A
    move first checks its bit against the sleep set, then the demand (only
    on demand-touching arcs), then the child's weights against the cut
    (one add and one mask test) and the dead-end rule, then probes the memo
    with key + delta: a memo hit costs one add, one set lookup and one or
    into the done set, and never touches `counts` or the path, which change
    only when a state is expanded. A call with a larger bound widens k and
    re-encodes every memo entry in place, so the memo holds the same states
    as before, now at the new width.

    The weights are w_r scaled to integers by 2^scale, where scale is the
    largest eccentricity among the targets; set-up runs one BFS per target
    and never builds the all-pairs distance matrix. Any common scale of at
    least that eccentricity would do: a common power-of-two factor on every
    weight and every need leaves each comparison, the neighbour order, the
    solutions and the state counts unchanged. A state's weights are packed
    into one int: target i's lane is the L = max(a, b) + scale + 2 bits at
    [i*L, i*L + L), a (`bits`) the bit length of the largest size this
    solver has searched from and b that of |D|, and holds w_i - need_i +
    2^(L-1). Lane bound: a reachable state has at most 2^a - 1 pebbles, so
    0 <= w_i < 2^(a + scale), and 0 <= need_i < 2^(b + scale); every lane
    stays inside (2^(L-1) - 2^(L-2), 2^(L-1) + 2^(L-2)), so it is a
    nonnegative value below 2^L, the packed int is the lanes written in
    base 2^L, and adding a move's packed change gives the child's lanes
    with no lane borrowing from the next. The top bit of a lane is set
    exactly when w_i >= need_i, so with G the mask of those top bits a
    state passes the weight cut iff weight & G == G.

    With symmetric=True, the solver computes the demand's stabilizer with
    `graph.stabilizer`: the automorphisms s of g with D(s(v)) = D(v) for
    every v, identity included. It does so when `inverses` is first read,
    and a search reads it only when it first expands a state, so a solver
    whose calls all settle their root never computes the group. When that
    group is nontrivial the memo holds one key per orbit: the least of the
    image keys of a state c under the group, where the image under s is
    c∘s, the configuration with count c(s(v)) on v. Symmetry lemma: c is
    D-solvable iff c∘s is. A move u -> v from c corresponds to the move
    s^-1(u) -> s^-1(v) from c∘s, which is legal because s is an
    automorphism, and c' >= D iff c'∘s >= D∘s = D. The greedy and
    semi-greedy rules carry over too: s^-1 maps the unmet targets of c onto
    those of c∘s, with the same demands and distances. So a state whose
    least image is in the memo fails, and the search skips it. An image
    key is linear in the counts: vertex u's count sits at field s^-1(u) of
    c∘s's key, so a move u -> v adds the per-arc delta
    (1 << k*s^-1(v)) - (2 << k*s^-1(u)) to it. An expanded state keeps its
    image keys in its frame, and a child's memo key is one
    min(map(add, keys, deltas)), with no permutation pass.

    Batched probe. When the group has at least BATCH_GROUP elements and
    n*k <= 63, the key tables hold an int64 delta table, one row per arc
    and one column per element, and an expanded state keeps its image keys
    as one int64 vector. Each image key of a reachable state has n fields
    of k bits, so it is below 2^(n*k) <= 2^63. A delta lies in (-2^63,
    2^62]: 1 << k*s^-1(v) <= 2^(k(n-1)), and 2 << k*s^-1(u) <= 2^(nk-k+1)
    <= 2^63. Every sum the batch forms is an image key of a child along a
    move out of a vertex holding two pebbles, a reachable state, and
    int64 addition is exact modulo 2^64, so each sum is the exact key, and
    so is each minimum. At each expansion not at the move bound one take of
    the rows of the arcs in search order (after the restricted-mode
    filter), one in-place add, one minimum over the columns and one
    tolist() give every child's memo key, and the loop reads a child's key
    by its row; an expanded child's vector is the parent's plus its row.
    The batch builds the key of every child, also those a sleep set, the
    demand check, the weight cut or the dead-end rule settles without one,
    and a few numpy calls cost about as much as a lazy probe over a few
    dozen elements; so a smaller group, or wider keys, keeps the lazy probe.
    The keys are the same, so the search is the same. Widening keeps
    every stored key least in its orbit: with no field overflowing, the int
    order of two keys is the order of their counts compared from the last
    vertex down, which does not depend on k. The DFS order is unchanged and
    the memo skips only states with no solution at any length, so every
    call returns the solution the plain solver returns.

    Below MEMO_CAP the symmetric solver also explores no more states than
    the plain one on the same calls, and the plain one no more than the
    search without sleep sets (tests/oracles.ReferenceSolver), whose memo
    holds the plain one's. Closure: a memo holds every descendant of its
    states that passes the weight cut and is no dead end. A state is
    written only once each child is cut, a dead end, written, already held
    or asleep, and an asleep child X+m is a descendant of a state A+m
    settled earlier, A an ancestor of X with m in done(A): by the lemma's
    step, each move from A down to X stays legal after m. A child's sleep
    set depends only on its path, since sleep(S) | done(S) is sleep(S) with
    every move ordered before m_i, so two solvers on the same calls skip
    the same children. By induction over the search order, each state the
    plain memo holds has its least image in the symmetric memo; a cut
    child or a dead end costs both searches one state, and a dead end's
    images are dead ends. Each state the reference memo holds that passes
    the weight cut and is no dead end is in the plain memo, since the plain
    search settles it too or skips it below a state it has settled, so the
    plain search counts only states the reference counts and writes only
    states the reference writes. With a trivial stabilizer, or without
    symmetric, a probe stays one add and one set lookup, with no per-arc
    work for the batch. get_solver builds
    every solver symmetric; the plain solver is the reference the
    symmetric search is tested against.
    """

    def __init__(self, g: Graph, d: Distribution, mode: str = "unrestricted",
                 symmetric: bool = False):
        if mode not in MODES:
            raise PebblingError(f"unknown mode {mode!r}; expected one of {MODES}")
        if len(d) != g.n:
            raise PebblingError("demand length must equal vertex count")
        self.g = g
        self.demand = d.demands
        self.mode = mode
        self.symmetric = symmetric
        self.n = g.n
        self.targets = d.support
        # only the targets' BFS rows: dist[x] for each target x
        self.dist = {r: g.distances(r) for r in self.targets}
        self.scale = max((max(self.dist[r]) for r in self.targets), default=0)
        self.W = tuple(tuple(1 << (self.scale - self.dist[r][v]) for v in range(self.n))
                       for r in self.targets)
        self.need = tuple(sum(self.demand[x] * w[x] for x in self.targets)
                          for w in self.W)
        score = [sum(w[v] for w in self.W) for v in range(self.n)]
        # the moves out of each vertex, best-scoring neighbour first
        self.moves_from = tuple(
            tuple((u, v) for v in sorted(g.adjacency[u], key=lambda v: (-score[v], v)))
            for u in range(self.n))
        # restricted modes: per move, the bitmask of target indices it brings
        # pebbles strictly (greedy) or weakly (semi_greedy) closer to
        closer = lt if mode == "greedy" else le
        self.approach = tuple(
            tuple(sum(1 << i for i, x in enumerate(self.targets)
                      if closer(self.dist[x][v], self.dist[x][u])) for u, v in moves)
            for moves in self.moves_from)
        # sleep sets: one bit per arc, and per arc the mask of the arcs
        # independent of it (from another source and, in restricted modes,
        # into no demand vertex), from per-source and into-demand masks
        bit = {arc: 1 << i for i, arc in enumerate(chain.from_iterable(self.moves_from))}
        from_src = [sum(map(bit.__getitem__, moves)) for moves in self.moves_from]
        movable = (1 << len(bit)) - 1
        if mode != "unrestricted":
            movable -= sum(b for (u, v), b in bit.items() if self.demand[v])
        self.sleep_masks = tuple(tuple((bit[u, v], movable & ~from_src[u]) for u, v in moves)
                                for moves in self.moves_from)
        # bits per vertex in a memo key, and the bit length of the largest
        # size the weight lanes hold; a configuration of size 0 keeps both 0
        self.k = self.bits = 0
        self.failed: set[int] = set()
        self._widen(0, 0)

    @cached_property
    def inverses(self) -> tuple[tuple[int, ...], ...] | None:
        """inverses[i][u] is the field of u's count in the i-th image key;
        None keys the memo by the state itself (symmetric=False, or a
        stabilizer holding the identity alone). Computed when first read."""
        if not self.symmetric:
            return None
        group = stabilizer(self.g, [self.demand])
        if len(group) < 2:
            return None
        return tuple(tuple(sorted(range(self.n), key=s.__getitem__)) for s in group)

    def _widen(self, k: int, bits: int):
        """Re-encode the memo keys at k bits a vertex and pack the weights
        into lanes that hold sizes below 2^bits; the key tables are rebuilt
        when next read."""
        old, mask, n = self.k, (1 << self.k) - 1, self.n
        if k != old:
            keys = list(self.failed)
            self.failed.clear()
            self.failed.update(sum(((key >> old * v) & mask) << k * v for v in range(n))
                               for key in keys)
        self.k, self.bits = k, bits
        lane = max(bits, sum(self.demand).bit_length()) + self.scale + 2
        # the packed weight of one pebble on each vertex, the bias that
        # starts lane i at 2^(lane-1) - need_i, and the lanes' top bits
        self.packed = tuple(sum(w[v] << i * lane for i, w in enumerate(self.W))
                            for v in range(n))
        self.bias = sum(((1 << lane - 1) - need) << i * lane
                        for i, need in enumerate(self.need))
        self.full = sum(1 << i * lane + lane - 1 for i in range(len(self.W)))
        self._keyed = None

    def _key_tables(self):
        """(shifts, arcs, table) at the current width: the bit offset of
        each vertex's field in each image key, per vertex the records of the
        moves out of it, and the batched probe's int64 delta table (one row
        per arc, in search order, one column per group element) with each
        vertex's row indices, or None on the per-arc probe. Built at a
        search's first expansion after set-up or a widening; they read
        `inverses`."""
        if self._keyed is None:
            k, inverses, packed = self.k, self.inverses, self.packed
            demand = self.demand
            shifts = tuple(tuple(k * f for f in p) for p in inverses or (range(self.n),))

            def delta(u, v):
                if inverses is None:
                    return (1 << k * v) - (2 << k * u)
                return tuple((1 << k * p[v]) - (2 << k * p[u]) for p in inverses)

            deltas = [[delta(u, v) for u, v in moves] for moves in self.moves_from]
            table = None
            if inverses is not None and len(inverses) >= BATCH_GROUP and self.n * k <= 63:
                # each arc's record holds its row of the table in place of
                # its deltas
                flat = np.array(list(chain.from_iterable(deltas)), dtype=np.int64)
                rows = iter(range(len(flat)))
                deltas = [[next(rows) for _ in moves] for moves in deltas]
                table = flat, deltas
            arcs = tuple(
                tuple((u, v, dk, packed[v] - 2 * packed[u],
                       bool(demand[u] or demand[v]), bit, indep)
                      for (u, v), dk, (bit, indep) in zip(moves, row, masks))
                for moves, row, masks in zip(self.moves_from, deltas, self.sleep_masks))
            self._keyed = shifts, arcs, table
        return self._keyed

    @property
    def arcs(self):
        """Per vertex, the records of the moves out of it in search order:
        (u, v, key delta, or on the batched probe the arc's row in the delta
        table, packed weight change, touches a demand vertex, sleep-set bit,
        independence mask)."""
        return self._key_tables()[1]

    def solve(self, c, max_moves: int | None = None) -> SolveOutcome:
        """Search for moves from c that meet the demand; with max_moves, only
        sequences of at most that many moves count."""
        if max_moves is not None and max_moves < 0:
            raise PebblingError("max_moves must be nonnegative")
        # Python ints: a fixed-width count (a numpy scalar, say) would wrap
        # when shifted into the key
        counts = list(map(int, c.counts if isinstance(c, Configuration) else c))
        n = self.n
        if len(counts) != n:
            raise PebblingError("configuration length must equal vertex count")
        if min(counts) < 0:
            raise PebblingError("pebble counts must be nonnegative")
        demand = self.demand
        targets = self.targets
        single = sum(demand) == 1
        deficit = sum(max(0, demand[x] - counts[x]) for x in targets)
        if deficit == 0:
            return SolveOutcome(True, Solution((), 1 if single else None), 0)
        # the width lemma (see Solver) bounds every count the search reaches
        size = sum(counts)
        k, bits = ((max(counts) + size) // 2).bit_length(), size.bit_length()
        if k > self.k or bits > self.bits:
            self._widen(max(k, self.k), max(bits, self.bits))
        full = self.full
        weight = sum(map(mul, counts, self.packed)) + self.bias
        # settled like a child without a key: no key, no memo read or write
        if max_moves == 0 or weight & full != full or max(counts) < 2:
            return SolveOutcome(False, None, 1)
        shifts, arcs, table = self._key_tables()
        # with a nontrivial stabilizer `images` holds the state's image keys
        # and `key`, the memo key, is their least; otherwise `images` is None.
        # On the batched probe `images` is an int64 vector and `probe` maps
        # the row of each arc out of the state to its child's memo key
        images = probe = None
        if self.inverses is None:
            key = sum(map(lshift, counts, shifts[0]))
        else:
            images = tuple(sum(map(lshift, counts, s)) for s in shifts)
            key = min(images)
        failed = self.failed
        if key in failed:
            return SolveOutcome(False, None, 1)
        batched = table is not None
        if batched:
            deltas, rows_from = table
            images = np.array(images, dtype=np.int64)
        write = max_moves is None
        cap = MEMO_CAP
        approach = self.approach
        restricted = self.mode != "unrestricted"
        vertices = range(n)

        def moves_out():
            """The candidate moves out of the state in `counts`, in search
            order, whether a move out of it can leave a dead end (true when
            exactly one vertex holds two pebbles or more, and it holds 2 or
            3), and on the batched probe, unless its children sit at the
            move bound, the memo keys of those moves' children by row. Some
            vertex of the state holds two."""
            sources = [v for v in vertices if counts[v] > 1]
            lone = len(sources) == 1 and counts[sources[0]] < 4
            sources.sort(key=counts.__getitem__, reverse=True)
            if restricted:
                unmet = sum(1 << i for i, x in enumerate(targets) if demand[x] > counts[x])
                out = [arc for u in sources
                       for arc, m in zip(arcs[u], approach[u]) if m & unmet]
                it = iter(out)
            else:
                it = chain.from_iterable(map(arcs.__getitem__, sources))
            if not batched or bound:
                return it, lone, None
            rows = ([arc[2] for arc in out] if restricted
                    else list(chain.from_iterable(map(rows_from.__getitem__, sources))))
            block = deltas.take(rows, axis=0)
            block += images
            return it, lone, dict(zip(rows, np.minimum.reduce(block, axis=1).tolist()))

        # frames[i] holds the i-th state on the current path below the one in
        # `key`: its key, its image keys, its probed child keys, its untried
        # moves, its packed weight, its deficit, its sleep and done sets and
        # its dead-end flag; path[i] is the move taken out of it
        frames: list = []
        path: list[tuple[int, int]] = []
        # children of a state at depth `last` sit at the move bound
        last = -1 if max_moves is None else max_moves - 1
        bound = last == 0
        it, lone, probe = moves_out()
        states = 1
        sleep = done = 0
        while True:
            for u, v, dk, dw, touch, bit, indep in it:
                if bit & sleep:
                    continue
                if touch:
                    gap = demand[u] - counts[u]
                    left = (deficit + max(0, gap + 2) - max(0, gap)
                            - (demand[v] > counts[v]))
                    if left == 0:
                        path.append((u, v))
                        return SolveOutcome(
                            True, Solution(tuple(path), len(path) + 1 if single else None),
                            states)
                states += 1
                # no child at the bound is expanded, so `done` goes unread
                if bound:
                    continue
                # a child below the weight cut, or a dead end (u was the only
                # vertex holding two and v held none), is never written
                cw = weight + dw
                if cw & full != full or (lone and not counts[v]):
                    done |= bit
                    continue
                # on the per-arc probe an expanded child adds the deltas
                # again below: a tuple built here would cost every memo hit,
                # which dominates the deep unsolvable searches
                child = (key + dk if images is None else probe[dk] if batched
                         else min(map(add, images, dk)))
                if child in failed:
                    done |= bit
                    continue
                frames.append((key, images, probe, it, weight, deficit, sleep, done | bit,
                               lone))
                path.append((u, v))
                counts[u] -= 2
                counts[v] += 1
                key, weight = child, cw
                if batched:
                    images = images + deltas[dk]
                elif images:
                    images = tuple(map(add, images, dk))
                bound = len(path) == last
                it, lone, probe = moves_out()
                sleep, done = (sleep | done) & indep, 0
                if touch:
                    deficit = left
                break
            else:
                # every move out of the state in `key` has failed
                if write and len(failed) < cap:
                    failed.add(key)
                if not frames:
                    return SolveOutcome(False, None, states)
                u, v = path.pop()
                counts[u] += 2
                counts[v] -= 1
                key, images, probe, it, weight, deficit, sleep, done, lone = frames.pop()
                bound = len(path) == last


_solver_cache: OrderedDict[tuple, Solver] = OrderedDict()


def get_solver(g: Graph, d: Distribution, mode: str = "unrestricted") -> Solver:
    """The cached solver for (g, d, mode); the cache keeps the
    SOLVER_CACHE_CAP most recently used solvers, memos included. The solver
    is symmetric: it keys its memo by orbit under the demand's stabilizer,
    computed once, when one of its searches first expands a state, and
    probes a state's children in one numpy step when that group has at
    least BATCH_GROUP elements and the keys fit in 63 bits (see Solver)."""
    key = (g, d.demands, mode)
    solver = _solver_cache.get(key)
    if solver is None:
        solver = Solver(g, d, mode, symmetric=True)
        _solver_cache[key] = solver
        if len(_solver_cache) > SOLVER_CACHE_CAP:
            _solver_cache.popitem(last=False)
    else:
        _solver_cache.move_to_end(key)
    return solver


def is_solvable(g: Graph, c: Configuration | tuple[int, ...], d: Distribution,
                mode: str = "unrestricted") -> SolveOutcome:
    """Exact decision: can c reach a configuration pointwise >= d?

    c is a Configuration or a plain tuple of per-vertex counts; the scans
    pass tuples and build a Configuration only for a witness.

    greedy mode permits only moves strictly decreasing the distance to some
    unmet target; semi_greedy permits non-increasing ones. Solvers (with
    their memo of failed states) are cached per (graph, demand, mode) and
    key the memo by orbit under the demand's stabilizer (see Solver): the
    verdict and solution are the plain search's, and a deep unsolvable
    search visits fewer states, but a child's key costs one add per group
    element: one at a time on a small group, and for all of a state's
    children in one numpy step on a group of at least BATCH_GROUP elements
    whose keys fit in 63 bits.
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
