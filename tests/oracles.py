"""Brute-force reference implementations used to cross-check the package.

Everything here is breadth-first or exhaustive with no pruning, so it is
only usable on small inputs, but its correctness is plain by inspection.
Only graph fields n/edges are consumed; derived structures are rebuilt.
`ReferenceSolver`, the previous implementation of the exact search, is the
one exception on both counts.
"""

from collections import deque
from itertools import chain, combinations, permutations, product
from math import comb
from operator import ge, mul

from pebblekit import engine
from pebblekit.engine import MODES, Configuration, Distribution, PebblingError, \
    Solution, SolveOutcome
from pebblekit.graph import Graph


def neighbor_lists(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def bfs_dist(adj, src):
    dist = [None] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_configs(n, size):
    """Weak compositions of size into n parts, via stars and bars."""
    for bars in combinations(range(size + n - 1), n - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(size + n - 2 - prev)
        yield tuple(parts)


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
    """The configuration at the given rank in ascending lexicographic order
    (rank 0 is (0, ..., 0, m)), slot by slot in arbitrary precision. With
    m' pebbles left and p slots after it, the configurations whose slot
    count is v form a run of C(m' - v + p - 1, p - 1); the slot's count is
    the number of whole runs the rank skips. The scalar reference for
    numbers._unrank_cols and the scans built on it."""
    if not (0 <= rank < comb(n + m - 1, n - 1)):
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


def brute_solvable(g, counts, demands, mode="unrestricted"):
    """Breadth-first closure over every configuration reachable from counts."""
    n = g.n
    adj = neighbor_lists(n, g.edges)
    if mode != "unrestricted":
        dist = [bfs_dist(adj, x) for x in range(n)]
        targets = [x for x in range(n) if demands[x] > 0]
    start = tuple(counts)
    seen = {start}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        if all(c[i] >= demands[i] for i in range(n)):
            return True
        for u in range(n):
            if c[u] < 2:
                continue
            for v in adj[u]:
                if mode == "greedy":
                    if not any(demands[x] > c[x] and dist[x][v] < dist[x][u]
                               for x in targets):
                        continue
                elif mode == "semi_greedy":
                    if not any(demands[x] > c[x] and dist[x][v] <= dist[x][u]
                               for x in targets):
                        continue
                nxt = list(c)
                nxt[u] -= 2
                nxt[v] += 1
                state = tuple(nxt)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return False


def brute_reachable(g, counts):
    """Every configuration reachable from counts by pebbling moves, counts
    itself included."""
    adj = neighbor_lists(g.n, g.edges)
    start = tuple(counts)
    seen = {start}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for u in range(g.n):
            if c[u] < 2:
                continue
            for v in adj[u]:
                nxt = list(c)
                nxt[u] -= 2
                nxt[v] += 1
                state = tuple(nxt)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return seen


def brute_solvable_memo(adj, counts, demands, memo):
    """The unrestricted brute_solvable verdict by recursion over single
    moves: counts solves the demand iff it meets it pointwise or some
    one-move child solves it. memo maps configurations to verdicts for one
    (graph, demand) pair and is filled in, so a caller checking many rows
    against the same demand explores each reachable configuration once.
    The recursion depth is at most the pebble count."""
    c = tuple(counts)
    got = memo.get(c)
    if got is None:
        got = all(x >= y for x, y in zip(c, demands))
        for u in range(len(c)):
            if got:
                break
            if c[u] < 2:
                continue
            for v in adj[u]:
                nxt = list(c)
                nxt[u] -= 2
                nxt[v] += 1
                if brute_solvable_memo(adj, nxt, demands, memo):
                    got = True
                    break
        memo[c] = got
    return got


def brute_min_moves(g, counts, r):
    """Fewest pebbling moves placing a pebble on r; None when impossible.

    Every move lowers the total by one, so breadth-first layers coincide
    with move counts and the first hit is minimal."""
    if counts[r] >= 1:
        return 0
    adj = neighbor_lists(g.n, g.edges)
    seen = {tuple(counts)}
    frontier = [tuple(counts)]
    moves = 0
    while frontier:
        moves += 1
        nxt_frontier = []
        for c in frontier:
            for u in range(g.n):
                if c[u] < 2:
                    continue
                for v in adj[u]:
                    if v == r:
                        return moves
                    nxt = list(c)
                    nxt[u] -= 2
                    nxt[v] += 1
                    state = tuple(nxt)
                    if state not in seen:
                        seen.add(state)
                        nxt_frontier.append(state)
        frontier = nxt_frontier
    return None


def brute_pi(g, demands):
    """Smallest m such that every size-m configuration meets the demand.
    One brute_solvable_memo memo serves every size, so each reachable
    configuration is settled once."""
    adj = neighbor_lists(g.n, g.edges)
    memo = {}
    m = sum(demands)
    while True:
        if all(brute_solvable_memo(adj, c, demands, memo)
               for c in all_configs(g.n, m)):
            return m
        m += 1


def brute_unsolvable_set(g, demands, size):
    """All unsolvable configurations of one size, ascending lexicographic."""
    return [c for c in sorted(all_configs(g.n, size))
            if not brute_solvable(g, c, demands)]


def _component_of(adj, start, alive):
    comp = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in alive and v not in comp:
                comp.add(v)
                queue.append(v)
    return comp


def brute_connectivity(g):
    """Minimum vertex-cut size by subset enumeration; n-1 for complete."""
    n = g.n
    adj = neighbor_lists(n, g.edges)
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    for k in range(n - 1):
        for cut in combinations(range(n), k):
            alive = set(range(n)) - set(cut)
            if len(alive) < 2:
                continue
            comp = _component_of(adj, next(iter(alive)), alive)
            if comp != alive:
                return k
    return n - 1


def brute_pair_cut(g, x, y):
    """Smallest vertex set (x, y excluded) separating non-adjacent x and y."""
    adj = neighbor_lists(g.n, g.edges)
    others = [v for v in range(g.n) if v not in (x, y)]
    for k in range(len(others) + 1):
        for cut in combinations(others, k):
            alive = set(range(g.n)) - set(cut)
            if y not in _component_of(adj, x, alive):
                return k
    raise AssertionError("adjacent pair cannot be separated")


def brute_simplicial(g):
    """Vertices whose neighborhoods are cliques, checked pairwise."""
    adj = neighbor_lists(g.n, g.edges)
    edge_set = {(min(u, v), max(u, v)) for u, v in g.edges}
    out = set()
    for v in range(g.n):
        if all((min(a, b), max(a, b)) in edge_set
               for a, b in combinations(adj[v], 2)):
            out.add(v)
    return out


def tree_children(tree):
    """Parent-to-children lists of a rooted tree, by BFS from the root."""
    g = tree.graph
    adj = neighbor_lists(g.n, g.edges)
    children = [[] for _ in range(g.n)]
    seen = {tree.root}
    queue = deque([tree.root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                queue.append(v)
    return children


def brute_path_partitions(tree):
    """Every root-directed path partition, as non-increasing length tuples.

    Exactly one path uses the parent edge of each non-root vertex v, and it
    either stops at v or extends through one chosen child edge; all other
    child edges open new paths.  Enumerating that choice at every non-root
    internal vertex enumerates every partition exactly once.
    """
    children = tree_children(tree)
    root = tree.root
    n = tree.graph.n
    deciders = [v for v in range(n) if v != root and children[v]]
    out = set()
    for pick in product(*([children[v] + [None] for v in deciders])):
        extend = dict(zip(deciders, pick))
        lengths = []
        for v in range(n):
            for c in children[v]:
                if v != root and extend.get(v) == c:
                    continue  # interior edge of some longer path
                length = 1
                w = c
                while extend.get(w) is not None:
                    w = extend[w]
                    length += 1
                lengths.append(length)
        out.add(tuple(sorted(lengths, reverse=True)))
    return out


def majorizes(a, b):
    """Lexicographic dominance of non-increasing sequences of equal sum."""
    return tuple(a) >= tuple(b)


def random_config(n, size, rng):
    counts = [0] * n
    for _ in range(size):
        counts[rng.randrange(n)] += 1
    return tuple(counts)


def random_connected_edges(n, extra, rng):
    """A random spanning tree plus extra random edges, as a sorted list."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return sorted(edges)


def brute_automorphisms(g):
    """Every vertex permutation mapping the edge set onto itself, in
    lexicographic order; n! candidates, so small graphs only."""
    edge_set = {(min(u, v), max(u, v)) for u, v in g.edges}
    return [p for p in permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edge_set for u, v in edge_set)]


def brute_is_two_path(g):
    """The recursive 2-path definition read literally: K_2 or K_3, or exactly
    two simplicial vertices and some deletion of one whose neighbourhood is
    an edge leaves a 2-path. Tries every such deletion; recursion depth is
    the vertex count, so small graphs only."""
    adj = [set(a) for a in neighbor_lists(g.n, g.edges)]
    edge_set = {(min(u, v), max(u, v)) for u, v in g.edges}

    def edge(a, b):
        return (min(a, b), max(a, b)) in edge_set

    def rec(verts):
        k = len(verts)
        if k in (2, 3) and all(edge(a, b) for a, b in combinations(verts, 2)):
            return True
        simp = [v for v in verts
                if all(edge(a, b) for a, b in combinations(adj[v] & verts, 2))]
        if len(simp) != 2 or k < 4:
            return False
        return any(len(adj[v] & verts) == 2 and edge(*(adj[v] & verts))
                   and rec(verts - {v}) for v in simp)

    return g.n >= 2 and rec(frozenset(range(g.n)))


class ReferenceSolver:
    """The tuple-keyed exact search `engine.Solver` replaced, kept verbatim
    as the reference: the same DFS order, weight cut and memo rule, with
    each memo key the tuple of per-vertex counts. Tests compare outcomes,
    state counts and memo contents of the two. Set-up reads the graph's
    BFS rows and adjacency, unlike the rest of this module."""

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
                elif write and len(failed) < engine.MEMO_CAP:
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
                    if write and len(failed) < engine.MEMO_CAP:
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
