"""Brute-force reference implementations used to cross-check the package.

Everything here is breadth-first or exhaustive with no pruning, so it is
only usable on small inputs, but its correctness is plain by inspection.
Only graph fields n/edges are consumed; derived structures are rebuilt.
"""

from collections import deque
from itertools import combinations, product


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
    """Smallest m such that every size-m configuration meets the demand."""
    m = sum(demands)
    while True:
        if all(brute_solvable(g, c, demands) for c in all_configs(g.n, m)):
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
