"""Immutable graph core: distances, connectivity, simplicial vertices, automorphisms."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

__all__ = [
    "GraphError",
    "Graph",
    "Metrics",
    "build_graph",
    "metrics",
    "vertex_connectivity",
    "simplicial_vertices",
    "automorphisms",
    "stabilizer",
    "pair_orbits",
    "graph_to_json",
    "graph_from_json",
    "shortest_path",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class Metrics:
    """Hop-distance matrix plus per-vertex eccentricity and the diameter."""

    dist: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    diameter: int


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on dense vertex indices 0..n-1.

    Edges are normalized to sorted (u, v) pairs with u < v and deduplicated.
    Labels are display-only metadata. Instances are immutable and hashable,
    so they are safe to share across concurrent workers.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        seen = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.n:
                raise GraphError("labels length must equal vertex count")
            object.__setattr__(self, "labels", labels)
        if self.n > 1:
            adj = self.adjacency
            reached = [False] * self.n
            reached[0] = True
            count = 1
            queue = deque([0])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if not reached[w]:
                        reached[w] = True
                        count += 1
                        queue.append(w)
            if count != self.n:
                raise GraphError("graph is disconnected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def distances(self, s: int) -> tuple[int, ...]:
        """Hop distance from s to every vertex, by one BFS."""
        d = [-1] * self.n
        d[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if d[w] < 0:
                    d[w] = d[u] + 1
                    queue.append(w)
        return tuple(d)

    @cached_property
    def metrics(self) -> Metrics:
        dist = [self.distances(s) for s in range(self.n)]
        ecc = tuple(max(row) for row in dist)
        return Metrics(dist=tuple(dist), ecc=ecc, diameter=max(ecc))


def build_graph(n: int, edges, labels=None) -> Graph:
    """Validated connected Graph from an edge list; duplicates are merged."""
    return Graph(n, tuple((int(u), int(v)) for u, v in edges),
                 tuple(labels) if labels is not None else None)


def metrics(g: Graph) -> Metrics:
    """BFS-exact distance matrix with eccentricities and diameter."""
    return g.metrics


def shortest_path(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """One shortest u,v-path, deterministic: each hop takes the least-index
    neighbor that decreases the remaining distance."""
    d = g.distances(v)
    if d[u] < 0:
        raise GraphError("vertices are not connected")
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.adjacency[cur] if d[w] == d[cur] - 1)
        path.append(cur)
    return tuple(path)


def _max_flow_unit(g: Graph, sources, sinks) -> int:
    """Max number of X,Y-paths meeting X ∪ Y only at their endpoints.

    Vertex-split network: interior vertices get capacity 1, every graph arc
    gets capacity 1 (an edge supports at most one path), sources emit from
    their out-node, sinks absorb at their in-node. Edmonds-Karp.
    """
    n = g.n
    x_set = set(sources)
    y_set = set(sinks)
    # node ids: in(v) = 2v, out(v) = 2v + 1, super-source = 2n, super-sink = 2n + 1
    s, t = 2 * n, 2 * n + 1
    inf = n * n + 1
    cap: dict[int, dict[int, int]] = {}

    def add(a, b, c):
        cap.setdefault(a, {})
        cap.setdefault(b, {})
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for v in range(n):
        if v in x_set:
            add(s, 2 * v + 1, inf)
        elif v in y_set:
            add(2 * v, t, inf)
        else:
            add(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if a in y_set or b in x_set:
                continue  # sinks emit nothing; sources absorb nothing
            add(2 * a + 1, 2 * b, 1)

    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            a = queue.popleft()
            for b, c in cap.get(a, {}).items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if t not in parent:
            return flow
        # unit capacities on every bottleneck: augment by the path minimum
        path = []
        b = t
        while b != s:
            a = parent[b]
            path.append((a, b))
            b = a
        aug = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= aug
            cap[b][a] += aug
        flow += aug


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects g.

    n - 1 for complete graphs by convention; otherwise the minimum over all
    non-adjacent pairs of the vertex-capacity max-flow value.
    """
    n = g.n
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    best = n
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                best = min(best, _max_flow_unit(g, (u,), (v,)))
    return best


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    out = []
    for v in range(g.n):
        nb = g.adjacency[v]
        if all(g.has_edge(a, b) for a, b in combinations(nb, 2)):
            out.append(v)
    return frozenset(out)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, as tuples p with p[v]
    the image of v, the identity first."""
    return stabilizer(g)


def stabilizer(g: Graph, vectors=()) -> list[tuple[int, ...]]:
    """The automorphisms p of g that keep every vector: x[p[v]] == x[v] for
    each x in vectors and each vertex v. Tuples p with p[v] the image of v,
    in lexicographic order, so the identity comes first; with no vectors
    this is all of Aut(g).

    Backtracking assigns vertices in index order and tries for v only the
    vertices w with v's profile: its entries in the vectors and the multiset
    of (entries of s, dist(s, v)) over the sources s. The sources are the
    vertices where some vector is nonzero, which any such p permutes, so
    one BFS per source suffices and a demand's fixed targets cut the search
    down to its stabilizer instead of enumerating Aut(g) and filtering it;
    with no nonzero entry every vertex is a source. The search keeps its
    own stack, so no graph size reaches Python's recursion limit."""
    n = g.n
    entries = [tuple(x[v] for x in vectors) for v in range(n)]
    sources = [v for v in range(n) if any(entries[v])]
    rows = ([g.distances(s) for s in sources] if sources
            else [g.metrics.dist[s] for s in range(n)])
    sources = sources or range(n)
    profile = [(entries[v],
                tuple(sorted((entries[s], row[v]) for s, row in zip(sources, rows))))
               for v in range(n)]
    classes: dict = {}
    for v in range(n):
        classes.setdefault(profile[v], []).append(v)
    candidates = [classes[profile[v]] for v in range(n)]
    adj = [set(a) for a in g.adjacency]
    lower = [[u for u in g.adjacency[v] if u < v] for v in range(n)]
    assign = [-1] * n
    taken: set[int] = set()
    perms: list[tuple[int, ...]] = []
    # its[i] yields the untried candidates for vertex i, and want[i] holds
    # the images of i's lower neighbours: p keeps every edge iff, for each
    # i, these are exactly the assigned neighbours of p[i]
    its = [iter(candidates[0])]
    want: list[set[int]] = [set()]
    while its:
        i = len(its) - 1
        if assign[i] >= 0:
            taken.discard(assign[i])
            assign[i] = -1
        for w in its[i]:
            if w not in taken and adj[w] & taken == want[i]:
                break
        else:
            its.pop()
            want.pop()
            continue
        assign[i] = w
        taken.add(w)
        if i + 1 == n:
            perms.append(tuple(assign))
        else:
            its.append(iter(candidates[i + 1]))
            want.append({assign[u] for u in lower[i + 1]})
    return perms


def pair_orbits(g: Graph) -> list[list[tuple[int, int]]]:
    """Orbits of unordered vertex pairs (repetition allowed, so {v, v} counts)
    under the automorphism group. Each orbit is sorted; orbits are ordered by
    their least pair."""
    perms = automorphisms(g)
    canon: dict[tuple[int, int], tuple[int, int]] = {}
    for u in range(g.n):
        for v in range(u, g.n):
            images = []
            for p in perms:
                a, b = p[u], p[v]
                images.append((a, b) if a <= b else (b, a))
            canon[(u, v)] = min(images)
    orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pair, c in canon.items():
        orbits.setdefault(c, []).append(pair)
    return [sorted(orbits[c]) for c in sorted(orbits)]


def graph_to_json(g: Graph) -> str:
    """Deterministic JSON encoding: {"n":..., "edges":[[u,v],...]} with edges
    sorted lexicographically; labels included only when present."""
    obj: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return json.dumps(obj, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    return _decode_graph(text)[0]


def _decode_graph(text: str) -> tuple[Graph, list]:
    """The graph and its edge list as written (duplicates kept), from one
    parse of the JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid graph JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError('graph JSON must be an object with "n" and "edges"')
    g = Graph(int(obj["n"]),
              tuple((int(u), int(v)) for u, v in obj["edges"]),
              tuple(obj["labels"]) if obj.get("labels") is not None else None)
    return g, obj["edges"]
