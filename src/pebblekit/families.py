"""Graph families: Kneser graphs, 2-paths (overlapping fan graphs), rooted
trees, spinal spanning trees, and maximum root-path partitions."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .graph import Graph, shortest_path, simplicial_vertices

__all__ = [
    "FamilyError",
    "FanSpec",
    "TwoPath",
    "RootedTree",
    "kneser",
    "two_path",
    "is_spinal_root",
    "spinal_tree",
    "max_path_partition",
    "random_tree",
    "enumerate_fan_specs",
]


class FamilyError(ValueError):
    """Invalid family parameters or a spec that violates family invariants."""


def kneser(m: int, h: int) -> Graph:
    """Kneser graph: vertices are the h-subsets of {1..m} in lexicographic
    order, adjacent iff disjoint. Requires m >= 2h + 1 (connectedness)."""
    if h < 1:
        raise FamilyError("subset size must be at least 1")
    if m < 2 * h + 1:
        raise FamilyError(f"kneser({m},{h}) is disconnected; need m >= 2h+1")
    subsets = list(combinations(range(1, m + 1), h))
    edges = []
    for i, j in combinations(range(len(subsets)), 2):
        if not set(subsets[i]) & set(subsets[j]):
            edges.append((i, j))
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)
    return Graph(len(subsets), tuple(edges), labels)


@dataclass(frozen=True)
class FanSpec:
    """Fan sizes k_1..k_{d-1} for a 2-path of diameter d = len(k) + 1, plus
    overlap flags: overlap[i] means fans i+1 and i+2 share one fan vertex."""

    k: tuple[int, ...]
    overlap: tuple[bool, ...] = ()

    def __post_init__(self):
        k = tuple(int(x) for x in self.k)
        if not k or any(x < 1 for x in k):
            raise FamilyError("fan sizes must be a nonempty sequence of positive integers")
        overlap = tuple(bool(x) for x in self.overlap) if self.overlap else (False,) * (len(k) - 1)
        if len(overlap) != len(k) - 1:
            raise FamilyError(f"need {len(k) - 1} overlap flags for {len(k)} fans, got {len(overlap)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "overlap", overlap)

    @property
    def d(self) -> int:
        return len(self.k) + 1

    def to_json(self) -> str:
        return json.dumps({"k": list(self.k), "overlap": list(self.overlap)},
                          separators=(",", ":"))


@dataclass(frozen=True)
class TwoPath:
    """A generated 2-path: its graph, the spine x_0..x_d, and the ordered fan
    vertices (interiors) of each fan path Q_i."""

    graph: Graph
    spine: tuple[int, ...]
    interiors: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.spine) - 1


@dataclass(frozen=True)
class RootedTree:
    """A tree (connected, n-1 edges) with a distinguished root."""

    graph: Graph
    root: int

    def __post_init__(self):
        if len(self.graph.edges) != self.graph.n - 1:
            raise FamilyError("not a tree: edge count must be n - 1")
        if not 0 <= self.root < self.graph.n:
            raise FamilyError(f"root {self.root} out of range")

    @cached_property
    def parents(self) -> tuple[int, ...]:
        """parent[v] on the path toward the root; parent[root] = root."""
        par = [-1] * self.graph.n
        par[self.root] = self.root
        stack = [self.root]
        while stack:
            u = stack.pop()
            for w in self.graph.adjacency[u]:
                if par[w] < 0:
                    par[w] = u
                    stack.append(w)
        return tuple(par)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        ch = [[] for _ in range(self.graph.n)]
        for v, p in enumerate(self.parents):
            if v != self.root:
                ch[p].append(v)
        return tuple(tuple(sorted(c)) for c in ch)


def two_path(spec: FanSpec) -> TwoPath:
    """Build the 2-path described by a FanSpec: spine x_0..x_d, and for each
    i a fan F_i = path Q_i = x_{i-1}, v_{i,1}, ..., v_{i,k_i}, x_{i+1} whose
    every vertex is adjacent to the center x_i. An overlap flag identifies
    the last fan vertex of Q_i with the first of Q_{i+1}.

    The result is validated: diameter d, spine a shortest path, and exactly
    two simplicial vertices x_0, x_d. Specs that collapse the diameter (for
    example two overlapping size-1 fans) are rejected.
    """
    if not isinstance(spec, FanSpec):
        spec = FanSpec(tuple(spec))
    d = spec.d
    spine = tuple(range(d + 1))
    edges = {(i, i + 1) for i in range(d)}
    interiors: list[tuple[int, ...]] = []
    labels = [f"x{i}" for i in range(d + 1)]
    nxt = d + 1
    for f in range(1, d):  # fan f, centered at spine[f]
        interior: list[int] = []
        if f >= 2 and spec.overlap[f - 2]:
            interior.append(interiors[f - 2][-1])
        pos = len(interior)
        while len(interior) < spec.k[f - 1]:
            interior.append(nxt)
            pos += 1
            labels.append(f"v{f}.{pos}")
            nxt += 1
        q = [spine[f - 1], *interior, spine[f + 1]]
        for a, b in zip(q, q[1:]):
            edges.add((a, b) if a < b else (b, a))
        for w in q:
            edges.add((spine[f], w) if spine[f] < w else (w, spine[f]))
        interiors.append(tuple(interior))
    g = Graph(nxt, tuple(edges), tuple(labels))
    tp = TwoPath(g, spine, tuple(interiors))
    _validate_two_path(tp)
    return tp


def _validate_two_path(tp: TwoPath):
    g = tp.graph
    d = tp.d
    m = g.metrics
    if m.diameter != d:
        raise FamilyError(f"spec collapses the diameter: spine length {d} but diameter {m.diameter}")
    if m.dist[tp.spine[0]][tp.spine[-1]] != d:
        raise FamilyError("spine is not a shortest path between its endpoints")
    simp = simplicial_vertices(g)
    if simp != frozenset({tp.spine[0], tp.spine[-1]}):
        raise FamilyError(f"expected exactly the two spine ends simplicial, got {sorted(simp)}")


def enumerate_fan_specs(max_n: int, d_values=None):
    """All FanSpecs whose 2-path has at most max_n vertices, skipping specs
    the constructor rejects. Deterministic order."""
    ds = list(d_values) if d_values is not None else list(range(2, max(2, max_n - 1)))
    for d in ds:
        fan_budget = max_n - (d + 1)
        if fan_budget < 1:
            continue

        def k_tuples(count, total):
            # compositions with every part >= 1 and sum <= total
            if count == 0:
                yield ()
                return
            for first in range(1, total - (count - 1) + 1):
                for rest in k_tuples(count - 1, total - first):
                    yield (first,) + rest

        # each overlap flag saves one vertex, so sums up to budget + d - 2 can fit
        for ks in k_tuples(d - 1, fan_budget + d - 2):
            for mask in product((False, True), repeat=d - 2):
                n = d + 1 + sum(ks) - sum(mask)
                if n > max_n:
                    continue
                try:
                    spec = FanSpec(ks, mask)
                    two_path(spec)
                except FamilyError:
                    continue
                yield spec


def _all_spine_routes(g: Graph, x0: int, xd: int, through: int):
    """Yield the shortest x0,xd-paths passing through a given vertex, in
    lexicographic order, one at a time: their number grows exponentially
    with the diameter, and a caller that stops at the first usable one
    builds no other. The vertex can only sit at its distance from x0. The
    depth-first search keeps one iterator of next steps per path vertex on
    an explicit stack, so a long spine never meets the recursion limit."""
    m = g.metrics
    d = m.dist[x0][xd]
    pos = m.dist[x0][through]
    if pos + m.dist[through][xd] != d:
        return
    path = []
    steps = [iter((x0,))]
    while steps:
        w = next(steps[-1], None)
        if w is None:
            steps.pop()
            if path:
                path.pop()
        elif w == xd:
            yield (*path, w)
        else:
            path.append(w)
            p = len(path)  # the index of the next vertex
            steps.append(iter([x for x in sorted(g.adjacency[w])
                               if m.dist[x][xd] == d - p
                               and (p != pos or x == through)]))


def _fan_decompositions(g: Graph, spine: tuple[int, ...]):
    """Try to realize `spine` as the spine of a fan representation: for each
    center spine[i] find an ordered fan path from spine[i-1] to spine[i+1]
    through neighbors of the center, so that consecutive fans share at most
    one fan vertex and the fans cover every non-spine vertex. Yields the
    interior tuples of each representation in the order the search finds
    them, else nothing; callers take the first.

    Both searches are depth-first on explicit stacks, one level per center
    and one per fan path vertex, so a long spine or a wide fan never meets
    the recursion limit; each tries its choices in ascending order."""
    d = len(spine) - 1
    spine_set = set(spine)
    others = frozenset(range(g.n)) - spine_set
    adj = [set(a) for a in g.adjacency]

    def fan_paths(i):
        # every path from a neighbour of spine[i-1] to one of spine[i+1]
        # through the center's non-spine neighbours, each yielded before
        # its extensions
        b = spine[i + 1]
        pool = adj[spine[i]] - spine_set
        cur = []
        steps = [iter(sorted(pool & adj[spine[i - 1]]))]
        while steps:
            w = next(steps[-1], None)
            if w is None:
                steps.pop()
                if cur:
                    cur.pop()
                continue
            cur.append(w)
            if b in adj[w]:
                yield tuple(cur)
            steps.append(iter(sorted(pool - set(cur) & adj[w])))

    if d == 1:
        if not others:
            yield []
        return
    chosen = []  # the interiors of centers 1..len(chosen)
    covered = [frozenset()]
    levels = [fan_paths(1)]
    while levels:
        interior = next(levels[-1], None)
        if interior is None:
            levels.pop()
            if chosen:
                chosen.pop()
                covered.pop()
            continue
        if chosen and len(set(interior) & set(chosen[-1])) > 1:
            continue
        chosen.append(interior)
        covered.append(covered[-1] | set(interior))
        if len(chosen) + 1 < d:
            levels.append(fan_paths(len(chosen) + 1))
            continue
        if covered[-1] == others:
            yield list(chosen)
        chosen.pop()
        covered.pop()


def _spinal_representation(tp: TwoPath, r: int):
    """A representation (spine, interiors) with r on the spine, if one
    exists. The stored representation is used when r already lies on it;
    otherwise every shortest spine re-routing through r is searched for a
    valid fan decomposition."""
    if r in tp.spine:
        return tp.spine, tp.interiors
    g = tp.graph
    x0, xd = tp.spine[0], tp.spine[-1]
    m = g.metrics
    if m.dist[x0][r] + m.dist[r][xd] != tp.d:
        return None
    for spine in _all_spine_routes(g, x0, xd, r):
        for interiors in _fan_decompositions(g, spine):
            return spine, tuple(interiors)
    return None


def is_spinal_root(tp: TwoPath, r: int) -> bool:
    """True when r lies on the spine of some representation of the 2-path."""
    if not 0 <= r < tp.graph.n:
        raise FamilyError(f"vertex {r} not in graph")
    return _spinal_representation(tp, r) is not None


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def spinal_tree(tp: TwoPath, r: int) -> RootedTree:
    """Spanning tree T_r of the 2-path whose rooted pebbling number realizes
    the two-arms-plus-pendants path partition:

    - r on the spine of some representation: arms along that spine (lengths
      i and d-i), every fan vertex pendant on the least center of a fan
      containing it;
    - r on no spine: arms are the two shortest paths from r to the spine
      ends (lengths summing to d+1), every remaining vertex pendant on its
      least neighbor interior to an arm.
    """
    g = tp.graph
    if not 0 <= r < g.n:
        raise FamilyError(f"vertex {r} not in graph")
    edges: set[tuple[int, int]] = set()
    rep = _spinal_representation(tp, r)
    if rep is not None:
        spine, interiors = rep
        for a, b in zip(spine, spine[1:]):
            edges.add(_norm_edge(a, b))
        centers: dict[int, list[int]] = {}
        for f, interior in enumerate(interiors, start=1):
            for v in interior:
                centers.setdefault(v, []).append(spine[f])
        for v, cs in centers.items():
            edges.add(_norm_edge(v, min(cs)))
    else:
        x0, xd = tp.spine[0], tp.spine[-1]
        arm_a = shortest_path(g, r, x0)
        arm_b = shortest_path(g, r, xd)
        for path in (arm_a, arm_b):
            for a, b in zip(path, path[1:]):
                edges.add(_norm_edge(a, b))
        on_arms = set(arm_a) | set(arm_b)
        hooks = on_arms - {x0, xd}  # pendants here never extend an arm
        for v in range(g.n):
            if v in on_arms:
                continue
            cands = [w for w in g.adjacency[v] if w in hooks]
            if not cands:
                raise FamilyError(f"vertex {v} has no pendant attachment for root {r}")
            edges.add(_norm_edge(v, min(cands)))
    t = Graph(g.n, tuple(edges), g.labels)
    if len(t.edges) != g.n - 1:
        raise FamilyError("spinal construction did not produce a spanning tree")
    return RootedTree(t, r)


def _peel_paths(tree: RootedTree) -> list[list[int]]:
    """Vertex paths of a maximum root-path partition: repeatedly peel the
    deepest descending path (ties to the least index). Path 0 starts at the
    root; later paths start at their attachment vertex, in depth-first
    order of their attachments."""
    children = tree.children
    height = [0] * tree.graph.n
    order = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        for c in children[v]:
            height[v] = max(height[v], height[c] + 1)
    paths = []
    todo = [(None, tree.root)]
    while todo:
        attach, v = todo.pop()
        path = [] if attach is None else [attach]
        while True:
            path.append(v)
            kids = children[v]
            if not kids:
                break
            v = min(kids, key=lambda c: (-height[c], c))
        paths.append(path)
        new = path if attach is None else path[1:]
        on_path = set(path)
        todo.extend(reversed([(u, c) for u in new for c in children[u]
                              if c not in on_path]))
    return paths


def max_path_partition(t: RootedTree) -> tuple[int, ...]:
    """Edge-length sequence (non-increasing) of a maximum r-path partition,
    the paths peeled by `_peel_paths`. The first entry equals ecc(root)."""
    if t.graph.n == 1:
        return ()
    return tuple(sorted((len(p) - 1 for p in _peel_paths(t)), reverse=True))


def random_tree(n: int, seed: int) -> RootedTree:
    """Uniform random labeled tree (Prüfer-decoded), rooted at vertex 0.
    Deterministic for a fixed seed."""
    if n < 1:
        raise FamilyError("need at least one vertex")
    if n == 1:
        return RootedTree(Graph(1, ()), 0)
    if n == 2:
        return RootedTree(Graph(2, ((0, 1),)), 0)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return RootedTree(Graph(n, tuple(edges)), 0)
