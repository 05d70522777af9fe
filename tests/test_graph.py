"""Graph construction, metrics, connectivity, symmetry, and JSON I/O."""

import json
import random
from itertools import combinations
from math import comb

import pytest

from pebblekit import (
    FanSpec,
    GraphError,
    build_graph,
    graph_from_json,
    graph_to_json,
    kneser,
    metrics,
    pair_orbits,
    shortest_path,
    simplicial_vertices,
    two_path,
    vertex_connectivity,
)
from pebblekit.graph import _max_flow_unit, automorphisms, stabilizer

from oracles import (
    bfs_dist,
    brute_automorphisms,
    brute_connectivity,
    brute_pair_cut,
    brute_simplicial,
    neighbor_lists,
    random_connected_edges,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return build_graph(n, list(combinations(range(n), 2)))


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_build_graph_basic():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)
    # parallel edges collapse, either orientation
    assert build_graph(2, [(0, 1), (1, 0)]).edges == ((0, 1),)


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1)])  # vertex 2 unreachable
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])  # self-loop
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])  # out of range
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_petersen_shape(petersen):
    assert petersen.n == 10
    assert len(petersen.edges) == 15
    assert all(len(petersen.adjacency[v]) == 3 for v in range(10))


def test_metrics_examples(petersen):
    m = metrics(path_graph(5))
    assert m.diameter == 4
    assert m.ecc[0] == 4 and m.ecc[4] == 4
    assert m.dist[0][4] == 4 and m.dist[2][2] == 0
    assert metrics(petersen).diameter == 2
    wide = two_path(FanSpec((3, 4, 2), (False, False)))
    assert wide.graph.n == 14
    assert metrics(wide.graph).diameter == 4


def test_metrics_match_breadth_first_search():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(3, 10)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        adj = neighbor_lists(g.n, g.edges)
        m = metrics(g)
        for v in range(n):
            assert list(m.dist[v]) == bfs_dist(adj, v)
        assert m.diameter == max(m.ecc)
        for u in range(n):
            assert m.ecc[u] == max(m.dist[u])
        # distances change by at most one hop across any edge
        for u, v in g.edges:
            for w in range(n):
                assert abs(m.dist[u][w] - m.dist[v][w]) <= 1


def test_shortest_path_is_shortest_and_deterministic():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randrange(3, 9)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        m = metrics(g)
        for u in range(n):
            for v in range(n):
                p = shortest_path(g, u, v)
                assert p[0] == u and p[-1] == v
                assert len(p) == m.dist[u][v] + 1
                assert all(
                    (min(a, b), max(a, b)) in set(g.edges)
                    for a, b in zip(p, p[1:]))
                assert p == shortest_path(g, u, v)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(kneser(5, 2)) == 3
    assert vertex_connectivity(kneser(6, 2)) == 6


def test_vertex_connectivity_matches_brute_force():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(3, 8)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 2 * n), rng))
        kappa = vertex_connectivity(g)
        assert kappa == brute_connectivity(g)
        assert kappa <= min(len(g.adjacency[v]) for v in range(n))


def test_max_flow_unit_matches_menger():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randrange(4, 9)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        edge_set = set(g.edges)
        nonadj = [(x, y) for x in range(n) for y in range(x + 1, n)
                  if (x, y) not in edge_set]
        for x, y in nonadj[:4]:
            assert _max_flow_unit(g, (x,), (y,)) == brute_pair_cut(g, x, y)


def test_simplicial_vertices():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert simplicial_vertices(star) == frozenset({1, 2, 3})
    assert simplicial_vertices(cycle_graph(4)) == frozenset()
    tp = two_path(FanSpec((2, 3), (False,)))
    simp = simplicial_vertices(tp.graph)
    assert simp == frozenset({tp.spine[0], tp.spine[-1]})
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randrange(3, 9)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        assert simplicial_vertices(g) == frozenset(brute_simplicial(g))


def test_automorphisms_petersen(petersen):
    perms = automorphisms(petersen)
    assert len(perms) == 120
    edge_set = set(petersen.edges)
    for p in perms:
        mapped = {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edge_set}
        assert mapped == edge_set


def test_stabilizer_is_the_filtered_automorphism_group(petersen):
    """stabilizer(g, vectors), which backtracks only over assignments that
    keep every vector, equals Aut(g) filtered by those vectors, identity
    first; on small random graphs Aut(g) itself matches every permutation
    of the vertices that keeps the edges."""
    rng = random.Random(17)
    graphs = [petersen, kneser(6, 2)] + [cycle_graph(n) for n in (3, 5, 6)]
    for n in rng.choices(range(2, 8), k=12):
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        assert automorphisms(g) == brute_automorphisms(g)
        graphs.append(g)
    sizes = []
    for g in graphs:
        aut = automorphisms(g)
        vector_sets = [[], [tuple(1 if v == 0 else 0 for v in range(g.n))]]
        for _ in range(4):
            vecs = []
            for _ in range(rng.randrange(1, 3)):
                x = [0] * g.n
                for v in rng.sample(range(g.n), rng.randrange(1, min(3, g.n) + 1)):
                    x[v] = rng.randrange(1, 3)
                vecs.append(tuple(x))
            vector_sets.append(vecs)
        for vecs in vector_sets:
            got = stabilizer(g, vecs)
            assert got == [p for p in aut
                           if all(x[p[v]] == x[v] for x in vecs for v in range(g.n))]
            assert got[0] == tuple(range(g.n))
            sizes.append(len(got))
        # a vector with no nonzero entry keeps every automorphism
        assert stabilizer(g, [(0,) * g.n]) == aut
    # the root stabilizers S_2 x S_{m-2}: 12 on Petersen, 48 on K(6,2)
    assert sizes[1] == 12 and sizes[7] == 48
    assert len(automorphisms(kneser(6, 2))) == 720
    assert sum(s > 1 for s in sizes) > 40


def test_stabilizer_of_a_demand_on_a_long_path():
    """A demand's stabilizer runs one BFS per demand vertex, never the
    all-pairs matrix, and keeps its own stack: 1,501 vertices are past
    Python's default recursion limit."""
    n = 1501
    g = path_graph(n)
    flip = tuple(range(n - 1, -1, -1))
    for support, want in (((0,), 1), ((749,), 1), ((750,), 2), ((0, n - 1), 2),
                          ((3, n - 1), 1)):
        x = [0] * n
        for v in support:
            x[v] = 2
        assert stabilizer(g, [x]) == [tuple(range(n)), flip][:want]
    assert "metrics" not in g.__dict__


def test_pair_orbits_petersen(petersen):
    orbits = pair_orbits(petersen)
    reps = [orbit[0] for orbit in orbits]
    assert reps == [(0, 0), (0, 1), (0, 7)]
    sizes = sorted(len(orbit) for orbit in orbits)
    assert sizes == [10, 15, 30]  # diagonal, edges, distance-2 pairs
    assert sum(len(o) for o in orbits) == 10 + comb(10, 2)


def test_graph_json_round_trip(petersen):
    text = graph_to_json(petersen)
    again = graph_from_json(text)
    assert again == petersen
    assert graph_to_json(again) == text
    payload = json.loads(text)
    assert payload["edges"] == sorted(payload["edges"])
    assert payload["labels"][0] == "{1,2}"


def test_graph_json_errors():
    with pytest.raises(GraphError) as err:
        graph_from_json('{"n": 2, "edges": [[0')
    assert "line 1" in str(err.value) and "column" in str(err.value)
    with pytest.raises(GraphError):
        graph_from_json('{"n": 3, "edges": [[0, 1]]}')  # disconnected
    with pytest.raises(GraphError):
        graph_from_json('[1, 2]')  # not an object
