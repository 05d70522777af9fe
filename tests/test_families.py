"""Family constructors: Kneser graphs, 2-paths, spanning trees, partitions."""

import random
from math import comb

import pytest

from pebblekit import (
    FamilyError,
    FanSpec,
    build_graph,
    is_spinal_root,
    kneser,
    max_path_partition,
    metrics,
    random_tree,
    simplicial_vertices,
    spinal_pi,
    spinal_tree,
    tree_pi,
    two_path,
)
from pebblekit import families
from pebblekit.families import RootedTree, enumerate_fan_specs

from oracles import brute_is_two_path, brute_path_partitions, majorizes, \
    neighbor_lists


def test_kneser_examples(petersen):
    assert petersen.n == 10
    assert all(len(petersen.adjacency[v]) == 3 for v in range(10))
    assert metrics(petersen).diameter == 2
    k62 = kneser(6, 2)
    assert k62.n == 15
    assert all(len(k62.adjacency[v]) == 6 for v in range(15))
    with pytest.raises(FamilyError):
        kneser(4, 2)
    with pytest.raises(FamilyError):
        kneser(5, 0)


def test_kneser_labels_are_lexicographic_subsets(petersen):
    assert petersen.labels[0] == "{1,2}"
    assert petersen.labels[1] == "{1,3}"
    assert petersen.labels[-1] == "{4,5}"
    k73 = kneser(7, 3)
    assert k73.n == comb(7, 3)
    assert all(len(k73.adjacency[v]) == comb(4, 3) for v in range(k73.n))


def test_kneser_distance_layers_partition_vertices():
    for m in (5, 6, 7):
        g = kneser(m, 2)
        dist = metrics(g).dist
        for r in range(g.n):
            v1 = sum(1 for v in range(g.n) if dist[r][v] == 1)
            v2 = sum(1 for v in range(g.n) if dist[r][v] == 2)
            assert v1 == comb(m - 2, 2)
            assert v2 == 2 * (m - 2)
            assert 1 + v1 + v2 == g.n


def test_kneser_distance_two_pairs_share_a_neighbor():
    # for m > 5, any two vertices at distance 2 from r have a common
    # neighbor that is itself adjacent to r
    for m, roots in ((6, None), (7, (0,))):
        g = kneser(m, 2)
        dist = metrics(g).dist
        adj = [set(g.adjacency[v]) for v in range(g.n)]
        for r in roots if roots else range(g.n):
            v1 = {v for v in range(g.n) if dist[r][v] == 1}
            v2 = [v for v in range(g.n) if dist[r][v] == 2]
            for i, u in enumerate(v2):
                for w in v2[i + 1:]:
                    assert adj[u] & adj[w] & v1


def test_two_path_examples():
    tp = two_path(FanSpec((1,), ()))
    assert tp.graph.n == 4 and tp.d == 2
    assert metrics(tp.graph).diameter == 2
    assert simplicial_vertices(tp.graph) == {tp.spine[0], tp.spine[-1]}

    wide = two_path(FanSpec((3, 4, 2), (False, False)))
    assert wide.graph.n == 14
    assert metrics(wide.graph).diameter == 4
    assert [len(f) for f in wide.interiors] == [3, 4, 2]

    shared = two_path(FanSpec((2, 2), (True,)))
    assert shared.graph.n == 7
    overlap = set(shared.interiors[0]) & set(shared.interiors[1])
    assert len(overlap) == 1


def test_two_path_fan_structure():
    # fan f is the path x_{f-1}, interiors, x_{f+1} with every vertex
    # adjacent to the center x_f
    tp = two_path(FanSpec((3, 2), (False,)))
    g = tp.graph
    edge_set = set(g.edges)

    def adjacent(a, b):
        return (min(a, b), max(a, b)) in edge_set

    for f, interior in enumerate(tp.interiors, start=1):
        center = tp.spine[f]
        q = [tp.spine[f - 1], *interior, tp.spine[f + 1]]
        assert all(adjacent(center, v) for v in q)
        assert all(adjacent(a, b) for a, b in zip(q, q[1:]))


def test_two_path_rejects_degenerate_specs():
    with pytest.raises(FamilyError):
        two_path(FanSpec((1, 1), (True,)))  # shared vertex shortcuts the spine
    with pytest.raises(FamilyError):
        FanSpec((), ())
    with pytest.raises(FamilyError):
        FanSpec((0, 2), (False,))
    with pytest.raises(FamilyError):
        FanSpec((1, 1), (True, True))  # overlap flag count mismatch


def test_is_two_path_accepts_every_generated_spec():
    rng = random.Random(5)
    larger = [FanSpec(k, tuple(rng.random() < 0.5 for _ in k[1:]))
              for k in (tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
                        for _ in range(60))]
    for spec in list(enumerate_fan_specs(8)) + larger:
        try:
            tp = two_path(spec)
        except FamilyError:
            continue
        assert brute_is_two_path(tp.graph)
        ends = simplicial_vertices(tp.graph)
        assert {tp.spine[0], tp.spine[-1]} == ends
        assert len(tp.spine) - 1 == metrics(tp.graph).diameter


def test_enumerate_fan_specs_counts():
    specs = list(enumerate_fan_specs(8, (2, 3)))
    assert len(specs) == 20
    assert len(set((s.k, s.overlap) for s in specs)) == 20
    assert all(two_path(s).graph.n <= 8 for s in specs)
    assert all(len(s.k) + 1 in (2, 3) for s in specs)
    assert len(list(enumerate_fan_specs(12))) == 637


def test_spinal_tree_simplicial_root_is_a_caterpillar():
    wide = two_path(FanSpec((3, 4, 2), (False, False)))
    tr = spinal_tree(wide, wide.spine[0])
    g = tr.graph
    assert len(g.edges) == g.n - 1
    partition = max_path_partition(tr)
    assert partition == (4, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert tree_pi(partition, 1) == 25
    assert tree_pi(partition, 1) == spinal_pi(14, 4, 4, True)


def test_spinal_tree_matches_case_formula_on_small_two_paths():
    for spec in enumerate_fan_specs(9):
        tp = two_path(spec)
        g = tp.graph
        d = tp.d
        ecc = metrics(g).ecc
        bound = (1 << d) + g.n - d - 1
        for r in range(g.n):
            tr = spinal_tree(tp, r)
            tg = tr.graph
            assert tg.n == g.n and len(tg.edges) == g.n - 1
            assert set(tg.edges) <= set(g.edges)  # spanning tree of the 2-path
            value = tree_pi(max_path_partition(tr), 1)
            assert value == spinal_pi(g.n, d, ecc[r], is_spinal_root(tp, r))
            assert value <= bound


def test_spinal_roots_of_a_three_fan_two_path():
    wide = two_path(FanSpec((3, 4, 2), (False, False)))
    spinal = [r for r in range(wide.graph.n) if is_spinal_root(wide, r)]
    assert spinal == list(wide.spine)  # no fan vertex re-routes this spine
    single = two_path(FanSpec((1,), ()))
    assert all(is_spinal_root(single, r) for r in range(4))


def test_spinal_root_builds_only_the_spine_routes_it_tries(monkeypatch):
    """On the 2-path of 23 unit fans (d = 24), 20,737 shortest spines pass
    through the fan vertex of fan 13, and their number grows about 7x per
    four fans. is_spinal_root and spinal_tree stop at the first spine with
    a fan decomposition, so they may build only the routes they try."""
    routes = families._all_spine_routes
    built = []

    def counted(out):
        for route in out:
            built[-1] += 1
            yield route

    def spy(*args):
        out = routes(*args)
        # a list is built whole before its first route is tried
        built.append(len(out) if isinstance(out, list) else 0)
        return out if isinstance(out, list) else counted(out)

    monkeypatch.setattr(families, "_all_spine_routes", spy)
    d = 24
    tp = two_path(FanSpec((1,) * (d - 1)))
    r = tp.interiors[d // 2][0]
    assert r not in tp.spine
    assert is_spinal_root(tp, r)
    assert len(spinal_tree(tp, r).graph.edges) == tp.graph.n - 1
    assert len(built) == 2 and max(built) <= 3, built


def test_spinal_root_of_a_long_two_path_needs_no_recursion():
    """The spine searches keep their state on explicit stacks. On the
    2-path of 1,099 unit fans (d = 1,100), the fan vertex of fan 551 lies
    on a re-routed spine of 1,101 vertices, whose decomposition has 1,099
    centers, and is_spinal_root and spinal_tree find them without meeting
    the recursion limit."""
    d = 1100
    tp = two_path(FanSpec((1,) * (d - 1), (False,) * (d - 2)))
    r = tp.interiors[d // 2][0]
    assert r not in tp.spine
    assert is_spinal_root(tp, r)
    assert len(spinal_tree(tp, r).graph.edges) == tp.graph.n - 1


def test_spinal_tree_rejects_missing_root():
    tp = two_path(FanSpec((1,), ()))
    with pytest.raises(FamilyError):
        spinal_tree(tp, 99)


def test_max_path_partition_examples():
    p5 = build_graph(5, [(i, i + 1) for i in range(4)])
    assert max_path_partition(RootedTree(p5, 0)) == (4,)
    spider = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    assert max_path_partition(RootedTree(spider, 0)) == (5, 1)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert max_path_partition(RootedTree(star, 0)) == (1, 1, 1)
    assert max_path_partition(random_tree(1, 0)) == ()
    # the peel walks paths without recursing, so long paths are fine
    p = build_graph(1200, [(i, i + 1) for i in range(1199)])
    assert max_path_partition(RootedTree(p, 0)) == (1199,)
    assert max_path_partition(RootedTree(p, 600)) == (600, 599)


def test_max_path_partition_majorizes_all_partitions():
    rng = random.Random(21)
    for i in range(50):
        n = rng.randrange(2, 10)
        tree = random_tree(n, 500 + i)
        tree = RootedTree(tree.graph, rng.randrange(n))
        got = max_path_partition(tree)
        everything = brute_path_partitions(tree)
        assert got in everything
        assert all(majorizes(got, other) for other in everything)
        assert sum(got) == n - 1
        assert got[0] == metrics(tree.graph).ecc[tree.root]


def test_random_tree_shapes_and_determinism():
    t1 = random_tree(1, 0)
    assert t1.graph.n == 1 and t1.graph.edges == ()
    t2 = random_tree(2, 0)
    assert t2.graph.edges == ((0, 1),)
    assert random_tree(7, 42).graph == random_tree(7, 42).graph
    assert random_tree(7, 42).graph != random_tree(7, 43).graph
    for seed in range(20):
        t = random_tree(9, seed)
        assert t.root == 0
        assert len(t.graph.edges) == 8
        adj = neighbor_lists(t.graph.n, t.graph.edges)
        assert all(adj[v] for v in range(9))  # connected by construction
