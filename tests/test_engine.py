"""Engine semantics: moves, statistics, solvability, cost."""

import random
import time
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np
import pytest

from pebblekit import (
    MODES,
    Configuration,
    Distribution,
    PebblingError,
    Solver,
    apply_move,
    build_C_t1,
    build_C_t2,
    build_J_r,
    build_graph,
    is_solvable,
    kneser,
    metrics,
    min_cost_solution,
    replay,
    stabilizer,
    stats,
    weight,
)
from pebblekit import engine
from pebblekit.engine import get_solver
from pebblekit.numbers import _FastFilter

from oracles import ReferenceSolver, all_configs, brute_min_moves, brute_reachable, \
    brute_solvable, random_config, random_connected_edges


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def within(g, c, r, max_moves):
    """Can one pebble reach r in at most max_moves moves?"""
    return get_solver(g, Distribution.stacked(g.n, r, 1)).solve(c, max_moves).solvable


def small_instances(seed, count, max_n=6, max_size=8, max_demand=2):
    rng = random.Random(seed)
    graphs = [build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
              for n in [rng.randrange(2, max_n + 1) for _ in range(12)]]
    for _ in range(count):
        g = rng.choice(graphs)
        c = random_config(g.n, rng.randrange(0, max_size + 1), rng)
        d = [0] * g.n
        for _ in range(rng.randrange(1, max_demand + 1)):
            d[rng.randrange(g.n)] += 1
        yield g, c, tuple(d)


def test_apply_move_examples():
    k2 = path_graph(2)
    assert apply_move(Configuration((2, 0)), 0, 1, k2).counts == (0, 1)
    assert apply_move(Configuration((3, 1)), 0, 1, k2).counts == (1, 2)
    with pytest.raises(PebblingError):
        apply_move(Configuration((1, 0)), 0, 1, k2)
    p3 = path_graph(3)
    with pytest.raises(PebblingError):
        apply_move(Configuration((2, 0, 0)), 0, 2, p3)  # not adjacent


def test_configuration_and_distribution_validation():
    with pytest.raises(PebblingError):
        Configuration((1, -1))
    with pytest.raises(PebblingError):
        Distribution((-1, 0))
    assert Configuration((1, 2, 0)).size == 3
    d = Distribution.stacked(4, 2, 3)
    assert d.demands == (0, 0, 3, 0) and d.size == 3
    # a root outside 0..n-1 is refused, never indexed from the end
    for r in (4, -1):
        with pytest.raises(PebblingError, match=f"root {r} is not a vertex"):
            Distribution.stacked(4, r, 1)


def test_replay():
    p3 = path_graph(3)
    final = replay(p3, Configuration((4, 0, 0)), [(0, 1), (0, 1), (1, 2)])
    assert final.counts == (0, 0, 1)
    with pytest.raises(PebblingError):
        replay(p3, Configuration((2, 0, 0)), [(0, 1), (0, 1)])


def test_stats_examples(petersen):
    assert stats(Configuration((3, 1, 2, 0))) == {
        "potential": 2, "zeros": 1, "support_size": 3}
    assert stats(build_J_r(petersen, 0))["potential"] == 0
    for m in (5, 6):
        g = kneser(m, 2)
        for t in (1, 2, 3):
            assert stats(build_C_t1(g, 0, t))["potential"] == t - 1
            assert stats(build_C_t2(g, 0, t))["potential"] == 2 * t - 1
    rng = random.Random(31)
    for _ in range(50):
        c = random_config(8, rng.randrange(0, 12), rng)
        st = stats(Configuration(c))
        assert st["support_size"] + st["zeros"] == 8


def test_weight_examples(petersen):
    p3 = path_graph(3)
    assert weight(Configuration((0, 0, 4)), 0, p3) == 1
    assert weight(Configuration((1, 0, 0)), 0, p3) == 1
    w = weight(build_J_r(petersen, 0), 0, petersen)
    assert w == 3 and isinstance(w, Fraction)
    assert weight(Configuration((0, 1, 0)), 0, p3) == Fraction(1, 2)


def test_is_solvable_examples(petersen):
    jr = build_J_r(petersen, 0)
    out = is_solvable(petersen, jr, Distribution.stacked(10, 0, 1))
    assert not out.solvable and out.solution is None
    p3 = path_graph(3)
    out = is_solvable(p3, Configuration((0, 0, 4)), Distribution.stacked(3, 0, 1))
    assert out.solvable
    # 4 pebbles two hops out halve twice: 2 + 1 = 3 steps, cost 2^2
    sol, _ = min_cost_solution(p3, Configuration((0, 0, 4)), 0)
    assert len(sol.moves) == 3 and sol.cost == 4
    c22 = build_C_t2(petersen, 0, 2)
    assert c22.size == 12
    assert not is_solvable(petersen, c22, Distribution.stacked(10, 0, 2)).solvable


def test_is_solvable_validation():
    p3 = path_graph(3)
    with pytest.raises(PebblingError):
        is_solvable(p3, Configuration((0, 0, 0)), Distribution((1,)), "unrestricted")
    with pytest.raises(PebblingError):
        is_solvable(p3, Configuration((0, 0, 0)), Distribution.stacked(3, 0, 1),
                    mode="fastest")
    with pytest.raises(PebblingError):
        within(p3, Configuration((0, 0, 4)), 0, -1)
    with pytest.raises(PebblingError):
        is_solvable(p3, (3, -1, 0), Distribution.stacked(3, 2, 1))
    # the empty demand is trivially met
    assert is_solvable(p3, Configuration((0, 0, 0)), Distribution((0, 0, 0))).solvable


def test_fixed_width_counts_are_read_as_python_ints(petersen):
    # numpy counts would wrap when shifted into the int memo key
    d = Distribution.stacked(10, 0, 1)
    jr = build_J_r(petersen, 0)
    row = tuple(np.array(jr.counts, dtype=np.int16))
    assert Solver(petersen, d).solve(row) == Solver(petersen, d).solve(jr)


def test_is_solvable_matches_breadth_first_closure():
    for g, c, d in small_instances(32, 250):
        want = brute_solvable(g, c, d)
        assert is_solvable(g, Configuration(c), Distribution(d)).solvable == want


def test_restricted_modes_match_restricted_closure():
    for mode in ("greedy", "semi_greedy"):
        for g, c, d in small_instances(33, 150):
            want = brute_solvable(g, c, d, mode=mode)
            got = is_solvable(g, Configuration(c), Distribution(d), mode=mode)
            assert got.solvable == want


def test_modes_are_progressively_weaker():
    for g, c, d in small_instances(34, 150):
        c, d = Configuration(c), Distribution(d)
        greedy = is_solvable(g, c, d, mode="greedy").solvable
        semi = is_solvable(g, c, d, mode="semi_greedy").solvable
        free = is_solvable(g, c, d).solvable
        assert (not greedy or semi) and (not semi or free)


def test_min_cost_solution_examples():
    # a slide of k vertices delivers one pebble for cost k
    for k in (3, 4, 5):
        g = path_graph(k)
        counts = [2] + [1] * (k - 2) + [0]
        sol, cheap = min_cost_solution(g, Configuration(tuple(counts)), k - 1)
        assert sol.cost == k and cheap
    g = path_graph(2)
    sol, cheap = min_cost_solution(g, Configuration((0, 2)), 0)
    assert sol.cost == 2 and cheap
    p4 = path_graph(4)
    sol, cheap = min_cost_solution(p4, Configuration((8, 0, 0, 0)), 3)
    assert sol.cost == 8 and len(sol.moves) == 7
    assert cheap  # exactly 2^ecc
    assert min_cost_solution(p4, Configuration((7, 0, 0, 0)), 3) is None


def test_min_cost_solution_matches_brute_and_is_cheap():
    for g, c, d in small_instances(35, 200):
        r = next(i for i, x in enumerate(d) if x)
        best = min_cost_solution(g, Configuration(c), r)
        moves = brute_min_moves(g, c, r)
        if moves is None:
            assert best is None
            continue
        sol, cheap = best
        assert sol.cost == moves + 1
        final = replay(g, Configuration(c), sol.moves)
        assert final.counts[r] >= 1
        # empirical support for the cheap-solution bound
        assert cheap and sol.cost <= 1 << metrics(g).ecc[r]


def test_bounded_solve_matches_brute_depth():
    for g, c, d in small_instances(36, 120):
        r = next(i for i, x in enumerate(d) if x)
        moves = brute_min_moves(g, c, r)
        for cap in range(6):
            assert within(g, Configuration(c), r, cap) == \
                (moves is not None and moves <= cap)


def long_slide(n):
    return Configuration((2,) + (1,) * (n - 2) + (0,))


def test_deep_searches_do_not_recurse_per_move():
    # each of these needs over 1000 moves, past Python's default recursion
    # limit if the search took one stack frame per move
    k2 = path_graph(2)
    c = Configuration((0, 2100))
    out = is_solvable(k2, c, Distribution((1050, 0)))
    assert out.solvable and len(out.solution.moves) == 1050
    assert replay(k2, c, out.solution.moves).counts == (1050, 0)
    n = 1100
    g, slide = path_graph(n), long_slide(n)
    assert within(g, slide, n - 1, n - 1)
    assert not within(g, slide, n - 1, n - 2)
    sol, cheap = min_cost_solution(g, slide, n - 1)
    assert sol.cost == n and cheap
    assert replay(g, slide, sol.moves).counts[n - 1] == 1


def test_solver_set_up_runs_one_bfs_per_target():
    # the weights scale by 2^(largest target eccentricity), 550 here, not by
    # 2^diameter; the search is the same as under the diameter scale
    n = 1100
    g = path_graph(n)
    r = n // 2
    c = Configuration((2,) + (1,) * (r - 1) + (0,) * (n - r))
    out = is_solvable(g, c, Distribution.stacked(n, r, 1))
    assert out.states_explored == 550 and len(out.solution.moves) == 550
    sol, cheap = min_cost_solution(g, c, r)
    assert sol.cost == 551 and cheap
    assert sol.moves == tuple((i, i + 1) for i in range(r))
    assert "metrics" not in g.__dict__


def test_weight_and_prescreen_use_target_bfs_rows():
    # ecc(r) = 550 against diameter 1099: the values match those computed
    # through the all-pairs metrics of a separate copy of the graph
    n = 1100
    g, ref = path_graph(n), path_graph(n)
    r = n // 2
    counts = [0] * n
    counts[0], counts[r], counts[r + 2], counts[n - 1] = 1, 3, 9, 1
    c = Configuration(tuple(counts))
    pair = [0] * n
    pair[r] = pair[r + 7] = 1
    w = weight(c, r, g)
    filt = _FastFilter(g, Distribution(tuple(pair)))
    assert "metrics" not in g.__dict__

    m = ref.metrics
    diam = m.diameter
    scaled = sum(c[v] << (diam - m.dist[r][v]) for v in range(n))
    assert w == Fraction(scaled, 1 << diam)
    # each target's route demand prices the other target at distance 7
    d = m.dist[r][r + 7]
    assert filt.route[r] == filt.route[r + 7] == 1 + (1 << d) == 129
    for x in (r, r + 7):
        order, _ = filt.trees[x]
        assert list(order) == sorted((v for v in range(n) if v != x),
                                     key=lambda v: (-m.dist[x][v], v))


def test_bounded_solves_read_but_never_write_the_memo(petersen):
    k2 = path_graph(2)
    unit = Distribution.stacked(2, 0, 1)
    solver = Solver(k2, unit)
    # cut off by the bound, not unsolvable: must not be remembered as failed
    assert not solver.solve(Configuration((0, 2)), 0).solvable
    assert not solver.failed
    assert solver.solve(Configuration((0, 2))).solvable
    assert not within(k2, Configuration((0, 2)), 0, 0)
    assert is_solvable(k2, Configuration((0, 2)), unit).solvable
    # a state proved unsolvable stays failed under every bound
    jr = build_J_r(petersen, 0)
    solver = Solver(petersen, Distribution.stacked(10, 0, 1))
    assert not solver.solve(jr).solvable
    memo = len(solver.failed)
    out = solver.solve(jr, 5)
    assert not out.solvable and out.states_explored == 1
    assert len(solver.failed) == memo


def test_bounded_and_unbounded_calls_share_solvers_soundly():
    for g, c, d in small_instances(39, 200):
        r = next(i for i, x in enumerate(d) if x)
        cfg = Configuration(c)
        moves = brute_min_moves(g, c, r)
        for cap in (2, 0, 1):
            assert within(g, cfg, r, cap) == \
                (moves is not None and moves <= cap)
            assert is_solvable(g, cfg, Distribution.stacked(g.n, r, 1)).solvable == \
                (moves is not None)
        assert is_solvable(g, cfg, Distribution(d)).solvable == brute_solvable(g, c, d)
        best = min_cost_solution(g, cfg, r, max_moves=2)
        assert (best is None) == (moves is None or moves > 2)


def test_min_cost_solution_move_cap():
    p3 = path_graph(3)
    c = Configuration((0, 0, 4))
    assert min_cost_solution(p3, c, 0, max_moves=2) is None
    sol, _ = min_cost_solution(p3, c, 0, max_moves=3)
    assert sol.cost == 4


def test_cost_accounting_identity():
    # a solution spending k moves leaves |C| - k pebbles; its cost counts
    # the delivered pebble too
    for g, c, d in small_instances(38, 150, max_demand=1):
        out = is_solvable(g, Configuration(c), Distribution(d))
        if not out.solvable:
            continue
        final = replay(g, Configuration(c), out.solution.moves)
        assert final.size == sum(c) - len(out.solution.moves)
        assert out.solution.cost == len(out.solution.moves) + 1
        assert final.size - 1 == sum(c) - out.solution.cost


def memo_tuples(solver):
    """The int-keyed memo of a Solver decoded to per-vertex count tuples."""
    k, mask = solver.k, (1 << solver.k) - 1
    return {tuple((key >> k * v) & mask for v in range(solver.n))
            for key in solver.failed}


def past_the_cut(solver, rng):
    """A configuration grown one random pebble at a time until it passes
    every target's weight cut, then given up to two more pebbles, so a
    search from it gets past its first state."""
    grown = [0] * solver.n
    while not all(sum(map(mul, grown, w)) >= need
                  for w, need in zip(solver.W, solver.need)):
        grown[rng.randrange(solver.n)] += 1
    for _ in range(rng.randrange(3)):
        grown[rng.randrange(solver.n)] += 1
    return tuple(grown)


def packed_cut(solver, c):
    """Whether c passes every target's weight cut, read from the solver's
    packed weights at its current width, which must hold sum(c)."""
    return (sum(map(mul, c, solver.packed)) + solver.bias) & solver.full == solver.full


def test_int_keyed_search_matches_the_tuple_keyed_reference():
    """Solver against the tuple-keyed reference on random connected graphs
    of 2 to 7 vertices. Half the calls take a uniform configuration under a
    random move bound. The other half take one grown past the weight cut,
    unbounded: the memo holds only states a search expanded, and only
    unbounded calls write it, so these fill it before the key width grows."""
    rng = random.Random(71)
    widened = 0
    for _ in range(150):
        n = rng.randrange(2, 8)
        g = build_graph(n, random_connected_edges(n, rng.randrange(n), rng))
        demand = [0] * n
        for x in rng.sample(range(n), rng.randrange(1, min(3, n) + 1)):
            demand[x] = rng.randrange(1, 4)
        d = Distribution(tuple(demand))
        for mode in MODES:
            # one shared solver per triple, called with mixed sizes so the
            # key width grows mid-sequence over a filled memo
            solver, ref = Solver(g, d, mode), ReferenceSolver(g, d, mode)
            for _ in range(10):
                if rng.random() < 0.5:
                    size = rng.choice((rng.randrange(8), rng.randrange(8, 40)))
                    c = random_config(n, size, rng)
                    max_moves = rng.choice((None, None, 0, 1, 2, 3, 5))
                else:
                    c, max_moves = past_the_cut(solver, rng), None
                k, memo = solver.k, len(solver.failed)
                got, want = solver.solve(c, max_moves), ref.solve(c, max_moves)
                assert (got.solvable, got.solution) == (want.solvable, want.solution)
                # the sleep sets skip children the reference counts, and so
                # leave out of the memo states only reached through them
                assert got.states_explored <= want.states_explored
                assert memo_tuples(solver) <= ref.failed
                widened += solver.k > k and memo > 0
    assert widened > 50


def sleep_set_pool():
    """(graph, demand) pairs: P4, C5, the 3-star, K4 and two random
    connected graphs on 5 vertices, each with demands of one to three
    targets. Each graph's pair demand puts its two targets on an edge, one
    with a common neighbour where the graph has a triangle: that neighbour
    can fill either target, and a move filling one can leave another
    source's move with no unmet target to approach, the case the
    restricted modes' independence rule exists for."""
    rng = random.Random(89)
    graphs = [path_graph(4), build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
              build_graph(4, [(0, 1), (0, 2), (0, 3)]),
              build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])]
    graphs += [build_graph(5, random_connected_edges(5, extra, rng)) for extra in (1, 3)]
    for g in graphs:
        x, y = next((e for e in g.edges
                     if set(g.adjacency[e[0]]) & set(g.adjacency[e[1]])), g.edges[0])
        for targets in ({0: 1}, {g.n - 1: 2}, {x: 1, y: 1}, {0: 1, 1: 1, 2: 1}):
            yield g, Distribution(tuple(targets.get(v, 0) for v in range(g.n)))


def test_sleep_sets_keep_every_verdict_and_solution():
    """Solver against oracles.brute_solvable and oracles.ReferenceSolver,
    the search without sleep sets, on every configuration of size at most 7
    on sleep_set_pool(), in all three modes: one shared pair of solvers per
    (graph, demand, mode), called by increasing size, so the key width
    grows over a filled memo. The unbounded verdict is brute_solvable's,
    and the verdict and solution under each move bound are the
    reference's."""
    pooled = 0
    for g, d in sleep_set_pool():
        pooled += 1
        for mode in MODES:
            solver, ref = Solver(g, d, mode), ReferenceSolver(g, d, mode)
            for size in range(8):
                for c in all_configs(g.n, size):
                    for max_moves in (None, 0, 1, 2, 3):
                        got, want = solver.solve(c, max_moves), ref.solve(c, max_moves)
                        assert (got.solvable, got.solution) == (want.solvable, want.solution)
                        if max_moves is None:
                            assert got.solvable == brute_solvable(g, c, d.demands, mode)
    assert pooled == 24


def test_restricted_modes_keep_moves_into_a_target_awake():
    """The 5-cycle 0-1-2-3-4 with the tail 2-5-6, demand one pebble on 0
    and one on 5. From (0, 1, 1, 2, 0, 0, 3), 6 -> 5 is tried first and
    fails: with 5 met, greedy moves must approach 0, and 3 -> 4 strands a
    single pebble. 3 -> 2 approaches only 5, and then 6 -> 5, 2 -> 1,
    1 -> 0 solves it in greedy mode. Had 6 -> 5 gone to sleep after 3 -> 2,
    as it would if a move into a demand vertex counted as independent,
    the search would call the state unsolvable. Every configuration of that
    size, in all three modes, against the oracles."""
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5), (5, 6)])
    d = Distribution((1, 0, 0, 0, 0, 1, 0))
    out = Solver(g, d, "greedy").solve((0, 1, 1, 2, 0, 0, 3))
    assert out.solution.moves == ((3, 2), (6, 5), (2, 1), (1, 0))
    for mode in MODES:
        solver, ref = Solver(g, d, mode), ReferenceSolver(g, d, mode)
        for c in all_configs(g.n, 6):
            got, want = solver.solve(c), ref.solve(c)
            assert (got.solvable, got.solution) == (want.solvable, want.solution)
            assert got.solvable == brute_solvable(g, c, d.demands, mode)


def test_independence_masks_follow_the_definition(petersen):
    """Each arc record's bit and independence mask against the set
    definition: arc b is independent of arc a when b leaves another source
    and, in the greedy and semi_greedy modes, puts no pebble on a demand
    vertex. Set-up builds the masks once per solver: widening the key
    width keeps the same mask objects."""
    for g, demand in ((petersen, (1, 0, 0, 0, 0, 0, 0, 2, 0, 0)),
                      (path_graph(5), (0, 2, 0, 1, 0))):
        for mode in MODES:
            solver = Solver(g, Distribution(demand), mode)
            arcs = [arc for row in solver.arcs for arc in row]
            assert [(u, v) for u, v, *_ in arcs] == \
                [move for row in solver.moves_from for move in row]
            assert sorted(arc[5] for arc in arcs) == [1 << i for i in range(len(arcs))]
            for a in arcs:
                assert a[6] == sum(b[5] for b in arcs if b[0] != a[0] and (
                    mode == "unrestricted" or not demand[b[1]]))
            solver.solve((0, 0, 0, 0, 40) + (0,) * (g.n - 5))
            assert solver.k == 6
            wider = [arc for row in solver.arcs for arc in row]
            assert all(a[5] is b[5] and a[6] is b[6] for a, b in zip(arcs, wider))


def test_memo_cap_bounds_the_memo(monkeypatch):
    monkeypatch.setattr(engine, "MEMO_CAP", 7)
    solvers = {}
    for g, c, d in small_instances(73, 300, max_size=12):
        if (g, d) not in solvers:
            solvers[g, d] = Solver(g, Distribution(d)), ReferenceSolver(g, Distribution(d))
        solver, ref = solvers[g, d]
        out = solver.solve(c)
        assert out.solvable == brute_solvable(g, c, d)
        assert out == ref.solve(c)
        assert len(solver.failed) <= 7
    assert any(len(solver.failed) == 7 for solver, _ in solvers.values())


def test_solver_cache_drops_the_least_recently_used(monkeypatch, petersen):
    monkeypatch.setattr(engine, "_solver_cache", OrderedDict())
    monkeypatch.setattr(engine, "SOLVER_CACHE_CAP", 3)
    ds = [Distribution.stacked(10, r, 1) for r in range(4)]
    first = [get_solver(petersen, d) for d in ds[:3]]
    j1 = build_J_r(petersen, 1)
    before = first[1].solve(j1)
    assert not is_solvable(petersen, build_J_r(petersen, 0), ds[0]).solvable
    get_solver(petersen, ds[3])  # the cache is full: drops ds[1], used least recently
    assert list(engine._solver_cache) == [(petersen, ds[i].demands, "unrestricted")
                                          for i in (2, 0, 3)]
    assert get_solver(petersen, ds[0]) is first[0]
    assert is_solvable(petersen, j1, ds[1]) == before
    assert get_solver(petersen, ds[1]) is not first[1]
    assert len(engine._solver_cache) == 3


def test_lem_3_6_search_counts_are_pinned():
    """(states explored, memo entries) of lem-3.6's cheaper cases, each on a
    fresh Solver. The implementation fixes these counts, not the paper: they
    follow from the DFS order, the weight cut, the memo rule and the sleep
    sets, so a change to any of those moves them, and only a change meant
    to do so may re-record them. C_t1 at t=1 has one pebble on each vertex
    but the root, so it is a dead end, settled in 1 state with no memo
    entry; no entry of any case is a dead end."""
    pins = {(5, 1): ((1, 0), (46, 15)),
            (5, 2): ((307, 102), (607, 263)),
            (5, 3): ((649, 247), (2209, 924)),
            (6, 1): ((1, 0), (943, 157)),
            (6, 2): ((350419, 58403), (61321, 14220))}
    for (m, t), want in pins.items():
        g = kneser(m, 2)
        d = Distribution.stacked(g.n, 0, t)
        for build, (states, memo) in zip((build_C_t1, build_C_t2), want):
            solver = Solver(g, d)
            out = solver.solve(build(g, 0, t))
            assert not out.solvable
            assert (out.states_explored, len(solver.failed)) == (states, memo)
            assert all(max(state) > 1 for state in memo_tuples(solver))


def symmetric_pool():
    """(graph, demand, mode, calls) for the symmetric-search tests: cycles,
    stars, the Petersen graph and small random graphs, in all three modes.
    Each graph gets ten random demands of one to three targets; one of 9
    pebbles on a vertex, more than the small uniform configurations hold;
    and, where the graph has one, a three-target demand whose targets'
    eccentricities are not all equal. Each (graph, demand, mode) gets seven
    calls (configuration, max_moves) of mixed sizes, so the key width of a
    solver taking them in order grows over a filled memo: half uniform,
    under a random move bound, the other half grown past the weight cut
    (past_the_cut) and unbounded, so the search gets past its first state
    and can write the memo."""
    rng = random.Random(83)
    graphs = ([build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 5, 6)]
              + [build_graph(k + 1, [(0, i) for i in range(1, k + 1)]) for k in (3, 4)]
              + [kneser(5, 2)])
    for n in (4, 5, 5, 6, 6):
        graphs.append(build_graph(n, random_connected_edges(n, rng.randrange(n), rng)))
    for g in graphs:
        ecc = [max(g.distances(v)) for v in range(g.n)]
        unequal = [trio for trio in combinations(range(g.n), 3)
                   if len({ecc[x] for x in trio}) > 1]
        for i in range(12):
            demand = [0] * g.n
            if i < 10:
                for x in rng.sample(range(g.n), rng.choice((1, 1, 1, 1, 2, 3))):
                    demand[x] = rng.randrange(1, 5)
            elif i == 10:
                demand[rng.randrange(g.n)] = 9
            elif unequal:
                for x in rng.choice(unequal):
                    demand[x] = rng.randrange(1, 3)
            else:
                continue
            d = Distribution(tuple(demand))
            # the weight cut, which past_the_cut reads, does not depend on mode
            cut = Solver(g, d)
            for mode in MODES:
                calls = []
                for _ in range(7):
                    if rng.random() < 0.5:
                        c = random_config(
                            g.n, rng.choice((rng.randrange(9), rng.randrange(9, 24))), rng)
                        calls.append((c, rng.choice((None, None, 0, 1, 2, 3, 5))))
                    else:
                        calls.append((past_the_cut(cut, rng), None))
                yield g, d, mode, calls


def test_symmetric_search_matches_the_plain_search():
    """Solver(g, d, mode, symmetric=True) against Solver(g, d, mode) on
    symmetric_pool(): one shared solver pair per (graph, demand, mode),
    taking its calls in order. Each call gives the plain verdict and
    solution, explores no more states, and agrees with
    oracles.brute_solvable when unbounded and small; the packed weight cut
    agrees with the per-target one."""
    nontrivial = widened = fewer = 0
    for g, d, mode, calls in symmetric_pool():
        if mode == MODES[0]:
            nontrivial += len(stabilizer(g, [d.demands])) > 1
        sym, plain = Solver(g, d, mode, symmetric=True), Solver(g, d, mode)
        for c, max_moves in calls:
            k, memo = sym.k, len(sym.failed)
            got, want = sym.solve(c, max_moves), plain.solve(c, max_moves)
            assert (got.solvable, got.solution) == (want.solvable, want.solution)
            # a call whose demand is met at once does not widen
            if sum(c) < 1 << plain.bits:
                assert packed_cut(plain, c) == all(
                    sum(map(mul, c, w)) >= need
                    for w, need in zip(plain.W, plain.need))
            assert got.states_explored <= want.states_explored
            fewer += got.states_explored < want.states_explored
            if max_moves is None and sum(c) < 9:
                assert got.solvable == brute_solvable(g, c, d.demands, mode)
            widened += sym.k > k and memo > 0
    assert nontrivial > 50 and widened > 40 and fewer > 10


def probe_path(solver):
    """The probe of the solver's key tables at its current width, "batched"
    or "per-arc", or None when no search has needed them since set-up or
    the last widening."""
    if solver._keyed is None:
        return None
    return "per-arc" if solver._keyed[2] is None else "batched"


def test_batched_probe_matches_the_per_arc_probe(monkeypatch):
    """symmetric_pool() with BATCH_GROUP at 2, so that every nontrivial
    stabilizer whose keys fit in 63 bits takes the batched probe, against
    the same calls to a solver at the default threshold: one shared pair of
    symmetric solvers per (graph, demand, mode). Each call gives the same
    verdict, solution and state count, and leaves the same memo."""
    default = engine.BATCH_GROUP
    compared = 0
    for g, d, mode, calls in symmetric_pool():
        fast, lazy = Solver(g, d, mode, symmetric=True), Solver(g, d, mode, symmetric=True)
        for c, max_moves in calls:
            monkeypatch.setattr(engine, "BATCH_GROUP", 2)
            got = fast.solve(c, max_moves)
            monkeypatch.setattr(engine, "BATCH_GROUP", default)
            want = lazy.solve(c, max_moves)
            assert (got.solvable, got.solution, got.states_explored) == \
                (want.solvable, want.solution, want.states_explored)
            assert fast.failed == lazy.failed
            if probe_path(fast) == "batched":
                assert fast.n * fast.k <= 63 and len(fast.inverses) >= 2
                compared += probe_path(lazy) == "per-arc" and got.states_explored > 1
    assert compared > 300


def test_key_width_holds_every_reachable_count():
    """Width lemma (see Solver): every count reached from c0 is at most
    floor((c0(v) + |c0|)/2), checked against every configuration
    oracles.brute_reachable reaches from random configurations on small
    random connected graphs. One shared solver per graph takes the
    configurations in order: its key width is the bit length of the largest
    bound over the calls that did not meet the demand at once, and every
    memo entry decodes within it to a reached configuration."""
    rng = random.Random(101)
    narrower = 0
    for _ in range(40):
        n = rng.randrange(2, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(n), rng))
        d = Distribution.stacked(n, rng.randrange(n), rng.randrange(1, 3))
        solver = Solver(g, d)
        largest, reached = 0, set()
        for _ in range(6):
            c = random_config(n, rng.randrange(13), rng)
            states = brute_reachable(g, c)
            assert all(x <= (c0 + sum(c)) // 2
                       for state in states for x, c0 in zip(state, c))
            reached |= states
            solver.solve(c)
            if any(x < y for x, y in zip(c, d.demands)):
                largest = max(largest, (max(c) + sum(c)) // 2)
            assert solver.k == largest.bit_length()
            assert all(key < 1 << n * solver.k for key in solver.failed)
            assert memo_tuples(solver) <= reached
            narrower += solver.k < solver.bits
    assert narrower > 50


def test_each_solver_takes_the_probe_its_group_and_width_allow(petersen):
    """The batched probe needs a stabilizer of at least BATCH_GROUP
    elements and keys of at most 63 bits. lem-3.6's two (6,3) solvers take
    it: 48 elements and, by the width lemma, 4 bits a vertex on K(6,2)'s 15
    vertices, 60 bits. A one-move call already builds the key tables at
    the configuration's width. Petersen's 12-element root stabilizer keeps
    the per-arc probe, and so does K(6,2) once a call needs 5 bits a
    vertex, 75 bits."""
    g = kneser(6, 2)
    d = Distribution.stacked(g.n, 0, 3)
    for build in (build_C_t1, build_C_t2):
        solver = Solver(g, d, symmetric=True)
        assert not solver.solve(build(g, 0, 3), 1).solvable
        assert (probe_path(solver), len(solver.inverses), g.n * solver.k) == ("batched", 48, 60)
    solver = get_solver(petersen, Distribution.stacked(10, 0, 1))
    out = solver.solve((0, 3, 1) + (0,) * 7)
    assert (out.solvable, out.states_explored) == (False, 4)
    assert (probe_path(solver), len(solver.inverses)) == ("per-arc", 12)
    wide = Solver(g, d, symmetric=True)
    assert wide.solve((0,) * 14 + (30,)).solvable
    assert (probe_path(wide), wide.k) == ("per-arc", 5)


def test_cached_solvers_key_their_memo_by_the_demand_stabilizer(petersen):
    d = Distribution.stacked(10, 0, 1)
    sym = get_solver(petersen, d)
    assert get_solver(petersen, d) is sym
    # the root's stabilizer in Aut(Petersen), whose inverses it keeps
    group = stabilizer(petersen, [d.demands])
    assert len(group) == len(sym.inverses) == 12
    assert {tuple(p[s[v]] for v in range(10)) for s, p in zip(group, sym.inverses)} \
        == {tuple(range(10))}
    jr = build_J_r(petersen, 0)
    assert is_solvable(petersen, jr, d) == sym.solve(jr)
    assert Solver(petersen, d).inverses is None
    # a demand that only the identity keeps leaves the probe one add
    path = path_graph(5)
    assert get_solver(path, Distribution.stacked(5, 1, 1)).inverses is None
    assert len(get_solver(path, Distribution.stacked(5, 2, 1)).inverses) == 2


def test_cached_solvers_build_the_stabilizer_on_first_expansion(monkeypatch):
    """get_solver builds its solver without the demand's stabilizer. C_t1 at
    t=1, one pebble on each vertex but the root, is a dead end: it is
    refused in 1 state with no stabilizer call and no key tables, so no
    delta table either, in under a second even on K(9,2), whose root
    stabilizer has 10,080 elements. The first search that expands a state
    computes the group, once, and `inverses` reads it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return stabilizer(*args)

    monkeypatch.setattr(engine, "stabilizer", counted)
    monkeypatch.setattr(engine, "_solver_cache", OrderedDict())
    for m in (6, 9):
        g = kneser(m, 2)
        c = build_C_t1(g, 0, 1)
        start = time.perf_counter()
        solver = get_solver(g, Distribution.stacked(g.n, 0, 1))
        out = solver.solve(c)
        elapsed = time.perf_counter() - start
        assert (out.solvable, out.states_explored, len(calls)) == (False, 1, 0)
        assert probe_path(solver) is None
    assert elapsed < 1.0
    g = kneser(6, 2)
    solver = get_solver(g, Distribution.stacked(g.n, 0, 1))
    out = solver.solve(build_C_t2(g, 0, 1))
    assert not out.solvable and out.states_explored > 1
    assert len(calls) == 1 and probe_path(solver) == "batched"
    assert len(solver.inverses) == 48
    assert len(calls) == 1


def test_symmetric_lem_3_6_search_counts_are_pinned():
    """(states explored, memo entries) of all twelve lem-3.6 cases on a
    fresh Solver keyed by the root's stabilizer, S_2 x S_{m-2}: 12 elements
    at m=5 and 48 at m=6. The implementation fixes these counts, not the
    paper: they follow from the DFS order, the weight cut, the memo rule,
    the sleep sets and the orbit keys, so only a change meant to move them
    may re-record them. The largest case, (6, 3) C_t1, explores 98,365
    states against the plain solver's 1,942,687. No memo entry is a dead
    end, a state with no vertex holding two pebbles."""
    pins = {(5, 1): ((1, 0), (16, 5)),
            (5, 2): ((85, 28), (307, 115)),
            (5, 3): ((328, 118), (1219, 453)),
            (6, 1): ((1, 0), (73, 12)),
            (6, 2): ((10573, 1762), (7339, 1546)),
            (6, 3): ((98365, 17583), (81037, 14897))}
    for (m, t), want in pins.items():
        g = kneser(m, 2)
        d = Distribution.stacked(g.n, 0, t)
        for build, (states, memo) in zip((build_C_t1, build_C_t2), want):
            solver = Solver(g, d, symmetric=True)
            assert len(solver.inverses) == {5: 12, 6: 48}[m]
            out = solver.solve(build(g, 0, t))
            assert not out.solvable
            assert (out.states_explored, len(solver.failed)) == (states, memo)
            assert all(max(state) > 1 for state in memo_tuples(solver))
