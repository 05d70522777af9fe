"""Engine semantics: moves, statistics, solvability, cost, slides, folds."""

import random
from fractions import Fraction

import pytest

from pebblekit import (
    Configuration,
    Distribution,
    PebblingError,
    Solver,
    apply_move,
    build_C_t1,
    build_C_t2,
    build_J_r,
    build_graph,
    find_slides,
    is_solvable,
    kneser,
    max_fold,
    metrics,
    min_cost_solution,
    replay,
    solvable_within,
    stats,
    weight,
)
from pebblekit.numbers import _FastFilter

from oracles import brute_min_moves, brute_solvable, random_config, \
    random_connected_edges


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


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
        solvable_within(p3, Configuration((0, 0, 4)), 0, -1)
    # the empty demand is trivially met
    assert is_solvable(p3, Configuration((0, 0, 0)), Distribution((0, 0, 0))).solvable


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


def test_solvable_within_matches_brute_depth():
    for g, c, d in small_instances(36, 120):
        r = next(i for i, x in enumerate(d) if x)
        moves = brute_min_moves(g, c, r)
        for cap in range(6):
            assert solvable_within(g, Configuration(c), r, cap) == \
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
    assert solvable_within(g, slide, n - 1, n - 1)
    assert not solvable_within(g, slide, n - 1, n - 2)
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


def test_weight_max_fold_and_prescreen_use_target_bfs_rows():
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
    fold = max_fold(g, c, r)
    filt = _FastFilter(g, Distribution(tuple(pair)))
    assert "metrics" not in g.__dict__

    m = ref.metrics
    diam = m.diameter
    scaled = sum(c[v] << (diam - m.dist[r][v]) for v in range(n))
    assert w == Fraction(scaled, 1 << diam)
    assert fold == scaled >> diam == 5
    assert filt.pair_dist == m.dist[r][r + 7] == 7
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
    assert not solvable_within(k2, Configuration((0, 2)), 0, 0)
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
            assert solvable_within(g, cfg, r, cap) == \
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


def test_find_slides():
    p3 = path_graph(3)
    assert find_slides(p3, Configuration((2, 1, 0))) == ((0, 1, 2),)
    assert find_slides(p3, Configuration((2, 0, 0))) == ((0, 1),)
    assert find_slides(p3, Configuration((2, 1, 0)), cap=2) == ((0, 1),)
    assert find_slides(p3, Configuration((1, 1, 1))) == ()
    pet = kneser(5, 2)
    assert find_slides(pet, build_J_r(pet, 0)) == ()
    # deterministic and sorted
    c = Configuration((2, 1, 2))
    assert find_slides(p3, c) == tuple(sorted(find_slides(p3, c)))
    n = 1100
    assert find_slides(path_graph(n), long_slide(n)) == (tuple(range(n)),)


def test_max_fold_examples(petersen):
    p4 = path_graph(4)
    for t in (1, 2, 3):
        assert max_fold(p4, Configuration((t * 8, 0, 0, 0)), 3) == t
    assert max_fold(petersen, build_J_r(petersen, 0), 0) == 0
    for t in (1, 2):
        base = build_C_t1(petersen, 0, t).counts
        for v in range(10):
            bumped = list(base)
            bumped[v] += 1
            assert max_fold(petersen, Configuration(tuple(bumped)), 0) >= t


def test_max_fold_is_the_exact_threshold():
    for g, c, d in small_instances(37, 60, max_size=10):
        r = next(i for i, x in enumerate(d) if x)
        fold = max_fold(g, Configuration(c), r)
        if fold:
            assert is_solvable(g, Configuration(c),
                               Distribution.stacked(g.n, r, fold)).solvable
        assert not is_solvable(g, Configuration(c),
                               Distribution.stacked(g.n, r, fold + 1)).solvable


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
