"""Exhaustive pebbling-number searches, witnesses, and budget accounting."""

import random
from math import comb

import numpy as np
import pytest

from pebblekit import (
    BudgetExceededError,
    Configuration,
    Distribution,
    FamilyError,
    PebblingError,
    RootedTree,
    build_graph,
    build_J_r,
    check_pi_t_equals,
    demands_of_size,
    enumerate_configs,
    find_unsolvable_witness,
    is_solvable,
    max_path_partition,
    metrics,
    multi_demand_scan,
    num_configs,
    pi_D,
    pi_t,
    random_tree,
    tree_dust_witness,
    tree_pi,
    two_path,
    two_path_lower_candidates,
    two_path_pi_t,
    unrank_config,
    verify_target_conjecture,
)
from pebblekit.numbers import (
    _ascending_blocks,
    _deliver,
    _delivery_tree,
    _FastFilter,
    _min_moves_upto3,
    _unrank_cols,
)
from pebblekit.harness import _petersen_size13_scan

from oracles import (
    brute_min_moves,
    brute_pi,
    brute_solvable,
    brute_solvable_memo,
    brute_unsolvable_set,
    neighbor_lists,
    random_config,
    random_connected_edges,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_enumerate_configs_small_case_is_descending_lex():
    got = [c.counts for c in enumerate_configs(3, 2)]
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                   (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_enumerate_configs_counts_and_endpoints():
    for n in (1, 2, 4, 5):
        for m in (0, 1, 3, 6):
            seq = list(enumerate_configs(n, m))
            assert len(seq) == num_configs(n, m) == comb(n + m - 1, n - 1)
            first = [0] * n
            first[0] = m
            assert seq[0].counts == tuple(first)
            assert all(c.size == m for c in seq)
            assert len({c.counts for c in seq}) == len(seq)
    with pytest.raises(ValueError):
        list(enumerate_configs(0, 1))
    with pytest.raises(ValueError):
        list(enumerate_configs(3, -1))


def test_unrank_config_is_the_ascending_order():
    for n, m in ((3, 4), (4, 3), (5, 2)):
        descending = [c.counts for c in enumerate_configs(n, m)]
        ascending = [unrank_config(n, m, r).counts
                     for r in range(num_configs(n, m))]
        assert ascending == descending[::-1]
    with pytest.raises(ValueError):
        unrank_config(3, 2, -1)
    with pytest.raises(ValueError):
        unrank_config(3, 2, num_configs(3, 2))


def test_unrank_cols_matches_unrank_config_at_every_rank():
    for n in (1, 2, 3, 7):
        for m in (0, 1, 5, 9):
            total = num_configs(n, m)
            block = _unrank_cols(n, m, np.arange(total))
            assert block.shape == (n, total) and block.flags.c_contiguous
            assert block.dtype == np.int16
            want = [unrank_config(n, m, r).counts for r in range(total)]
            assert [tuple(col) for col in block.T.tolist()] == want
    # random ranks in any order, as the thm-3.5 sampler draws them
    rng = random.Random(914)
    ranks = [rng.randrange(num_configs(15, 15)) for _ in range(300)]
    got = _unrank_cols(15, 15, ranks).T.tolist()
    assert [tuple(r) for r in got] == [unrank_config(15, 15, k).counts
                                       for k in ranks]
    with pytest.raises(ValueError):
        _unrank_cols(3, 2, [num_configs(3, 2)])
    with pytest.raises(ValueError):
        _unrank_cols(3, 2, [-1])


def test_ascending_block_slices_concatenate_to_the_full_order():
    n, m = 4, 6
    total = num_configs(n, m)
    full = [unrank_config(n, m, r).counts for r in range(total)]
    rng = random.Random(915)
    for _ in range(30):
        start = rng.randrange(total + 2)
        stop = rng.choice([None, rng.randrange(total + 3)])
        block = rng.randrange(1, 40)
        blocks = list(_ascending_blocks(n, m, start, stop, block))
        assert all(0 < b.shape[0] <= block and b.shape[1] == n for b in blocks)
        got = [tuple(row) for b in blocks for row in b.tolist()]
        assert got == full[start:stop]
    rows = next(_ascending_blocks(n, m))
    assert rows.T.flags.c_contiguous
    assert [b.tolist() for b in _ascending_blocks(1, 3)] == [[[3]]]


def test_sizes_past_int16_use_int64_rows():
    m = (1 << 15) + 5
    for n in (2, 3):
        lo = num_configs(n, m) - 50
        rows = np.concatenate(list(_ascending_blocks(n, m, lo, None, 16)))
        assert rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == \
            [unrank_config(n, m, k).counts for k in range(lo, lo + 50)]
    # the last rows put almost every pebble on vertex 0, past int16's range
    p3 = path_graph(3)
    order, par = _delivery_tree(p3, 0)
    got = _deliver(rows.T, order, par, 0)
    want = [r[0] + (r[1] + r[2] // 2) // 2 for r in rows.tolist()]
    assert got.tolist() == want
    assert max(want) >= 1 << 15


def test_rank_spaces_past_int64_are_refused():
    n, m = 40, 40
    assert num_configs(n, m) >= 1 << 63
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63"):
        _unrank_cols(n, m, [0])
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63"):
        next(_ascending_blocks(n, m))
    p = path_graph(n)
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63"):
        find_unsolvable_witness(p, Distribution.stacked(n, 0, 1), m)


def _demand_pool(n, rng):
    """Stacked t-fold demands and two-target demands on random vertices."""
    pool = []
    for t in (1, 2, 3):
        pool.append(Distribution.stacked(n, rng.randrange(n), t))
    for da, db in ((1, 1), (2, 1), (1, 3)):
        a, b = rng.sample(range(n), 2)
        vec = [0] * n
        vec[a], vec[b] = da, db
        pool.append(Distribution(tuple(vec)))
    return pool


def test_prescreen_accepts_only_solvable_rows():
    """Every row a _FastFilter accepts on column-major blocks must be
    solvable: by the memoized brute-force recursion for every accepted row,
    and by the brute-force closure as well for the rows that only the
    one-move lookahead accepts."""
    rng = random.Random(916)
    accepted = lookahead_only = 0
    for trial in range(150):
        n = rng.randrange(2, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        adj = neighbor_lists(n, g.edges)
        demands = _demand_pool(n, rng) if n > 2 else \
            [Distribution.stacked(n, 0, t) for t in (1, 2)]
        filters = [_FastFilter(g, d) for d in demands]
        # the brute verdicts of this trial, per demand and configuration
        verdicts = {d.demands: {} for d in demands}
        size = rng.randrange(2, 9)
        cache: dict = {}
        for rows in _ascending_blocks(n, size, block=rng.randrange(5, 50)):
            assert rows.T.flags.c_contiguous
            for filt in filters:
                d = filt.d.demands
                mask = filt.accept(rows, cache)
                direct = filt._masks(rows, cache)
                assert not (direct & ~mask).any()
                for row in rows[mask].tolist():
                    accepted += 1
                    assert brute_solvable_memo(adj, row, d, verdicts[d]), \
                        (g.edges, row, d)
                for row in rows[mask & ~direct].tolist():
                    lookahead_only += 1
                    assert brute_solvable(g, tuple(row), d), (g.edges, row, d)
            cache.clear()
    assert accepted > 10_000
    assert lookahead_only > 1_000


def _check_min_moves_upto3(g, rows, r):
    """Classifier against brute force: the brute count where it is at most
    3, and -1 exactly where it is at least 4 or no move sequence reaches r."""
    got = _min_moves_upto3(g, np.array(rows, dtype=np.int64), r)
    for row, k in zip(rows, got.tolist()):
        want = brute_min_moves(g, row, r)
        if want is None or want >= 4:
            assert k == -1, (g.edges, row, r)
        else:
            assert k == want, (g.edges, row, r)
    return got


def test_min_moves_upto3_matches_brute_force_at_every_root():
    rng = random.Random(912)
    seen = set()
    for trial in range(120):
        n = rng.randrange(2, 9)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, n), rng))
        rows = [random_config(n, rng.randrange(0, 15), rng) for _ in range(80)]
        for r in range(n):
            seen.update(_check_min_moves_upto3(g, rows, r).tolist())
    assert seen == {-1, 0, 1, 2, 3}


def test_min_moves_upto3_on_size13_petersen_rows(petersen):
    rng = random.Random(913)
    total = num_configs(10, 13)
    rows = [unrank_config(10, 13, rng.randrange(total)).counts
            for _ in range(4000)]
    got = _check_min_moves_upto3(petersen, rows, 0)
    assert set(got.tolist()) == {0, 1, 2, 3}


def test_size13_petersen_prescreen_strength(petersen):
    """The three demand filters of the size-13 Petersen pass leave exactly
    6, 336 and 2,328 of the 497,420 rows to the exact engine, and every
    row needs at most 3 moves to the root. These counts are fixed by the
    prescreen's implementation, not by the claims: the direct masks alone
    leave 3,329, 2,712 and 66,806, so a lookahead that is silently off
    shows here while every correctness test still passes."""
    g = petersen
    demands = [Distribution(tuple(v))
               for v in _petersen_size13_scan()["demand_vectors"]]
    filters = [_FastFilter(g, d) for d in demands]
    rejected = [0, 0, 0]
    unsettled = rows_seen = 0
    for rows in _ascending_blocks(10, 13):
        rows_seen += rows.shape[0]
        cache: dict = {}
        for di, filt in enumerate(filters):
            rejected[di] += int(np.count_nonzero(~filt.accept(rows, cache)))
        unsettled += int(np.count_nonzero(_min_moves_upto3(g, rows, 0) < 0))
    assert rows_seen == num_configs(10, 13) == 497_420
    assert rejected == [6, 336, 2_328]
    assert unsettled == 0


def test_find_unsolvable_witness_path_example():
    p3 = path_graph(3)
    d = Distribution.stacked(3, 0, 1)
    res = find_unsolvable_witness(p3, d, 3)
    assert res.found and res.witness.counts == (0, 0, 3)
    assert not find_unsolvable_witness(p3, d, 4).found
    with pytest.raises(ValueError):
        find_unsolvable_witness(p3, d, -1)


def test_find_unsolvable_witness_petersen(petersen):
    d = Distribution.stacked(10, 0, 1)
    res = find_unsolvable_witness(petersen, d, 9)
    assert res.found and res.witness == build_J_r(petersen, 0)
    assert not is_solvable(petersen, res.witness, d).solvable


def test_witness_scan_matches_brute_force_enumeration():
    rng = random.Random(909)
    for trial in range(10):
        n = rng.randrange(3, 6)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        r = rng.randrange(n)
        demands = [0] * n
        demands[r] = 1
        size = brute_pi(g, tuple(demands)) - 1
        d = Distribution.stacked(n, r, 1)
        want = brute_unsolvable_set(g, tuple(demands), size)
        res = find_unsolvable_witness(g, d, size, collect_all=True)
        got = [c.counts for c in res.witnesses]
        assert sorted(got) == sorted(want)
        assert res.witness.counts == min(want)
        assert res.configs_checked == num_configs(n, size)


def test_witness_scan_jobs_and_symmetry_agree(petersen):
    d = Distribution.stacked(10, 0, 1)
    serial = find_unsolvable_witness(petersen, d, 9)
    parallel = find_unsolvable_witness(petersen, d, 9, jobs=2)
    reduced = find_unsolvable_witness(petersen, d, 9, symmetry=True)
    assert serial.witness == parallel.witness == reduced.witness
    assert reduced.configs_checked <= serial.configs_checked


def test_multi_demand_scan_reports_first_failure():
    p3 = path_graph(3)
    demands = [Distribution.stacked(3, 0, 1), Distribution.stacked(3, 2, 1)]
    scan = multi_demand_scan(p3, demands, 3)
    assert scan["failure"]["demand_index"] == 0
    assert scan["failure"]["config"].counts == (0, 0, 3)
    clean = multi_demand_scan(p3, demands, 4)
    assert clean["failure"] is None
    assert clean["configs_checked"] == num_configs(3, 4)


def test_pi_D_examples(petersen):
    p3 = path_graph(3)
    assert pi_D(p3, Distribution.stacked(3, 0, 1)) == 4
    k4 = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert pi_D(k4, Distribution.stacked(4, 0, 1)) == 4
    assert pi_D(petersen, Distribution.stacked(10, 0, 1), hint=10) == 10
    with pytest.raises(PebblingError):
        pi_D(p3, Distribution((0, 0, 0)))


def test_pi_D_matches_brute_force():
    rng = random.Random(910)
    for trial in range(8):
        n = rng.randrange(3, 6)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        r = rng.randrange(n)
        demands = [0] * n
        demands[r] = 1
        assert pi_D(g, Distribution(tuple(demands))) == brute_pi(g, tuple(demands))


def test_pi_t_examples():
    p3 = path_graph(3)
    assert pi_t(p3, 2) == 8
    tp = two_path([1])
    assert pi_t(tp.graph, 2) == two_path_pi_t(4, 2, 2) == 8


def test_pi_t_growth_in_t():
    rng = random.Random(911)
    for trial in range(6):
        n = rng.randrange(4, 7)
        g = build_graph(n, random_connected_edges(n, n, rng))
        diam = metrics(g).diameter
        values = [pi_t(g, t) for t in (1, 2, 3)]
        assert values[0] < values[1] < values[2]
        assert values[1] <= values[0] + (1 << diam)
        assert values[2] <= values[1] + (1 << diam)


def test_tree_dust_witness_is_tight():
    for seed in range(6):
        tree = random_tree(4 + seed % 4, 7000 + seed)
        for t in (1, 2):
            part = max_path_partition(tree)
            dust = tree_dust_witness(tree, t)
            assert dust.size == tree_pi(part, t) - 1
            d = Distribution.stacked(tree.graph.n, tree.root, t)
            assert not is_solvable(tree.graph, dust, d).solvable


def test_two_path_lower_candidates_are_unsolvable():
    for k, t in (([1], 1), ([2], 2), ([2, 1], 1), ([3], 2)):
        tp = two_path(k)
        n, d = tp.graph.n, tp.d
        for r, cfg in two_path_lower_candidates(tp, t):
            assert cfg.size == two_path_pi_t(n, d, t) - 1
            stacked = Distribution.stacked(n, r, t)
            assert not is_solvable(tp.graph, cfg, stacked).solvable


def test_check_pi_t_equals_pass_and_fail_paths():
    p3 = path_graph(3)
    ok = check_pi_t_equals(p3, 1, 4)
    assert ok["pass"] and ok["reason"] is None
    lower = ok["lower_witness"]
    assert lower["witness"].size == 3
    assert not is_solvable(
        p3, lower["witness"],
        Distribution.stacked(3, lower["root"], 1)).solvable

    low = check_pi_t_equals(p3, 1, 3)
    assert not low["pass"]
    assert low["reason"] == "unsolvable configuration at the expected size"
    assert low["counterexample"]["config"].size == 3

    high = check_pi_t_equals(p3, 1, 5)
    assert not high["pass"]
    assert high["reason"] == "no unsolvable configuration one below the expected size"
    assert high["counterexample"] is None

    with pytest.raises(PebblingError):
        check_pi_t_equals(p3, 0, 4)


def test_check_pi_t_equals_accepts_constructed_candidates():
    tp = two_path([2, 1])
    n, d = tp.graph.n, tp.d
    expected = two_path_pi_t(n, d, 2)
    got = check_pi_t_equals(tp.graph, 2, expected,
                            lower_candidates=two_path_lower_candidates(tp, 2))
    assert got["pass"] and got["lower_witness"]["source"] == "constructed"


def test_demands_of_size_counts():
    g = path_graph(4)
    for t in (1, 2, 3):
        ds = demands_of_size(g, t)
        assert len(ds) == comb(4 + t - 1, t)
        assert all(d.size == t for d in ds)
        assert len({d.demands for d in ds}) == len(ds)


def test_verify_target_conjecture_on_a_star():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    report = verify_target_conjecture(star, 2)
    assert report["pass"] and report["pi_t"] == 9
    assert report["demand_count"] == comb(5, 2)
    assert report["counterexample"] is None


def test_verify_target_conjecture_with_expected_value():
    tp = two_path([1])
    report = verify_target_conjecture(
        tp.graph, 2, expected_pi=8,
        lower_candidates=two_path_lower_candidates(tp, 2))
    assert report["pass"] and report["pi_t"] == 8
    assert report["demand_count"] == 10
    assert report["lower_witness"] is not None

    too_high = verify_target_conjecture(tp.graph, 2, expected_pi=9)
    assert not too_high["pass"]
    assert "reason" in too_high["counterexample"]

    too_low = verify_target_conjecture(
        tp.graph, 2, expected_pi=7,
        lower_candidates=[(0, Configuration((0, 6, 0, 0)))])
    assert not too_low["pass"]
    assert too_low["counterexample"]["config"].size == 7

    with pytest.raises(PebblingError):
        verify_target_conjecture(tp.graph, 2, demand_classes=[(1, 0, 0, 0)])


def test_budget_is_enforced_and_reported(petersen):
    d = Distribution.stacked(10, 0, 1)
    with pytest.raises(BudgetExceededError) as info:
        find_unsolvable_witness(petersen, d, 10, budget=100)
    err = info.value
    assert err.cap == 100 and err.spent > 100
    assert "budget of 100 configuration checks exceeded" in str(err)


def test_parallel_scans_charge_per_chunk_and_match_serial(petersen):
    # size 12 has 293,930 rows but only 25,982 orbit minima under the
    # root's stabilizer: a parallel scan charges what its chunks check
    d = Distribution.stacked(10, 0, 1)
    assert num_configs(10, 12) > 100_000
    serial = find_unsolvable_witness(petersen, d, 12, symmetry=True,
                                     budget=100_000)
    parallel = find_unsolvable_witness(petersen, d, 12, jobs=2, symmetry=True,
                                       budget=100_000)
    assert parallel == serial
    assert not serial.found and serial.configs_checked < 100_000
    with pytest.raises(BudgetExceededError):
        find_unsolvable_witness(petersen, d, 12, jobs=2, budget=100_000)
    # a witness in the first chunk: the same witness and count as serial
    d2 = Distribution.stacked(10, 0, 2)
    for sym in (False, True):
        serial = find_unsolvable_witness(petersen, d2, 12, symmetry=sym)
        parallel = find_unsolvable_witness(petersen, d2, 12, jobs=2,
                                           symmetry=sym)
        assert serial.found and parallel == serial


def test_parallel_chunks_stop_at_the_budget(petersen):
    # 2,042,975 rows against a 70,000 budget: chunk 0 stops after its
    # second block, as the serial scan does, instead of finishing its range
    d = Distribution.stacked(10, 0, 1)
    assert num_configs(10, 16) > 25 * 70_000
    errs = []
    for jobs in (1, 2):
        with pytest.raises(BudgetExceededError) as info:
            find_unsolvable_witness(petersen, d, 16, jobs=jobs, budget=70_000)
        errs.append((info.value.cap, info.value.spent))
    assert errs[0] == errs[1] == (70_000, 2 * (1 << 16))


def test_budget_environment_default(petersen, monkeypatch):
    monkeypatch.setenv("PEBBLEKIT_BUDGET", "50")
    with pytest.raises(BudgetExceededError) as info:
        pi_D(petersen, Distribution.stacked(10, 0, 1))
    assert info.value.cap == 50


def test_rooted_tree_rejects_non_trees():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(FamilyError):
        RootedTree(tri, 0)
    with pytest.raises(FamilyError):
        RootedTree(path_graph(3), 5)
