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
    build_C_t1,
    build_C_t2,
    build_graph,
    build_J_r,
    demands_of_size,
    find_unsolvable_witness,
    is_solvable,
    kneser,
    max_path_partition,
    metrics,
    num_configs,
    pi_D,
    pi_t,
    random_tree,
    tree_dust_witness,
    tree_pi,
    two_path,
    two_path_lower_candidates,
    two_path_pi_t,
    verify_target_conjecture,
)
from pebblekit.numbers import (
    _Budget,
    _ascending_blocks,
    _bfs_rooted_tree,
    _default_lower_candidates,
    _deliver,
    _delivery_tree,
    _BLOCK,
    _FastFilter,
    _flat_children,
    _min_moves_upto3,
    _part_forest,
    _pile,
    _scan,
    _scan_chunk,
    _tail_split,
    _uniform_ranks,
    _unrank_cols,
)
import pebblekit.numbers as numbers_mod
from pebblekit.harness import _petersen_size13_scan

from oracles import (
    brute_min_moves,
    brute_pi,
    brute_solvable,
    brute_solvable_memo,
    brute_unsolvable_set,
    enumerate_configs,
    neighbor_lists,
    random_config,
    random_connected_edges,
    unrank_config,
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


def test_public_unrank_config_is_a_view_of_the_kernel():
    """pebblekit.unrank_config reads one column of _unrank_cols: it equals
    the scalar reference at every rank, refuses ranks out of range and,
    like the kernel, sizes with 2**63 or more configurations, which the
    reference still unranks."""
    for n, m in ((1, 4), (3, 4), (4, 3), (7, 9)):
        total = num_configs(n, m)
        assert [numbers_mod.unrank_config(n, m, r) for r in range(total)] == \
            [unrank_config(n, m, r) for r in range(total)]
        for rank in (-1, total, 1 << 70):
            with pytest.raises(ValueError, match="out of range"):
                numbers_mod.unrank_config(n, m, rank)
    assert num_configs(40, 40) >= 1 << 63
    with pytest.raises(ValueError, match="2\\*\\*63"):
        numbers_mod.unrank_config(40, 40, 0)
    assert unrank_config(40, 40, 0).counts == (0,) * 39 + (40,)


def test_unrank_cols_matches_unrank_config_at_every_rank():
    for n in (1, 2, 3, 7):
        for m in (0, 1, 5, 9):
            total = num_configs(n, m)
            block = _unrank_cols(n, m, np.arange(total))
            assert block.shape == (n, total) and block.flags.c_contiguous
            assert block.dtype == np.int8
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


def test_unrank_config_refuses_non_integer_ranks():
    """A rank must be an integer: a float, even a whole one, is refused
    instead of being truncated to the rank below it, while numpy integers
    are read as the ranks they hold."""
    for rank in (2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(TypeError):
            numbers_mod.unrank_config(3, 5, rank)
    want = unrank_config(3, 5, 2)
    for rank in (2, np.int64(2), np.int32(2), np.uint8(2)):
        assert numbers_mod.unrank_config(3, 5, rank) == want


def test_unrank_cols_at_the_width_boundaries(monkeypatch):
    """Rows are int8 below m = 128 and int16 from there; the rank
    arithmetic is int32 below 2**31 configurations and int64 from there.
    On either side of both bounds the kernel, the block scan and
    unrank_config agree with the scalar reference on ascending runs
    (first, middle, last ranks) and on random ranks in any order.
    (17, 17) has 1,166,803,110 configurations, (17, 18) 2,203,961,430,
    which int32 rank arithmetic would overflow."""
    keys = []
    real = np.searchsorted

    def spy(table, key, *args, **kwargs):
        keys.append((table.dtype, np.asarray(key).dtype))
        return real(table, key, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    rng = random.Random(1907)
    for n, m, row, wide in ((4, 127, np.int8, np.int32),
                            (4, 128, np.int16, np.int32),
                            (17, 17, np.int8, np.int32),
                            (17, 18, np.int8, np.int64)):
        total = num_configs(n, m)
        assert (total < 1 << 31) == (wide == np.int32)
        mid = total // 2
        runs = [(0, 200), (mid - 100, mid + 100), (total - 200, total)]
        for a, b in runs:
            want = [unrank_config(n, m, k).counts for k in range(a, b)]
            keys.clear()
            block = _unrank_cols(n, m, np.arange(a, b))
            assert block.dtype == row
            assert keys and all(k == (wide, wide) for k in keys)
            assert [tuple(c) for c in block.T.tolist()] == want
            rows = np.concatenate(list(_ascending_blocks(n, m, a, b, 64)))
            assert rows.dtype == row
            assert [tuple(r) for r in rows.tolist()] == want
        ranks = [total - 1, 0] + [rng.randrange(total) for _ in range(300)]
        block = _unrank_cols(n, m, ranks)
        assert block.dtype == row
        assert [tuple(c) for c in block.T.tolist()] == \
            [unrank_config(n, m, k).counts for k in ranks]
        for k in (0, 1, total - 2, total - 1):
            assert numbers_mod.unrank_config(n, m, k) == unrank_config(n, m, k)
        with pytest.raises(ValueError, match="out of range"):
            _unrank_cols(n, m, [total])


def test_unrank_cols_tables_hold_at_wide_sizes():
    """The kernel's binomial tables, built by cumulative sums and stepped
    down by differences, agree with the scalar reference where entries
    reach 2**55 (30, 30) and where a table is 2**15 long."""
    rng = random.Random(31)
    for n, m in ((20, 40), (30, 30), (2, 2 ** 15 + 5), (3, 2 ** 15 + 5)):
        total = num_configs(n, m)
        ranks = [0, total - 1, total // 2] + [rng.randrange(total)
                                              for _ in range(40)]
        got = _unrank_cols(n, m, ranks).T.tolist()
        assert [tuple(r) for r in got] == [unrank_config(n, m, k).counts
                                           for k in ranks]


def test_unrank_cols_forms_agree_on_unordered_ranks(monkeypatch):
    """Unordered ranks take the kernel's entry count when m < 255 with
    int32 ranks or m < 64 with int64 ranks, and every other call takes
    searchsorted; both give the scalar reference's columns, and the block
    of the sorted ranks is the same block with its columns permuted.
    (4, 254) and (4, 255) sit on either side of the int32 rule, (9, 63)
    and (9, 64) on either side of the int64 one."""
    searches = []
    real = np.searchsorted

    def spy(*args, **kwargs):
        searches.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    rng = random.Random(577)
    for n, m in ((15, 15), (7, 63), (7, 64), (4, 200), (4, 254), (4, 255),
                 (9, 63), (9, 64)):
        total = num_configs(n, m)
        ranks = np.array([total - 1, 0] + [rng.randrange(total)
                                           for _ in range(400)])
        searches.clear()
        block = _unrank_cols(n, m, ranks)
        assert bool(searches) == (m >= (255 if total < 2 ** 31 else 64))
        assert block.dtype == (np.int8 if m < 128 else np.int16)
        assert block.flags.c_contiguous
        assert [tuple(col) for col in block.T.tolist()] == \
            [unrank_config(n, m, int(k)).counts for k in ranks]
        order = np.argsort(ranks, kind="stable")
        searches.clear()
        ascending = _unrank_cols(n, m, ranks[order])
        assert searches
        back = np.empty_like(ascending)
        back[:, order] = ascending
        assert np.array_equal(back, block)


def test_uniform_ranks_are_the_randrange_draws():
    """_uniform_ranks(rng, total, k) is [rng.randrange(total) for _ in
    range(k)] and leaves rng where that loop leaves it, call after call:
    at acceptance rates from just over 1/2 (2**31 + 1) to 1 (2**31), at
    thm-3.5's C(29, 15) and at the largest one-word total."""
    for total in (1, 2, 3, 1000, num_configs(15, 15), 2 ** 31, 2 ** 31 + 1,
                  2 ** 32 - 1):
        for seed in (0, 7):
            bulk, scalar = random.Random(seed), random.Random(seed)
            for k in (1, 7, 16_384, 0, 7):
                got = _uniform_ranks(bulk, total, k)
                assert got.dtype == np.int64
                assert got.tolist() == [scalar.randrange(total)
                                        for _ in range(k)]
                assert bulk.getstate() == scalar.getstate()
            assert bulk.random() == scalar.random()


def test_uniform_ranks_refuse_totals_past_one_word():
    rng = random.Random(3)
    state = rng.getstate()
    for total in (0, -1, 2 ** 32, 2 ** 32 + 1):
        with pytest.raises(ValueError, match="1 <= total < 2\\*\\*32"):
            _uniform_ranks(rng, total, 5)
    assert rng.getstate() == state


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


def assert_kernel_blocks(n, m, start, stop, block):
    """_ascending_blocks(n, m, start, stop, block) yields, block by block,
    _unrank_cols over the same ranks: values, dtype and the (n, B)
    C-contiguous layout behind each (B, n) view."""
    end = num_configs(n, m) if stop is None else min(stop, num_configs(n, m))
    spans = [(s, min(s + block, end)) for s in range(start, end, block)]
    got = list(_ascending_blocks(n, m, start, stop, block))
    assert len(got) == len(spans)
    for rows, (s, e) in zip(got, spans):
        want = _unrank_cols(n, m, np.arange(s, e))
        assert rows.dtype == want.dtype and rows.T.flags.c_contiguous
        assert np.array_equal(rows.T, want), (n, m, s, e)


def head_runs(n, m):
    """(first, last + 1) rank of every run of rows sharing the first
    n - _tail_split(n, m) counts, read off the kernel's full order."""
    total = num_configs(n, m)
    head = _unrank_cols(n, m, np.arange(total))[:n - _tail_split(n, m)]
    cuts = np.flatnonzero((head[:, 1:] != head[:, :-1]).any(axis=0)) + 1
    bounds = [0, *cuts.tolist(), total]
    return list(zip(bounds, bounds[1:]))


def test_ascending_blocks_are_the_kernel_blocks():
    rng = random.Random(1104)
    split = 0
    for n in range(1, 9):
        for m in (0, 1, 2, 5, 9):
            total = num_configs(n, m)
            cases = [(0, None, _BLOCK), (1, total - 1, 997)]
            for _ in range(8):
                cases.append((rng.randrange(total + 2),
                              rng.choice([None, rng.randrange(total + 3)]),
                              rng.randrange(1, 400)))
            if _tail_split(n, m):
                split += 1
                long = [(a, b) for a, b in head_runs(n, m) if b - a >= 3]
                for a, b in rng.sample(long, min(3, len(long))):
                    cases += [(a + 1, b - 1, _BLOCK),  # wholly inside a run
                              (a, b, _BLOCK),          # exactly one run
                              (a + 1, None, b - a - 1),  # ends at the run end
                              (a, None, 2),            # starts at a run start
                              (b - 2, b + 2, 1)]       # one row at a time
            for case in cases:
                assert_kernel_blocks(n, m, *case)
    # both sides of the split rule are exercised
    assert 0 < split < 8 * 5
    # past int16: n = 2 splits, n = 3 unranks every rank
    m = (1 << 15) + 5
    assert _tail_split(2, m) == 1 and _tail_split(3, m) == 0
    for n in (2, 3):
        total = num_configs(n, m)
        for start, stop, block in ((total - 50, None, 16), (0, 40, 7),
                                   (total // 2 - 33, total // 2 + 33, 13)):
            assert_kernel_blocks(n, m, start, stop, block)
    assert_kernel_blocks(2, m, 0, None, 5000)
    # no split of (15, 15) fits the table bound
    assert _tail_split(15, 15) == 0
    mid = num_configs(15, 15) // 3
    assert_kernel_blocks(15, 15, mid, mid + 300, 64)
    with pytest.raises(ValueError, match="out of range"):
        next(_ascending_blocks(4, 3, -1))


def test_ascending_block_tables_stay_within_the_bound(monkeypatch):
    """A split (n, m) builds its two tables, each of at most _BLOCK
    columns, and then unranks nothing more; any other (n, m) unranks each
    block's ranks. The choice depends on (n, m) alone."""
    assert (_tail_split(10, 13), _tail_split(7, 25)) == (5, 3)
    assert _tail_split(1, 3) == _tail_split(15, 15) == 0
    assert _tail_split(3, (1 << 15) + 5) == 0
    # the bound is tight: C(36, 4) <= _BLOCK < C(37, 4)
    assert (_tail_split(7, 32), _tail_split(7, 33)) == (3, 0)
    calls = []

    def spy(n, m, ranks):
        calls.append((n, len(ranks)))
        return _unrank_cols(n, m, ranks)

    monkeypatch.setattr(numbers_mod, "_unrank_cols", spy)
    for n, m in ((10, 13), (7, 25), (7, 32), (2, (1 << 15) + 5), (15, 15),
                 (7, 33), (1, 3), (3, (1 << 15) + 5)):
        p = _tail_split(n, m)
        start = num_configs(n, m) // 2
        for stop in (start + 1, start + 200):
            calls.clear()
            blocks = list(_ascending_blocks(n, m, start, stop, 64))
            if p:
                assert calls == [(n - p + 1, num_configs(n - p + 1, m)),
                                 (p + 1, num_configs(p + 1, m))]
                assert max(k for _, k in calls) <= _BLOCK
            else:
                assert calls == [(n, b.shape[0]) for b in blocks]


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
    # the prescreen caches this column per block; it must not hold a view
    # of _deliver's whole (n, B) working copy
    assert got.base is None
    # a demand past int16's range on int16 rows is refused, not overflowed
    mid = next(_ascending_blocks(3, 200))
    assert mid.dtype == np.int16
    for vec in ((1 << 15, 1, 0), (1, 1 << 15, 0), (1, 1 << 16, 1)):
        assert not _FastFilter(p3, Distribution(vec)).accept(mid).any()
    # and so is a demand of 128 or more on int8 rows
    small = next(_ascending_blocks(3, 127))
    assert small.dtype == np.int8
    for vec in ((128, 0, 0), (128, 1, 0), (1, 128, 0), (0, 1, 200),
                (1, 1 << 8, 1), (1, 1 << 15, 0)):
        assert not _FastFilter(p3, Distribution(vec)).accept(small).any()
    # while the same filter still accepts the rows that meet demand 127
    full = np.array([[127, 0, 0], [0, 0, 127]], dtype=np.int8)
    assert _FastFilter(p3, Distribution((127, 0, 0))).accept(full).tolist() \
        == [True, False]


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
    """Stacked t-fold demands, and two- and three-target demands on
    distinct random vertices (needs n >= 3)."""
    pool = []
    for t in (1, 2, 3):
        pool.append(Distribution.stacked(n, rng.randrange(n), t))
    for split in ((1, 1), (2, 1), (1, 3), (1, 1, 1), (2, 1, 1)):
        vec = [0] * n
        for v, x in zip(rng.sample(range(n), len(split)), split):
            vec[v] = x
        pool.append(Distribution(tuple(vec)))
    return pool


def _within_moves(filt, rows, arcs, moves):
    """Per row of a (B, n) block, for k = 0..moves: whether at most k legal
    moves reach a configuration that filt's direct masks accept, as a list
    of masks indexed by k. Level k tries every directed edge (u, v) of
    every row that k - 1 moves do not settle, all arcs' children in one
    block, with no use of the filter's own lookahead or weight bound."""
    levels = [filt._masks(rows)]
    for k in range(1, moves + 1):
        srcs, kids = [], []
        for u, v in arcs:
            idx = np.flatnonzero(~levels[-1] & (rows[:, u] >= 2))
            child = rows[idx]
            child[:, u] -= 2
            child[:, v] += 1
            srcs.append(idx)
            kids.append(child)
        sub = _within_moves(filt, np.concatenate(kids), arcs, k - 1)[k - 1]
        levels.append(levels[-1].copy())
        levels[k][np.concatenate(srcs)[sub]] = True
    return levels


def test_prescreen_accepts_only_solvable_rows():
    """Every row the prescreen accepts on column-major blocks must be
    solvable: by the memoized brute-force recursion for every accepted row,
    and by the brute-force closure as well for the rows that only the
    lookahead accepts, counting apart those that no one-move child of the
    direct masks covers, so only the second level accepts them. accept is
    exactly the two-move closure of the direct masks, so the weight bound
    drops no row two moves would settle, and every row below the weight
    bound is unsolvable. On three-target demands the route and sink rules
    must accept rows whose targets do not already hold their demands."""
    rng = random.Random(916)
    accepted = lookahead_only = second_only = moved3 = light = 0
    for trial in range(150):
        n = rng.randrange(2, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        adj = neighbor_lists(n, g.edges)
        arcs = [(u, v) for u in range(n) for v in adj[u]]
        demands = _demand_pool(n, rng) if n > 2 else \
            [Distribution.stacked(n, 0, t) for t in (1, 2)]
        filters = [_FastFilter(g, d) for d in demands]
        # the brute verdicts of this trial, per demand and configuration
        verdicts = {d.demands: {} for d in demands}
        size = rng.randrange(2, 9)
        every = np.concatenate(list(_ascending_blocks(n, size)))
        closure = {filt.d.demands: _within_moves(filt, every, arcs, 2)
                   for filt in filters}
        cache: dict = {}
        start = 0
        for rows in _ascending_blocks(n, size, block=rng.randrange(5, 50)):
            assert rows.T.flags.c_contiguous
            stop = start + rows.shape[0]
            for filt in filters:
                d = filt.d.demands
                direct, one, two = (k[start:stop] for k in closure[d])
                mask = filt.accept(rows, cache)
                assert np.array_equal(mask, two)
                for row in rows[mask].tolist():
                    accepted += 1
                    assert brute_solvable_memo(adj, row, d, verdicts[d]), \
                        (g.edges, row, d)
                for row, first in zip(rows[mask & ~direct].tolist(),
                                      one[mask & ~direct]):
                    lookahead_only += 1
                    second_only += not first
                    assert brute_solvable(g, tuple(row), d), (g.edges, row, d)
                for row in rows[~filt._heavy(rows.T)].tolist():
                    light += 1
                    assert not brute_solvable_memo(adj, row, d, verdicts[d]), \
                        (g.edges, row, d)
                if len(filt.targets) == 3:
                    in_place = np.all(rows >= np.array(d), axis=1)
                    moved3 += int(np.count_nonzero(direct & ~in_place))
            cache.clear()
            start = stop
    assert accepted > 10_000
    assert lookahead_only > 1_000
    assert second_only > 300
    assert moved3 > 1_000
    assert light > 1_000


def test_sink_rule_covers_pay_and_cut():
    """On two-target demands the direct masks accept every row that the
    pay rule (one target keeps its demand of its own pebbles, the other's
    tree delivers from the rest) or the cut rule (one target keeps all that
    its subtree flushes into it, the rest reaches the other) accepts. Both
    are special cases of the sink rule; the in-place test is a special
    case of the cut rule."""
    rng = random.Random(918)
    paid = 0
    for trial in range(80):
        n = rng.randrange(3, 8)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 4), rng))
        a, b = rng.sample(range(n), 2)
        vec = [0] * n
        vec[a], vec[b] = rng.randrange(1, 3), rng.randrange(1, 4)
        filt = _FastFilter(g, Distribution(tuple(vec)))
        size = rng.randrange(2, 10)
        cols = np.concatenate(list(_ascending_blocks(n, size))).T
        got = filt._masks(cols.T)
        for root, other in ((a, b), (b, a)):
            order, par = filt.trees[root]
            rest = cols.copy()
            rest[other] -= vec[other]
            pay = (cols[other] >= vec[other]) & \
                (_deliver(rest, order, par, root) >= vec[root])
            cut = cols.copy()
            for v in order:
                if v != other:
                    cut[par[v]] += cut[v] >> 1
            cut = (cut[root] >= vec[root]) & (cut[other] >= vec[other])
            assert not ((pay | cut) & ~got).any(), (g.edges, vec)
            paid += int(np.count_nonzero(pay & ~cut))
    assert paid > 1_000


def _forest_flush(cols, forest, d):
    """Per column of an (n, B) block: whether flushing the forest deepest
    first leaves every target of d holding its demand."""
    order, par = forest
    a = cols.astype(np.int64)
    for v in order:
        a[par[v]] += a[v] >> 1
    return np.all([a[x] >= d[x] for x in d.support], axis=0)


def test_forest_rule_accepts_only_solvable_rows():
    """Each delivery forest of a two- or three-target demand, alone,
    accepts only D-solvable rows: on random connected graphs with n <= 7
    and demands of 1 or 2 on each target, every row it accepts is solvable
    by brute force. Each forest is a forest of graph edges whose trees are
    rooted at the targets and span their parts, and the direct masks are
    route and sink together with every forest. The lemma holds for any
    partition, so random partitions, whose parts are often disconnected and
    leave vertices out of every tree, must be sound as well. The rows that
    only a forest accepts must be common."""
    rng = random.Random(921)
    forest_only = torn = checked = 0
    for trial in range(150):
        n = rng.randrange(3, 8)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 4), rng))
        adj = neighbor_lists(n, g.edges)
        vec = [0] * n
        for v in rng.sample(range(n), rng.choice((2, 3))):
            vec[v] = rng.randrange(1, 3)
        d = Distribution(tuple(vec))
        ts = d.support
        filt = _FastFilter(g, d)
        assert 1 <= len(filt.forests) <= len(ts)
        for order, par in filt.forests:
            assert {v for v in range(n) if par[v] < 0} == set(ts)
            assert set(order) == set(range(n)) - set(ts)
            assert all(g.has_edge(v, par[v]) for v in order)
        base = _FastFilter(g, d)
        base.forests = []
        size = rng.randrange(2, 10)
        rows = np.concatenate(list(_ascending_blocks(n, size)))
        part = [rng.choice(ts) for _ in range(n)]
        for a in ts:
            part[a] = a
        torn_forest = _part_forest(g, part, ts)
        torn += len(torn_forest[0]) < n - len(ts)
        direct = base._masks(rows)
        verdicts: dict = {}
        for forest in filt.forests + [torn_forest]:
            mask = _forest_flush(rows.T, forest, d)
            for row in rows[mask].tolist():
                checked += 1
                assert brute_solvable_memo(adj, row, d.demands, verdicts), \
                    (g.edges, row, d.demands, forest)
            if forest is not torn_forest:
                forest_only += int(np.count_nonzero(mask & ~direct))
                direct |= mask
        assert np.array_equal(filt._masks(rows), direct)
    assert checked > 40_000
    assert forest_only > 500
    assert torn > 50


def test_forest_rule_settles_a_petersen_pair_row(petersen):
    """On the distance-2 pair {0, 1} of K(5,2), the row with 3 pebbles on
    6 and 8 and 7 on 9 fails route and sink, and the forest accepts it."""
    d = Distribution((1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    rows = np.array([[0, 0, 0, 0, 0, 0, 3, 0, 3, 7]], dtype=np.int8)
    filt = _FastFilter(petersen, d)
    base = _FastFilter(petersen, d)
    base.forests = []
    assert not base._masks(rows)[0]
    assert filt._masks(rows)[0]
    assert brute_solvable(petersen, tuple(rows[0].tolist()), d.demands)


def _sink_flush(cols, tree, d):
    """Per column of an (n, B) block: whether flushing the tree deepest
    first, every vertex keeping its demand and passing on only the excess,
    leaves every target of d holding its demand."""
    order, par = tree
    a = cols.astype(np.int64)
    for v in order:
        a[par[v]] += np.maximum(a[v] - d[v], 0) >> 1
    return np.all([a[x] >= d[x] for x in d.support], axis=0)


def test_pair_masks_are_the_union_of_their_rules():
    """On two- and three-target demands, _masks accepts exactly the rows
    that some rule accepts when it runs alone on the whole block: some
    target's route, some target's sink tree, or some forest. So the order
    in which _masks runs them, each on the rows the earlier ones leave,
    changes only its cost. Each kind of rule accepts rows that neither
    other kind does."""
    rng = random.Random(923)
    only = {"route": 0, "sink": 0, "forest": 0}
    for trial in range(120):
        n = rng.randrange(3, 8)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 4), rng))
        vec = [0] * n
        for v in rng.sample(range(n), rng.choice((2, 3))):
            vec[v] = rng.randrange(1, 3)
        d = Distribution(tuple(vec))
        filt = _FastFilter(g, d)
        rows = np.concatenate(list(_ascending_blocks(n, rng.randrange(2, 10))))
        cols = rows.T
        rules = {
            "route": np.any([_deliver(cols, *filt.trees[a], a) >= filt.route[a]
                             for a in d.support], axis=0),
            "sink": np.any([_sink_flush(cols, filt.trees[a], d)
                            for a in d.support], axis=0),
            "forest": np.any([_forest_flush(cols, f, d) for f in filt.forests],
                             axis=0),
        }
        union = np.any(list(rules.values()), axis=0)
        assert np.array_equal(filt._masks(rows), union), (g.edges, vec)
        for name, mask in rules.items():
            rest = np.any([m for k, m in rules.items() if k != name], axis=0)
            only[name] += int(np.count_nonzero(mask & ~rest))
    assert min(only.values()) > 0, only


def test_lookahead_runs_on_the_rejected_columns_only(monkeypatch, petersen):
    """Inside accept, the weight bound and the first _flat_children call
    see exactly the columns the direct masks reject, copied into one
    compact (n, L) block, and neither they nor any later call of either
    sees an array as wide as the block: on the first size-20 block of the
    8-vertex path at t = 2, and on a size-13 Petersen block for the
    distance-2 pair {0, 1}."""
    heavy, flat = _FastFilter._heavy, numbers_mod._flat_children
    seen = []

    def spied_heavy(self, cols):
        seen.append(("heavy", cols.copy(), None))
        return heavy(self, cols)

    def spied_flat(cols, live, arcs, limit):
        seen.append(("flat", cols.copy(), live.copy()))
        return flat(cols, live, arcs, limit)

    monkeypatch.setattr(_FastFilter, "_heavy", spied_heavy)
    monkeypatch.setattr(numbers_mod, "_flat_children", spied_flat)
    pair = Distribution((1, 1) + (0,) * 8)
    for g, d, size, skip in ((path_graph(8), Distribution.stacked(8, 0, 2),
                              20, 0),
                             (petersen, pair, 13, 1)):
        rows = list(_ascending_blocks(g.n, size))[skip]
        filt = _FastFilter(g, d)
        rejected = rows.T[:, ~filt._masks(rows)]
        assert 0 < rejected.shape[1] < rows.shape[0] == _BLOCK
        seen.clear()
        filt.accept(rows)
        (kind0, cols0, _), (kind1, cols1, live1) = seen[:2]
        assert kind0 == "heavy" and np.array_equal(cols0, rejected)
        assert kind1 == "flat" and np.array_equal(cols1, rejected)
        assert np.array_equal(live1, heavy(filt, rejected))
        assert all(cols.shape[1] < _BLOCK for _, cols, _ in seen)
        assert len(seen) > 2


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


def test_min_moves_upto3_settles_blocks_holding_the_root_at_once(petersen):
    """A block whose every row holds a pebble on r is class 0 throughout,
    without the tests. The classes are per row, so one more row with no
    pebble on r sends the same rows through the full tests: on the size-13
    Petersen blocks both give the same classes, on the blocks every row of
    which holds the root and on the block that mixes both kinds of row."""
    kinds = set()
    for rows in _ascending_blocks(10, 13):
        held = rows[:, 0] >= 1
        kinds.add((bool(held.all()), bool(held.any())))
        empty = np.zeros((1, 10), dtype=rows.dtype)
        full = _min_moves_upto3(petersen, np.vstack([rows, empty]), 0)[:-1]
        assert np.array_equal(_min_moves_upto3(petersen, rows, 0), full)
    assert kinds == {(False, False), (False, True), (True, True)}


def test_size13_petersen_prescreen_strength(petersen):
    """The three demand filters of the size-13 Petersen pass leave exactly
    0, 0 and 51 of the 497,420 rows to the exact engine, and every row
    needs at most 3 moves to the root. These counts are fixed by the
    prescreen's implementation, not by the claims. The test works out each
    level itself, arc by arc, and pins it: the direct masks alone leave
    3,329, 2,712 and 8,366, one move ahead 6, 336 and 548, and two moves
    ahead 0, 0 and 51. accept must equal the two-move level, row for row.
    So a lookahead level that is silently off shows here while every
    correctness test still passes. The forest rule moved the third
    demand's counts, the distance-2 pair, from 66,806, 2,328 and 336: its
    two targets split the graph, and each flushes only its own part. The
    2-fold stack has one target and no forest, and on the distance-1 pair
    the forest accepts no row that route and sink reject."""
    g = petersen
    arcs = [(u, v) for u in range(10) for v in g.adjacency[u]]
    demands = [Distribution(tuple(v))
               for v in _petersen_size13_scan()["demand_vectors"]]
    filters = [_FastFilter(g, d) for d in demands]
    rejected = np.zeros((3, 3), dtype=np.int64)  # [moves][demand]
    unsettled = rows_seen = 0
    for rows in _ascending_blocks(10, 13):
        rows_seen += rows.shape[0]
        cache: dict = {}
        for di, filt in enumerate(filters):
            levels = _within_moves(filt, rows, arcs, 2)
            for moves, ok in enumerate(levels):
                rejected[moves, di] += int(np.count_nonzero(~ok))
            assert np.array_equal(filt.accept(rows, cache), levels[2])
        unsettled += int(np.count_nonzero(_min_moves_upto3(g, rows, 0) < 0))
    assert rows_seen == num_configs(10, 13) == 497_420
    assert rejected.tolist() == [[3_329, 2_712, 8_366], [6, 336, 548],
                                 [0, 0, 51]]
    assert unsettled == 0


def test_flat_children_are_every_legal_move_in_bounded_chunks():
    """_flat_children yields each live column's one-move children exactly
    once, whatever the chunk limit, including limits below the number of
    arcs; every chunk has at most limit columns; and once every column is
    cleared from live, no further chunk comes."""
    rng = random.Random(919)
    moves = 0
    for trial in range(40):
        n = rng.randrange(1, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 4), rng))
        adj = neighbor_lists(n, g.edges)
        arcs = _FastFilter(g, Distribution.stacked(n, 0, 1)).arcs
        rows = [random_config(n, rng.randrange(0, 12), rng) for _ in range(30)]
        cols = np.array(rows, dtype=np.int16).reshape(-1, n).T.copy()
        want = []
        for i, row in enumerate(rows):
            for u in range(n):
                for v in adj[u] if row[u] >= 2 else ():
                    child = list(row)
                    child[u] -= 2
                    child[v] += 1
                    want.append((i, tuple(child)))
        moves += len(want)
        for limit in (1, 3, 7, 1000):
            live = np.ones(len(rows), dtype=bool)
            live[::5] = False
            got = []
            for src, child in _flat_children(cols, live, arcs, limit):
                assert 0 < src.size <= limit and child.shape == (n, src.size)
                assert live[src].all()
                got += zip(src.tolist(), map(tuple, child.T.tolist()))
            assert sorted(got) == sorted((i, c) for i, c in want if i % 5)
            live = np.ones(len(rows), dtype=bool)
            chunks = 0
            for src, child in _flat_children(cols, live, arcs, limit):
                chunks += 1
                live[:] = False
            assert chunks <= 1
    assert moves > 2_000


def _band(n, width):
    """Vertices 0..n-1, adjacent when 0 < |i - j| <= width."""
    return build_graph(n, [(i, j) for i in range(n)
                           for j in range(i + 1, min(n, i + width + 1))])


def test_lookahead_chunks_stay_within_a_block(monkeypatch):
    """No _masks call inside accept sees more than _BLOCK rows:
    on the first size-20 block of the 8-vertex path at t = 2, where the
    prescreen rejects most rows, and on a block whose lookahead builds
    many more children and grandchildren than a block holds (9 vertices,
    i ~ j when 0 < |i - j| <= 3, 3 pebbles demanded at 0, size 12)."""
    seen = []
    masks = _FastFilter._masks

    def spied(self, rows, cache=None):
        seen.append(rows.shape[0])
        return masks(self, rows, cache)

    monkeypatch.setattr(_FastFilter, "_masks", spied)
    for g, t, size, most_rejected in ((path_graph(8), 2, 20, True),
                                      (_band(9, 3), 3, 12, False)):
        seen.clear()
        rows = next(_ascending_blocks(g.n, size))
        filt = _FastFilter(g, Distribution.stacked(g.n, 0, t))
        left = np.flatnonzero(~filt.accept(rows))
        assert seen[0] == rows.shape[0] == _BLOCK
        assert max(seen) <= _BLOCK
        if most_rejected:
            assert len(left) > _BLOCK // 2
        else:
            assert len(left) > _BLOCK // 8
            assert sum(seen[1:]) > 8 * _BLOCK


def test_scan_chunk_settles_blocks_as_brute_force(monkeypatch):
    """_scan_chunk, the one settle loop, against oracles.brute_solvable on
    random connected graphs with n <= 6, stacked, two-target and
    three-target demands together, in 7-row blocks. With stops=0 its kept
    failures are exactly the brute-rejected (demand index, configuration)
    pairs in block, then demand, then row order, and it draws every block
    once. With every demand a stop demand, the stop failure is the pair of
    the least failing row, ties going to the first demand that fails it,
    and both the blocks drawn and the count checked stop at that pair's
    block, for all the demands and for each one alone. With the first
    demand alone stopping, it stops at that demand's first pair and keeps
    the least row the other demands fail in the blocks before it. A stop
    scan with no failure makes the engine calls of one that collects every
    failure. In the restricted trials every row of every demand goes to
    the engine."""
    engine_calls = []

    def counted(*args):
        engine_calls.append(args[3])
        return is_solvable(*args)

    monkeypatch.setattr(numbers_mod, "is_solvable", counted)
    rng = random.Random(917)
    failing_trials = late_stops = mixed_stops = clean_stops = 0
    for trial in range(60):
        n = rng.randrange(2, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        adj = neighbor_lists(n, g.edges)
        demands = _demand_pool(n, rng) if n > 2 else \
            [Distribution.stacked(n, 0, t) for t in (1, 2)]
        mode = "greedy" if trial % 10 == 9 else "unrestricted"
        size = rng.randrange(1, 7)
        blocks = list(_ascending_blocks(n, size, block=7))
        memos = [{} for _ in demands]
        want = []
        for bi, rows in enumerate(blocks):
            for di, d in enumerate(demands):
                for row in rows.tolist():
                    if mode == "unrestricted":
                        ok = brute_solvable_memo(adj, row, d.demands,
                                                 memos[di])
                    else:
                        ok = brute_solvable(g, tuple(row), d.demands, mode)
                    if not ok:
                        want.append((bi, di, tuple(row)))
        failing_trials += bool(want)
        # scan order: block, then row (ascending rows are lex order), then
        # demand
        least_first = sorted(want, key=lambda w: (w[0], w[2], w[1]))

        seen = []

        def drawn():
            for rows in blocks:
                seen.append(rows)
                yield rows

        engine_calls.clear()
        first, fails, checked = _scan_chunk(g, demands, drawn(), stops=0,
                                            mode=mode)
        assert first is None
        assert [(di, c.counts) for di, c in fails] == \
            [(di, row) for _, di, row in want]
        assert len(seen) == len(blocks)
        assert all(np.array_equal(a, b) for a, b in zip(seen, blocks))
        assert sum(rows.shape[0] for rows in seen) == checked \
            == num_configs(n, size)
        if mode != "unrestricted":
            assert engine_calls == [mode] * (checked * len(demands))

        # all demands at once, then each alone (its first failure is often
        # past the first block)
        picks = [range(len(demands))] + [[di] for di in range(len(demands))]
        for pick in picks:
            seen.clear()
            engine_calls.clear()
            first, fails, checked = _scan_chunk(
                g, [demands[di] for di in pick], drawn(), stops=len(pick),
                mode=mode)
            assert fails == []
            hits = [(bi, list(pick).index(di), row)
                    for bi, di, row in least_first if di in pick]
            if hits:
                bi, di, row = hits[0]
                assert (first[0], first[1].counts) == (di, row)
                assert len(seen) == bi + 1
                assert checked == sum(b.shape[0] for b in blocks[:bi + 1])
                late_stops += bi > 0
            else:
                assert first is None and checked == num_configs(n, size)
                assert len(seen) == len(blocks)
                # a clean scan settles every rejected row of every demand,
                # as one that collects every failure does
                calls = len(engine_calls)
                engine_calls.clear()
                _scan_chunk(g, [demands[di] for di in pick], iter(blocks),
                            stops=0, mode=mode)
                assert calls == len(engine_calls)
                clean_stops += len(pick) > 1

        # the leading demands stop the scan, the rest are kept
        stops = 1
        seen.clear()
        first, fails, checked = _scan_chunk(g, demands, drawn(), stops=stops,
                                            mode=mode)
        hits = [(bi, di, row) for bi, di, row in want if di < stops]
        end = hits[0][0] if hits else len(blocks)
        kept = [(di, row) for bi, di, row in least_first
                if di >= stops and bi < end]
        assert [(di, c.counts) for di, c in fails] == kept[:1]
        if hits:
            assert (first[0], first[1].counts) == hits[0][1:]
            assert len(seen) == end + 1
            mixed_stops += any(bi < end and di >= stops for bi, di, _ in want)
        else:
            assert first is None and len(seen) == len(blocks)
    assert failing_trials >= 10 and late_stops >= 10 and mixed_stops >= 5
    assert clean_stops >= 5


def test_stop_failure_is_the_least_failing_row_in_any_demand_order():
    """On small random graphs, the stop failure of a scan whose demands all
    stop it is the least row that some demand fails, by
    oracles.brute_solvable, at the first demand in list order that fails
    it; permuting the demands leaves that row unchanged. With the first
    demand alone stopping and failing nothing, the first kept failure
    follows the same rule over the other demands."""
    rng = random.Random(2417)
    by_demand = kept_checked = 0
    for _ in range(30):
        n = rng.randrange(3, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        size = rng.randrange(2, 7)
        demands = _demand_pool(n, rng)
        unsolvable = {d: brute_unsolvable_set(g, d.demands, size)
                      for d in demands}

        def least(order):
            rows = [unsolvable[d][0] for d in order if unsolvable[d]]
            if not rows:
                return None
            row = min(rows)
            return next(k for k, d in enumerate(order)
                        if row in unsolvable[d]), row

        rows = set()
        for _ in range(4):
            order = rng.sample(demands, len(demands))
            stop, _, _ = _scan(g, order, size, stops=len(order))
            want = least(order)
            assert (stop and (stop[0], stop[1].counts)) == want
            rows.add(want and want[1])
            if want:
                # the rule of settling demand by demand in one block:
                # the first demand that fails, at its least row
                first = next(d for d in order if unsolvable[d])
                by_demand += unsolvable[first][0] != want[1]
            if not unsolvable[order[0]]:
                stop, kept, _ = _scan(g, order, size, stops=1)
                want = least(order[1:])
                assert stop is None
                assert [(k - 1, c.counts) for k, c in kept] == \
                    ([want] if want else [])
                kept_checked += want is not None
        assert len(rows) == 1
    assert by_demand >= 5 and kept_checked >= 5


def test_find_unsolvable_witness_path_example():
    p3 = path_graph(3)
    d = Distribution.stacked(3, 0, 1)
    res = find_unsolvable_witness(p3, d, 3)
    assert res.found and res.witness.counts == (0, 0, 3)
    assert not find_unsolvable_witness(p3, d, 4).found
    with pytest.raises(ValueError):
        find_unsolvable_witness(p3, d, -1)


def test_empty_demand_scans_without_the_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("an empty demand needs no engine call")

    monkeypatch.setattr(numbers_mod, "is_solvable", refuse)
    res = find_unsolvable_witness(path_graph(3), Distribution((0, 0, 0)), 4)
    assert not res.found and res.configs_checked == num_configs(3, 4)


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


def test_witness_scan_jobs_agree(petersen):
    d = Distribution.stacked(10, 0, 1)
    serial = find_unsolvable_witness(petersen, d, 9)
    parallel = find_unsolvable_witness(petersen, d, 9, jobs=2)
    assert serial.found and serial.witness == parallel.witness


def test_multi_demand_scan_reports_first_failure():
    p3 = path_graph(3)
    demands = [Distribution.stacked(3, 0, 1), Distribution.stacked(3, 2, 1)]
    stop, kept, _ = _scan(p3, demands, 3, stops=2)
    assert stop[0] == 0 and stop[1].counts == (0, 0, 3) and kept == []
    # with no stop demand every failure is kept, in demand order within
    # the one block
    stop, kept, checked = _scan(p3, demands, 3, stops=0)
    assert stop is None and checked == num_configs(3, 3)
    assert [(di, c.counts) for di, c in kept] == [(0, (0, 0, 3)),
                                                  (1, (3, 0, 0))]
    stop, kept, checked = _scan(p3, demands, 4, stops=2)
    assert stop is None and kept == []
    assert checked == num_configs(3, 4)


def test_pi_D_examples(petersen):
    p3 = path_graph(3)
    assert pi_D(p3, Distribution.stacked(3, 0, 1)) == 4
    k4 = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert pi_D(k4, Distribution.stacked(4, 0, 1)) == 4
    assert pi_D(petersen, Distribution.stacked(10, 0, 1)) == 10
    with pytest.raises(PebblingError):
        pi_D(p3, Distribution((0, 0, 0)))


def test_pi_D_matches_brute_force():
    """pi_D at one root and at a two-target demand, and pi_t over every
    root for t in {1, 2}, against brute_pi (the largest over the roots for
    pi_t)."""
    rng = random.Random(910)
    for trial in range(8):
        n = rng.randrange(3, 6)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        r = rng.randrange(n)
        demands = [0] * n
        demands[r] = 1
        assert pi_D(g, Distribution(tuple(demands))) == brute_pi(g, tuple(demands))
        demands[(r + 1 + rng.randrange(n - 1)) % n] = 1
        assert pi_D(g, Distribution(tuple(demands))) == brute_pi(g, tuple(demands))
        for t in (1, 2):
            want = max(brute_pi(g, Distribution.stacked(n, v, t).demands)
                       for v in range(n))
            assert pi_t(g, t) == want


def test_pi_t_examples():
    p3 = path_graph(3)
    assert pi_t(p3, 2) == 8
    tp = two_path([1])
    assert pi_t(tp.graph, 2) == two_path_pi_t(4, 2, 2) == 8


def test_pi_t_scans_only_the_answer_in_full():
    """On C8 at t = 2 the BFS-tree bound is 39 and the answer 32. The size
    search starts above the refused 31-pebble pile opposite the root and
    scans 32 in full, about 1.5 * 10^7 configurations in all."""
    c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    assert pi_t(c8, 2, roots=[0], budget=30_000_000) == 32


def test_target_check_without_expected_value_scans_once():
    """Without expected_pi, the demand classes ride along pi_t's size
    search as kept demands instead of being rescanned at pi_t."""
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    report = verify_target_conjecture(c6, 3)
    assert report["pass"] and report["pi_t"] == 24
    assert report["configs_checked"] < 10 ** 6


def test_target_check_without_expected_value_reports_the_first_failure():
    """At root 1 of the path 0-1-2, pi_t = 3, and the demand on vertex 0
    fails at (0, 0, 3): the first class failure kept at the first size
    where the stacked demand has none."""
    report = verify_target_conjecture(path_graph(3), 1, roots=[1])
    assert report["pi_t"] == 3 and not report["pass"]
    assert report["counterexample"] == {"demand": [1, 0, 0],
                                        "config": Configuration((0, 0, 3))}


def test_target_check_confirms_one_class_failure_at_pi_t(monkeypatch):
    """Once a class fails in a scan of the size search, the classes are no
    longer settled. At root 2 of P5, pi_t = 7, and the class on vertex 0
    fails on 19 size-7 rows, yet the engine refuses a class at size 7 once:
    the reported counterexample."""
    refused = []

    def counted(g, cfg, d, mode="unrestricted"):
        out = is_solvable(g, cfg, d, mode)
        if not out.solvable:
            refused.append((sum(getattr(cfg, "counts", cfg)), d.demands))
        return out

    p5 = path_graph(5)
    d0 = Distribution.stacked(5, 0, 1)
    assert len(find_unsolvable_witness(p5, d0, 7, collect_all=True)
               .witnesses) == 19
    monkeypatch.setattr(numbers_mod, "is_solvable", counted)
    report = verify_target_conjecture(p5, 1, roots=[2])
    assert report["pi_t"] == 7 and not report["pass"]
    assert report["counterexample"]["demand"] == [1, 0, 0, 0, 0]
    at_pi_t = [dem for size, dem in refused
               if size == 7 and dem != (0, 0, 1, 0, 0)]
    assert at_pi_t == [(1, 0, 0, 0, 0)]


def test_pi_D_scans_only_the_answer_in_full():
    """The size search starts one above the largest refused candidate: the
    tree's dust witness for a demand on one vertex, the one-vertex pile for
    the others. On P5 both are tight for these demands, whose witnesses
    come last in ascending order, so the answer's scan is nearly the whole
    charge."""
    p5 = path_graph(5)
    for vec, want in (((0, 0, 0, 0, 3), 48), ((0, 0, 0, 1, 2), 40)):
        budget = _Budget(num_configs(5, want) + 10)
        assert pi_D(p5, Distribution(vec), budget=budget) == want


def test_pile_is_one_pebble_short():
    """A pile at one vertex meets a demand exactly from sum_u d(u)
    2^dist(v, u) pebbles on: _pile fails the demand, and one more pebble on
    its vertex meets it."""
    rng = random.Random(913)
    for trial in range(20):
        n = rng.randrange(2, 7)
        g = build_graph(n, random_connected_edges(n, rng.randrange(0, 3), rng))
        d = Distribution(tuple(rng.randrange(3) for _ in range(n - 1))
                         + (1,))
        pile = _pile(g, d)
        assert not is_solvable(g, pile, d).solvable
        v = next(v for v, x in enumerate(pile.counts) if x)
        more = list(pile.counts)
        more[v] += 1
        assert is_solvable(g, tuple(more), d).solvable


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


def test_pi_t_certificate_pass_and_fail_paths():
    """With no demand classes, verify_target_conjecture certifies
    pi_t(G) = expected_pi over the stacked demands alone."""
    p3 = path_graph(3)
    ok = verify_target_conjecture(p3, 1, [], expected_pi=4)
    assert ok["pass"] and ok["counterexample"] is None
    assert ok["pi_t"] == 4 and ok["demand_count"] == 0
    lower = ok["lower_witness"]
    assert lower["witness"].size == 3
    assert not is_solvable(
        p3, lower["witness"],
        Distribution.stacked(3, lower["root"], 1)).solvable

    low = verify_target_conjecture(p3, 1, [], expected_pi=3)
    assert not low["pass"]
    assert low["counterexample"]["config"].size == 3
    assert low["counterexample"]["demand"] in ([1, 0, 0], [0, 1, 0], [0, 0, 1])

    high = verify_target_conjecture(p3, 1, [], expected_pi=5)
    assert not high["pass"] and high["lower_witness"] is None
    assert high["counterexample"] == {
        "reason": "no unsolvable configuration at size pi_t - 1"}

    with pytest.raises(PebblingError):
        verify_target_conjecture(p3, 0, [], expected_pi=4)


def test_pi_t_certificate_refuses_expected_values_below_one():
    """An expected value below 1 has no size expected - 1 to witness, so it
    is refused before any configuration is checked."""
    p4 = path_graph(4)
    for expected in (0, -2):
        for classes in ([], None):
            with pytest.raises(PebblingError, match="expected_pi must be at least 1"):
                verify_target_conjecture(p4, 1, classes, expected_pi=expected,
                                         budget=0)


def test_empty_root_lists_are_refused():
    """pi_t is a maximum over the roots, so an empty root list has no value:
    pi_t and both verify_target_conjecture forms refuse it before any
    configuration is checked, rather than reporting pi_t = 0."""
    p3 = path_graph(3)
    with pytest.raises(PebblingError, match="roots must name at least one"):
        pi_t(p3, 2, roots=[], budget=0)
    for classes, expected in ((None, None), ([], 4)):
        with pytest.raises(PebblingError, match="roots must name at least one"):
            verify_target_conjecture(p3, 1, classes, roots=[],
                                     expected_pi=expected, budget=0)


def test_default_lower_candidates_skip_the_all_pairs_matrix():
    # every root of the path rooted at an end has eccentricity 5, so the
    # Kneser stacks never apply and the all-pairs matrix is never built
    p6 = path_graph(6)
    assert verify_target_conjecture(p6, 1, [], expected_pi=32,
                                    roots=[0])["pass"]
    assert "metrics" not in p6.__dict__


def test_default_lower_candidates_match_the_all_pairs_rule(petersen):
    def all_pairs_rule(g, t, roots):
        cands = []
        diam = g.metrics.diameter
        for r in roots:
            cands.append((r, tree_dust_witness(_bfs_rooted_tree(g, r), t)))
            if diam == 2 and g.metrics.ecc[r] == 2:
                cands += [(r, build_C_t1(g, r, t)), (r, build_C_t2(g, r, t))]
        return cands

    for g in (petersen, kneser(6, 2), path_graph(5)):
        for t in (1, 2, 3):
            cands = list(_default_lower_candidates(g, t, range(g.n)))
            assert cands == all_pairs_rule(g, t, range(g.n))
            if g.n > 5:
                assert (0, build_C_t1(g, 0, t)) in cands


def test_pi_t_certificate_accepts_constructed_candidates(monkeypatch):
    """The caller's first candidate is refused, so the default candidates,
    which come after it, are never built."""

    def unbuilt(g, t, roots):
        raise AssertionError("default lower candidates were built")
        yield

    monkeypatch.setattr(numbers_mod, "_default_lower_candidates", unbuilt)
    tp = two_path([2, 1])
    n, d = tp.graph.n, tp.d
    expected = two_path_pi_t(n, d, 2)
    got = verify_target_conjecture(
        tp.graph, 2, [], expected_pi=expected,
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


def test_lower_witness_fallback_is_one_scan_over_the_requested_roots():
    """With no candidate of size expected_pi - 1, verify_target_conjecture
    finds its lower witness in one scan of that size over the stacked
    demands of every requested root. The scan stops at its first failure:
    the least row that some root fails, at the first root in the requested
    order that fails it. On C6 at t = 1 the BFS-tree dust witness has size
    10 and the diameter is 3, so no default candidate has size 7. On the
    5-cycle with a pendant vertex at 0, root 1 fails nothing of size 8
    (pi(G, 1) = 7), so the one scan reports root 2 after one block, where
    a scan per root charged the whole size for root 1 and then a block for
    root 2."""
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    c5p = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
    for g, pi, roots, root, witness in (
            (c6, 8, None, 2, (0, 0, 0, 0, 0, 7)),
            (c6, 8, [3, 0], 0, (0, 0, 0, 7, 0, 0)),
            (c5p, 9, [1, 2], 2, (0, 0, 0, 0, 1, 7))):
        report = verify_target_conjecture(g, 1, [], expected_pi=pi,
                                          roots=roots)
        assert report["pass"]
        assert report["lower_witness"] == {
            "root": root, "witness": Configuration(witness), "source": "scan"}
        size = pi - 1
        total = num_configs(g.n, size)
        assert total <= _BLOCK
        # the fallback's one block, then the clean scan at pi
        assert report["configs_checked"] == total + num_configs(g.n, pi)
        rows = [unrank_config(g.n, size, k).counts for k in range(total)]
        order = list(range(g.n)) if roots is None else roots
        at = rows.index(witness)
        for k, r in enumerate(order):
            d = Distribution.stacked(g.n, r, 1).demands
            assert all(brute_solvable(g, c, d) for c in rows[:at])
            if k <= order.index(root):
                assert brute_solvable(g, rows[at], d) == (r != root)


def test_scans_refuse_demands_of_the_wrong_length():
    """Every scan enters through numbers._scan, which refuses a demand
    vector shorter or longer than the vertex count, as the engine does,
    before it checks a configuration. verify_target_conjecture refuses one
    among its demand classes before it computes pi_t, so the refusal
    charges nothing to the budget."""
    p4 = path_graph(4)
    stacked = Distribution.stacked(4, 0, 1)
    for vec in ((0, 1, 0), (0, 1, 0, 0, 0)):
        d = Distribution(vec)
        budget = _Budget(10 ** 6)
        for call in (lambda: find_unsolvable_witness(p4, d, 3, budget=budget),
                     lambda: _scan(p4, [stacked, d], 3, stops=2, budget=budget),
                     lambda: pi_D(p4, d, budget=budget),
                     lambda: verify_target_conjecture(p4, 1, [vec], budget=budget),
                     lambda: verify_target_conjecture(p4, 1, [stacked, vec],
                                                      budget=budget),
                     lambda: verify_target_conjecture(p4, 1, [vec], expected_pi=8,
                                                      budget=budget)):
            with pytest.raises(PebblingError,
                               match="demand length must equal vertex count"):
                call()
            assert budget.spent == 0


def test_three_target_check_engine_calls_are_pinned(monkeypatch):
    """Every size-3 demand on the 2-path with one 2-vertex fan (n = 5,
    d = 2) at pi_3 = 13. The route, sink and forest rules and both
    lookahead levels run for three-target demands too, so the check makes
    9 engine calls: 8 rows the prescreen rejects, all solvable, and the
    one constructed lower witness. The forest rule took it from 13, where
    route and sink left 12 rows; with the one-move lookahead alone it made
    71, and with only the in-place test on three-target demands 3,521. The
    count is fixed by the prescreen, not by the claim."""
    verdicts = []

    def counted(*args):
        out = is_solvable(*args)
        verdicts.append(out.solvable)
        return out

    monkeypatch.setattr(numbers_mod, "is_solvable", counted)
    tp = two_path([2])
    report = verify_target_conjecture(tp.graph, 3,
                                      expected_pi=two_path_pi_t(5, 2, 3))
    assert report["pass"] and report["pi_t"] == 13
    assert report["demand_count"] == comb(7, 3)
    assert len(verdicts) == 9
    assert verdicts.count(False) == 1


def test_budget_is_enforced_and_reported(petersen):
    d = Distribution.stacked(10, 0, 1)
    with pytest.raises(BudgetExceededError) as info:
        find_unsolvable_witness(petersen, d, 10, budget=100)
    err = info.value
    assert err.cap == 100 and err.spent > 100
    assert "budget of 100 configuration checks exceeded" in str(err)


def test_parallel_scans_charge_per_chunk_and_match_serial(petersen):
    # size 12 has 293,930 rows, all solvable: a budget of exactly that many
    # lets the full scan finish, serial or in parallel chunks, and one less
    # is refused either way
    d = Distribution.stacked(10, 0, 1)
    assert num_configs(10, 12) == 293_930
    serial = find_unsolvable_witness(petersen, d, 12, budget=293_930)
    parallel = find_unsolvable_witness(petersen, d, 12, jobs=2,
                                       budget=293_930)
    assert parallel == serial
    assert not serial.found and serial.configs_checked == 293_930
    for jobs in (1, 2):
        with pytest.raises(BudgetExceededError):
            find_unsolvable_witness(petersen, d, 12, jobs=jobs, budget=293_929)
    # a witness in the first chunk: the same witness and count as serial
    d2 = Distribution.stacked(10, 0, 2)
    serial = find_unsolvable_witness(petersen, d2, 12)
    parallel = find_unsolvable_witness(petersen, d2, 12, jobs=2)
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


def test_bad_jobs_and_budgets_are_refused(petersen, monkeypatch):
    """jobs below 1 and negative budgets are refused before any scan, from
    an argument or from PEBBLEKIT_BUDGET; a budget of 0 is a cap that the
    first configuration checked exceeds."""
    d = Distribution.stacked(10, 0, 1)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            find_unsolvable_witness(petersen, d, 9, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            pi_t(petersen, 1, roots=0, jobs=jobs)
    # the lower-witness candidates are checked before the scan, so the
    # refusal comes first
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify_target_conjecture(petersen, 2, expected_pi=13, jobs=0,
                                 budget=0)
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        find_unsolvable_witness(petersen, d, 9, budget=-1)
    with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
        pi_D(petersen, d, budget=-5)
    with pytest.raises(BudgetExceededError) as info:
        find_unsolvable_witness(petersen, d, 9, budget=0)
    assert info.value.cap == 0
    monkeypatch.setenv("PEBBLEKIT_BUDGET", "-1")
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        pi_D(petersen, d)
    monkeypatch.setenv("PEBBLEKIT_BUDGET", "0")
    with pytest.raises(BudgetExceededError):
        pi_D(petersen, d)


def test_rooted_tree_rejects_non_trees():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(FamilyError):
        RootedTree(tri, 0)
    with pytest.raises(FamilyError):
        RootedTree(path_graph(3), 5)
