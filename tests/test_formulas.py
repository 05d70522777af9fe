"""Closed-form values, their parameter validation, and extremal builders."""

from fractions import Fraction
from math import comb

import pytest

from pebblekit import (
    Configuration,
    Distribution,
    FormulaError,
    KneserParams,
    build_C_t1,
    build_C_t2,
    build_J_r,
    build_graph,
    find_unsolvable_witness,
    is_solvable,
    kneser,
    kneser_p,
    metrics,
    spinal_pi,
    stats,
    tree_pi,
    two_path_pi_t,
)

from oracles import brute_pi


def test_tree_pi_examples():
    for d in range(1, 7):
        for t in (1, 2, 3):
            assert tree_pi((d,), t) == t * (1 << d)
    assert tree_pi((2, 1, 1), 1) == 6
    assert tree_pi((5, 1), 2) == 65
    assert tree_pi((1, 1, 1), 1) == 4


def test_tree_pi_small_spider_values_match_exhaustive_search():
    # legs of 2, 1, 1 edges from the root realize the partition (2, 1, 1)
    spider = build_graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    assert brute_pi(spider, (1, 0, 0, 0, 0)) == 6
    # a 3-leaf star rooted at one leaf realizes (2, 1)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert tree_pi((2, 1), 1) == 5
    assert brute_pi(star, (0, 1, 0, 0)) == 5


def test_tree_pi_spider_value_matches_exhaustive_search():
    # legs of 3, 2, 1 edges, rooted at the far tip of the long leg:
    # partition (5, 1), single-pebble value 33
    spider = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    assert tree_pi((5, 1), 1) == 33
    d = Distribution.stacked(7, 0, 1)
    assert find_unsolvable_witness(spider, d, 32).found
    assert not find_unsolvable_witness(spider, d, 33).found


def test_tree_pi_validation():
    with pytest.raises(FormulaError):
        tree_pi((), 1)
    with pytest.raises(FormulaError):
        tree_pi((1, 2), 1)
    with pytest.raises(FormulaError):
        tree_pi((2, 0), 1)
    with pytest.raises(FormulaError):
        tree_pi((2,), 0)


def test_two_path_pi_t_examples():
    assert two_path_pi_t(4, 2, 1) == 4
    assert two_path_pi_t(14, 4, 1) == 22
    assert two_path_pi_t(4, 2, 3) == 12
    with pytest.raises(FormulaError):
        two_path_pi_t(3, 1, 1)
    with pytest.raises(FormulaError):
        two_path_pi_t(4, 4, 1)
    with pytest.raises(FormulaError):
        two_path_pi_t(4, 2, 0)


def test_spinal_pi_cases_and_bound():
    # the simplicial root maximizes the value
    for n in range(4, 15):
        for d in range(2, n):
            top = (1 << d) + n - d - 1
            assert spinal_pi(n, d, d, True) == top
            for ecc in range((d + 1) // 2, d + 1):
                assert spinal_pi(n, d, ecc, True) <= top
            for ecc in range(1, d + 1):
                assert spinal_pi(n, d, ecc, False) <= top
    assert spinal_pi(14, 4, 3, True) == 8 + 2 + 14 - 4 - 2
    assert spinal_pi(14, 4, 3, False) == 8 + 4 + 14 - 4 - 3


def test_spinal_pi_validation():
    with pytest.raises(FormulaError):
        spinal_pi(6, 3, 0, True)
    with pytest.raises(FormulaError):
        spinal_pi(6, 3, 4, True)
    with pytest.raises(FormulaError):
        spinal_pi(6, 3, 1, True)  # spinal eccentricity is at least ceil(d/2)
    with pytest.raises(FormulaError):
        spinal_pi(6, 3, 4, False)


def test_kneser_p_examples():
    assert kneser_p(KneserParams(5, 1))["p"] == 10
    got = kneser_p(KneserParams(5, 2))
    assert got == {"p1": 12, "p2": 13, "p": 13}
    at_crossover = kneser_p(KneserParams(6, 3))
    assert at_crossover["p1"] == at_crossover["p2"] == at_crossover["p"] == 19


def test_kneser_params_fields():
    kp = KneserParams(5, 2)
    assert kp.n == 10 and kp.t0 == Fraction(3, 2)
    assert KneserParams(6, 1).t0 == 3
    with pytest.raises(FormulaError):
        KneserParams(4, 1)
    with pytest.raises(FormulaError):
        KneserParams(5, 0)
    # n and t0 follow from m: passing either is refused, not overwritten
    for args, kwargs in (((5, 1, 999), {}), ((5, 1), {"n": 999}),
                         ((5, 1), {"t0": Fraction(7)})):
        with pytest.raises(TypeError):
            KneserParams(*args, **kwargs)


def test_kneser_p_branch_agrees_with_max():
    for m in range(5, 13):
        for t in range(1, 21):
            kp = KneserParams(m, t)
            got = kneser_p(kp)
            assert got["p1"] == kp.n + 2 * t - 2
            assert got["p2"] == 4 * t + 2 * m - 5
            assert got["p"] == max(got["p1"], got["p2"])
            if t <= kp.t0:
                assert got["p1"] >= got["p2"]
            if t >= kp.t0:
                assert got["p2"] >= got["p1"]


def test_build_C_t1(petersen):
    assert build_C_t1(petersen, 0, 1) == build_J_r(petersen, 0)
    c = build_C_t1(petersen, 0, 2)
    assert c.size == 11 and stats(c)["potential"] == 1
    assert c.counts[0] == 0
    assert c.counts[1] == 3  # stack of 2t-1 on the least distance-2 vertex
    k62 = kneser(6, 2)
    c = build_C_t1(k62, 0, 1)
    assert c.size == 14 == kneser_p(KneserParams(6, 1))["p1"] - 1
    for m in (5, 6):
        g = kneser(m, 2)
        for t in (1, 2, 3):
            assert build_C_t1(g, 0, t).size == g.n + 2 * t - 3


def test_build_C_t2(petersen):
    c = build_C_t2(petersen, 0, 2)
    dist = metrics(petersen).dist
    assert c.size == 12
    assert c.counts[1] == 7  # 4t-1 on the least distance-2 vertex
    assert all(c.counts[v] == 1
               for v in range(10) if dist[0][v] == 2 and v != 1)
    assert all(c.counts[v] == 0
               for v in range(10) if dist[0][v] <= 1)
    assert build_C_t2(petersen, 0, 1).size == 8
    k62 = kneser(6, 2)
    assert build_C_t2(k62, 0, 2).size == 14 == kneser_p(KneserParams(6, 2))["p2"] - 1
    for m in (5, 6):
        g = kneser(m, 2)
        for t in (1, 2, 3):
            assert build_C_t2(g, 0, t).size == 4 * t + 2 * (m - 2) - 2


def test_build_J_r(petersen):
    jr = build_J_r(petersen, 0)
    assert jr.size == 9 and jr.counts[0] == 0
    assert set(jr.counts[1:]) == {1}
    k2 = build_graph(2, [(0, 1)])
    assert build_J_r(k2, 0).counts == (0, 1)
    assert stats(jr)["potential"] == 0


def test_extremal_builders_are_unsolvable_on_petersen(petersen):
    # the doubled- and quadrupled-stack configurations miss their demand
    for t in (1, 2, 3):
        d = Distribution.stacked(10, 0, t)
        assert not is_solvable(petersen, build_C_t1(petersen, 0, t), d).solvable
        assert not is_solvable(petersen, build_C_t2(petersen, 0, t), d).solvable


def test_two_fold_two_path_value_dominates_tree_value():
    # doubling the demand costs more than the worst rooted spanning tree
    for n in range(4, 22):
        for d in range(2, n):
            assert two_path_pi_t(n, d, 2) >= (1 << d) + n - d - 1
