import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve.graph import dfs_elimination_forest
from tdsolve.oracle import (
    all_elimination_trees,
    bounded,
    brute_count_sensible,
    brute_td,
    candidate_roots,
    clique,
    complete_bipartite,
    connected_graph_catalog,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    empty_graph,
    path,
    random_graph,
    random_tree,
    relabel,
)


def test_brute_td_cliques_and_paths():
    for n in range(1, 6):
        assert brute_td(clique(n)) == n
    assert brute_td(path(3)) == 2
    assert brute_td(path(7)) == 3


def test_brute_td_cycles():
    # depth of a cycle: one more than the best split of the remaining path
    assert brute_td(cycle(4)) == 3
    assert brute_td(cycle(5)) == 4
    assert brute_td(cycle(8)) == 4


def test_brute_td_c5_matches_exhaustive_enumeration():
    c5 = cycle(5)
    assert sum(1 for _ in all_elimination_trees(c5, 3)) == 0
    assert sum(1 for _ in all_elimination_trees(c5, 4)) > 0
    assert brute_td(c5) == 4


def test_brute_td_disconnected_max():
    g = disjoint_union(clique(3), path(2))
    assert brute_td(g) == 3


def test_brute_td_size_guard():
    with pytest.raises(ValueError):
        brute_td(empty_graph(21))


@given(st.integers(0, 500))
@settings(max_examples=40)
def test_brute_td_isomorphism_invariant(seed):
    n = 3 + seed % 5
    g = random_graph(n, min(2 * n, n * (n - 1) // 2), seed)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert brute_td(g) == brute_td(relabel(g, perm))


def test_count_sensible_small_cases():
    assert brute_count_sensible(clique(1), dfs_elimination_forest(clique(1)), 1) == 1
    k2 = path(2)
    assert brute_count_sensible(k2, dfs_elimination_forest(k2), 2) == 2
    k3 = clique(3)
    assert brute_count_sensible(k3, dfs_elimination_forest(k3), 3) == 6


def test_count_sensible_positive_iff_feasible():
    for g in connected_graphs_up_to(5):
        t = dfs_elimination_forest(g)
        td = brute_td(g)
        for d in range(1, 6):
            cnt = brute_count_sensible(g, t, d)
            assert (cnt > 0) == (td <= d)


def test_generators_basic():
    assert sorted(path(3).edges()) == [(0, 1), (1, 2)]
    assert clique(4).m == 6
    assert complete_bipartite(2, 3).m == 6
    assert cycle(5).m == 5
    g1 = random_graph(10, 15, seed=4)
    g2 = random_graph(10, 15, seed=4)
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert random_graph(10, 15, seed=5).m == 15


def test_random_tree_is_tree():
    g = random_tree(12, 9)
    assert g.m == 11
    from tdsolve.graph import connected_components

    assert len(connected_components(g)) == 1


def test_bounded_is_connected_within_its_depth():
    from tdsolve.graph import connected_components

    for n in range(1, 9):
        for d in range(2, 5):
            for seed in range(4):
                g = bounded(n, d, seed)
                assert g.n == n and len(connected_components(g)) == 1
                assert brute_td(g) <= d
    assert sorted(bounded(30, 3, 1).edges()) == sorted(bounded(30, 3, 1).edges())
    assert bounded(1, 1, 0).n == 1
    with pytest.raises(ValueError):
        bounded(2, 1, 0)


def test_catalog_counts():
    # connected graphs per vertex count, up to isomorphism
    assert [len(connected_graph_catalog(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_candidate_roots_examples():
    assert candidate_roots(path(3), 2) == {1}
    star = complete_bipartite(1, 3)
    assert candidate_roots(star, 2) == {0}
