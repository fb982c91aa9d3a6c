import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve.counting import (
    count_elim_forests,
    count_elim_trees,
    eval_h,
)
from tdsolve.forest import RootedForest
from tdsolve.graph import Graph, centroid_forest, dfs_elimination_forest
from tdsolve.oracle import (
    brute_count_sensible,
    brute_td,
    clique,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    empty_graph,
    path,
    random_graph,
)
from tdsolve.polyring import ExactRing, ModularRing, poly_trim, sample_prime


def chain(n):
    return RootedForest([i - 1 for i in range(n)])


def test_single_vertex():
    assert count_elim_trees(empty_graph(1), chain(1), 1) == 1


def test_k2_needs_depth_two():
    k2 = path(2)
    assert count_elim_trees(k2, chain(2), 1) == 0
    assert count_elim_trees(k2, chain(2), 2) == 2


def test_k3_all_orders():
    assert count_elim_trees(clique(3), chain(3), 3) == 6


def test_p3_star_budget_two():
    g = path(3)
    assert count_elim_trees(g, RootedForest([1, -1, 1]), 2) == 1
    assert count_elim_trees(g, chain(3), 2) == 1


def test_weighted_recovers_unique_root_index():
    # only the middle vertex can root a depth-2 tree of P3; with weight j+1 on
    # vertex j the total is that unique tree times the middle's weight
    g = path(3)
    t = RootedForest([1, -1, 1])
    assert count_elim_trees(g, t, 2, weights=[1, 2, 3]) == 2


def test_all_one_weights_match_unweighted():
    g = cycle(4)
    t = dfs_elimination_forest(g)
    for d in (3, 4):
        assert count_elim_trees(g, t, d) == count_elim_trees(g, t, d, weights=[1] * 4)


def test_matches_bruteforce_on_catalog():
    for g in connected_graphs_up_to(5):
        t = dfs_elimination_forest(g)
        for d in range(1, 6):
            assert count_elim_trees(g, t, d) == brute_count_sensible(g, t, d)


def test_aux_tree_must_bind_edges():
    g = path(3)
    bad = RootedForest([-1, 0, 0])  # siblings 1, 2 but edge (1, 2)
    with pytest.raises(ValueError):
        count_elim_trees(g, bad, 3)


def test_aux_forest_must_be_tree():
    g = empty_graph(2)
    with pytest.raises(ValueError):
        count_elim_trees(g, RootedForest([-1, -1]), 2)


def test_forest_version_products():
    two = empty_graph(2)
    assert count_elim_forests(two, RootedForest([-1, -1]), 1) == 1
    k2_k1 = disjoint_union(path(2), empty_graph(1))
    assert count_elim_forests(k2_k1, dfs_elimination_forest(k2_k1), 1) == 0
    k2_k2 = disjoint_union(path(2), path(2))
    assert count_elim_forests(k2_k2, dfs_elimination_forest(k2_k2), 2) == 4


def test_forest_version_restricts_spanning_chain():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert count_elim_forests(g, chain(4), 2) == 4


def test_positivity_iff_feasible_with_any_valid_tree():
    for g in connected_graphs_up_to(5):
        td = brute_td(g)
        t = dfs_elimination_forest(g)
        for d in range(1, 6):
            assert (count_elim_trees(g, t, d) > 0) == (td <= d)


def test_truncation_invariance_catalog():
    for g in connected_graphs_up_to(4):
        t = dfs_elimination_forest(g)
        for d in range(1, 5):
            tight = count_elim_trees(g, t, d)
            wide = count_elim_trees(g, t, d, cap=g.n + 1)
            assert tight == wide


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_modular_matches_exact_mod_p(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed)
    t = dfs_elimination_forest(g)
    d = rng.randrange(1, 5)
    p = sample_prime(100, rng)
    exact = count_elim_forests(g, t, d, ExactRing())
    modular = count_elim_forests(g, t, d, ModularRing(p))
    assert modular == exact % p


def test_weighted_sum_decomposes_over_roots():
    # weights (j+1) recover sum over feasible roots of (count rooted there) * weight
    g = cycle(4)
    t = dfs_elimination_forest(g)
    d = 3
    per_root = []
    for v in range(4):
        w = [0] * 4
        w[v] = 1
        per_root.append(count_elim_trees(g, t, d, weights=w))
    assert sum(per_root) == count_elim_trees(g, t, d)
    weighted = count_elim_trees(g, t, d, weights=[j + 1 for j in range(4)])
    assert weighted == sum((j + 1) * per_root[j] for j in range(4))


def test_eval_h_k2_full_polynomial():
    # free term: the two genuine orderings; the linear term: the one mapping
    # that collapses both endpoints onto a single placement
    assert eval_h(path(2), chain(2), 2) == (2, 1)


def test_eval_h_infeasible_budget_has_zero_free_term():
    h = eval_h(path(2), chain(2), 1)
    assert not h or h[0] == 0


def test_eval_h_single_vertex():
    assert eval_h(empty_graph(1), chain(1), 1) == (1,)


def test_eval_h_free_term_is_the_count():
    p = 3
    ring = ModularRing(p)
    for g in connected_graphs_up_to(4):
        t = dfs_elimination_forest(g)
        for d in range(1, 5):
            for w in (None, [v + 1 for v in range(g.n)]):
                h = eval_h(g, t, d, weights=w)
                assert (h[0] if h else 0) == count_elim_trees(g, t, d, weights=w)
                assert len(h) <= d * t.max_depth
                # under a modular ring: the exact polynomial reduced mod p and
                # trimmed (the weighted leading terms can vanish mod 3)
                reduced = [c % p for c in h]
                while reduced and reduced[-1] == 0:
                    reduced.pop()
                assert eval_h(g, t, d, ring, w) == tuple(reduced)
            # a cap below min(d * depth(t), n + 1) could cut off degrees the
            # free term needs, so it is refused
            if min(d * t.max_depth, g.n + 1) > 1:
                with pytest.raises(ValueError):
                    eval_h(g, t, d, cap=1)
                with pytest.raises(ValueError):
                    count_elim_trees(g, t, d, cap=1)
            else:
                assert eval_h(g, t, d, cap=1) == eval_h(g, t, d)


def test_positivity_independent_of_auxiliary_tree():
    # the count depends on T, but whether it is nonzero only depends on the graph
    from tdsolve.oracle import all_elimination_trees

    for g in connected_graphs_up_to(4):
        td = brute_td(g)
        for d in range(1, 5):
            flags = {
                count_elim_trees(g, t, d) > 0
                for t in all_elimination_trees(g, g.n)
            }
            assert flags == {td <= d}


def test_count_equality_slice_at_six_vertices():
    # spot-check the exhaustive-oracle agreement one size above the full sweep
    cat = connected_graphs_up_to(6)
    for g in cat[-145::24]:
        if g.n != 6:
            continue
        t = dfs_elimination_forest(g)
        d = brute_td(g)
        assert count_elim_trees(g, t, d) == brute_count_sensible(g, t, d)


def test_coefficient_bounds_hold_on_small_runs():
    for g in connected_graphs_up_to(4):
        t = dfs_elimination_forest(g)
        for d in range(1, 5):
            count_elim_trees(g, t, d, check_bounds=True)  # raises on violation


def test_bound_checking_requires_exact_unweighted():
    g = path(2)
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(2), 2, ring=ModularRing(7), check_bounds=True)
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(2), 2, weights=[1, 2], check_bounds=True)


# eval_h pinned as literals, recorded before pending() picked its moves by
# bitmask: (label, n, edges, parent array of t, d, weights, coefficients).  Weights: "exact" is unweighted over the integers, "index"
# gives vertex v the weight v + 1, "mod" does the same under ModularRing
# (1000003), and "01" gives vertex v the weight v % 2.  The kite and wheel
# cases have leaves of t with two or three ancestor-neighbours; in the stars
# every non-root vertex of t is a leaf.
PINNED_EVAL_H = [
    ("P2 chain", 2, [(0, 1)],
     [-1, 0], 2, "exact", (2, 1)),
    ("P4 chain", 4, [(0, 1), (1, 2), (2, 3)],
     [-1, 0, 1, 2], 3, "exact", (10, 41, 14, 1)),
    ("P5 dfs", 5, [(0, 1), (1, 2), (2, 3), (3, 4)],
     [-1, 0, 1, 2, 3], 3, "exact", (8, 89, 168, 30, 1)),
    ("P7 centroid", 7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
     [1, 3, 1, -1, 5, 3, 5], 3, "exact", (1, 80, 595, 1331, 982, 75, 1)),
    ("C5 dfs", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],
     [-1, 0, 1, 2, 3], 4, "exact", (50, 290, 160, 30, 1)),
    ("C6 dfs", 6, [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)],
     [-1, 0, 1, 2, 3, 4], 4, "exact", (48, 810, 1898, 576, 62, 1)),
    ("K4 chain", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
     [-1, 0, 1, 2], 4, "exact", (24, 36, 14, 1)),
    ("K23 dfs", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
     [-1, 2, 0, 1, 1], 3, "exact", (2, 33, 148, 29, 1)),
    ("rand7 dfs", 7, [(0, 1), (0, 2), (0, 6), (1, 5), (2, 4), (2, 5), (3, 6), (4, 5), (5, 6)],
     [-1, 0, 5, 6, 2, 1, 5], 4, "exact", (24, 840, 5170, 8336, 1665, 117, 1)),
    ("tree8 centroid", 8, [(0, 1), (0, 2), (0, 6), (1, 3), (3, 4), (4, 5), (4, 7)],
     [1, -1, 0, 4, 1, 4, 0, 4], 3, "exact", (2, 106, 961, 3327, 4933, 2865, 144, 1)),
    ("kite branch", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
     [-1, 0, 1, 1], 3, "exact", (2, 33, 13, 1)),
    ("kite branch d4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
     [-1, 0, 1, 1], 4, "exact", (22, 33, 13, 1)),
    ("wheelish", 5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)],
     [-1, 0, 1, 2, 2], 4, "exact", (26, 248, 147, 29, 1)),
    ("wheelish d3", 5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)],
     [-1, 0, 1, 2, 2], 3, "exact", (0, 26, 147, 29, 1)),
    ("star5", 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
     [-1, 0, 0, 0, 0], 2, "exact", (1, 4, 6, 4)),
    ("star5 d3", 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
     [-1, 0, 0, 0, 0], 3, "exact", (5, 22, 84, 19, 1)),
    ("star6 weighted", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
     [-1, 0, 0, 0, 0, 0], 2, "index", (1, 20, 155, 580)),
    ("star5 mod", 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
     [-1, 0, 0, 0, 0], 3, "mod", (15, 127, 874, 513, 120)),
    ("star5 01", 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
     [-1, 0, 0, 0, 0], 3, "01", (2, 7, 25, 3)),
    ("C5 mod", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],
     [-1, 0, 1, 2, 3], 3, "mod", (0, 280, 1315, 599, 120)),
    ("K4 mod", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
     [-1, 0, 1, 2], 4, "mod", (60, 130, 95, 24)),
    ("kite mod", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
     [-1, 0, 1, 1], 3, "mod", (3, 125, 93, 24)),
    ("rand8 mod", 8, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 5), (2, 4), (2, 5), (2, 7), (3, 4), (5, 6), (5, 7)],
     [-1, 0, 5, 4, 2, 1, 5, 2], 4, "mod", (8, 11354, 218290, 298495, 636738, 179445, 312839, 40320)),
    ("P6 mod", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
     [-1, 0, 1, 2, 3, 4], 3, "mod", (14, 861, 6544, 12812, 4319, 720)),
    ("C5 01", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],
     [-1, 0, 1, 2, 3], 4, "01", (20, 92, 35, 3)),
    ("kite 01", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
     [-1, 0, 1, 1], 4, "01", (11, 13, 3)),
    ("wheelish 01", 5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)],
     [-1, 0, 1, 2, 2], 4, "01", (8, 78, 33, 3)),
    ("P6 centroid 01", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
     [2, 0, -1, 4, 2, 4], 3, "01", (2, 41, 142, 110, 7)),
    ("rand7 01", 7, [(0, 1), (0, 4), (0, 6), (1, 4), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)],
     [3, 4, 3, -1, 0, 4, 4], 4, "01", (3, 71, 570, 907, 119, 3)),
    ("C6 index", 6, [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)],
     [-1, 0, 1, 2, 3, 4], 3, "index", (0, 283, 4709, 12350, 4319, 720)),
]


@pytest.mark.parametrize(
    "label,n,edges,parents,d,mode,expected", PINNED_EVAL_H, ids=[c[0] for c in PINNED_EVAL_H]
)
def test_eval_h_pinned(label, n, edges, parents, d, mode, expected):
    g = Graph.from_edges(n, edges)
    t = RootedForest(parents)
    ring = ModularRing(1000003) if mode == "mod" else None
    weights = None
    if mode in ("index", "mod"):
        weights = [v + 1 for v in range(n)]
    elif mode == "01":
        weights = [v % 2 for v in range(n)]
    assert eval_h(g, t, d, ring, weights) == expected


def test_single_vertex_is_its_weight_and_keeps_the_checks():
    g = empty_graph(1)
    ring = ModularRing(7)
    for d in (1, 3):
        assert count_elim_trees(g, chain(1), d, ring, weights=[9]) == 2
        assert eval_h(g, chain(1), d, ring, weights=[9]) == (2,)
        assert count_elim_trees(g, chain(1), d, ring, weights=[7]) == 0
        assert eval_h(g, chain(1), d, ring, weights=[7]) == ()
        assert count_elim_trees(g, chain(1), d, weights=[0]) == 0
        assert count_elim_trees(g, chain(1), d) == 1
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(2), 2)
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(1), 2, weights=[1, 1])
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(1), 2, weights=[2], check_bounds=True)
    with pytest.raises(ValueError):
        count_elim_trees(g, chain(1), 2, cap=0)


def test_modular_count_is_the_exact_count_mod_p():
    # a modular count is made in integers and reduced once, at the end
    rng = random.Random(8)
    for p in (101, sample_prime(1 << 62, rng)):
        ring = ModularRing(p)
        for g in connected_graphs_up_to(6):
            t = centroid_forest(g)
            d = rng.randrange(1, 5)
            w = rng.choice([None, [rng.randrange(3 * p) for _ in range(g.n)]])
            exact = eval_h(g, t, d, weights=w)
            assert eval_h(g, t, d, ring, w) == tuple(poly_trim([c % p for c in exact]))
            assert count_elim_trees(g, t, d, ring, w) == (exact[0] % p if exact else 0)
