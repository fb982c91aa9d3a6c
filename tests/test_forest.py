import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve import oracle
from tdsolve.forest import (
    RootedForest,
    expand_contracted_forest,
    lift_simplicial,
    split_components,
    unbound_edge,
    validate_elimination_forest,
)
from tdsolve.graph import (
    Graph,
    centroid_forest,
    connected_components,
    contract_matching,
    dfs_elimination_forest,
    greedy_maximal_matching,
    induced_subgraph,
)
from tdsolve.oracle import (
    all_elimination_trees,
    ancestor_related,
    brute_td,
    check_sensible,
    clique,
    closure,
    comparable,
    complete_bipartite,
    cycle,
    descendants,
    disjoint_union,
    empty_graph,
    is_ancestor,
    parent_array,
    path,
    random_graph,
    random_tree,
    tail,
)


def chain(n):
    return RootedForest([i - 1 for i in range(n)])


def test_depths_and_roots():
    f = chain(3)
    assert [f.depth_of(v) for v in range(3)] == [1, 2, 3]
    assert f.roots == [0] and f.max_depth == 3


def test_cycle_detection():
    with pytest.raises(ValueError):
        RootedForest([1, 0])


def test_tail_tree_comp_on_chain():
    f = chain(3)
    assert tail(f, 2) == {0, 1, 2}
    assert descendants(f, 0) == {0, 1, 2}
    assert comparable(f, 1) == {0, 1, 2}
    assert tail(f, 1) - {1} == {0}


def test_every_vertex_its_own_ancestor():
    f = RootedForest([-1, 0, 0, -1])
    for v in range(4):
        assert is_ancestor(f, v, v)
        assert ancestor_related(f, v, v)


def test_two_roots_unrelated():
    f = RootedForest([-1, -1])
    assert closure(f, {0, 1}) == {0, 1}
    assert not ancestor_related(f, 0, 1)


def test_validate_elimination_forest():
    g = path(3)
    star_mid = RootedForest([1, -1, 1])
    assert validate_elimination_forest(g, star_mid, 2)
    assert not validate_elimination_forest(g, chain(3), 2)  # depth 3
    k2 = path(2)
    assert not validate_elimination_forest(k2, RootedForest([-1, -1]), 2)


def random_parent_array(n, rng):
    """An acyclic parent array: each vertex, taken in a random order, is a
    new root or hangs below a vertex taken before it."""
    order = rng.sample(range(n), n)
    parent = [-1] * n
    for i, v in enumerate(order):
        if i and rng.random() < 0.8:
            parent[v] = order[rng.randrange(i)]
    return parent


def walk_validate(g, f, d):
    """The parent-walking reference for validate_elimination_forest."""
    return (
        f.n == g.n
        and (g.n == 0 or f.max_depth <= d)
        and all(ancestor_related(f, u, v) for u, v in g.edges())
    )


def test_subtree_sizes_count_descendants():
    rng = random.Random(5)
    for n in range(12):
        f = RootedForest(random_parent_array(n, rng))
        assert f.subtree_sizes() == [len(descendants(f, v)) for v in range(n)]
        first = {v: i for i, v in enumerate(f.preorder())}
        assert sorted(first) == list(range(n))
        size = f.subtree_sizes()
        for v in range(n):
            run = f.preorder()[first[v] : first[v] + size[v]]
            assert set(run) == descendants(f, v)


def test_validation_agrees_with_the_parent_walk():
    seen = {"valid": 0, "unbound": 0, "too_deep": 0, "roots": 0, "size": 0}
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(0, 11)
        f = RootedForest(random_parent_array(n, rng))
        if seed % 2:
            # edges from pairs f relates, and sometimes one pair it does not
            tails = [tail(f, v) for v in range(n)]
            pairs = [(u, v) for v in range(n) for u in tails[v] if u != v]
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            apart = [
                (u, v) for v in range(n) for u in range(v) if u not in tails[v] and v not in tails[u]
            ]
            if apart and rng.random() < 0.5:
                edges.append(rng.choice(apart))
            g = Graph.from_edges(n, edges)
        else:
            g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        forests = [f, chain(n), dfs_elimination_forest(g), chain(n + 1)]
        for h in forests:
            if h.n == g.n:
                walk_edge = next((e for e in g.edges() if not ancestor_related(h, *e)), None)
                assert unbound_edge(g, h) == walk_edge
                seen["unbound"] += walk_edge is not None
                seen["roots"] += len(h.roots) > 1 and walk_edge is None
            for d in range(n + 2):
                ok = walk_validate(g, h, d)
                assert validate_elimination_forest(g, h, d) == ok
                seen["valid"] += ok
                seen["too_deep"] += h.n == g.n > 0 and h.max_depth > d
                seen["size"] += h.n != g.n
    assert min(seen.values()) > 100, seen


def test_validation_and_counting_never_walk_parents(monkeypatch):
    from tdsolve.counting import count_elim_trees
    from tdsolve.oracle import brute_count_sensible

    g = cycle(5)
    t = dfs_elimination_forest(g)
    expected = brute_count_sensible(g, t, 4)

    def refuse(*args):
        raise AssertionError("parent walk")

    monkeypatch.setattr(RootedForest, "parent", refuse)
    for name in ("is_ancestor", "ancestor_related", "tail"):
        monkeypatch.setattr(oracle, name, refuse)
    star = complete_bipartite(1, 3999)
    assert validate_elimination_forest(star, chain(4000), 4000)
    assert not validate_elimination_forest(path(3), RootedForest([-1, 0, 0]), 3)
    assert count_elim_trees(g, t, 4) == expected


def test_counter_names_the_first_unbound_edge():
    from tdsolve.counting import count_elim_trees

    g = cycle(5)  # edges in order: (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)
    star = RootedForest([-1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"does not bind edge \(1, 2\)$"):
        count_elim_trees(g, star, 5)
    fork = RootedForest([-1, 0, 1, 2, 2])
    with pytest.raises(ValueError, match=r"does not bind edge \(3, 4\)$"):
        count_elim_trees(g, fork, 5)


def test_restrict_splits_isolated_vertices():
    parts = split_components(empty_graph(2), chain(2))
    assert [(verts, parent_array(subt)) for verts, _, subt in parts] == [([0], [-1]), ([1], [-1])]


def test_restrict_two_edges_chain():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    parts = split_components(g, chain(4))
    assert [(verts, parent_array(subt)) for verts, _, subt in parts] == [([0, 1], [-1, 0]), ([2, 3], [-1, 0])]


@given(st.integers(0, 300))
@settings(max_examples=50)
def test_restrict_never_deepens(seed):
    n = 2 + seed % 6
    g = Graph.from_edges(n, [])
    from tdsolve.oracle import random_graph

    g = random_graph(n, (seed % (n * (n - 1) // 2 + 1)), seed)
    f = chain(n)
    for verts, _, subt in split_components(g, f):
        for i, v in enumerate(verts):
            assert subt.depth_of(i) <= f.depth_of(v)


def test_expand_contracted_k2():
    f = RootedForest([-1])
    out = expand_contracted_forest(f, [(0, 1)])
    assert parent_array(out) == [-1, 0] and out.max_depth == 2


def test_expand_keeps_unmatched_order():
    # path 0-1-2-3 with (1,2) contracted to x: forest 0 -> x -> 3
    f = RootedForest([-1, 0, 1])
    out = expand_contracted_forest(f, [(0,), (1, 2), (3,)])
    assert parent_array(out) == [-1, 0, 1, 2]


def test_expand_c4_doubles_depth_and_validates():
    g = cycle(4)
    m = greedy_maximal_matching(g)
    gm, cmap = contract_matching(g, m)
    fm = RootedForest([-1, 0])  # chain on the contracted pair
    out = expand_contracted_forest(fm, cmap)
    assert out.max_depth == 4 <= 2 * brute_td(gm) + 2
    assert validate_elimination_forest(g, out, 4)


def test_lift_isolated_vertex_becomes_root():
    g = empty_graph(1)
    out = lift_simplicial(RootedForest([]), [], g, [0], 2)
    assert parent_array(out) == [-1]


def test_lift_leaf_attaches_below_neighbor():
    g = path(2)
    base = RootedForest([-1])  # vertex 0 kept
    out = lift_simplicial(base, [0], g, [1], 2)
    assert parent_array(out) == [-1, 0]
    assert out.depth_of(1) == 2


def test_lift_clique_of_simplicials_trips_depth_guard():
    d = 2
    g = clique(d + 1)  # all vertices pairwise adjacent and simplicial
    out = lift_simplicial(RootedForest([]), [], g, list(range(d + 1)), d)
    assert out is None


def test_lift_depth_budget_guard():
    # chain of kept vertices at depth 2d, one more lifted vertex must trip
    d = 2
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    kept = [0, 1, 2, 3]
    base = RootedForest([-1, 0, 1, 2])  # depth 4 = 2d
    out = lift_simplicial(base, kept, g, [4], d)
    assert out is None


def test_check_sensible_vacuous_without_branching():
    g = path(3)
    t = chain(3)
    r = RootedForest([1, -1, 1])
    assert check_sensible(g, t, r)


def test_check_sensible_star_against_itself():
    g = path(3)
    star = RootedForest([1, -1, 1])
    assert check_sensible(g, star, star)


def test_check_sensible_filters_some_tree():
    # star T at 0 over leaves {1, 2}; the chain 0 -> 1 -> 2 drags vertex 1
    # into the closure of both sibling branches, so it is not sensible
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    t = RootedForest([-1, 0, 0])
    assert not check_sensible(g, t, RootedForest([-1, 0, 1]))
    assert check_sensible(g, t, t)
    # chain-shaped T never branches, so everything is vacuously sensible
    chain_t = RootedForest([-1, 0, 1])
    assert all(check_sensible(g, chain_t, r) for r in all_elimination_trees(g, 3))


def test_split_components_keeps_a_connected_graph_and_its_forest():
    for g in [empty_graph(1), path(4), cycle(5), random_tree(9, 3)]:
        for t in [dfs_elimination_forest(g), centroid_forest(g), chain(g.n)]:
            [(verts, sub, subt)] = split_components(g, t)
            assert verts == list(range(g.n))
            assert sub is g and subt is t


def _check_restriction(g, t, parts, drop=-1):
    """Check split_components' parts of g-drop against the components of
    g-drop and the deepest proper t-ancestor inside each component."""
    keep = [v for v in range(g.n) if v != drop]
    comps = [([keep[u] for u in verts], sub) for verts, sub in connected_components(induced_subgraph(g, keep)[0])]
    assert len(parts) == len(comps)
    for (verts, sub, subt), (cverts, csub) in zip(parts, comps):
        assert verts == cverts and sub.adj == csub.adj
        expected = []
        for v in verts:
            above = [u for u in verts if u != v and is_ancestor(t, u, v)]
            top = max(above, key=t.depth_of, default=None)
            expected.append(-1 if top is None else verts.index(top))
        assert parent_array(subt) == expected
        assert validate_elimination_forest(sub, subt, t.max_depth)


def test_split_components_matches_restriction_on_disconnected_graphs():
    split = 0
    for seed in range(60):
        n = 3 + seed % 8
        g = random_graph(n, seed % n, seed)
        for t in [dfs_elimination_forest(g), chain(n)]:
            parts = split_components(g, t)
            _check_restriction(g, t, parts)
            split += len(parts) > 1
            # with a vertex dropped even one component is split afresh
            v = seed % n
            _check_restriction(g, t, split_components(g, t, v), v)
    # a dropped vertex of every elimination tree of the 4-cycle
    g = cycle(4)
    for t in all_elimination_trees(g, 4):
        for v in range(4):
            _check_restriction(g, t, split_components(g, t, v), v)
    assert split > 50


def test_split_labels_the_components_once(monkeypatch):
    from tdsolve import forest, graph

    calls = []
    real = graph.component_labels

    def counting(g, drop=-1):
        calls.append((g.n, drop))
        return real(g, drop)

    # also where forest.py would call it by an imported name
    for module in (graph, forest):
        monkeypatch.setattr(module, "component_labels", counting, raising=False)
    g = Graph.from_edges(6, [(0, 3), (1, 4), (3, 5)])
    parts = split_components(g, chain(6))
    assert [verts for verts, _, _ in parts] == [[0, 3, 5], [1, 4], [2]]
    assert calls == [(6, -1)]
    parts = split_components(g, chain(6), 3)
    assert [verts for verts, _, _ in parts] == [[0], [1, 4], [2], [5]]
    assert calls == [(6, -1), (6, 3)]


def test_parent_of_a_root_is_minus_one():
    for f in [RootedForest([-1]), chain(4), RootedForest([-1, 0, -1, 2, -1]), dfs_elimination_forest(cycle(6))]:
        assert f.roots and all(f.parent(r) == -1 for r in f.roots)
        assert all(f.parent(v) >= 0 for v in range(f.n) if v not in f.roots)


def test_count_elim_forests_on_a_connected_graph_skips_restriction(monkeypatch):
    from tdsolve import forest
    from tdsolve.counting import count_elim_forests, count_elim_trees
    from tdsolve.oracle import connected_graphs_up_to

    def refuse(parent):
        raise AssertionError("RootedForest built")

    cases = [(g, dfs_elimination_forest(g)) for g in connected_graphs_up_to(5)]
    # a disconnected input with a part of two vertices, whose forest is built
    split, tsplit = disjoint_union(path(2), empty_graph(1)), RootedForest([-1, 0, -1])
    monkeypatch.setattr(forest, "RootedForest", refuse)
    for g, t in cases:
        for d in range(1, 4):
            assert count_elim_forests(g, t, d) == count_elim_trees(g, t, d)
    with pytest.raises(AssertionError, match="RootedForest built"):
        count_elim_forests(split, tsplit, 1)


def test_one_vertex_parts_share_one_forest(monkeypatch):
    # every leaf of a star is a one-vertex part once the centre is dropped
    from tdsolve import forest
    from tdsolve.construct import solve_deterministic

    built = []

    class Counted(forest.RootedForest):
        __slots__ = ()

        def __init__(self, parent):
            built.append(len(parent))
            super().__init__(parent)

    monkeypatch.setattr(forest, "RootedForest", Counted)
    f = solve_deterministic(complete_bipartite(1, 50), 2)
    assert f is not None and f.max_depth == 2
    assert len(built) < 10, built


def test_sensible_tree_exists_at_optimal_depth_small():
    from tdsolve.graph import dfs_elimination_forest
    from tdsolve.oracle import brute_count_sensible, connected_graphs_up_to

    for g in connected_graphs_up_to(5):
        t = dfs_elimination_forest(g)
        assert brute_count_sensible(g, t, brute_td(g)) > 0
