import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve import forest
from tdsolve.graph import (
    Graph,
    _dfs,
    _simplicial_in,
    bod_fraction,
    bodlaender_step,
    centroid_forest,
    connected_components,
    contract_matching,
    dfs_elimination_forest,
    greedy_maximal_matching,
    improved_graph,
    induced_subgraph,
    minus_vertex,
    recorded_lower_bound,
    structurally_infeasible,
    treedepth_lower_bound,
)
from tdsolve.cli import _parse_regular_graph
from tdsolve.forest import validate_elimination_forest
from tdsolve.oracle import (
    brute_td,
    clique,
    complete_bipartite,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    empty_graph,
    parent_array,
    path,
    random_graph,
    random_tree,
)


def edge_set(g):
    return set(g.edges())


small_graphs = st.integers(0, 200).map(lambda seed: random_graph(2 + seed % 6, min(seed % 9, (2 + seed % 6) * (1 + seed % 6) // 2), seed))


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_adjacency_symmetric_and_counted():
    g = random_graph(9, 14, seed=5)
    assert g.m == sum(len(a) for a in g.adj) // 2
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]


def test_components_trivial():
    assert len(connected_components(empty_graph(3))) == 3
    comps = connected_components(path(3))
    assert len(comps) == 1 and comps[0][0] == [0, 1, 2]
    comps = connected_components(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert [c[0] for c in comps] == [[0, 1], [2, 3]]


def test_component_subgraphs_carry_index_maps():
    g = Graph.from_edges(5, [(1, 3), (0, 4)])
    for verts, sub in connected_components(g):
        assert sub.n == len(verts)
        for u, v in sub.edges():
            assert g.has_edge(verts[u], verts[v])


def test_connected_graph_is_its_own_component():
    g = random_tree(9, seed=3)
    [(verts, sub)] = connected_components(g)
    assert sub is g
    assert verts == list(range(9))


def test_components_match_induced_subgraphs():
    for seed in range(6):
        g = disjoint_union(random_graph(30, 20 + 5 * seed, seed), path(4), empty_graph(2), cycle(5))
        comps = connected_components(g)
        assert sorted(v for verts, _ in comps for v in verts) == list(range(g.n))
        for verts, sub in comps:
            want, old_of_new = induced_subgraph(g, verts)
            assert old_of_new == verts
            assert (sub.n, sub.m, sub.adj) == (want.n, want.m, want.adj)


def test_dfs_depth_is_dfs_forest_depth():
    graphs = [empty_graph(0), empty_graph(3), path(9), cycle(7), clique(5)]
    graphs += [random_graph(40, m, seed) for seed, m in enumerate([10, 39, 80, 200])]
    for g in graphs:
        parent, deepest = _dfs(g)
        f = dfs_elimination_forest(g)
        assert parent_array(f) == parent and f.max_depth == deepest


def reference_dfs(g):
    """Recursive DFS from each unvisited vertex ascending, neighbours
    ascending: the parent array and the deepest recursion."""
    parent, seen, deepest = [-1] * g.n, [False] * g.n, 0

    def visit(u, depth):
        nonlocal deepest
        seen[u] = True
        deepest = max(deepest, depth)
        for w in g.adj[u]:
            if not seen[w]:
                parent[w] = u
                visit(w, depth + 1)

    for s in range(g.n):
        if not seen[s]:
            visit(s, 1)
    return parent, deepest


def test_dfs_matches_recursive_reference():
    for seed in range(40):
        n = 1 + seed % 37
        graphs = [random_graph(n, min(seed * 3 % 61, n * (n - 1) // 2), seed), random_tree(n, seed)]
        graphs += [complete_bipartite(1 + seed % 3, n), disjoint_union(path(n), empty_graph(seed % 3))]
        for g in graphs:
            assert _dfs(g) == reference_dfs(g), (seed, list(g.edges()))


def test_dfs_holds_no_object_per_vertex():
    # per-vertex stack frames outlive young-generation collections on deep
    # searches and set off full collections of the whole heap
    g = path(20000)
    tracemalloc.start()
    try:
        _dfs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * g.n


def test_lower_bound_builds_no_forest(monkeypatch):
    def refuse(parent):
        raise AssertionError("RootedForest built")

    monkeypatch.setattr(forest, "RootedForest", refuse)
    assert treedepth_lower_bound(path(1024)) == 11
    assert treedepth_lower_bound(random_graph(200, 400, 3)) >= 1


def test_dfs_forest_single_vertex():
    f = dfs_elimination_forest(empty_graph(1))
    assert f.roots == [0] and f.max_depth == 1


def test_dfs_forest_path_chain():
    f = dfs_elimination_forest(path(3))
    assert parent_array(f) == [-1, 0, 1]
    assert f.max_depth == 3  # td(P3) = 2, within the 2^td guarantee


def test_dfs_forest_cycle_depth_within_exponential_bound():
    g = cycle(4)
    f = dfs_elimination_forest(g)
    assert f.max_depth == 4
    td = brute_td(g)
    assert td == 3
    assert validate_elimination_forest(g, f, 2**td)


@given(small_graphs)
@settings(max_examples=50)
def test_dfs_forest_always_validates_at_exponential_budget(g):
    f = dfs_elimination_forest(g)
    assert validate_elimination_forest(g, f, 2 ** brute_td(g))


def _assert_centroid_forest_valid(g):
    f = centroid_forest(g)
    assert f.n == g.n
    assert validate_elimination_forest(g, f, f.max_depth)
    return f


def test_centroid_forest_validates_on_catalog():
    for g in connected_graphs_up_to(6):
        _assert_centroid_forest_valid(g)


def test_centroid_forest_validates_on_random_graphs_and_unions():
    for seed in range(40):
        n = 2 + seed % 15
        g = random_graph(n, min(seed % 23, n * (n - 1) // 2), seed)
        _assert_centroid_forest_valid(g)
        _assert_centroid_forest_valid(disjoint_union(g, cycle(5), empty_graph(2)))
    assert centroid_forest(empty_graph(0)).n == 0


def test_centroid_forest_on_trees_is_logarithmic():
    trees = [path(n) for n in range(1, 40)] + [random_tree(n, seed) for n in range(2, 60) for seed in range(3)]
    trees.append(disjoint_union(path(31), random_tree(20, 5)))
    for g in trees:
        f = _assert_centroid_forest_valid(g)
        assert f.max_depth <= g.n.bit_length(), (g, f.max_depth)  # floor(log2 n) + 1


def test_centroid_forest_roots_path_in_the_middle():
    assert parent_array(centroid_forest(path(7))) == [1, 3, 1, -1, 5, 3, 5]
    assert centroid_forest(path(4)).roots == [1]  # tie between 1 and 2 goes to the smaller index


def test_improved_graph_triangle_unchanged():
    g = clique(3)
    assert edge_set(improved_graph(g, 2)) == edge_set(g)


def test_improved_graph_p3_unchanged():
    g = path(3)
    assert edge_set(improved_graph(g, 1)) == edge_set(g)


def test_improved_graph_k23_adds_high_degree_edge():
    # the two degree-3 vertices share 3 common neighbors of degree 2
    g = complete_bipartite(3, 2)  # vertices 3, 4 have degree 3
    imp = improved_graph(g, 2)
    assert edge_set(imp) == edge_set(g) | {(3, 4)}


@given(small_graphs, st.integers(1, 4))
@settings(max_examples=60)
def test_improved_graph_monotone(g, d):
    assert edge_set(g) <= edge_set(improved_graph(g, d))


def test_simplicial_vertices_edgeless_and_triangle():
    assert _simplicial_in(improved_graph(empty_graph(4), 2)) == [0, 1, 2, 3]
    assert _simplicial_in(improved_graph(clique(3), 2)) == [0, 1, 2]


def test_simplicial_vertices_path_endpoints():
    assert _simplicial_in(improved_graph(path(3), 2)) == [0, 2]


def test_bodlaender_step_flags_overfull_neighborhoods():
    assert bodlaender_step(clique(4), 2).kind == "too_deep"
    assert bodlaender_step(clique(4), 3).kind != "too_deep"
    assert bodlaender_step(path(10), 2).kind != "too_deep"


def test_greedy_matching_deterministic_scan():
    assert greedy_maximal_matching(empty_graph(3)) == ()
    assert greedy_maximal_matching(path(2)) == ((0, 1),)
    assert greedy_maximal_matching(path(4)) == ((0, 1), (2, 3))


@given(small_graphs)
@settings(max_examples=60)
def test_greedy_matching_is_maximal_matching(g):
    m = greedy_maximal_matching(g)
    matched = [v for pair in m for v in pair]
    assert len(set(matched)) == len(matched)
    assert all(g.has_edge(u, v) for u, v in m)
    for u, v in g.edges():
        assert u in matched or v in matched


def test_contract_single_edge():
    g = path(2)
    gm, cmap = contract_matching(g, greedy_maximal_matching(g))
    assert gm.n == 1 and gm.m == 0 and cmap == [(0, 1)]


def test_contract_path_keeps_connectivity():
    g = path(4)
    gm, cmap = contract_matching(g, ((1, 2),))
    assert gm.n == 3 and sorted(gm.edges()) == [(0, 1), (1, 2)]
    assert cmap == [(0,), (1, 2), (3,)]


def test_contract_c4_parallel_edges_merge():
    g = cycle(4)
    gm, _ = contract_matching(g, greedy_maximal_matching(g))
    assert (gm.n, gm.m) == (2, 1)


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_contraction_is_a_minor(seed):
    n = 4 + seed % 4
    g = random_graph(n, min(2 * n, n * (n - 1) // 2), seed)
    gm, _ = contract_matching(g, greedy_maximal_matching(g))
    assert brute_td(gm) <= brute_td(g)


def contract_by_edge_set(g, matching):
    """Contraction through a set of merged edges and Graph.from_edges: the
    reference contract_matching must agree with."""
    partner = {}
    for u, v in matching:
        partner[u] = v
        partner[v] = u
    reps = sorted(v for v in range(g.n) if v not in partner or partner[v] > v)
    new_of_old = {}
    cmap = []
    for new, v in enumerate(reps):
        cmap.append((v, partner[v]) if v in partner else (v,))
        for old in cmap[-1]:
            new_of_old[old] = new
    edges = set()
    for u, v in g.edges():
        a, b = new_of_old[u], new_of_old[v]
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    return Graph.from_edges(len(cmap), sorted(edges)), cmap


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_contraction_matches_the_edge_set_reference(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randrange(1, 40)
    g = random_graph(n, rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1), seed)
    greedy = greedy_maximal_matching(g)
    for matching in (greedy, tuple(p for p in greedy if rng.random() < 0.5)):
        gm, cmap = contract_matching(g, matching)
        ref, ref_cmap = contract_by_edge_set(g, matching)
        assert (gm.n, gm.adj, gm.m, cmap) == (ref.n, ref.adj, ref.m, ref_cmap)


def test_bodlaender_step_clique_too_deep():
    for d in (2, 3):
        out = bodlaender_step(clique(d + 2), d)
        assert out.kind == "too_deep"


def test_bodlaender_step_edgeless_simplicial():
    out = bodlaender_step(empty_graph(100), 2)
    assert out.kind == "simplicial" and len(out.vertices) == 100


def test_bodlaender_step_path_matching():
    out = bodlaender_step(path(100), 3)
    assert out.kind == "matching"
    assert len(out.matching) >= 100 / bod_fraction(3)
    assert len(out.matching) == 50


@given(st.integers(0, 300), st.integers(1, 4))
@settings(max_examples=40)
def test_bodlaender_step_never_rejects_feasible(seed, d):
    n = 3 + seed % 5
    g = random_graph(n, min(d * n, n * (n - 1) // 2), seed)
    if brute_td(g) <= d:
        assert bodlaender_step(g, d).kind != "too_deep"


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_improvement_preserves_feasibility_n7(seed):
    import random as _random

    rng = _random.Random(seed)
    n = 7
    g = random_graph(n, rng.randrange(0, min(4 * n, n * (n - 1) // 2) + 1), seed)
    d = rng.randrange(1, 5)
    assert (brute_td(g) <= d) == (brute_td(improved_graph(g, d)) <= d)


def test_lower_bound_is_sound_on_catalog():
    for g in connected_graphs_up_to(6):
        assert treedepth_lower_bound(g) <= brute_td(g)


def test_lower_bound_is_sound_on_random_connected_graphs():
    # a random tree with extra random edges: every one is connected
    rng = random.Random(4)
    for seed in range(150):
        n = rng.randrange(6, 11)
        extra = random_graph(n, rng.randrange(0, 2 * n), seed)
        g = Graph.from_edges(n, edge_set(random_tree(n, seed)) | edge_set(extra))
        assert treedepth_lower_bound(g) <= brute_td(g), list(g.edges())


def test_lower_bound_is_the_depth_of_a_cycle():
    # the DFS of a cycle closes all of it with one back edge, and
    # td(C_n) = 1 + ceil(log2 n)
    for n in range(3, 13):
        assert treedepth_lower_bound(cycle(n)) == brute_td(cycle(n)) == 1 + (n - 1).bit_length()


def test_cycle_term_runs_only_while_the_budget_is_open():
    # path and clique terms bound C12 by 4 and K9 by 9; the cycle term
    # raises C12 to 5 whenever a budget leaves it open, and a filter that
    # passes records it for the depth scan
    assert treedepth_lower_bound(cycle(12), 3) == 4
    assert treedepth_lower_bound(cycle(12), 4) == treedepth_lower_bound(cycle(12)) == 5
    assert treedepth_lower_bound(clique(9), 8) == 9
    assert structurally_infeasible(cycle(12), 4)
    g = cycle(12)
    assert not structurally_infeasible(g, 5)
    assert recorded_lower_bound(g) == 5


def test_budgeted_bound_stops_early_with_the_unbudgeted_verdict():
    # a budget only cuts the work once td > d is settled: the verdict is
    # that of the full bound, and a graph that passes records the full bound
    rng = random.Random(7)
    graphs = list(connected_graphs_up_to(6))
    for seed in range(150):
        extra = random_graph(7, rng.randrange(0, 15), seed)
        graphs.append(Graph.from_edges(7, edge_set(random_tree(7, seed)) | edge_set(extra)))
    cases = [(g, range(8)) for g in graphs]
    cases += [(shape(n), range(1, 10)) for n in range(3, 301) for shape in (path, cycle)]
    for g, budgets in cases:
        full = treedepth_lower_bound(g)
        for d in budgets:
            bound = treedepth_lower_bound(g, d)
            assert (bound > d) == (full > d), (list(g.edges()), d)
            if full <= d:
                assert bound == full


def test_capped_dfs_stops_at_two_to_the_budget():
    g = path(20000)
    parent, deepest = _dfs(g, 0, 1 << 6)
    assert deepest == 1 << 6 and sum(p >= 0 for p in parent) < 1 << 6
    assert treedepth_lower_bound(g, 6) == 7 and treedepth_lower_bound(g) == 15
    # a cap the search never reaches changes nothing
    for g in [cycle(30), random_graph(40, 80, 2), random_tree(50, 3)]:
        assert _dfs(g, 0, _dfs(g)[1] + 1) == _dfs(g)


def test_recorded_lower_bound_matches_fresh_computation():
    for seed in range(30):
        n = 3 + seed % 10
        g = random_graph(n, min(seed % 17, n * (n - 1) // 2), seed)
        fresh = Graph.from_edges(g.n, list(g.edges()))
        structurally_infeasible(g, g.n)  # m <= d*n, so the filter computes the bound
        assert g._lower_bound is not None
        assert recorded_lower_bound(g) == treedepth_lower_bound(fresh)
        assert recorded_lower_bound(fresh) == treedepth_lower_bound(fresh)


def test_lower_bound_certifies_long_paths_and_cliques():
    assert treedepth_lower_bound(path(1024)) == 11
    assert treedepth_lower_bound(clique(9)) >= 9
    # an 11-vertex path whose vertex 0 is interior: a search from vertex 0
    # would see 6 of its vertices and bound it by 3
    assert treedepth_lower_bound(minus_vertex(cycle(12), 6)) == 4


def test_induced_subgraph_maps_edges():
    g = cycle(5)
    sub, old_of_new = induced_subgraph(g, [0, 1, 3])
    assert old_of_new == [0, 1, 3]
    assert sorted(sub.edges()) == [(0, 1)]


def assert_well_formed(h):
    """What Graph(adj) trusts its lists to be: sorted without repeats,
    symmetric and loop-free, so that n and m follow from them."""
    for u, nb in enumerate(h.adj):
        assert all(a < b for a, b in zip(nb, nb[1:])), (u, nb)
        assert u not in nb
        assert all(0 <= w < h.n and u in h.adj[w] for w in nb)
    assert h.m == len(list(h.edges()))
    back = Graph.from_edges(h.n, list(h.edges()))
    assert (back.n, back.m, back.adj) == (h.n, h.m, h.adj)


def test_every_builder_makes_well_formed_graphs():
    graphs = [empty_graph(0), empty_graph(3), path(6), complete_bipartite(2, 6)]
    graphs += [random_graph(n, m, seed) for seed, (n, m) in enumerate([(9, 14), (12, 5), (15, 40), (8, 28)])]
    graphs += [disjoint_union(random_tree(7, 1), cycle(5), empty_graph(2))]
    improved = 0
    for g in graphs:
        built = [g, _parse_regular_graph(f"p tdp {g.n} {g.m}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges()))]
        built += [induced_subgraph(g, range(0, g.n, 2))[0]]
        built += [minus_vertex(g, v) for v in range(g.n)]
        built += [sub for _, sub in connected_components(g)]
        built += [contract_matching(g, greedy_maximal_matching(g))[0]]
        for d in (1, 2, 3):
            h = improved_graph(g, d)
            improved += h is not g
            built.append(h)
        for h in built:
            assert_well_formed(h)
    assert improved  # some call added edges rather than returning g
