from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve import construct
from tdsolve.construct import construct_elim_forest, descend, find_root_exact, fits, solve_deterministic
from tdsolve.counting import count_elim_forests
from tdsolve.forest import RootedForest, attach_root, merge_forests, remove_vertex, validate_elimination_forest
from tdsolve.graph import (
    centroid_forest,
    connected_components,
    dfs_elimination_forest,
    induced_subgraph,
    minus_vertex,
    structurally_infeasible,
)
from tdsolve.oracle import (
    bounded,
    brute_td,
    clique,
    complete_bipartite,
    connected_graphs_up_to,
    cycle,
    descendants,
    disjoint_union,
    empty_graph,
    path,
    random_graph,
    random_tree,
    relabel,
)


def chain(n):
    return RootedForest([i - 1 for i in range(n)])


def test_k2_infeasible_at_depth_one():
    assert construct_elim_forest(path(2), chain(2), 1) is None


def test_p3_budget_two_roots_middle():
    g = path(3)
    f = construct_elim_forest(g, chain(3), 2)
    assert f is not None
    assert f.roots == [1]
    assert validate_elimination_forest(g, f, 2)


def test_k3_chain_output():
    g = clique(3)
    f = construct_elim_forest(g, chain(3), 3)
    assert f is not None
    assert f.max_depth == 3
    assert validate_elimination_forest(g, f, 3)


def test_construct_handles_disconnected_input():
    g = disjoint_union(path(2), path(3))
    f = construct_elim_forest(g, dfs_elimination_forest(g), 2)
    assert f is not None
    assert validate_elimination_forest(g, f, 2)


def test_solve_single_vertex():
    f = solve_deterministic(empty_graph(1), 1)
    assert f is not None and f.max_depth == 1


def test_solve_p7_depth_three():
    g = path(7)
    assert brute_td(g) == 3
    f = solve_deterministic(g, 3)
    assert f is not None
    assert validate_elimination_forest(g, f, 3)
    assert solve_deterministic(g, 2) is None


def test_solve_k4_infeasible_below_four():
    assert solve_deterministic(clique(4), 3) is None
    f = solve_deterministic(clique(4), 4)
    assert f is not None and validate_elimination_forest(clique(4), f, 4)


def test_solve_rejects_long_path_by_structural_filter():
    # td(P_4096) = 13 > 8; without the filter the root scan would count
    # thousands of prefixes before it could refuse
    assert solve_deterministic(path(4096), 8) is None
    assert solve_deterministic(disjoint_union(path(3), path(4096)), 8) is None


def test_solve_matches_oracle_on_small_catalog():
    for g in connected_graphs_up_to(4):
        td = brute_td(g)
        for d in range(1, 5):
            f = solve_deterministic(g, d)
            assert (f is not None) == (td <= d)
            if f is not None:
                assert validate_elimination_forest(g, f, d)


def test_root_scan_returns_first_feasible_root():
    # None exactly when the budget is infeasible, otherwise the smallest v
    # whose removal fits in d-1; the golden CLI outputs rely on this order
    for g in connected_graphs_up_to(5):
        td = brute_td(g)
        t = dfs_elimination_forest(g)
        for d in range(1, 5):
            found = find_root_exact(g, t, d)
            if td > d:
                assert found is None
            else:
                v = next(v for v in range(g.n) if brute_td(minus_vertex(g, v)) <= d - 1)
                assert found == (v, d - 1)


def test_fits_is_a_nonzero_count():
    # settling a component by its size or by the structural filter gives the
    # verdict of counting it.  Counts never fall as the budget grows, so once
    # one is positive the larger budgets need no reference count
    for g in connected_graphs_up_to(6):
        for t in (dfs_elimination_forest(g), centroid_forest(g)):
            for v in range(g.n):
                gv, tv = minus_vertex(g, v), remove_vertex(t, v)
                count = 0
                for d in range(g.n + 1):
                    count = count or count_elim_forests(gv, tv, d)
                    assert fits(gv, tv, d) == (count != 0), (g, v, d)


def test_scan_refutes_by_structure_without_counting(monkeypatch):
    # every K44 - v is K34, whose DFS closes a 6-cycle and so refutes budget
    # 3; the exhausted scan certifies td > 4 with no count at all, though K44
    # passes the filter at 4 (its 8-cycle bounds it by 4 only).  K33 at 3
    # and C12 at 4 no longer reach the scan: their DFS cycles of 6 and 12
    # vertices refute them in the filter
    def refuse(*args, **kwargs):
        raise AssertionError("counted a component the structural filter refutes")

    monkeypatch.setattr(construct, "count_elim_forests", refuse)
    for g, d in [(complete_bipartite(3, 3), 3), (cycle(12), 4)]:
        assert structurally_infeasible(g, d)
        assert solve_deterministic(g, d) is None
    g = complete_bipartite(4, 4)
    assert not structurally_infeasible(g, 4)
    assert find_root_exact(g, dfs_elimination_forest(g), 4) is None
    assert solve_deterministic(g, 4) is None


def test_solve_matches_the_oracle_on_bounded_graphs():
    # past the n <= 6 catalogue, more of the scan's g-v are settled by size
    # or by the filter, and a None must still mean td > d
    for n in range(7, 11):
        for depth in range(2, 5):
            for seed in range(3):
                g = bounded(n, depth, seed)
                td = brute_td(g)
                for d in (td - 1, td):
                    f = solve_deterministic(g, d)
                    assert (f is None) == (d < td), (n, depth, seed, d)
                    if f is not None:
                        assert validate_elimination_forest(g, f, d)


def compress(g, d):
    """Iterative compression on its own: a depth-(d+1) tree of each prefix
    repaired into a depth-d forest, one vertex at a time."""
    f = RootedForest([])
    for i in range(g.n):
        f = construct_elim_forest(induced_subgraph(g, range(i + 1))[0], attach_root(f, i), d)
        if f is None:
            return None
    return f


def test_solve_skips_compression_when_the_centroid_forest_fits(monkeypatch):
    # the exact scan picks the same roots over any auxiliary forest, so one
    # construction over a centroid forest of depth <= d+1 gives the forest
    # that the descent, or compression, gives
    steps = []
    real_step = construct.bodlaender_step

    def recording(g, d):
        steps.append(g.n)
        return real_step(g, d)

    monkeypatch.setattr(construct, "bodlaender_step", recording)
    fits = descended = 0
    for g in connected_graphs_up_to(6):
        depth = centroid_forest(g).max_depth
        for d in range(1, 6):
            steps.clear()
            f = solve_deterministic(g, d)
            if depth <= d + 1:
                assert not steps
                fits += 1
            elif steps:
                descended += 1
            assert f == compress(g, d)
    assert fits and descended


def test_exact_descent_matches_the_oracle():
    # every None of the descent with the exact scan is certified, on either
    # side of solve_deterministic's centroid guard; and a forest is the one
    # the exact scan builds over any guide
    guarded = 0
    for g in connected_graphs_up_to(6):
        td = brute_td(g)
        c = centroid_forest(g)
        for d in range(1, g.n + 1):
            f = descend(g, d, find_root_exact)
            assert (f is None) == (td > d), (g, d)
            if f is not None:
                assert f == construct_elim_forest(g, c, d)
            guarded += c.max_depth > d + 1
    assert guarded


def test_chosen_roots_are_genuinely_feasible():
    # whenever the driver accepts, the root it picked must drop the treedepth
    for g in connected_graphs_up_to(4):
        td = brute_td(g)
        f = solve_deterministic(g, td)
        assert f is not None
        for r in f.roots:
            comp = sorted(descendants(f, r))
            if len(comp) == 1:
                continue
            from tdsolve.graph import induced_subgraph, minus_vertex

            sub, old_of_new = induced_subgraph(g, comp)
            v_local = old_of_new.index(r)
            gv = minus_vertex(sub, v_local)
            assert brute_td(gv) <= td - 1


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_solve_agrees_with_oracle_random(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed)
    d = rng.randrange(1, 5)
    f = solve_deterministic(g, d)
    assert (f is not None) == (brute_td(g) <= d)
    if f is not None:
        assert validate_elimination_forest(g, f, d)


def test_compression_keeps_depth_budget_at_every_step():
    # accepting runs maintain a forest within budget throughout; observable
    # at the end: the final forest is within budget
    g = path(7)
    f = solve_deterministic(g, 3)
    assert f is not None and f.max_depth <= 3


def test_one_split_is_as_good_as_two():
    # solve_deterministic leaves components to build_forest, which picks the
    # first feasible root of each whatever guides it; so a whole union gives
    # the merge of its components' solves, verdict and forest
    import random

    rng = random.Random(15)
    catalog = [g for g in connected_graphs_up_to(5) if g.n > 1]
    catalog += [random_tree(n, seed) for seed, n in enumerate([7, 9, 12])]
    for _ in range(40):
        parts = rng.sample(catalog, rng.choice([2, 3]))
        g = disjoint_union(*parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)  # components interleave in index order
        td = max(map(brute_td, parts))
        comps = connected_components(g)
        for d in (td, td - 1):
            forests = [solve_deterministic(sub, d) for _, sub in comps]
            want = None if None in forests else merge_forests([(verts, f) for (verts, _), f in zip(comps, forests)])
            assert solve_deterministic(g, d) == want
            assert (want is not None) == (d == td)
