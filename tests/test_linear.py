import random
import sys

import pytest

from tdsolve.construct import solve_deterministic
from tdsolve.counting import count_elim_trees
from tdsolve.forest import RootedForest, validate_elimination_forest
from tdsolve import construct, counting, linear, polyring
from tdsolve.graph import (
    BodlaenderOutcome,
    Graph,
    centroid_forest,
    dfs_elimination_forest,
    greedy_maximal_matching,
)
from tdsolve.linear import (
    LinearConfig,
    color_count,
    colorcoding_root_finder,
    construct_linear,
    determine_exact_depth,
    _class_counts,
    find_root_colorcoding,
    new_run_context,
    solve_randomized,
)
from tdsolve.oracle import (
    brute_td,
    candidate_roots,
    choose_modulus,
    clique,
    complete_bipartite,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    empty_graph,
    path,
    random_graph,
    random_tree,
)


CFG = LinearConfig()


def ctx_for(g, d, seed=0):
    return new_run_context(g.n, d, CFG, random.Random(seed))


def descend_randomized(g, d, seed):
    """The reduction descent with the color-coding finder, which
    solve_randomized skips when the centroid forest is at most d+1 deep."""
    return construct.descend(g, d, colorcoding_root_finder(ctx_for(g, d, seed)))


def test_choose_modulus_prime_case():
    ring = choose_modulus(8, 16, sampled_prime=10007)
    assert ring.modulus == 10007


def test_choose_modulus_ring_policy():
    # exact integers below 2^r >= n, the sampled prime from there on
    for n, r_prime in [(2, 1), (3, 2), (256, 8), (257, 9), (10**6, 20)]:
        for r in range(1, r_prime):
            ring = choose_modulus(r, n, sampled_prime=10007)
            assert ring.modulus is None
        for r in (r_prime, r_prime + 1):
            ring = choose_modulus(r, n, sampled_prime=10007)
            assert ring.modulus == 10007
    with pytest.raises(ValueError):
        choose_modulus(0, 5, sampled_prime=10007)


def test_choose_modulus_small_case_is_exact():
    # a small subproblem's count is the true count, even above the prime:
    # K4 has 4! elimination trees of depth 4, all paths
    g = clique(4)
    t = RootedForest([-1, 0, 1, 2])
    ring = choose_modulus(4, 10**9, sampled_prime=13)
    assert count_elim_trees(g, t, 4, ring) == 24


def test_choose_modulus_single_vertex_prime_case():
    # r >= log2(n) compares shifted: 1 << r >= n
    assert choose_modulus(1, 2, sampled_prime=13).modulus == 13
    assert choose_modulus(1, 3, sampled_prime=13).modulus is None


@pytest.mark.parametrize("g, d", [
    (cycle(6), 4),
    (random_tree(12, 7), 3),
    (path(23), 5),
    (complete_bipartite(1, 11), 2),
], ids=["cycle6-d4", "tree12-d3", "path23-d5", "star12-d2"])
def test_randomized_solver_counts_in_exact_integers(monkeypatch, g, d):
    # path(23) and star(12) have counts that could reach the nominal prime
    # bound; they are counted exactly all the same
    rings = []

    def recording(count):
        def wrapped(*args, **kwargs):
            rings.append(args[3] if len(args) > 3 else kwargs.get("ring"))
            return count(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(linear, "count_elim_trees", recording(linear.count_elim_trees))
    monkeypatch.setattr(construct, "count_elim_forests", recording(construct.count_elim_forests))
    f = solve_randomized(g, d, random.Random(0))
    assert f is not None and validate_elimination_forest(g, f, d)
    assert rings and all(r is None or r.modulus is None for r in rings)


def test_determine_exact_depth_examples():
    k1 = empty_graph(1)
    assert determine_exact_depth(k1, RootedForest([-1]), 1) == 1
    k2 = path(2)
    assert determine_exact_depth(k2, RootedForest([-1, 0]), 3) == 2
    p7 = path(7)
    assert determine_exact_depth(p7, dfs_elimination_forest(p7), 3) == 3
    assert determine_exact_depth(p7, dfs_elimination_forest(p7), 2) is None


def test_find_root_p3():
    g = path(3)
    t = solve_deterministic(g, 2)
    root, budget, parts = find_root_colorcoding(g, t, 2, ctx=ctx_for(g, 2))
    assert root == 1  # unique candidate: the middle vertex
    assert budget == 1 and [verts for verts, _, _ in parts] == [[0], [2]]


def test_find_root_star_center():
    g = complete_bipartite(1, 3)  # center is vertex 0
    t = solve_deterministic(g, 2)
    root, budget, parts = find_root_colorcoding(g, t, 2, ctx=ctx_for(g, 2))
    assert root == 0
    assert budget == 1 and [verts for verts, _, _ in parts] == [[1], [2], [3]]


def test_found_roots_always_candidates():
    for g in connected_graphs_up_to(5):
        td = brute_td(g)
        t = solve_deterministic(g, td)
        candidates = frozenset(candidate_roots(g, td))
        assert len(candidates) >= 1
        found = find_root_colorcoding(g, t, td, ctx=ctx_for(g, td, seed=3))
        if g.n == 1:
            assert found == (0, 0, [])
            continue
        assert found is not None
        assert found[0] in candidates and found[1] == td - 1


def test_construct_linear_p3():
    g = path(3)
    t = dfs_elimination_forest(g)  # depth 3 <= 2d
    f = construct_linear(g, t, 2, random.Random(0))
    assert f is not None and f.roots == [1]
    assert validate_elimination_forest(g, f, 2)


def test_construct_linear_k4_infeasible():
    g = clique(4)
    t = dfs_elimination_forest(g)
    assert construct_linear(g, t, 3, random.Random(0)) is None


def test_construct_linear_matches_deterministic_on_catalog():
    rng = random.Random(11)
    for g in connected_graphs_up_to(5):
        td = brute_td(g)
        t = dfs_elimination_forest(g)
        if t.max_depth > 2 * td:
            t = solve_deterministic(g, td)
        f = construct_linear(g, t, td, rng)
        assert f is not None  # a randomized None is certified, so never at td
        assert validate_elimination_forest(g, f, td)


def test_solve_randomized_base_cases():
    f = solve_randomized(empty_graph(1), 1)
    assert f is not None and f.max_depth == 1
    assert solve_randomized(path(2), 1) is None


def test_solve_randomized_edge_filter():
    g = clique(5)  # 10 edges > 1*5
    assert solve_randomized(g, 1, random.Random(0)) is None


def test_solve_randomized_validates_its_output():
    rng = random.Random(99)
    for g, d in [(path(7), 3), (cycle(8), 4), (random_tree(10, 4), 3),
                 (disjoint_union(path(3), clique(3)), 3)]:
        f = solve_randomized(g, d, rng)
        if f is not None:
            assert validate_elimination_forest(g, f, d)


def test_solve_randomized_oracle_agreement_small():
    for g in connected_graphs_up_to(5):
        td = brute_td(g)
        for d in (td, td + 1):
            f = solve_randomized(g, d, random.Random(5))
            assert f is not None
            assert validate_elimination_forest(g, f, d)
        if td > 1:
            assert solve_randomized(g, td - 1, random.Random(5)) is None


def test_solve_randomized_verdicts_match_the_oracle_both_ways():
    # every randomized None is certified, so it comes exactly when td > d
    for g in connected_graphs_up_to(6):
        td = brute_td(g)
        for d in range(1, 6):
            for seed in range(3):
                f = solve_randomized(g, d, random.Random(seed))
                assert (f is None) == (td > d), (g.adj, d, seed)
                assert f is None or validate_elimination_forest(g, f, d)


def test_solve_randomized_infeasible_paths_certified_quickly():
    # td(P_n) = ceil(log2(n+1)) exceeds 8 from n = 256 on
    assert solve_randomized(path(1024), 8, random.Random(1)) is None


def test_solve_counts_over_the_shallower_forest(monkeypatch):
    candidates, built = [], []

    def recording(fn):
        def wrapped(*args):
            t = fn(*args)
            candidates.append(t)
            return t
        return wrapped

    def fake_build(g, t, d, find_root):
        if len(built) < len(candidates):  # a level's build, not build_forest's own recursion
            built.append((g, t, candidates[-1]))
        return real_build(g, t, d, find_root)

    real_build = construct.build_forest
    monkeypatch.setattr(construct, "expand_contracted_forest", recording(construct.expand_contracted_forest))
    monkeypatch.setattr(construct, "lift_simplicial", recording(construct.lift_simplicial))
    monkeypatch.setattr(construct, "build_forest", fake_build)
    for g, d in [(path(15), 4), (random_tree(12, 7), 3), (complete_bipartite(2, 5), 3)]:
        assert descend_randomized(g, d, 3) is not None
    swapped = 0
    for g, t, cand in built:
        c = centroid_forest(g)
        assert t.max_depth == min(c.max_depth, cand.max_depth)
        if cand.max_depth <= c.max_depth:
            assert t is cand  # a tie keeps the expanded or lifted forest
        else:
            swapped += 1
    assert swapped and swapped < len(built)


def test_simplicial_level_builds_the_improved_graph_once(monkeypatch):
    # the matching contracts three disjoint edges to three isolated vertices,
    # which the next level lifts as simplicial
    from tdsolve import graph

    kinds, builds = [], []

    def step(*args):
        out = real_step(*args)
        kinds.append(out.kind)
        return out

    def improve(*args):
        builds.append(args)
        return real_improve(*args)

    real_step, real_improve = construct.bodlaender_step, graph.improved_graph
    monkeypatch.setattr(construct, "bodlaender_step", step)
    monkeypatch.setattr(graph, "improved_graph", improve)
    g = disjoint_union(path(2), path(2), path(2))
    f = descend_randomized(g, 2, 0)
    assert kinds == ["matching", "simplicial"]
    assert len(builds) == len(kinds)
    assert f is not None and validate_elimination_forest(g, f, 2)


def spider(legs, length):
    """Legs paths of `length` vertices each, all hung from vertex 0."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph.from_edges(1 + legs * length, edges)


def broom(handle, leaves):
    """A path of `handle` vertices with `leaves` leaves on its last one."""
    edges = [(v, v + 1) for v in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(leaves)]
    return Graph.from_edges(handle + leaves, edges)


@pytest.mark.parametrize("name, g, d, levels", [
    ("star400", complete_bipartite(1, 399), 2, 2),
    ("k2x200", complete_bipartite(2, 200), 3, 3),
    ("spider200x2", spider(200, 2), 3, 3),
    ("broom4+200", broom(4, 200), 3, 3),
])
def test_star_like_graphs_reduce_in_few_levels(monkeypatch, name, g, d, levels):
    # each level takes the larger of its matching and its simplicial set;
    # contracting a small matching at every level took about n levels
    kinds = []

    def step(*args):
        out = real_step(*args)
        kinds.append(out.kind)
        assert len(kinds) <= levels, kinds[:8]
        return out

    real_step = construct.bodlaender_step
    monkeypatch.setattr(construct, "bodlaender_step", step)
    f = descend_randomized(g, d, 1)
    assert f is not None and validate_elimination_forest(g, f, d)
    assert len(kinds) == levels


def test_descent_is_not_bounded_by_the_recursion_limit(monkeypatch):
    # contracting one pair per level gives a star on 80 vertices 79 levels,
    # far more than the 40 frames left above this test
    levels = []

    def one_pair(g, d):
        levels.append(g.n)
        return BodlaenderOutcome("matching", matching=greedy_maximal_matching(g)[:1])

    monkeypatch.setattr(construct, "bodlaender_step", one_pair)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    g = complete_bipartite(1, 79)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        f = descend_randomized(g, 2, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert f is not None and validate_elimination_forest(g, f, 2)
    assert len(levels) == 79


def record_steps(monkeypatch):
    """The vertex count of every graph the reduction descent steps on."""
    steps = []
    real_step = construct.bodlaender_step

    def recording(g, d):
        steps.append(g.n)
        return real_step(g, d)

    monkeypatch.setattr(construct, "bodlaender_step", recording)
    return steps


def test_randomized_solver_skips_the_descent_over_a_shallow_centroid_forest(monkeypatch):
    steps = record_steps(monkeypatch)
    for g, d in [(path(23), 5), (cycle(6), 4)]:
        assert centroid_forest(g).max_depth <= d + 1
        f = solve_randomized(g, d, random.Random(0))
        assert f is not None and validate_elimination_forest(g, f, d)
    assert not steps


def test_randomized_solver_descends_past_a_deep_centroid_forest(monkeypatch):
    steps = record_steps(monkeypatch)
    g = random_graph(6, 7, 35)
    assert brute_td(g) == 3 and centroid_forest(g).max_depth == 5
    f = solve_randomized(g, 3, random.Random(0))
    assert steps
    assert f is not None and f.max_depth <= 3 and validate_elimination_forest(g, f, 3)


def test_randomized_verdicts_match_the_oracle_on_both_sides_of_the_guard(monkeypatch):
    steps = record_steps(monkeypatch)
    rng = random.Random(11)
    guarded = descended = 0
    for g in connected_graphs_up_to(6):
        td = brute_td(g)
        for d in range(1, 6):
            steps.clear()
            f = solve_randomized(g, d, rng)
            assert (f is not None) == (td <= d), (g, d)
            if f is not None:
                assert validate_elimination_forest(g, f, d)
            if centroid_forest(g).max_depth <= d + 1:
                assert not steps
                guarded += 1
            elif steps:
                descended += 1
    assert guarded and descended


def record_finder_counts(monkeypatch):
    """Per call of the color-coding finder: the level graph's size, the
    budget, the result and the (n, d, weighted?) of each count_elim_trees
    call it made (certifications go through count_elim_forests)."""
    calls, finds = [], []
    real_count = linear.count_elim_trees
    real_finder = linear.colorcoding_root_finder

    def counting(g, t, d, ring=None, weights=None, *args):
        calls.append((g.n, d, weights is not None))
        return real_count(g, t, d, ring, weights, *args)

    def finder(ctx):
        find_root = real_finder(ctx)

        def wrapped(g, t, d):
            start = len(calls)
            found = find_root(g, t, d)
            finds.append((g.n, d, found, calls[start:]))
            return found
        return wrapped

    monkeypatch.setattr(linear, "count_elim_trees", counting)
    monkeypatch.setattr(linear, "colorcoding_root_finder", finder)
    return finds


def test_finder_counts_level_graph_at_d_only_for_a_larger_class(monkeypatch):
    # the level graph's count at d rides in the packed count of a class of
    # two or more, so the finder never counts it on its own
    finds = record_finder_counts(monkeypatch)
    for g, d in [(path(15), 4), (random_tree(12, 7), 3), (cycle(8), 4), (complete_bipartite(2, 5), 3)]:
        assert solve_randomized(g, d, random.Random(3)) is not None
    by_singleton = by_class = 0
    for n, d, found, made in finds:
        whole = [i for i, c in enumerate(made) if c == (n, d, False)]
        weighted = [i for i, c in enumerate(made) if c[2]]
        assert not whole
        if found is not None and found[1] == d - 1 and not weighted:
            by_singleton += 1  # a singleton class certified its vertex
        if weighted:
            by_class += 1
    assert by_singleton and by_class


def test_class_counts_equal_indicator_weighted_counts(monkeypatch):
    made = []

    def counting(*args, **kwargs):
        made.append(kwargs["weights"])
        return count_elim_trees(*args, **kwargs)

    monkeypatch.setattr(linear, "count_elim_trees", counting)
    rng = random.Random(5)
    for g in connected_graphs_up_to(6):
        t = centroid_forest(g)
        d = rng.randrange(1, 5)
        members = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        made.clear()
        total, rooted = _class_counts(g, t, d, members)
        assert len(made) == 1  # one packed count
        assert total == count_elim_trees(g, t, d)
        assert len(rooted) == len(members)
        for v, count in zip(members, rooted):
            assert count == count_elim_trees(g, t, d, weights=[int(u == v) for u in range(g.n)])


def test_a_class_with_two_feasible_roots_names_the_first(monkeypatch):
    # both ends of K2 root a depth-2 tree, so with one color the class
    # {0, 1} names vertex 0 at once, from one packed count
    monkeypatch.setattr(linear, "color_count", lambda n, d: 1)
    g = path(2)
    ctx = ctx_for(g, 2)
    found = find_root_colorcoding(g, dfs_elimination_forest(g), 2, ctx)
    assert found is not None and found[:2] == (0, 1)
    assert ctx.colorings_tried == 1 and ctx.roots_found == 1


def test_infeasible_level_refuted_by_one_count_at_d(monkeypatch):
    # td(K44) = 5, but its structural bound is 4, so the finder meets it at
    # d = 4; every K44 - v is K34, refuted by structure, so the singleton
    # classes cost no count, and the packed count of the first larger class
    # refutes the level
    finds = record_finder_counts(monkeypatch)
    assert solve_randomized(cycle(12), 4, random.Random(0)) is None  # td(C12) = 5
    assert not finds  # refuted by the structural filter
    assert solve_randomized(complete_bipartite(4, 4), 4, random.Random(0)) is None
    n, d, found, made = finds[-1]
    assert (n, d, found) == (8, 4, None)
    assert made == [(8, 4, True)]


def test_six_cycle_refuted_at_three_before_any_count_or_prime(monkeypatch):
    # the DFS of C6 closes all six vertices with one back edge, so
    # td(C6) = 4 > 3 follows from the structural filter alone
    def refuse(*args, **kwargs):
        raise AssertionError("counted for a structural verdict")

    monkeypatch.setattr(counting, "count_elim_trees", refuse)
    monkeypatch.setattr(linear, "count_elim_trees", refuse)
    g = cycle(6)
    assert solve_deterministic(g, 3) is None
    assert solve_randomized(g, 3, random.Random(0)) is None


def test_solve_randomized_path15_within_budget():
    g = path(15)
    f = solve_randomized(g, 4, random.Random(0))
    assert f is not None and f.max_depth <= 4
    assert validate_elimination_forest(g, f, 4)


def test_same_seed_same_forest():
    g = random_tree(12, 7)
    a = solve_randomized(g, 3, random.Random(42))
    b = solve_randomized(g, 3, random.Random(42))
    assert a == b


def test_one_color_finds_each_root_with_one_coloring(monkeypatch):
    # with one color every class is the whole level graph, and its packed
    # count names a root of the level graphs with several at once
    contexts = []
    real_finder = linear.colorcoding_root_finder

    def finder(ctx):
        contexts.append(ctx)
        return real_finder(ctx)

    monkeypatch.setattr(linear, "color_count", lambda n, d: 1)
    monkeypatch.setattr(linear, "colorcoding_root_finder", finder)
    g = path(7)
    f = solve_randomized(g, 3, random.Random(2))
    assert f is not None and validate_elimination_forest(g, f, 3)
    (ctx,) = contexts
    assert ctx.roots_found and ctx.colorings_tried == ctx.roots_found


def test_color_coding_gives_up_after_one_coloring(monkeypatch):
    # no class ever names a certified vertex, so the finder tries every
    # class of its one coloring and returns None
    monkeypatch.setattr(linear, "fits", lambda *args: None)
    monkeypatch.setattr(linear, "_class_counts", lambda g, t, d, members: (1, [0] * len(members)))
    monkeypatch.setattr(linear, "color_count", lambda n, d: 1)
    for n in (7, 600):
        g = path(n)
        ctx = new_run_context(n, 3, CFG, random.Random(0))
        assert find_root_colorcoding(g, dfs_elimination_forest(g), 3, ctx) is None
        assert ctx.colorings_tried == 1
        assert ctx.roots_found == 0


def test_config_color_count_defaults():
    assert color_count(100, 1) == 16
    assert color_count(5, 4) == 5
    assert color_count(1, 3) == 1


def test_solver_layers_import_nothing_from_polyring():
    # the counting engine alone chooses a ring; the solvers count in exact
    # integers and pass none
    ring_names = {name for name, obj in vars(polyring).items()
                  if getattr(obj, "__module__", None) == polyring.__name__}
    for module in (construct, linear):
        assert not ring_names & set(vars(module)), module.__name__
        assert polyring not in vars(module).values(), module.__name__
