#!/usr/bin/env python3
"""False-negative experiment for the randomized solver.

Builds a corpus of connected instances whose treedepth (oracle-verified)
equals the budget, then solves each across many seeds and reports the
fraction of wrong infeasibility verdicts.  Any emitted forest is re-validated
on the spot, so a nonzero false-positive count would abort immediately.

Usage: python scripts/false_negatives.py [--instances 200] [--seeds 50] [--depths 2,3]

--depths lists the budgets (each instance's treedepth) the corpus keeps; at
d >= 4 the sampled prime is capped at LinearConfig.word_cap, below the bound
the analysis asks for.
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tdsolve.forest import validate_elimination_forest
from tdsolve.graph import Graph, connected_components
from tdsolve.linear import LinearConfig, solve_randomized
from tdsolve.oracle import brute_td, path, random_graph, random_tree


def build_corpus(count, seed, max_n=10, depths=(2, 3)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pick = rng.randrange(3)
        if pick == 0:
            n = rng.randrange(3, max_n + 1)
            g = Graph.from_edges(n, [(0, i) for i in range(1, n)])
        elif pick == 1:
            g = random_tree(rng.randrange(3, max_n + 1), rng.randrange(1 << 30))
        else:
            n = rng.randrange(3, max_n + 1)
            g = random_graph(n, min(n + rng.randrange(3), n * (n - 1) // 2),
                             rng.randrange(1 << 30))
            if len(connected_components(g)) != 1:
                continue
        td = brute_td(g)
        if td in depths:
            out.append((g, td))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--corpus-seed", type=int, default=808)
    ap.add_argument("--depths", default="2,3",
                    type=lambda s: tuple(int(x) for x in s.split(",")))
    args = ap.parse_args()

    corpus = build_corpus(args.instances, args.corpus_seed, depths=args.depths)
    cfg = LinearConfig()
    runs = fails = 0
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        for i, (g, d) in enumerate(corpus):
            f = solve_randomized(g, d, cfg, random.Random(seed * 100003 + i))
            runs += 1
            if f is None:
                fails += 1
            elif not validate_elimination_forest(g, f, d):
                print("INVALID FOREST EMITTED - bug", file=sys.stderr)
                return 1
    dt = time.perf_counter() - t0
    print(f"{runs} runs on {len(corpus)} positive instances: "
          f"{fails} false negatives (rate {fails / runs:.5f}) in {dt:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
