#!/usr/bin/env python3
"""Time tdsolve on a few named heavy cases, optionally for two trees.

    python scripts/time_cases.py [--src DIR] [--src DIR2] [--runs 3] [--case NAME [NAME ...]] [--seed 0 [1 ...]]

Each run of a case is one child process that imports tdsolve from the given
`src` directory (default: the one next to this script), builds the graph and
measures the CPU time of one solve or validation.  With two --src trees, the
runs alternate between them, so a drift in machine speed hits both alike.
A randomized case runs once per seed in every run; the other cases ignore
the seeds.  The table gives, per case and tree, the median and the maximum
over the seeds of each seed's minimum CPU time over the runs (one seed's
colour draws can make a randomized solve many times slower than another's),
and the depth of the forest found ("none" for an infeasible verdict); a
validation case shows the depth of the forest it checked, or "none" when the
check fails, the contraction case the number of levels it contracted, the
split case the number of components it found, and the parse case the number
of edges it read.

Cases (randomized solves use random.Random(seed) for each seed; the
validation case checks the chain forest 0 -> 1 -> ... -> 3999, the split
case splits along the DFS forest of its graph, and the parse case reads the
PACE text of its graph, all built before the clock starts; the bounded
cases need a tree whose oracle has that generator):
  rand-path23-d5      solve_randomized(path(23), 5)
  rand-cycle12-d5     solve_randomized(cycle(12), 5)
  rand-cycle12-d4     solve_randomized(cycle(12), 4), infeasible: decided by
                      the structural filter's DFS cycle term
  rand-path20k-d6     solve_randomized(path(20000), 6), infeasible: decided by
                      the structural filter's DFS, which stops once its
                      stack holds 2^6 vertices
  rand-star200-d2     solve_randomized(complete_bipartite(1, 199), 2)
  rand-k2x200-d3      solve_randomized(complete_bipartite(2, 200), 3)
  rand-bounded800-d3  solve_randomized(bounded(800, 3, 1), 3)
  rand-bounded400-d4  solve_randomized(bounded(400, 4, 1), 4)
  rand-k44-d4         solve_randomized(complete_bipartite(4, 4), 4),
                      infeasible: passes the structural filter, refuted by
                      the color-coding finder's first packed count
  det-cycle12-d5      solve_deterministic(cycle(12), 5)
  det-cycle12-d4      solve_deterministic(cycle(12), 4), infeasible: decided by
                      the structural filter's DFS cycle term
  det-path15-d4       solve_deterministic(path(15), 4)
  det-bounded32-d4    solve_deterministic(bounded(32, 4, 1), 4)
  det-k44-d4          solve_deterministic(complete_bipartite(4, 4), 4),
                      infeasible: passes the structural filter, refuted by a
                      full root scan whose every K44-v the filter refutes
  validate-star4000   validate_elimination_forest(complete_bipartite(1, 3999),
                      chain, 4000)
  contract-rg5000     g = random_graph(5000, 15000, 1), then
                      g = contract_matching(g, greedy_maximal_matching(g))
                      until g has no edge
  split-rg5000        split_components(g, dfs_elimination_forest(g)) on
                      g = random_graph(5000, 4000, 1)
  parse-pace-rg20k    parse_pace_graph on the PACE text of
                      random_graph(19500, 78000, 1)
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = {
    "rand-path23-d5": ("randomized", "path", (23,), 5),
    "rand-cycle12-d5": ("randomized", "cycle", (12,), 5),
    "rand-cycle12-d4": ("randomized", "cycle", (12,), 4),
    "rand-path20k-d6": ("randomized", "path", (20000,), 6),
    "rand-star200-d2": ("randomized", "complete_bipartite", (1, 199), 2),
    "rand-k2x200-d3": ("randomized", "complete_bipartite", (2, 200), 3),
    "rand-bounded800-d3": ("randomized", "bounded", (800, 3, 1), 3),
    "rand-bounded400-d4": ("randomized", "bounded", (400, 4, 1), 4),
    "rand-k44-d4": ("randomized", "complete_bipartite", (4, 4), 4),
    "det-cycle12-d5": ("deterministic", "cycle", (12,), 5),
    "det-cycle12-d4": ("deterministic", "cycle", (12,), 4),
    "det-path15-d4": ("deterministic", "path", (15,), 4),
    "det-bounded32-d4": ("deterministic", "bounded", (32, 4, 1), 4),
    "det-k44-d4": ("deterministic", "complete_bipartite", (4, 4), 4),
    "validate-star4000": ("validate", "complete_bipartite", (1, 3999), 4000),
    "contract-rg5000": ("contract", "random_graph", (5000, 15000, 1), None),
    "split-rg5000": ("split", "random_graph", (5000, 4000, 1), None),
    "parse-pace-rg20k": ("parse", "random_graph", (19500, 78000, 1), None),
}


def child(src: str, name: str, seed: int) -> None:
    """Run one case once in this process and print its CPU time and depth."""
    import random
    import time

    sys.path.insert(0, os.path.abspath(src))
    from tdsolve import oracle
    from tdsolve.cli import parse_pace_graph
    from tdsolve.construct import solve_deterministic
    from tdsolve.forest import RootedForest, split_components, validate_elimination_forest
    from tdsolve.graph import contract_matching, dfs_elimination_forest, greedy_maximal_matching
    from tdsolve.linear import solve_randomized

    if not os.path.abspath(oracle.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported tdsolve from {oracle.__file__}, not from {src}")
    mode, shape, args, d = CASES[name]
    g = getattr(oracle, shape)(*args)
    chain = RootedForest([i - 1 for i in range(g.n)])
    t = dfs_elimination_forest(g) if mode == "split" else None
    if mode == "parse":
        text = "".join([f"p tdp {g.n} {g.m}\n"] + [f"{u + 1} {v + 1}\n" for u, v in g.edges()])
    start = time.process_time()
    if mode == "parse":
        depth = parse_pace_graph(text).m
    elif mode == "split":
        depth = len(split_components(g, t))
    elif mode == "contract":
        depth = 0
        while g.m:
            g, _ = contract_matching(g, greedy_maximal_matching(g))
            depth += 1
    else:
        if mode == "validate":
            f = chain if validate_elimination_forest(g, chain, d) else None
        elif mode == "randomized":
            f = solve_randomized(g, d, rng=random.Random(seed))
        else:
            f = solve_deterministic(g, d)
        depth = None if f is None else f.max_depth
    cpu = time.process_time() - start
    print(json.dumps({"cpu": cpu, "depth": depth}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", help="a tdsolve src directory; give it once or twice")
    ap.add_argument("--runs", type=int, default=3, help="runs per case and tree (default 3)")
    ap.add_argument(
        "--case", nargs="+", action="extend", choices=sorted(CASES),
        help="cases to time, after one flag or several (default: all)",
    )
    ap.add_argument(
        "--seed", type=int, nargs="+", default=[0],
        help="seeds of the randomized cases, each run in every run (default: 0)",
    )
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    srcs = args.src or [os.path.join(ROOT, "src")]
    if args.child:
        child(srcs[0], args.child, args.seed[0])
        return 0
    if len(srcs) > 2:
        ap.error("give --src at most twice")
    names = args.case or list(CASES)

    best: dict = {}  # (case, src, seed) -> minimum CPU time over the runs
    depth: dict = {}
    for _ in range(args.runs):
        for name in names:
            for seed in args.seed if CASES[name][0] == "randomized" else args.seed[:1]:
                for src in srcs:
                    cmd = [sys.executable, os.path.abspath(__file__), "--child", name, "--src", src, "--seed", str(seed)]
                    got = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
                    key = (name, src, seed)
                    best[key] = min(best.get(key, got["cpu"]), got["cpu"])
                    depth.setdefault((name, src), set()).add(got["depth"])

    print(f"median and maximum over {len(args.seed)} seed(s) of the minimum CPU seconds of {args.runs} runs, "
          "depth of the forest found")
    for i, src in enumerate(srcs):
        print(f"  [{i}] {src}")
    for name in names:
        cells = []
        for src in srcs:
            times = [t for (case, s, _), t in best.items() if case == name and s == src]
            found = depth[(name, src)]
            shown = "/".join("none" if x is None else str(x) for x in sorted(found, key=str))
            cells.append(f"{statistics.median(times):8.3f} {max(times):8.3f} s  depth {shown:4}")
        print(f"{name:18} " + "   ".join(cells).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
