"""Seeded instance corpora for the three workloads.

A corpus is a list of rounds.  Every round of a workload has the same
family, size band and budget mix; the seed only decides which graphs fill
the slots and how their vertices are labelled.  Each instance carries the
truth fixed at generation time, so the checker never asks the program under
test what the right answer is:

* small graphs: the exact treedepth from ``tdsolve.oracle.brute_td``;
* paths and cycles: their closed-form treedepth;
* dense graphs: more than (d-1)*n edges, which no depth-d forest can hold;
* planted cliques: the d+1 clique vertices themselves;
* solution files: whether the benchmark wrote a valid or a corrupted one.

Graphs are written as PACE ``tdp`` files; the program sees nothing else.
"""

from __future__ import annotations

import json
import os
import random

from check import forest_depth
from tdsolve.graph import Graph, connected_components
from tdsolve.oracle import brute_td, cycle, disjoint_union, random_graph, random_tree, relabel

WORKLOADS = ("det-small", "rand-small", "filter-large")

# Rounds written per run.  The worker cycles through them when a run lasts
# longer than they do, and a traced run replays the first TRACE_ROUNDS.
ROUNDS = {"det-small": 64, "rand-small": 64, "filter-large": 5}
TRACE_ROUNDS = {"det-small": 10, "rand-small": 10, "filter-large": 5}

# One round of the small workloads: ten graphs, each solved at budgets td-1
# and td.  Slots are (family, min n, max n, td).  A feasible treedepth-4
# graph costs the solvers 10-100 times what the other instances cost, and
# its cost varies several-fold with the labelling; on sparse graphs with 7
# vertices, and on 5-cycles, single labellings run 10-20 times the median.
# Those few instances would decide a run's figures, so the treedepth-4 slots
# are 6-cycles and 6-vertex sparse graphs, whose times vary least.  Union
# pieces share their treedepth: a piece far below the budget (a star at
# d=4) costs more than the budget's own graphs, and varies as much.
SMALL_SLOTS = (
    ("star", 6, 12, 2),
    ("cycle", 6, 6, 4),
    ("cycle", 6, 6, 4),
    ("tree", 6, 12, 3),
    ("tree", 6, 12, 3),
    ("sparse", 6, 12, 3),
    ("sparse", 6, 12, 3),
    ("sparse", 6, 6, 4),
    # a fifth are disjoint unions of two smaller pieces
    ("union", (("cycle", 6, 6, 4), ("cycle", 6, 6, 4))),
    ("union", (("tree", 5, 6, 3), ("sparse", 5, 6, 3))),
)

# Size bands of the large instances.  Round k takes the k-th of
# ROUNDS["filter-large"] evenly spaced sizes in each band, the same for every
# seed: the instances' times grow with n, so sizes drawn per seed moved the
# figures between seeds, and a few repeated sizes would make the percentiles
# jump from one size cluster to the next between runs.
LARGE_BANDS = ((2000, 5000), (5000, 10000), (10000, 15000), (15000, 20000))
LARGE_FAMILIES = ("path", "cycle", "dense", "clique", "valid", "corrupt")
CORRUPT_CUTS = 16


def pace_graph(g: Graph) -> str:
    lines = [f"p tdp {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def pace_forest(parent: list[int]) -> str:
    lines = [str(forest_depth(len(parent), (), parent))]
    lines.extend(str(p + 1) for p in parent)
    return "\n".join(lines) + "\n"


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _small_graph(family: str, lo: int, hi: int, td: int, rng: random.Random) -> Graph:
    """A random graph of the family with lo..hi vertices and treedepth
    exactly td, by rejection on brute_td."""
    while True:
        n = rng.randint(lo, hi)
        if family == "star":
            g = _star(n)
        elif family == "cycle":
            g = cycle(n)
        elif family == "tree":
            g = random_tree(n, rng.randrange(1 << 30))
        elif family == "sparse":
            g = random_graph(n, n - 1 + rng.randint(1, 3), rng.randrange(1 << 30))
            if len(connected_components(g)) != 1:
                continue
        else:
            raise ValueError(f"unknown small family {family!r}")
        if brute_td(g) == td:
            return _shuffled(g, rng)


def small_round(rng: random.Random, k: int) -> list[dict]:
    """One round of det-small / rand-small: (name, graph, td) per slot,
    expanded to the budgets td-1 and td."""
    out = []
    for slot in SMALL_SLOTS:
        if slot[0] == "union":
            parts = [_small_graph(*spec, rng) for spec in slot[1]]
            g = _shuffled(disjoint_union(*parts), rng)
            family = "union"
        else:
            family = slot[0]
            g = _small_graph(*slot, rng)
        td = brute_td(g)
        for d in (td - 1, td):
            out.append({
                "family": family,
                "graph": g,
                "d": d,
                "truth": {"feasible": d >= td, "why": f"brute_td = {td}"},
                "solver_seed": rng.randrange(1 << 31),
            })
    return out


def _closed_form_td(family: str, n: int) -> int:
    """td(P_n) = ceil(log2(n+1)); td(C_n) = 1 + td(P_{n-1})."""
    if family == "path":
        return n.bit_length()
    return 1 + (n - 1).bit_length()


def _tree_plus_edges(n: int, m: int, rng: random.Random) -> Graph:
    """Connected graph, randomly labelled: a random recursive tree plus
    uniform extra edges up to m in total."""
    rand = rng.random  # int(rand() * k) draws 0..k-1 several times faster than randrange
    edges = {(int(rand() * i), i) for i in range(1, n)}
    while len(edges) < m:
        u, v = int(rand() * n), int(rand() * n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in sorted(edges)])


def dfs_forest(n: int, adj, rng: random.Random) -> list[int]:
    """Parent array of a depth-first search forest with shuffled neighbour
    order.  Every non-tree edge of a DFS joins an ancestor and a descendant,
    so this is always a valid elimination forest."""
    parent = [-1] * n
    seen = [False] * n
    order = list(range(n))
    rng.shuffle(order)
    for s in order:
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(rng.sample(adj[s], len(adj[s]))))]
        while stack:
            u, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    stack.append((w, iter(rng.sample(adj[w], len(adj[w])))))
                    break
            else:
                stack.pop()
    return parent


def large_instance(family: str, n: int, rng: random.Random) -> dict:
    inst = {"family": family, "solver_seed": rng.randrange(1 << 31)}
    if family in ("path", "cycle"):
        d = 6
        base = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) if family == "path" else cycle(n)
        td = _closed_form_td(family, n)
        inst.update(graph=_shuffled(base, rng), d=d,
                    truth={"feasible": d >= td, "why": f"closed form td = {td}"})
    elif family == "dense":
        d = 4
        g = _tree_plus_edges(n, d * n + 1 + rng.randrange(n // 10), rng)
        inst.update(graph=g, d=d,
                    truth={"feasible": False, "why": f"m = {g.m} > (d-1)*n = {(d - 1) * n}"})
    elif family == "clique":
        # The clique sits on vertices 0..d, the hubs of a random recursive
        # tree, so it is found from the highest-degree vertices, and the
        # tree's height (about e*ln n) stays below 2^d.
        d = 6
        edges = {(int(rng.random() * i), i) for i in range(1, n)}
        edges.update((i, j) for i in range(d + 1) for j in range(i + 1, d + 1))
        inst.update(graph=Graph.from_edges(n, sorted(edges)), d=d,
                    truth={"feasible": False, "why": f"clique on vertices 1..{d + 1}",
                           "clique": list(range(d + 1))})
    elif family in ("valid", "corrupt"):
        g = _tree_plus_edges(n, n - 1 + n // 5, rng)
        parent = dfs_forest(g.n, g.adj, rng)
        if family == "corrupt":
            # Cutting tree edges (v becomes a root) leaves each cut edge
            # joining two unrelated vertices.  How long a validator scans
            # before it meets a bad edge depends on where the first one is,
            # so cut many: with one, that time varied several-fold between instances.
            for v in rng.sample([u for u in range(n) if parent[u] >= 0], CORRUPT_CUTS):
                parent[v] = -1
        inst.update(graph=g, solution=parent,
                    truth={"feasible": family == "valid", "why": f"{family} solution file"})
    else:
        raise ValueError(f"unknown large family {family!r}")
    return inst


def large_round(rng: random.Random, k: int) -> list[dict]:
    steps = 2 * ROUNDS["filter-large"]
    return [large_instance(f, lo + (hi - lo) * (2 * k + 1) // steps, rng)
            for lo, hi in LARGE_BANDS for f in LARGE_FAMILIES]


def corpus_rng(workload: str, seed: int) -> random.Random:
    # det-small and rand-small share one corpus per seed, so the two engines
    # are compared on the same graphs.
    stream = "small" if workload in ("det-small", "rand-small") else workload
    return random.Random(f"perfbench:{stream}:{seed}")


def iter_corpus(workload: str, seed: int, rounds: int | None = None):
    """Yield the workload's rounds for this seed, one at a time, so large
    graphs can be written out and dropped before the next round is made."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = corpus_rng(workload, seed)
    make = large_round if workload == "filter-large" else small_round
    for k in range(rounds or ROUNDS[workload]):
        yield make(rng, k)


def verify_truth(inst: dict) -> None:
    """Re-derive each certificate the truth relies on, independently of the
    program under test."""
    g, truth = inst["graph"], inst["truth"]
    if "clique" in truth:
        c = truth["clique"]
        if len(c) != inst["d"] + 1 or any(not g.has_edge(a, b) for a in c for b in c if a < b):
            raise AssertionError(f"planted clique missing in {inst['id']}")
    if inst["family"] == "dense" and g.m <= (inst["d"] - 1) * g.n:
        raise AssertionError(f"dense instance {inst['id']} is not over the edge bound")
    if "solution" in inst and (forest_depth(g.n, g.edges(), inst["solution"]) is not None) != truth["feasible"]:
        raise AssertionError(f"solution file of {inst['id']} does not match its truth")


def write_corpus(workload: str, seed: int, out_dir: str, rounds: int | None = None) -> str:
    """Write the PACE files and a manifest; returns the manifest path.

    The manifest lists, per round, each instance's id, its files and CLI
    arguments (paths relative to out_dir), its budget and its truth."""
    os.makedirs(out_dir, exist_ok=True)
    mode = "deterministic" if workload == "det-small" else "randomized"
    manifest = []
    for r, rnd in enumerate(iter_corpus(workload, seed, rounds)):
        entries = []
        for i, inst in enumerate(rnd):
            inst["id"] = f"r{r:02d}i{i:02d}-{inst['family']}"
            verify_truth(inst)
            g = inst["graph"]
            gfile = f"{inst['id']}.gr"
            with open(os.path.join(out_dir, gfile), "w", encoding="ascii", newline="\n") as fh:
                fh.write(pace_graph(g))
            if "solution" in inst:
                sfile = f"{inst['id']}.sol"
                with open(os.path.join(out_dir, sfile), "w", encoding="ascii", newline="\n") as fh:
                    fh.write(pace_forest(inst["solution"]))
                args = [gfile, "--validate", sfile]
                kind = "validate"
            else:
                args = [gfile, "--max-depth", str(inst["d"]), "--mode", mode]
                if mode == "randomized":
                    args += ["--seed", str(inst["solver_seed"])]
                kind = "solve"
            entries.append({
                "id": inst["id"],
                "family": inst["family"],
                "kind": kind,
                "mode": mode,
                "graph": gfile,
                "args": args,
                "d": inst.get("d"),
                "truth": inst["truth"],
            })
        manifest.append(entries)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": manifest}, fh)
    return path
