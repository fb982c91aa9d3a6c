"""Test-only ground truth: brute-force treedepth, the sensibility test with
its forest helpers (parent arrays, ancestry, tails), exhaustive enumeration
of sensible bounded-depth elimination trees, the paper's modular ring
policy, instance generators, and a small isomorphism-free catalog of
connected graphs.

The brute-force routines deliberately trade space for simplicity (subset
memoization); they are capped at sizes where that is harmless.
"""

from __future__ import annotations

import random
from itertools import permutations

from .forest import RootedForest
from .graph import Graph
from .polyring import ExactRing, ModularRing

_BRUTE_TD_CAP = 20
_BRUTE_COUNT_CAP = 7


def brute_td(g: Graph) -> int:
    """Exact treedepth by recursion on vertex subsets: a connected piece
    needs one root plus the best over all root choices."""
    if g.n > _BRUTE_TD_CAP:
        raise ValueError(f"brute_td capped at n <= {_BRUTE_TD_CAP}")
    adj = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            adj[u] |= 1 << v
    memo: dict[int, int] = {}

    def comps(mask: int) -> list[int]:
        out = []
        rem = mask
        while rem:
            bit = rem & -rem
            cur = bit
            frontier = bit
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grow = adj[v] & mask & ~cur
                cur |= grow
                frontier |= grow
            out.append(cur)
            rem &= ~cur
        return out

    def td(mask: int) -> int:
        if mask == 0:
            return 0
        got = memo.get(mask)
        if got is not None:
            return got
        pieces = comps(mask)
        if len(pieces) > 1:
            best = max(td(p) for p in pieces)
        else:
            best = g.n
            rem = mask
            while rem:
                bit = rem & -rem
                rem &= rem - 1
                best = min(best, 1 + td(mask & ~bit))
        memo[mask] = best
        return best

    return td((1 << g.n) - 1)


def candidate_roots(g: Graph, d: int) -> set:
    """Vertices v with brute_td(g - v) < d; for connected g of treedepth
    exactly d these are precisely the feasible roots of optimal trees."""
    from .graph import minus_vertex

    out = set()
    for v in range(g.n):
        if brute_td(minus_vertex(g, v)) < d:
            out.add(v)
    return out


def all_elimination_trees(g: Graph, d: int):
    """Yield every single-rooted elimination tree of g of depth <= d, as a
    RootedForest, by filtering all parent assignments."""
    if g.n > _BRUTE_COUNT_CAP:
        raise ValueError(f"exhaustive enumeration capped at n <= {_BRUTE_COUNT_CAP}")
    n = g.n
    if n == 0:
        return
    choices = [[-1] + [p for p in range(n) if p != v] for v in range(n)]
    idx = [0] * n

    def assignment_ok(parent):
        roots = 0
        depth = [0] * n
        for v in range(n):
            if parent[v] < 0:
                roots += 1
        if roots != 1:
            return False
        for v in range(n):
            seen = 0
            u = v
            dep = 1
            while parent[u] >= 0:
                u = parent[u]
                dep += 1
                seen += 1
                if seen > n:
                    return False  # cycle
            if dep > d:
                return False
            depth[v] = dep
        return True

    # odometer over the per-vertex choice lists
    total = 1
    for c in choices:
        total *= len(c)
    parent = [choices[v][0] for v in range(n)]
    edges = list(g.edges())
    for _ in range(total):
        if assignment_ok(parent):
            f = RootedForest(parent)
            if all(ancestor_related(f, u, v) for u, v in edges):
                yield f
        # advance odometer
        for v in range(n - 1, -1, -1):
            idx[v] += 1
            if idx[v] < len(choices[v]):
                parent[v] = choices[v][idx[v]]
                break
            idx[v] = 0
            parent[v] = choices[v][0]


def parent_array(f: RootedForest) -> list[int]:
    """The parent of every vertex of f, -1 for a root."""
    return [f.parent(v) for v in range(f.n)]


def is_ancestor(f: RootedForest, u: int, v: int) -> bool:
    """True when u is an ancestor of v in f (every vertex is its own ancestor)."""
    du = f.depth_of(u)
    while f.depth_of(v) > du:
        v = f.parent(v)
    return u == v


def ancestor_related(f: RootedForest, u: int, v: int) -> bool:
    """Symmetric comparability: one of u, v is an ancestor of the other."""
    if f.depth_of(u) > f.depth_of(v):
        u, v = v, u
    return is_ancestor(f, u, v)


def tail(f: RootedForest, v: int) -> set:
    """Ancestors of v in f, v included."""
    out = set()
    while v >= 0:
        out.add(v)
        v = f.parent(v)
    return out


def descendants(f: RootedForest, v: int) -> set:
    """Descendants of v in f, v included."""
    out = set()
    stack = [v]
    while stack:
        u = stack.pop()
        out.add(u)
        stack.extend(f.children(u))
    return out


def comparable(f: RootedForest, v: int) -> set:
    """Vertices comparable with v in f: its ancestors and descendants."""
    return tail(f, v) | descendants(f, v)


def closure(f: RootedForest, vs) -> set:
    """Ancestor closure in f: union of tails."""
    out = set()
    for v in vs:
        u = v
        while u >= 0 and u not in out:
            out.add(u)
            u = f.parent(u)
    return out


def check_sensible(g: Graph, t: RootedForest, r: RootedForest) -> bool:
    """True iff for every vertex u and every pair of distinct children v1, v2
    of u in t, the r-closures of the vertices comparable with v1 and with v2
    intersect exactly in the r-closure of u's ancestor path."""
    for u in range(g.n):
        kids = t.children(u)
        if len(kids) < 2:
            continue
        base = closure(r, tail(t, u))
        closures = [closure(r, comparable(t, v)) for v in kids]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if closures[i] & closures[j] != base:
                    return False
    return True


def brute_count_sensible(g: Graph, t: RootedForest, d: int) -> int:
    """Number of elimination trees of g of depth <= d that pass the
    sensibility test against t."""
    return sum(1 for f in all_elimination_trees(g, d) if check_sensible(g, t, f))


def choose_modulus(r: int, n: int, sampled_prime: int) -> ExactRing:
    """The paper's ring policy for an r-vertex subproblem of an n-vertex
    run: large ones (r >= log2 n) count modulo the run's prime, small ones
    in exact integers, so their verdicts are certain.  The solvers count
    every subproblem exactly."""
    if r < 1:
        raise ValueError("subproblem must be nonempty")
    if (1 << r) >= n:
        return ModularRing(sampled_prime)
    return ExactRing()


# ---------------------------------------------------------------------------
# instance generators (deterministic given the seed)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def random_graph(n: int, m: int, seed: int) -> Graph:
    """m distinct edges drawn uniformly without replacement."""
    rng = random.Random(seed)
    if m > n * (n - 1) // 2:
        raise ValueError("too many edges requested")
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def bounded(n: int, d: int, seed: int) -> Graph:
    """A connected graph of treedepth at most d: each vertex after the first
    hangs below a random earlier vertex of depth below d, and with
    probability 1/2 also gets an edge to a random proper ancestor of that
    parent.  Every edge joins a vertex to one of its ancestors in this
    depth-d tree, so the tree is an elimination tree.  Labels are shuffled."""
    if n > 1 and d < 2:
        raise ValueError("a connected graph on two or more vertices has treedepth at least 2")
    rng = random.Random(seed)
    parent = [-1]
    depth = [1]
    shallow = [0]  # the vertices of depth below d
    edges = []
    for v in range(1, n):
        p = rng.choice(shallow)
        parent.append(p)
        depth.append(depth[p] + 1)
        edges.append((p, v))
        if rng.random() < 0.5 and parent[p] >= 0:
            above = []
            a = parent[p]
            while a >= 0:
                above.append(a)
                a = parent[a]
            edges.append((rng.choice(above), v))
        if depth[v] < d:
            shallow.append(v)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph.from_edges(n, edges), perm)


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return Graph.from_edges(n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Graph with vertex i renamed to perm[i]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# isomorphism-free catalog of small connected graphs

_catalog_cache: dict[int, list[Graph]] = {}


def _edge_mask(g: Graph, perm=None) -> int:
    mask = 0
    for u, v in g.edges():
        if perm is not None:
            u, v = perm[u], perm[v]
        if u > v:
            u, v = v, u
        mask |= 1 << (v * (v - 1) // 2 + u)
    return mask


def _canonical(g: Graph) -> int:
    return min(_edge_mask(g, perm) for perm in permutations(range(g.n)))


def _graph_from_mask(n: int, mask: int) -> Graph:
    edges = []
    idx = 0
    for v in range(n):
        for u in range(v):
            if (mask >> idx) & 1:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def connected_graph_catalog(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on
    exactly n vertices, built by vertex augmentation."""
    if n in _catalog_cache:
        return _catalog_cache[n]
    if n > _BRUTE_COUNT_CAP:
        raise ValueError("catalog capped at small n")
    if n == 1:
        out = [Graph.from_edges(1, [])]
    else:
        smaller = connected_graph_catalog(n - 1)
        seen = set()
        out = []
        for g in smaller:
            base = list(g.edges())
            for attach in range(1, 1 << (n - 1)):
                edges = base + [(i, n - 1) for i in range(n - 1) if (attach >> i) & 1]
                cand = Graph.from_edges(n, edges)
                key = _canonical(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    _catalog_cache[n] = out
    return out


def connected_graphs_up_to(max_n: int) -> list[Graph]:
    out = []
    for n in range(1, max_n + 1):
        out.extend(connected_graph_catalog(n))
    return out
