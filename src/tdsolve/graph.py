"""Simple undirected graphs and the preprocessing steps the solvers consume:
connectivity, DFS and centroid approximation forests, the structural
filter, degree-bounded neighborhood improvement, maximal matchings (tuples
of vertex pairs), the reduction step (which hands back the improved graph it
built when it lifts simplicial vertices) and matching contraction.

Vertices are 0-indexed; adjacency lists are sorted; Graph values are
immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import nlargest
from itertools import chain
from typing import NamedTuple


class Graph:
    __slots__ = ("n", "adj", "m", "_lower_bound")

    def __init__(self, adj: list[list[int]]):
        """adj[v] is the sorted list of v's neighbours; every edge is listed
        at both ends and no vertex at its own, so n and m follow from it."""
        self.n = len(adj)
        self.adj = adj
        self.m = sum(map(len, adj)) // 2
        self._lower_bound = None

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return Graph(adj)

    def has_edge(self, u: int, v: int) -> bool:
        lst = self.adj[u]
        i = bisect_left(lst, v)
        return i < len(lst) and lst[i] == v

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced by `vertices`; returns it with the new->old index map.

    New indices follow the sorted order of the kept vertices.
    """
    old_of_new = sorted(vertices)
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    adj = [[] for _ in old_of_new]
    for new, old in enumerate(old_of_new):
        for w in g.adj[old]:
            wn = new_of_old.get(w)
            if wn is not None:
                adj[new].append(wn)
    return Graph(adj), old_of_new


def minus_vertex(g: Graph, v: int) -> Graph:
    """g without v; the vertices after v shift down by one."""
    adj = [[w - (w > v) for w in g.adj[u] if w != v] for u in range(g.n) if u != v]
    return Graph(adj)


def component_labels(g: Graph) -> tuple[list[int], int]:
    """The component index of every vertex, components numbered in the order
    of their least vertex, and the number of components."""
    label = [None] * g.n
    k = 0
    for s in range(g.n):
        if label[s] is not None:
            continue
        label[s] = k
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if label[w] is None:
                    label[w] = k
                    stack.append(w)
        k += 1
    return label, k


def connected_components(g: Graph) -> list[tuple[list[int], Graph]]:
    """Partition into components: (sorted vertex list, induced graph) pairs,
    ordered by least vertex; local vertex i of a component is its i-th
    listed vertex.

    A connected g is its own only component, so a lower bound recorded on g
    stays with it."""
    return labelled_components(g)[2]


def labelled_components(g: Graph) -> tuple[list[int], list[int], list[tuple[list[int], Graph]]]:
    """The component of every vertex, its index in that component's vertex
    list, and connected_components(g), all from one labelling."""
    label, k = component_labels(g)
    if k == 1:
        return label, range(g.n), [(list(range(g.n)), g)]
    comps = [[] for _ in range(k)]
    local = [0] * g.n
    for v, c in enumerate(label):
        local[v] = len(comps[c])
        comps[c].append(v)
    out = []
    for comp in comps:
        # every neighbour is in the component, and local indices keep the
        # order of g's, so each list comes out sorted
        adj = [[local[w] for w in g.adj[v]] for v in comp]
        out.append((comp, Graph(adj)))
    return label, local, out


def dfs_elimination_forest(g: Graph):
    """Forest of DFS calls, started from each unvisited vertex in ascending
    order, neighbors scanned ascending.  Always a valid elimination forest;
    depth at most exponential in the true treedepth.
    """
    from .forest import RootedForest

    return RootedForest(_dfs(g)[0])


def _dfs(g: Graph, first: int = 0, cap: int = 0) -> tuple[list[int], int]:
    """The parent array of a DFS forest and its depth, the deepest the DFS
    stack gets.  Searches start at each unvisited vertex in ascending order
    from first, wrapping around to 0; first=0 gives dfs_elimination_forest.
    With cap >= 2 it returns (partial parents, cap) once the stack holds cap.

    The stack holds plain ints and each vertex keeps a cursor into its
    adjacency list, so a deep search allocates nothing per vertex: per-vertex
    frame objects would survive into the collector's old generation on long
    paths and set off full collections of the whole heap.  A leaf is
    finished where it is found, without a push."""
    adj = g.adj
    parent = [-1] * g.n
    seen = [False] * g.n
    cursor = [0] * g.n
    deepest = 0
    for s in chain(range(first, g.n), range(first)):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        u, i = s, 0
        while True:
            nb = adj[u]
            for j in range(i, len(nb)):
                w = nb[j]
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    if len(adj[w]) == 1:  # its one neighbour is u
                        if len(stack) >= deepest:
                            deepest = len(stack) + 1
                        continue
                    cursor[u] = j + 1
                    stack.append(w)
                    if len(stack) == cap:
                        return parent, cap
                    u, i = w, 0
                    break
            else:
                if len(stack) > deepest:
                    deepest = len(stack)
                stack.pop()
                if not stack:
                    break
                u = stack[-1]
                i = cursor[u]
    return parent, deepest


def centroid_forest(g: Graph):
    """Heuristic elimination forest, built one component at a time: root the
    component at the centroid of a DFS spanning tree (the vertex whose
    largest remaining tree piece is smallest, ties to the smallest index),
    then recurse on the components of what is left.

    Always a valid elimination forest; each level costs O(n+m).  On a forest
    the depth is at most floor(log2 n)+1.
    """
    from .forest import RootedForest

    n, adj = g.n, g.adj
    parent = [-1] * n
    alive = [True] * n
    mark = [-2] * n  # the centroid whose removal last split v off; -1 for the input
    tparent = [-1] * n
    size = [0] * n
    big = [0] * n
    # pending components, each a DFS preorder and its forest parent; they are
    # disjoint, so they can share the scratch arrays
    work = []

    def split(starts, token):
        for s in starts:
            if not alive[s] or mark[s] == token:
                continue
            mark[s] = token
            tparent[s] = -1
            order = [s]
            stack = [(s, iter(adj[s]))]
            while stack:
                u, it = stack[-1]
                for w in it:
                    if alive[w] and mark[w] != token:
                        mark[w] = token
                        tparent[w] = u
                        order.append(w)
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    stack.pop()
            work.append((order, token))

    split(range(n), -1)
    while work:
        order, p = work.pop()
        for v in order:
            size[v] = 1
            big[v] = 0
        for v in reversed(order):
            u = tparent[v]
            if u >= 0:
                size[u] += size[v]
                if size[v] > big[u]:
                    big[u] = size[v]
        total = len(order)
        best = c = total
        for v in order:
            piece = max(total - size[v], big[v])
            if piece < best or (piece == best and v < c):
                best, c = piece, v
        parent[c] = p
        alive[c] = False
        split(adj[c], c)
    return RootedForest(parent)


def treedepth_lower_bound(g: Graph, d: int | None = None) -> int:
    """Cheap sound lower bound from three subgraphs of g, which bound
    treedepth from below because it never grows under taking subgraphs:
    - a DFS chain of D vertices is a path, so td >= ceil(log2(D+1));
    - a greedily grown clique of size c gives td >= c;
    - a DFS back edge that closes a cycle of L vertices with the tree path
      between its ends gives td >= 1 + ceil(log2 L), the depth of C_L.
    With a budget d, the bound returns as soon as it exceeds d (td > d is
    then settled): after the clique term, once the DFS stack holds 2^d
    vertices, or before the cycle term.

    Every call computes the bound and records it on g for
    recorded_lower_bound.  Not reading the record here keeps a repeated
    solve of one Graph object as costly as the first."""
    g._lower_bound = _lower_bound(g, d)
    return g._lower_bound


def recorded_lower_bound(g: Graph) -> int:
    """The bound treedepth_lower_bound last recorded on g; computed only when
    none was."""
    if g._lower_bound is None:
        return treedepth_lower_bound(g)
    return g._lower_bound


def _lower_bound(g: Graph, d: int | None) -> int:
    if g.n == 0:
        return 0
    degrees = list(map(len, g.adj))
    bound = 1
    for s in nlargest(8, range(g.n), key=degrees.__getitem__):
        size = 1
        common = set(g.adj[s])
        while common:
            v = min(common)
            size += 1
            common.intersection_update(g.adj[v])
        bound = max(bound, size)
    if d is not None and bound > d:
        return bound
    # from a vertex of least degree, so a path is searched from one end; a
    # chain of D vertices gives ceil(log2(D+1)) = bitlen(D), above d at 2^d
    cap = 0 if d is None else 1 << min(d, g.n.bit_length())  # 2^bitlen(n) > n: never met
    parent, dfs_depth = _dfs(g, degrees.index(min(degrees)), cap)
    bound = max(bound, dfs_depth.bit_length())
    if d is None or bound <= d:
        bound = max(bound, _cycle_bound(g.adj, parent))
    return bound


def _cycle_bound(adj: list[list[int]], parent: list[int]) -> int:
    """1 + ceil(log2 L) for the longest cycle of L vertices that one back
    edge of the DFS forest `parent` closes with the tree path between its
    ends, or 1 when g has no edge.

    Every edge of a DFS forest of an undirected graph joins an ancestor and
    a descendant, so an edge closes a cycle of its ends' depth difference
    plus one vertices (2, for a tree edge, bounds any graph with an edge).
    Plain loops: on graphs of a dozen vertices, per-vertex maps and level
    lists cost more than they save."""
    depth = [0] * len(parent)
    for v in range(len(parent)):
        walk = []
        while v >= 0 and not depth[v]:
            walk.append(v)
            v = parent[v]
        k = depth[v] if v >= 0 else 0
        for u in reversed(walk):
            k += 1
            depth[u] = k
    span = 0
    for u, nb in enumerate(adj):
        du = depth[u]
        for w in nb:
            if du - depth[w] > span:
                span = du - depth[w]
    return 1 + span.bit_length()


def structurally_infeasible(g: Graph, d: int) -> bool:
    """Sound structural rejection of a graph with at least two vertices:
    more than d*n edges, or a path subgraph, clique or DFS cycle certifying
    td > d."""
    return g.n > 1 and (g.m > d * g.n or treedepth_lower_bound(g, d) > d)


def improved_graph(g: Graph, d: int) -> Graph:
    """Supergraph with an edge added between every non-adjacent pair having
    at least d+1 common neighbors of degree at most d.

    Pair counts are bucketed through the low-degree witnesses, so the cost is
    O(d^2 n) plus the output size when m <= d*n.
    """
    counts: dict[tuple[int, int], int] = {}
    for w in range(g.n):
        nb = g.adj[w]
        if len(nb) > d:
            continue
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                key = (nb[i], nb[j])
                counts[key] = counts.get(key, 0) + 1
    extra = [p for p, c in counts.items() if c >= d + 1 and not g.has_edge(*p)]
    if not extra:
        return g
    adj = [list(lst) for lst in g.adj]
    for u, v in extra:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return Graph(adj)


def _simplicial_in(g: Graph) -> list[int]:
    """Vertices whose closed neighborhood is a clique in g."""
    sets = [set(nb) for nb in g.adj]
    out = []
    for v in range(g.n):
        nb = g.adj[v]
        deg = len(nb)
        # clique members all see each other, so no neighbor may have a
        # smaller degree than v itself
        if any(len(g.adj[w]) < deg for w in nb):
            continue
        ok = True
        for i in range(deg):
            si = sets[nb[i]]
            for j in range(i + 1, deg):
                if nb[j] not in si:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(v)
    return out


def greedy_maximal_matching(g: Graph) -> tuple:
    """Maximal matching as disjoint (u, v) edges with u < v, scanning edges in
    ascending (min, max) order so the result is reproducible."""
    used = [False] * g.n
    out = []
    for u in range(g.n):
        if used[u]:
            continue
        for v in g.adj[u]:
            if v > u and not used[v]:
                used[u] = used[v] = True
                out.append((u, v))
                break
    return tuple(out)


class BodlaenderOutcome(NamedTuple):
    kind: str  # "matching" | "simplicial" | "too_deep"
    matching: tuple | None = None
    vertices: tuple = ()
    improved: Graph | None = None  # the improved graph, on a simplicial outcome


BOD_FACTOR = 72


def bod_fraction(d: int) -> int:
    """Bodlaender's fraction constant c(d) = BOD_FACTOR * (d+1)^6: a
    reduction step takes at least n / c(d) pairs or vertices."""
    return BOD_FACTOR * (d + 1) ** 6


def bodlaender_step(g: Graph, d: int) -> BodlaenderOutcome:
    """One reduction step: the larger of a maximal matching and a set of
    improved-simplicial vertices, or the verdict that the budget is hopeless.

    The candidates are the greedy matching of g and the improved-simplicial
    vertices that it leaves unmatched and that have degree at most d in g.
    A reduction is large enough when it has at least n / bod_fraction(d)
    pairs or vertices.  The matching is contracted when it is large enough
    and has at least as many pairs as the set has vertices; otherwise the
    set is lifted when it is large enough, and otherwise the step is
    too_deep.  Either reduction is sound by Bodlaender's lemma; taking the
    larger one keeps star-like graphs, whose matchings have one pair, from
    needing n levels.  The large-clique shortcut in the improved graph is
    checked first, so complete graphs on d+2 vertices are rejected
    outright.
    """
    n = g.n
    g_imp = improved_graph(g, d)
    simp = _simplicial_in(g_imp)
    for v in simp:
        if g_imp.degree(v) + 1 >= d + 2:
            return BodlaenderOutcome("too_deep")
    threshold = n / bod_fraction(d)
    matching = greedy_maximal_matching(g)
    matched = {v for pair in matching for v in pair}
    cand = tuple(v for v in simp if v not in matched and g.degree(v) <= d)
    if len(matching) >= max(threshold, len(cand)):
        return BodlaenderOutcome("matching", matching=matching)
    if len(cand) >= threshold:
        return BodlaenderOutcome("simplicial", vertices=cand, improved=g_imp)
    return BodlaenderOutcome("too_deep")


def contract_matching(g: Graph, matching: tuple) -> tuple[Graph, list[tuple]]:
    """Merge every matched pair into one vertex; parallel edges are
    deduplicated and loops dropped.

    Returns the contracted graph and, per new vertex, its tuple of
    pre-images (one or two old vertices, ascending).  New indices follow the
    sorted order of minimum pre-images.
    """
    mate = [-1] * g.n
    for u, v in matching:
        mate[u] = v
        mate[v] = u
    new = [0] * g.n
    cmap = []
    for v, w in enumerate(mate):
        if w < 0 or w > v:
            new[v] = len(cmap)
            cmap.append((v,) if w < 0 else (v, w))
        else:
            new[v] = new[w]
    adj = []
    for x, pre in enumerate(cmap):
        nb = {new[w] for a in pre for w in g.adj[a]}
        nb.discard(x)
        adj.append(sorted(nb))
    return Graph(adj), cmap
