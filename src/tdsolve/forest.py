"""Rooted forests on dense 0-indexed vertex sets: depths, preorder and
subtree sizes, elimination-forest validation (O(n + m), by preorder
intervals), and the surgeries used by both solver drivers (the split of a
graph, less at most one vertex, and its forest into components from one
labelling, or of the forest alone on a given labelling; contraction
expansion, simplicial lifting).

A parent of -1 marks a root, in the arrays forests are built from and in
what `RootedForest.parent` returns.  Forests are immutable after
construction, so the one-vertex parts of a split share one forest.
Operations that shrink or grow the vertex set reindex it the same way graph
operations do: surviving vertices keep their relative order.
"""

from __future__ import annotations

from .graph import Graph, labelled_components


class RootedForest:
    __slots__ = ("n", "_parent", "_children", "_depth", "_order", "roots")

    def __init__(self, parent: list[int]):
        """parent[v] is the parent index, or -1 for roots."""
        n = len(parent)
        self.n = n
        self._parent = list(parent)
        children = [[] for _ in range(n)]
        roots = []
        for v, p in enumerate(self._parent):
            if p < 0:
                roots.append(v)
            else:
                children[p].append(v)
        self._children = children
        self.roots = roots
        depth = [0] * n
        order = []
        stack = list(roots)
        for r in roots:
            depth[r] = 1
        while stack:
            u = stack.pop()
            order.append(u)
            du = depth[u] + 1
            for w in children[u]:
                depth[w] = du
                stack.append(w)
        if n and not all(depth):
            raise ValueError("parent assignment contains a cycle")
        self._depth = depth
        self._order = order

    def parent(self, v: int) -> int:
        """The parent of v, or -1 for a root."""
        return self._parent[v]

    def children(self, v: int) -> list[int]:
        return self._children[v]

    def depth_of(self, v: int) -> int:
        return self._depth[v]

    @property
    def max_depth(self) -> int:
        return max(self._depth) if self.n else 0

    def preorder(self) -> list[int]:
        """Vertices in depth-first preorder: every subtree is a contiguous run
        that starts at its root."""
        return self._order

    def subtree_sizes(self) -> list[int]:
        """Number of descendants of each vertex, itself included; a reversed
        preorder reaches every child before its parent."""
        size = [1] * self.n
        parent = self._parent
        for v in reversed(self._order):
            p = parent[v]
            if p >= 0:
                size[p] += size[v]
        return size

    def __eq__(self, other):
        return isinstance(other, RootedForest) and other._parent == self._parent

    def __hash__(self):
        return hash(tuple(self._parent))

    def __repr__(self):
        return f"RootedForest({self._parent})"


def unbound_edge(g: Graph, f: RootedForest) -> tuple[int, int] | None:
    """The first edge of g, in g.edges() order, whose endpoints f leaves
    unrelated, or None when f binds every edge; f must span V(g).

    u is an ancestor of v exactly when v's preorder number lies in u's
    subtree interval first[u] <= first[v] < first[u] + size[u], so the check
    is O(n + m) whatever the depth of f."""
    first = [0] * f.n
    for i, v in enumerate(f.preorder()):
        first[v] = i
    size = f.subtree_sizes()
    for u, v in g.edges():
        a, b = first[u], first[v]
        if not (b < a + size[u] if a <= b else a < b + size[v]):
            return (u, v)
    return None


def validate_elimination_forest(g: Graph, f: RootedForest, d: int) -> bool:
    """True iff f spans V(g), every edge joins comparable vertices, and the
    depth stays within budget d."""
    if f.n != g.n:
        return False
    if g.n and f.max_depth > d:
        return False
    return unbound_edge(g, f) is None


Parts = list[tuple[list[int], Graph, RootedForest]]

_ONE_VERTEX = RootedForest([-1])


def split_components(g: Graph, t: RootedForest, drop: int = -1) -> Parts:
    """(sorted vertex list in g's indices, induced subgraph, restricted
    forest) for each component of g-drop, ordered by least vertex.  A
    vertex's parent there is its deepest proper t-ancestor in the component,
    so depths never increase; a connected g with nothing dropped comes back
    with its own g and t, since that restriction keeps every parent."""
    _, _, comps = labelled = labelled_components(g, drop)
    if len(comps) == 1 and drop < 0:
        return [(comps[0][0], g, t)]
    return restrict_forest(t, labelled)


def restrict_forest(t: RootedForest, labelled) -> Parts:
    """split_components(g, t, drop), given labelled_components(g, drop)."""
    comp, local, comps = labelled
    tparent = t._parent
    parents = [[] for _ in comps]
    for v, c in enumerate(comp):  # ascending, so each component's vertices in list order
        if c < 0:
            continue
        p = tparent[v]
        while p >= 0 and comp[p] != c:
            p = tparent[p]
        parents[c].append(local[p] if p >= 0 else -1)
    forests = [RootedForest(parent) if len(parent) > 1 else _ONE_VERTEX for parent in parents]
    return [(verts, sub, f) for (verts, sub), f in zip(comps, forests)]


def merge_forests(parts) -> RootedForest:
    """Union of per-component forests back in the global index space; parts
    are (sorted global vertex list, local forest) pairs whose lists together
    cover 0..n-1 once."""
    parent = [-1] * sum(len(verts) for verts, _ in parts)
    for verts, local in parts:
        for i, old in enumerate(verts):
            p = local.parent(i)
            parent[old] = -1 if p < 0 else verts[p]
    return RootedForest(parent)


def expand_contracted_forest(f: RootedForest, cmap: list[tuple]) -> RootedForest:
    """Undo a matching contraction inside an elimination forest: every merged
    pair becomes a parent-child chain (smaller original index on top), so the
    depth at most doubles.  cmap lists each vertex's pre-images, as
    contract_matching returns it, and they cover the old vertices once."""
    parent = [-1] * sum(map(len, cmap))
    for x in range(f.n):
        pre = cmap[x]
        p = f.parent(x)
        top = pre[0]
        parent[top] = -1 if p < 0 else cmap[p][-1]
        if len(pre) == 2:
            parent[pre[1]] = top
    return RootedForest(parent)


def lift_simplicial(
    f: RootedForest,
    kept: list[int],
    g_imp: Graph,
    ordered_a: list[int],
    d: int,
) -> RootedForest | None:
    """Reattach improved-simplicial vertices, each below its lowest-placed
    neighbor (as a new root when it has none).

    f is a forest on the improved graph minus the lifted set, in the
    reindexed space described by `kept` (new->old).  Returns a forest on all
    of g_imp, or None when a neighborhood clique reaches size d or the final
    depth exceeds 2d, both of which certify that budget d is hopeless.
    """
    n = g_imp.n
    parent = [-1] * n
    depth = [0] * n
    placed = [False] * n
    for i, old in enumerate(kept):
        p = f.parent(i)
        parent[old] = -1 if p < 0 else kept[p]
        depth[old] = f.depth_of(i)
        placed[old] = True
    for v in ordered_a:
        nbrs = [w for w in g_imp.adj[v] if placed[w]]
        if len(nbrs) >= d:
            return None
        if not nbrs:
            parent[v] = -1
            depth[v] = 1
        else:
            low = max(nbrs, key=lambda w: depth[w])
            parent[v] = low
            depth[v] = depth[low] + 1
        placed[v] = True
    if n and max(depth) > 2 * d:
        return None
    return RootedForest(parent)

