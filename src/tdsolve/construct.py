"""Construction driver shared by both solvers, and the deterministic solver:
an exact root scan on top of the counting engine, guided by the centroid
forest when its depth is at most d+1 (the depth iterative compression counts
over anyway).  Iterative compression is the fallback for a deeper centroid
forest, so no auxiliary forest needs to be supplied.

The driver splits every graph it is given into its connected components
and runs the self-reduction per component: a root finder names a vertex v
whose removal leaves a feasible instance, the driver recurses on g-v and
attaches v as the root.  Solvers differ only in the finder they pass in.

The exact scan counts only the graphs g-v: a connected g has depth at most d
exactly when some g-v has depth at most d-1, so an exhausted scan certifies
the verdict None (with the exact ring there are no false negatives)."""

from __future__ import annotations

from typing import Callable

from .counting import count_elim_forests
from .forest import (
    RootedForest,
    attach_root,
    merge_forests,
    remove_vertex,
    split_components,
)
from .graph import (
    Graph,
    centroid_forest,
    minus_vertex,
    prefix_subgraph,
    structurally_infeasible,
)


def build_forest(
    g: Graph,
    t: RootedForest,
    d: int,
    find_root: Callable[[Graph, RootedForest, int], tuple[int, int] | None],
) -> RootedForest | None:
    """Build an elimination forest of g of depth at most d, guided by the
    auxiliary elimination forest t, or return None when find_root finds no
    root for some component.

    find_root(g, t, d) is only asked about connected graphs with at least two
    vertices; it returns a root v and the depth budget left for g-v, or None.
    """
    if g.n == 0:
        return RootedForest([])
    if d < 1:
        return None
    parts = []
    for verts, sub, subt in split_components(g, t):
        if sub.n == 1:
            parts.append((verts, RootedForest([-1])))
            continue
        found = find_root(sub, subt, d)
        if found is None:
            return None
        v, budget = found
        rest = build_forest(minus_vertex(sub, v), remove_vertex(subt, v), budget, find_root)
        if rest is None:
            return None
        parts.append((verts, attach_root(rest, v)))
    return merge_forests(parts)


def find_root_exact(g: Graph, t: RootedForest, d: int) -> tuple[int, int] | None:
    """The first vertex v, in index order, whose removal leaves a positive
    exact count at budget d-1, or the certified None when there is none.

    t is validated only as each t-v is counted against g-v."""
    for v in range(g.n):
        if count_elim_forests(minus_vertex(g, v), remove_vertex(t, v), d - 1) != 0:
            return v, d - 1
    return None


def construct_elim_forest(g: Graph, t: RootedForest, d: int) -> RootedForest | None:
    """Exact-ring self-reduction: an elimination forest of g of depth at most
    d, or the verdict None, certified by an exhausted root scan.  t is
    validated per tried t-v, not against g as a whole."""
    return build_forest(g, t, d, find_root_exact)


def solve_deterministic(g: Graph, d: int) -> RootedForest | None:
    """Exact-ring self-reduction of the whole of g, guided by the centroid
    forest when its depth is at most d+1.  Only when it is deeper does the
    fallback, iterative compression, supply the guide: grow the graph one
    vertex at a time, repairing a depth-(d+1) tree into a depth-d forest at
    every step.  Both give the same forest, since the exact scan's choice of
    root does not depend on the auxiliary forest, and build_forest splits
    components either way.  The verdict None certifies that the treedepth
    exceeds d: the structural filter that may give it first is sound."""
    if g.n == 0:
        return RootedForest([])
    if d < 1 or structurally_infeasible(g, d):
        return None
    c = centroid_forest(g)
    if c.max_depth <= d + 1:
        return construct_elim_forest(g, c, d)
    f = RootedForest([])
    for i in range(g.n):
        f = construct_elim_forest(prefix_subgraph(g, i + 1), attach_root(f, i), d)
        if f is None:
            return None
    return f
