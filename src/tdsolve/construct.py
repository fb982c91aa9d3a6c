"""Construction driver shared by both solvers, the reduction descent that
supplies its auxiliary forests, and the deterministic solver: an exact root
scan on top of the counting engine.

The driver splits every graph it is given into its connected components
and runs the self-reduction per component: a root finder names a vertex v
whose removal leaves a feasible instance, the driver recurses on g-v and
attaches v as the root.  Both solvers enter through build_guided (the
centroid forest, or the descent when that is more than d+1 deep), so they
differ only in the finder they pass in.

The exact scan looks only at the graphs g-v: a connected g has depth at most
d exactly when some g-v has depth at most d-1, so an exhausted scan
certifies the verdict None (exact counts give no false negatives).  Both
solvers certify a root through fits, which settles a component of g-v by its
size or by the structural filter where it can, and builds t-v and counts
only where neither decides."""

from __future__ import annotations

from typing import Callable

from .counting import count_elim_forests
from .forest import (
    RootedForest,
    attach_root,
    expand_contracted_forest,
    lift_simplicial,
    merge_forests,
    remove_vertex,
    split_components,
)
from .graph import (
    Graph,
    bodlaender_step,
    centroid_forest,
    contract_matching,
    induced_subgraph,
    labelled_components,
    minus_vertex,
    structurally_infeasible,
)

RootFinder = Callable[[Graph, RootedForest, int], tuple[int, int] | None]
LazyForest = RootedForest | Callable[[], RootedForest]


def build_forest(g: Graph, t: RootedForest, d: int, find_root: RootFinder) -> RootedForest | None:
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


def build_over_shallower(g: Graph, t: RootedForest, d: int, find_root: RootFinder) -> RootedForest | None:
    """build_forest over the shallower of t and the centroid forest of g (t
    on a tie): counting cost grows steeply with the depth of the auxiliary
    forest, and any valid one will do."""
    return build_forest(g, min(t, centroid_forest(g), key=lambda f: f.max_depth), d, find_root)


def descend(g: Graph, d: int, find_root: RootFinder) -> RootedForest | None:
    """Reduction descent on a graph that passed structurally_infeasible and
    whose centroid forest is more than d+1 deep (see build_guided).

    Going down, each level's reduction step contracts a matching or lifts
    simplicial vertices, and the smaller graph is filtered before the next
    level; at most one vertex is left at the bottom.  Coming back up, each
    level expands or lifts the forest of the level below and builds over it
    with find_root.  A loop, not a recursion: the reduction lemma promises
    only n/c(d) vertices per level, so the number of levels must not be
    bounded by the interpreter's stack.

    With find_root_exact every None is certified, that is td(g) > d:
    - A lower level graph is a matching contraction of the one above (a
      minor) or an induced subgraph of its improved graph, which has depth
      at most d exactly when the graph above does.  Either way it fits depth
      d whenever g does, so a None from structurally_infeasible or from
      build_forest at any level is sound.
    - A None from build_forest is certified by find_root_exact, whether a
      g-v failed on a zero count or on a component the structural filter
      refutes.
    - too_deep comes from an improved-simplicial vertex of degree d+1 or
      more, that is a (d+2)-clique in the improved graph.  Its other source,
      the n / bod_fraction(d) threshold, cannot fire on a graph with an edge
      below 72(d+1)^6 vertices: one matched pair already reaches it.  Above
      that size it rests on Bodlaender's lemma.
    - lift_simplicial returns None on a lifted vertex with d placed
      neighbours, a (d+1)-clique.  Its depth check cannot fire: the lifted
      set is unmatched by a maximal matching, so independent in g, and its
      vertices have degree at most d in g, too few to share the d+1
      neighbours an improved edge needs.  So each lands below kept
      vertices only, at depth at most d+1 <= 2d."""
    levels = []  # (graph, step, contraction map or kept vertices)
    while g.n > 1:
        step = bodlaender_step(g, d)
        if step.kind == "too_deep":
            return None
        if step.kind == "matching":
            h, back = contract_matching(g, step.matching)
        else:
            lifted = set(step.vertices)
            h, back = induced_subgraph(step.improved, [v for v in range(g.n) if v not in lifted])
        if structurally_infeasible(h, d):
            return None
        levels.append((g, step, back))
        g = h
    f = RootedForest([-1] * g.n)
    for g, step, back in reversed(levels):
        if step.kind == "matching":
            t = expand_contracted_forest(f, back)
        else:
            t = lift_simplicial(f, back, step.improved, list(step.vertices), d)
            if t is None:
                return None
        f = build_over_shallower(g, t, d, find_root)
        if f is None:
            return None
    return f


def fits(g: Graph, t: LazyForest, d: int) -> bool:
    """Whether count_elim_forests(g, t, d) is nonzero.  A component of at
    most d vertices fits, one that structurally_infeasible rejects does not,
    and the rest are counted once all have passed the filter; only then is
    t built (when it is a function) and validated."""
    big = [sub for _, sub in labelled_components(g)[2] if sub.n > d]
    if any(structurally_infeasible(sub, d) for sub in big):
        return False
    if not big:
        return True
    parts = split_components(g, t if isinstance(t, RootedForest) else t())
    return all(count_elim_forests(sub, subt, d) for _, sub, subt in parts if sub.n > d)


def find_root_exact(g: Graph, t: RootedForest, d: int) -> tuple[int, int] | None:
    """The first vertex v, in index order, such that g-v fits budget d-1, or
    the certified None when there is none: every g-v failed on a component
    the structural filter refutes or whose exact count is zero.

    t-v is built, and validated, only where a component of g-v is counted."""
    for v in range(g.n):
        if fits(minus_vertex(g, v), lambda: remove_vertex(t, v), d - 1):
            return v, d - 1
    return None


def construct_elim_forest(g: Graph, t: RootedForest, d: int) -> RootedForest | None:
    """Exact-count self-reduction: an elimination forest of g of depth at most
    d, or the verdict None, certified by an exhausted root scan.  t is
    validated per counted t-v, not against g as a whole."""
    return build_forest(g, t, d, find_root_exact)


def build_guided(g: Graph, d: int, find_root: RootFinder) -> RootedForest | None:
    """Both solvers' entry after their filter: the descent exists to supply
    an auxiliary forest of depth O(d), so a centroid forest at most d+1 <= 2d
    deep is built over directly, and only a deeper one takes the descent."""
    c = centroid_forest(g)
    if c.max_depth <= d + 1:
        return build_forest(g, c, d, find_root)
    return descend(g, d, find_root)


def solve_deterministic(g: Graph, d: int) -> RootedForest | None:
    """Exact-count self-reduction of g through build_guided with
    find_root_exact, whose roots do not depend on the auxiliary forest.  The
    verdict None certifies td(g) > d: the structural filter that may give it
    first is sound, and so is the descent (see descend)."""
    if g.n == 0:
        return RootedForest([])
    if d < 1 or structurally_infeasible(g, d):
        return None
    return build_guided(g, d, find_root_exact)
