"""Construction driver shared by both solvers, the reduction descent that
supplies its auxiliary forests, and the deterministic solver: an exact root
scan on top of the counting engine.

The driver splits every graph it is given into its connected components
and runs the self-reduction per component: a root finder names a vertex v
whose removal leaves a feasible instance, with the split of g-v that shows
it, and the driver writes v into one parent array and recurses on that
split.  Both solvers enter through build_guided, with different finders.

The exact scan looks only at the graphs g-v: a connected g has depth at most
d exactly when some g-v has depth at most d-1, so an exhausted scan
certifies the verdict None (exact counts give no false negatives).  Both
solvers certify a root through fits, which labels g-v once and settles each
component of g-v by its size, by the structural filter, by its own forest
(the shallower of its restriction of t and its centroid forest, when that
is an elimination forest within budget) or by a count over that forest."""

from __future__ import annotations

from typing import Callable

from .counting import count_elim_forests
from .forest import (
    Parts,
    RootedForest,
    expand_contracted_forest,
    lift_simplicial,
    restrict_forest,
    split_components,
    unbound_edge,
    validate_elimination_forest,
)
from .graph import (
    Graph,
    bodlaender_step,
    centroid_forest,
    contract_matching,
    induced_subgraph,
    labelled_components,
    structurally_infeasible,
)

RootFinder = Callable[[Graph, RootedForest, int], tuple[int, int, Parts] | None]


def build_forest(g: Graph, t: RootedForest, d: int, find_root: RootFinder) -> RootedForest | None:
    """Build an elimination forest of g of depth at most d, guided by the
    auxiliary elimination forest t, or return None when find_root finds no
    root for some component.

    find_root(g, t, d) is only asked about connected graphs with at least two
    vertices; it returns a root v, the depth budget left for g-v and the
    parts of g-v from fits, or None.  Each root goes straight into one parent
    array over g's vertices, and only g itself is split here: the recursion
    runs on the finder's parts."""
    parent = [-1] * g.n

    def place(parts: Parts, names, d: int, above: int) -> bool:
        # roots every part below above; names maps the parts' graph to g
        for verts, sub, subt in parts:
            if d < 1:
                return False
            if sub.n == 1:
                parent[names[verts[0]]] = above
                continue
            found = find_root(sub, subt, d)
            if found is None:
                return False
            v, budget, below = found
            verts = [names[u] for u in verts]
            parent[verts[v]] = above
            if not place(below, verts, budget, verts[v]):
                return False
        return True

    return RootedForest(parent) if place(split_components(g, t), range(g.n), d, -1) else None


def shallower(g: Graph, t: RootedForest) -> RootedForest:
    """The shallower of t and the centroid forest of g, t on a tie: counting
    cost grows steeply with the depth of the auxiliary forest, and any valid
    one will do."""
    return min(t, centroid_forest(g), key=lambda f: f.max_depth)


def descend(g: Graph, d: int, find_root: RootFinder) -> RootedForest | None:
    """Reduction descent on a graph that passed structurally_infeasible and
    whose centroid forest is more than d+1 deep (see build_guided).

    Going down, each level's reduction step contracts a matching or lifts
    simplicial vertices, and the smaller graph is filtered before the next
    level; at most one vertex is left at the bottom.  Coming back up, each
    level expands or lifts the forest of the level below and builds over the
    shallower of it and the level's centroid forest with find_root.  A loop,
    not a recursion: the reduction lemma promises only n/c(d) vertices per
    level, so the number of levels must not be bounded by the interpreter's
    stack.

    With either finder every None is certified, that is td(g) > d:
    - A lower level graph is a matching contraction of the one above (a
      minor) or an induced subgraph of its improved graph, which has depth
      at most d exactly when the graph above does.  Either way it fits depth
      d whenever g does, so a None from structurally_infeasible or from
      build_forest at any level is sound.
    - A None from build_forest is certified by the finder: find_root_exact
      rejects every g-v on a zero count or on a component the structural
      filter refutes, and linear.find_root_colorcoding's one coloring cannot
      miss a root of a graph that fits.
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
        f = build_forest(g, shallower(g, t), d, find_root)
        if f is None:
            return None
    return f


def fits(g: Graph, t: RootedForest, v: int, d: int) -> Parts | None:
    """The parts of g-v if it fits depth d (count_elim_forests is nonzero on
    it), else None.  From one labelling of g-v, a component of at most d
    vertices fits, one that structurally_infeasible rejects does not, and
    only once all pass is t restricted.  A larger part fits when its forest
    shallower(part, restriction) is itself a witness, at most d deep and
    binding every edge (then td <= d, so its count is nonzero); only the
    other parts are counted, so a forest that leaves an edge unbound still
    reaches the count, which raises.

    The parts are split_components(g, t, v), but each larger part comes
    with its forest shallower(part, restriction)."""
    labelled = labelled_components(g, v)
    if any(structurally_infeasible(sub, d) for _, sub in labelled[2] if sub.n > d):
        return None
    parts = restrict_forest(t, labelled)
    for i, (verts, sub, subt) in enumerate(parts):
        if sub.n > d:
            subt = shallower(sub, subt)
            if (subt.max_depth > d or unbound_edge(sub, subt)) and not count_elim_forests(sub, subt, d):
                return None
            parts[i] = verts, sub, subt
    return parts


def find_root_exact(g: Graph, t: RootedForest, d: int) -> tuple[int, int, Parts] | None:
    """The first vertex v, in index order, such that g-v fits budget d-1, with
    d-1 and the parts of g-v, or the certified None when there is none: every
    g-v failed on a component the structural filter refutes or counts zero."""
    for v in range(g.n):
        parts = fits(g, t, v, d - 1)
        if parts is not None:
            return v, d - 1, parts
    return None


def construct_elim_forest(g: Graph, t: RootedForest, d: int) -> RootedForest | None:
    """Exact-count self-reduction: an elimination forest of g of depth at most
    d, or the verdict None, certified by an exhausted root scan.  t is
    validated per counted component of g-v, not against g as a whole."""
    return build_forest(g, t, d, find_root_exact)


def build_guided(g: Graph, d: int, find_root: RootFinder) -> RootedForest | None:
    """Both solvers' entry after their filter: the descent exists to supply
    an auxiliary forest of depth O(d), so a centroid forest at most d+1 <= 2d
    deep is built over directly, and only a deeper one takes the descent.
    Never returns an invalid forest: every one is validated against g."""
    c = centroid_forest(g)
    f = build_forest(g, c, d, find_root) if c.max_depth <= d + 1 else descend(g, d, find_root)
    if f is not None and not validate_elimination_forest(g, f, d):
        raise AssertionError("solver produced an invalid forest; this is a bug")
    return f


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
