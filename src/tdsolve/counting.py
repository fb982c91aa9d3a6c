"""Counting engine for sensible bounded-depth elimination trees.

The counter walks an auxiliary elimination tree T of the (connected) input
graph top-down and maintains a small skeleton tree K into which the already
processed vertices are mapped.  Two mutually recursive evaluations cooperate:

* placed(u): u's image is fixed; an internal vertex contributes the
  product over its T-children of pending(child) (edge constraints are
  enforced incrementally at placement time).
* pending(u): sums over all ways to place u — either reusing an allowed
  skeleton vertex (which costs one power of the formal variable, and picks up
  u's weight when the image is the skeleton root), or hanging a fresh
  downward chain below some skeleton vertex and placing u at its tip.  Fresh
  chains are summed with alternating signs over the subsets of their interior
  that are opened for reuse, so mappings that fail to hit every fresh vertex
  cancel; the chain length is repaid by shifting the polynomial down.

The free term of the top-level sum counts exactly the bijective mappings,
i.e. genuine elimination trees of depth at most d that are sensible with
respect to T; with per-vertex weights it returns the weighted sum over
feasible roots instead.

Two exact prunes keep the recursion from exploring provably-cancelling
branches: a placement that violates an edge toward an already-placed
neighbor dies immediately (equivalent to the leaf-time check because T binds
every edge), and a fresh chain longer than u's remaining subtree is skipped
because its interior could never be fully covered.  Degrees at or above the
cap d*depth(T) cannot feed back into the free term, so coefficient lists
stay short.

pending(u) picks its moves by bitmask: the skeleton keeps ancestor and
descendant masks, so one AND per placed ancestor-neighbour of u gives the
reusable images and the attachment points for fresh chains.  A leaf u of T
needs no recursion at all: each allowed move contributes exactly one
mapping, so its polynomial is the two popcounts of those masks.

Everything runs in space polynomial in the input: the recursion depth is
bounded by the depth of T, frames share one skeleton (grown and rolled back
by fresh chains only) and one mapping, and nothing is memoized.  Every sum
of polynomials is one polyring.poly_addmul, every product one poly_mul.

A modular count is made in plain integers and reduced once, at the end.
Reduction mod p is a ring homomorphism, so this gives the residues that a
reduction in every frame would.  The exact numbers stay polynomially long:
a sensible tree is a rooted tree on V(g), so by Cayley's formula there are
at most n^(n-1) of them, and each coefficient of pending(u) in an
unweighted count is at most (d * depth(T) * 2^d)^|T_u|, the bound that
check_bounds certifies.  Python's integers handle these faster than a
reduction per frame, on graphs of up to 800 vertices as well as small ones.
"""

from __future__ import annotations

from typing import NamedTuple

from .forest import RootedForest, split_components, unbound_edge
from .graph import Graph
from .polyring import ExactRing, poly_addmul, poly_mul, poly_trim


class SearchFrame(NamedTuple):
    """Snapshot of one recursion state, for diagnostics: current vertex, the
    skeleton's parent array, the mapping so far, and the reuse bitmask."""

    vertex: int
    skeleton_parents: tuple
    mapping: tuple
    allowed: int


class CoefficientBoundError(AssertionError):
    """A frame produced a coefficient outside the certified range."""

    def __init__(self, frame: SearchFrame, coeffs, limit):
        super().__init__(f"coefficient bound {limit} violated at {frame}: {coeffs}")
        self.frame = frame


def _validate_aux_tree(g: Graph, t: RootedForest) -> None:
    if t.n != g.n:
        raise ValueError("auxiliary tree must span the graph's vertex set")
    edge = unbound_edge(g, t)
    if edge is not None:
        raise ValueError(f"auxiliary tree does not bind edge {edge}")


def count_elim_trees(
    g: Graph,
    t: RootedForest,
    d: int,
    ring: ExactRing | None = None,
    weights: list[int] | None = None,
    cap: int | None = None,
    check_bounds: bool = False,
) -> int:
    """Weighted count of elimination trees of the connected graph g of depth
    at most d that are sensible with respect to t.

    With all weights 1 this is the plain number of such trees; in general it
    is the sum of vertex weights over feasible roots, each weighted by the
    number of sensible trees rooted there.  `ring` selects exact or modular
    arithmetic; `cap` overrides the degree cap (default d * depth(t), which
    is always sufficient).  A cap below min(d * depth(t), n + 1) raises
    ValueError: it could cut off degrees the free term still needs, whereas
    n + 1 is never reached, since a degree counts reused placements.
    """
    coeffs = _top_coefficients(g, t, d, ring, weights, cap, check_bounds)
    return coeffs[0] if coeffs else 0


def eval_h(
    g: Graph,
    t: RootedForest,
    d: int,
    ring: ExactRing | None = None,
    weights: list[int] | None = None,
    cap: int | None = None,
) -> tuple:
    """The full top-level polynomial as a coefficient tuple, normalized in
    the ring and without trailing zeros (the engine keeps it below the
    degree cap): its free term is the sensible-tree count, and the
    coefficient of the i-th power counts mappings with exactly i placement
    collisions.  `cap` is checked as in count_elim_trees."""
    return tuple(_top_coefficients(g, t, d, ring, weights, cap, False))


def _top_coefficients(
    g: Graph,
    t: RootedForest,
    d: int,
    ring: ExactRing | None,
    weights: list[int] | None,
    cap: int | None,
    check_bounds: bool,
) -> list:
    """The top-level polynomial, normalized in the ring (exact by default)
    and without trailing zeros."""
    ring = ring or ExactRing()
    n = g.n
    if n == 0:
        return [1]
    if d < 1:
        return []
    if len(t.roots) != 1:
        raise ValueError("auxiliary forest must be a single tree; split per component first")
    _validate_aux_tree(g, t)

    k = t.max_depth
    if cap is None:
        cap = d * k
    elif cap < min(d * k, n + 1):
        raise ValueError(f"degree cap {cap} is below min(d * depth(t), n + 1) = {min(d * k, n + 1)}")

    if weights is None:
        wts = [1] * n
    else:
        if len(weights) != n:
            raise ValueError("need one weight per vertex")
        wts = [ring.normalize(w) for w in weights]
    if check_bounds and (ring.modulus is not None or any(w != 1 for w in wts)):
        raise ValueError("coefficient bounds are certified for exact unweighted runs only")
    if n == 1:
        # one vertex: its weight is the whole count, with none of the set-up
        return poly_trim([wts[0]])

    children: list[tuple] = [tuple(t.children(v)) for v in range(n)]
    tree_size = t.subtree_sizes()
    # The only constraints live when u is placed are the edges toward its
    # ancestors in t; descendant edges get checked at the other endpoint,
    # which covers every edge exactly once because t binds them all.
    depth = [t.depth_of(v) for v in range(n)]
    anc_nbrs = [tuple(w for w in g.adj[u] if depth[w] < depth[u]) for u in range(n)]

    # the skeleton K, grown and rolled back by fresh() alone: parents (-1 at
    # a root), ancestor and descendant bitmasks (each with the vertex itself;
    # a depth is the popcount of the ancestor mask), and the mask of depth-d
    # vertices, below which nothing hangs
    kparent: list[int] = []
    kanc: list[int] = []
    kdesc: list[int] = []
    full = 0
    phi = [-1] * n

    bound_limits = None
    bound_base = d * k * (1 << d)
    if check_bounds:
        bound_limits = [bound_base ** tree_size[u] for u in range(n)]

    def check_coeffs(u: int, coeffs: list, limit: int, allowed: int) -> None:
        for c in coeffs:
            if c < 0 or c > limit:
                frame = SearchFrame(
                    u, tuple(kparent), tuple((v, phi[v]) for v in range(n) if phi[v] >= 0), allowed
                )
                raise CoefficientBoundError(frame, coeffs, limit)

    def placed(u: int, allowed: int) -> list:
        kids = children[u]  # never empty: pending() closes off the leaves
        acc = pending(kids[0], allowed)
        for v in kids[1:]:
            if not acc:
                return acc
            acc = poly_mul(acc, pending(v, allowed), cap)
        if bound_limits is not None:
            check_coeffs(u, acc, bound_limits[u] // bound_base, allowed)
        return acc

    def fresh(u: int, w: int, maxp: int, allowed: int, out: list) -> None:
        """Add to out the placements of u at the tip of a fresh chain of 1 to
        maxp vertices hung below skeleton vertex w (a new skeleton root when
        w is -1).  The chain's interior vertices are summed with alternating
        signs over the subsets opened for reuse, and the chain length is
        repaid by shifting down.  Only the tip at skeleton index 0 picks up
        u's weight."""
        nonlocal full
        base = len(kparent)
        anc = kanc[w] if w >= 0 else 0
        for tip in range(base, base + maxp):
            tipbit = 1 << tip
            anc |= tipbit
            kparent.append(w)
            kanc.append(anc)
            kdesc.append(tipbit)
            v = w
            while v >= 0:
                kdesc[v] |= tipbit
                v = kparent[v]
            if anc.bit_count() >= d:
                full |= tipbit
            interior = tip - base
            scale = wts[u] if tip == 0 else 1
            phi[u] = tip
            for bm in range(1 << interior):
                val = placed(u, allowed | (bm << base) | tipbit)
                if val:
                    poly_addmul(out, val, -interior, -scale if (interior - bm.bit_count()) & 1 else scale)
            w = tip
        phi[u] = -1
        # only the ancestors of the chain's attachment point see its bits
        keep = (1 << base) - 1
        full &= keep
        v = kparent[base]
        del kparent[base:], kanc[base:], kdesc[base:]
        while v >= 0:
            kdesc[v] &= keep
            v = kparent[v]

    def pending(u: int, allowed: int) -> list:
        # u must be comparable with the image c of each ancestor-neighbour:
        # a reused image must lie above or below every c; a fresh tip is
        # comparable only with the ancestors of its attachment point, which
        # must lie below every c, at a depth less than d
        reuse = allowed
        attach = ((1 << len(kparent)) - 1) & ~full
        for nb in anc_nbrs[u]:
            c = phi[nb]
            below = kdesc[c]
            reuse &= kanc[c] | below
            attach &= below
        weight = wts[u]
        rem = tree_size[u]

        if rem == 1:
            # a leaf of t: placed() is [1], and a fresh tip is never skeleton
            # index 0, which the root of t took; cap >= 2 because t has depth
            # at least 2 here
            out = [attach.bit_count(), reuse.bit_count()]
            if reuse & 1:
                out[1] += weight - 1
        else:
            out = []
            # reuse moves
            while reuse:
                bit = reuse & -reuse
                reuse ^= bit
                kv = bit.bit_length() - 1
                phi[u] = kv
                val = placed(u, allowed)
                phi[u] = -1
                if val:
                    poly_addmul(out, val, 1, weight if kv == 0 else 1)
            del out[cap:]

            # fresh chains, no longer than the remaining subtree can cover
            while attach:
                bit = attach & -attach
                attach ^= bit
                w = bit.bit_length() - 1
                maxp = d - kanc[w].bit_count()
                fresh(u, w, maxp if maxp < rem else rem, allowed, out)

        out = poly_trim(out)
        if bound_limits is not None:
            check_coeffs(u, out, bound_limits[u], allowed)
        return out

    # top level: the root r of t goes to the tip of a chain that starts a
    # new skeleton
    r = t.roots[0]
    total: list = []
    fresh(r, -1, min(d, tree_size[r]), 0, total)
    return poly_trim([ring.normalize(c) for c in total])


def count_elim_forests(
    g: Graph,
    t: RootedForest,
    d: int,
    ring: ExactRing | None = None,
    *,
    cap: int | None = None,
) -> int:
    """Product over connected components of the per-component tree count;
    nonzero exactly when every component admits a sensible tree of depth at
    most d.  t may be any elimination forest of g."""
    ring = ring or ExactRing()
    total = 1
    for _, sub, subt in split_components(g, t):
        total = ring.normalize(total * count_elim_trees(sub, subt, d, ring, cap=cap))
        if ring.is_zero(total):
            return total
    return total
