"""Randomized solver: construct.build_guided (the centroid forest when it is
at most d+1 deep, else the reduction descent) with a color-coding root
finder, counting in exact integers.

The paper counts modulo a random prime p from (A, 2A) to keep its numbers
small.  The counting kernel here computes every count in exact integers and
could only reduce it at the end, so a prime would save no work: it would
cost a draw and add a false negative whenever p divides a nonzero count.
No prime is drawn.

Infeasible verdicts (None) are certain: they come from the structural
filter (edge count, path, clique or cycle bound), a zero count, or a
coloring whose classes named no root that g-v certifies, and one coloring
cannot miss a root (find_root_colorcoding says why).  Returned forests are
always validated, so false positives are impossible.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .construct import build_forest, build_guided, fits, shallower
from .counting import count_elim_trees
from .forest import Parts, RootedForest
from .graph import Graph, recorded_lower_bound, structurally_infeasible


def color_count(n: int, d: int) -> int:
    """The number of colors of the finder's coloring: min(n, (d+1)^(2(d+1)))."""
    return max(1, min(n, (d + 1) ** (2 * (d + 1))))


class LinearConfig(NamedTuple):
    """The paper's prime policy: the interval (A, 2A) a modular count would
    draw its prime from has A = max(prime_lower_threshold,
    n^5 * 2^(5 * error_exponent * d^2)).  The solver counts exactly and
    draws no prime; perfbench/tracing.py reports this nominal bound."""

    error_exponent: int = 1
    prime_lower_threshold: int = 21


class RunContext:
    """Per-run state: the randomness and two counters for experiments."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.colorings_tried = 0
        self.roots_found = 0


def new_run_context(n: int, d: int, cfg: LinearConfig, rng: random.Random) -> RunContext:
    """The run's context.  n, d and cfg give the nominal prime bound, which
    perfbench/tracing.py reports; no prime is drawn."""
    return RunContext(rng)


def determine_exact_depth(g: Graph, t: RootedForest, d: int) -> int | None:
    """The smallest budget below d with a nonzero tree count, else d, or
    None when the structural lower bound exceeds d.  Budget d itself is not
    counted: the color-coding finder gets that count from the packed count
    of its first class of two or more.

    The scan starts at the lower bound the structural filter recorded on g
    (computed when there is none): counts below it are zero with certainty."""
    start = max(recorded_lower_bound(g), 1)
    if start > d:
        return None
    for dp in range(start, d):
        if count_elim_trees(g, t, dp):
            return dp
    return d


def _class_counts(g: Graph, t: RootedForest, d: int, members: list[int]) -> tuple[int, list[int]]:
    """The plain tree count of the connected graph g and, for each member v
    of a color class, the count N_v of the sensible trees rooted at v: the
    tree counts weighted by 1 on every vertex, and by 1 on v and 0
    elsewhere.

    The weighted free term is sum_u w(u) * N_u, where N_u counts the sensible
    trees rooted at u.  The kernel multiplies a term by w(u) each time it
    puts u at skeleton index 0, the skeleton's root, so a term's weight
    factor depends only on its mapping.  The alternating sum over the opened
    subsets of chain interiors cancels each mapping that misses part of the
    skeleton, and cancels it together with that factor.  The free term keeps
    the bijective mappings, which are the sensible trees, and each has
    exactly one vertex at index 0: its root.  So the free term is linear in
    w, for any weights.

    All these counts therefore come from one exact count.  Let
    K = bit_length(n^(n-1)) + 1, give every vertex the weight 1 and the i-th
    member v (from i = 1) also 2^(K*i).  The count is then total plus
    N_v << K*i over the members.  The sensible trees are distinct rooted
    trees on V(g), so N_v <= total <= n^(n-1) < 2^K by Cayley's formula, and
    every field splits off exactly."""
    n = g.n
    k = (n ** (n - 1)).bit_length() + 1
    packed = [1] * n
    for i, v in enumerate(members, 1):
        packed[v] = 1 + (1 << k * i)
    count = count_elim_trees(g, t, d, weights=packed)
    mask = (1 << k) - 1
    return count & mask, [count >> k * i & mask for i in range(1, len(members) + 1)]


def find_root_colorcoding(g: Graph, t: RootedForest, d: int, ctx: RunContext) -> tuple[int, int, Parts] | None:
    """A feasible root v of a depth-d elimination tree of the connected g,
    by random color isolation, with d-1 and the parts of g-v (as fits).

    One coloring is drawn, and its color classes are tried from the
    smallest up.  A class of two or more gets the count of trees rooted at
    each member from one packed count (_class_counts) and names its first
    member with a nonzero one; a singleton names its vertex outright.  g
    minus that vertex fitting d-1 (construct.fits) certifies it.

    The packed count of a class of two or more also gives g's plain count
    at d, and a zero one returns None: g does not fit d.  The final None is
    as certain.  If g fits d, the rooted counts N_v sum to g's nonzero
    count, so some v has N_v > 0: fits certifies it if it is a singleton,
    and otherwise its class names a member with a nonzero count, which g-v
    fitting d-1 then certifies.  So once every class is tried, g has no
    feasible root.
    """
    n = g.n
    rng = ctx.rng
    colors = color_count(n, d)
    ctx.colorings_tried += 1
    coloring = [rng.randrange(colors) for _ in range(n)]
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(coloring):
        classes.setdefault(c, []).append(v)
    for _, members in sorted(classes.items(), key=lambda kv: (len(kv[1]), kv[0])):
        v = members[0]
        if len(members) > 1:
            total, rooted = _class_counts(g, t, d, members)
            if total == 0:
                return None
            v = next((v for v, count in zip(members, rooted) if count), None)
            if v is None:
                continue
        # certified as the exact scan does; a failure means a wrong candidate
        parts = fits(g, t, v, d - 1)
        if parts is not None:
            ctx.roots_found += 1
            return v, d - 1, parts
    return None


def colorcoding_root_finder(ctx: RunContext):
    """Root finder for build_forest and descend: the budget d* <= d from
    determine_exact_depth, then a color-coded root of a depth-d* tree.  When
    d* = d, g's own count at d is left to the color coding: every root it
    returns is certified through g-v, and the packed count of a class of
    two or more carries it."""

    def find_root(g: Graph, t: RootedForest, d: int) -> tuple[int, int, Parts] | None:
        dstar = determine_exact_depth(g, t, d)
        return None if dstar is None else find_root_colorcoding(g, t, dstar, ctx)

    return find_root


def construct_linear(
    g: Graph, t: RootedForest, d: int, rng: random.Random | None = None
) -> RootedForest | None:
    """Turn an auxiliary elimination forest of depth at most 2d into one of
    depth at most d, or report the budget infeasible, with certainty.  The
    counts run over the shallower of t and the centroid forest of g."""
    ctx = new_run_context(g.n, d, LinearConfig(), rng or random.Random(0))
    return build_forest(g, shallower(g, t), d, colorcoding_root_finder(ctx))


def solve_randomized(g: Graph, d: int, rng: random.Random | None = None) -> RootedForest | None:
    """Full randomized pipeline: the structural filter, then
    construct.build_guided with the color-coding finder, which counts over
    the centroid forest when it is at most d+1 deep and runs the reduction
    descent otherwise.  Never returns an invalid forest, and every None is
    certified: td(g) > d."""
    if g.n == 0:
        return RootedForest([])
    if d < 1 or structurally_infeasible(g, d):
        return None
    ctx = new_run_context(g.n, d, LinearConfig(), rng or random.Random(0))
    return build_guided(g, d, colorcoding_root_finder(ctx))
