"""Randomized solver: construct.build_guided (the centroid forest when it is
at most d+1 deep, else the reduction descent) with a color-coding root
finder, counting in exact integers.

The paper counts modulo a random prime p from (A, 2A) to keep its numbers
small.  The counting kernel here computes every count in exact integers and
could only reduce it at the end, so a prime would save no work: it would
cost a draw and add a false negative whenever p divides a nonzero count.
No prime is drawn.

Infeasible verdicts (None) are certain when they come from the structural
filter (edge count, path, clique or cycle bound) or a zero count; one from
colorings that all missed can be a false negative with small probability.
Returned forests are always validated, so false positives are impossible.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .construct import build_guided, build_over_shallower, fits
from .counting import count_elim_trees
from .forest import RootedForest, remove_vertex, validate_elimination_forest
from .graph import Graph, minus_vertex, recorded_lower_bound, structurally_infeasible


# Color coding draws up to MAX_COLORING_RETRIES colorings per color count;
# when they all fail, the count doubles (capped at n), up to
# MAX_COLOR_DOUBLINGS times.
MAX_COLORING_RETRIES = 24
MAX_COLOR_DOUBLINGS = 8


def color_count(n: int, d: int) -> int:
    """The number of colors a coloring round starts with: min(n, (d+1)^(2(d+1)))."""
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


def _recover_index(num: int, den: int) -> int | None:
    """The weighted/unweighted count ratio as a 1-based index, or None when
    the division fails (zero or non-integral denominator)."""
    if den == 0 or num % den != 0:
        return None
    return num // den


def _class_counts(g: Graph, t: RootedForest, d: int, members: list[int]) -> tuple[int, int, int]:
    """The plain, indicator and index counts (total, den, num) of a color
    class of the connected graph g: the tree counts weighted by 1 on every
    vertex, by 1 on each member and 0 elsewhere, and by v + 1 on each member
    v and 0 elsewhere.

    The weighted free term is sum_u w(u) * N_u, where N_u counts the sensible
    trees rooted at u.  The kernel multiplies a term by w(u) each time it
    puts u at skeleton index 0, the skeleton's root, so a term's weight
    factor depends only on its mapping.  The alternating sum over the opened
    subsets of chain interiors cancels each mapping that misses part of the
    skeleton, and cancels it together with that factor.  The free term keeps
    the bijective mappings, which are the sensible trees, and each has
    exactly one vertex at index 0: its root.  So the free term is linear in
    w, for any weights.

    All three counts therefore come from one exact count.  Let
    K = bit_length(n^(n-1)) + 1, give every vertex the weight 1 and each
    member v also 2^K + (v + 1) * 2^(2K).  The count is then
    total + (den << K) + (num << 2K).  The sensible trees are distinct
    rooted trees on V(g), so den <= total <= n^(n-1) < 2^K by Cayley's
    formula, and the three fields split apart exactly."""
    n = g.n
    k = (n ** (n - 1)).bit_length() + 1
    packed = [1] * n
    for v in members:
        packed[v] = 1 + (1 << k) + ((v + 1) << 2 * k)
    num, low = divmod(count_elim_trees(g, t, d, weights=packed), 1 << 2 * k)
    den, total = divmod(low, 1 << k)
    return total, den, num


def find_root_colorcoding(g: Graph, t: RootedForest, d: int, ctx: RunContext) -> int | None:
    """Find some feasible root of a depth-d elimination tree of the connected
    graph g by random color isolation.

    Each coloring round tries its color classes from the smallest up.  A
    class of two or more gets an indicator-weighted and an index-weighted
    count from one packed count, and their ratio names a vertex of that
    color; a singleton names its vertex outright.  g minus that vertex
    fitting d-1 (construct.fits) certifies it.  Exhausting all retries
    (after the color-count doubling fallback) signals a probable false
    negative to the caller.

    The packed count of a class of two or more also gives g's plain count
    at d, and a zero one returns None: g does not fit d.
    """
    n = g.n
    if n == 1:
        return 0
    rng = ctx.rng
    colors = color_count(n, d)
    for _ in range(MAX_COLOR_DOUBLINGS + 1):
        for _ in range(MAX_COLORING_RETRIES):
            ctx.colorings_tried += 1
            coloring = [rng.randrange(colors) for _ in range(n)]
            classes: dict[int, list[int]] = {}
            for v, c in enumerate(coloring):
                classes.setdefault(c, []).append(v)
            for c, members in sorted(classes.items(), key=lambda kv: (len(kv[1]), kv[0])):
                v = members[0]
                if len(members) > 1:
                    total, den, num = _class_counts(g, t, d, members)
                    if total == 0:
                        return None
                    one_based = _recover_index(num, den)
                    if one_based is None or not 1 <= one_based <= n or coloring[one_based - 1] != c:
                        continue
                    v = one_based - 1
                # certify through g-v at d-1 as the exact scan does; a failure
                # means a wrong candidate
                if fits(minus_vertex(g, v), lambda: remove_vertex(t, v), d - 1):
                    ctx.roots_found += 1
                    return v
        if colors >= n:
            break
        colors = min(2 * colors, n)
    return None


def colorcoding_root_finder(ctx: RunContext):
    """Root finder for build_forest and descend: the budget d* <= d from
    determine_exact_depth, then a color-coded root of a depth-d* tree.  When
    d* = d, g's own count at d is left to the color coding: every root it
    returns is certified through g-v, and the packed count of a class of
    two or more carries it."""

    def find_root(g: Graph, t: RootedForest, d: int) -> tuple[int, int] | None:
        dstar = determine_exact_depth(g, t, d)
        if dstar is None:
            return None
        root = find_root_colorcoding(g, t, dstar, ctx)
        return None if root is None else (root, dstar - 1)

    return find_root


def construct_linear(
    g: Graph, t: RootedForest, d: int, rng: random.Random | None = None
) -> RootedForest | None:
    """Turn an auxiliary elimination forest of depth at most 2d into one of
    depth at most d, or report the budget infeasible (possibly a false
    negative of color coding).  The counts run over the shallower
    of t and the centroid forest of g."""
    ctx = new_run_context(g.n, d, LinearConfig(), rng or random.Random(0))
    return build_over_shallower(g, t, d, colorcoding_root_finder(ctx))


def solve_randomized(g: Graph, d: int, rng: random.Random | None = None) -> RootedForest | None:
    """Full randomized pipeline: the structural filter, then
    construct.build_guided with the color-coding finder, which counts over
    the centroid forest when it is at most d+1 deep and runs the reduction
    descent otherwise.  Never returns an invalid forest; None after a count
    may be a false negative of color coding."""
    if g.n == 0:
        return RootedForest([])
    if d < 1 or structurally_infeasible(g, d):
        return None
    ctx = new_run_context(g.n, d, LinearConfig(), rng or random.Random(0))
    f = build_guided(g, d, colorcoding_root_finder(ctx))
    if f is not None and not validate_elimination_forest(g, f, d):
        raise AssertionError("solver produced an invalid forest; this is a bug")
    return f
