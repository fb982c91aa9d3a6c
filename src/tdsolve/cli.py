"""Command-line entry point: PACE-format graph input, forest output,
solver/oracle/validator subfunctions behind flags.

Exit status: 0 on success (forest printed, count printed, valid forest),
1 when the budget is infeasible or validation fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .construct import solve_deterministic
from .counting import count_elim_forests
from .forest import RootedForest, merge_forests, validate_elimination_forest
from .graph import Graph, connected_components, dfs_elimination_forest
from .linear import solve_randomized


# A regular graph file is the header `p tdp <n> <m>`, then m lines of two
# ASCII-decimal endpoints and one space, each line ended by a newline; a
# regular solution file has one ASCII-decimal number per line.  Comments,
# blank lines, tabs, runs of spaces, CRs and all else go to the line parsers.
_DIGITS = b"0123456789"


def parse_pace_graph(text: str) -> Graph:
    """PACE 2020 `tdp` input: header `p tdp <n> <m>`, then m edge lines with
    1-based endpoints; `c` comment lines are skipped anywhere.

    A regular file is read in bulk; any other text, and every malformed one,
    is left to the line parser."""
    g = _parse_regular_graph(text)
    return g if g is not None else _parse_pace_lines(text)


def _parse_regular_graph(text: str) -> Graph | None:
    """The graph of a regular file whose edges are in range, loop-free,
    distinct and as many as declared; None for any other text.  Never
    raises: the line parser reports every error."""
    head, newline, raw = (text.encode() if text.isascii() else b"").partition(b"\n")
    fields = head.split(b" ")
    if not (newline and len(fields) == 4 and fields[:2] == [b"p", b"tdp"]
            and fields[2].isdigit() and fields[3].isdigit()):
        return None
    try:
        n, m = int(fields[2]), int(fields[3])
        # the separators must be m times " \n" (lengths first, so nothing is
        # sized by the header alone) and end the text: then 2m tokens means
        # that none is empty
        seps = raw.translate(None, _DIGITS)
        if len(seps) != 2 * m or seps != b" \n" * m or raw and not raw.endswith(b"\n"):
            return None
        ends = list(map(int, raw.split()))
        adj = [[] for _ in range(n + 1)]  # indexed 1..n while filling
        it = iter(ends)
        for u, v in zip(it, it):
            adj[u].append(v - 1)
            adj[v].append(u - 1)
    except (ValueError, IndexError):  # too many digits for int(); endpoint above n
        return None
    if len(ends) != 2 * m or adj[0]:  # an empty token; an endpoint 0
        return None
    del adj[0]
    for lst in adj:
        lst.sort()
    # a loop or a repeated edge repeats an entry of some sorted list
    if sum(map(len, map(set, adj))) != 2 * m:
        return None
    return Graph(adj)


def _parse_pace_lines(text: str) -> Graph:
    """parse_pace_graph one line at a time: the parser of irregular input and
    the source of every error message."""
    n = None
    m_declared = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "tdp":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            n, m_declared = int(parts[2]), int(parts[3])
            if n < 0 or m_declared < 0:
                raise ValueError(f"line {lineno}: negative sizes in header")
            continue
        if n is None:
            raise ValueError(f"line {lineno}: edge before header")
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed edge {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: endpoint out of range in {line!r}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ValueError("missing header line")
    if len(edges) != m_declared:
        raise ValueError(f"header declares {m_declared} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)  # rejects loops and duplicates


def emit_pace_forest(f: RootedForest) -> str:
    """PACE 2020 `tdp` output: depth line, then one 1-based parent per vertex
    (0 marks a root)."""
    lines = [str(f.max_depth)]
    for v in range(f.n):
        lines.append(str(f.parent(v) + 1))
    return "\n".join(lines) + "\n"


def parse_pace_forest(text: str, n: int) -> tuple[int, RootedForest]:
    """Solution file: claimed depth, then n parent lines.  A regular file
    (n+1 ASCII-decimal numbers, one per line, none above n) is read in bulk;
    any other text, and every malformed one, is left to the line parser."""
    raw = text.encode() if text.isascii() else b""
    if raw.translate(None, _DIGITS) == b"\n" * (n + 1) and raw.endswith(b"\n"):
        try:
            vals = list(map(int, raw.split()))
        except ValueError:  # too many digits for int()
            vals = []
        if len(vals) == n + 1 and max(vals) <= n:  # n+1 tokens: none empty
            return vals[0], RootedForest([p - 1 for p in vals[1:]])
    return _parse_forest_lines(text, n)


def _parse_forest_lines(text: str, n: int) -> tuple[int, RootedForest]:
    """parse_pace_forest one line at a time."""
    vals = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        vals.append(int(line))
    if len(vals) != n + 1:
        raise ValueError(f"expected depth line plus {n} parent lines, found {len(vals)}")
    claimed = vals[0]
    parent = [p - 1 for p in vals[1:]]
    if any(p < -1 or p >= n for p in parent):
        raise ValueError("parent index out of range")
    return claimed, RootedForest(parent)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _solve(g: Graph, d: int, mode: str, seed: int):
    """Solve each connected component of g on its own, in either mode,
    stopping at the first infeasible one, and merge their forests.  Each
    solver then filters and guides a whole component.  In randomized mode
    component i gets the seed seed + 10007 * i.

    More than d*n edges in all means more than d times its size in some
    component, which its solver rejects, so that verdict comes first."""
    if g.m > d * g.n:
        return None
    parts = []
    for i, (verts, sub) in enumerate(connected_components(g)):
        if mode == "deterministic":
            f = solve_deterministic(sub, d)
        else:
            f = solve_randomized(sub, d, rng=random.Random(seed + 10007 * i))
        if f is None:
            return None
        parts.append((verts, f))
    return merge_forests(parts)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(
        prog="tdsolve",
        description="Exact treedepth: find an elimination forest of depth at most d or report td > d.",
    )
    ap.add_argument("input", nargs="?", default="-", help="PACE tdp graph file, or - for stdin")
    ap.add_argument("--max-depth", type=int, default=None, metavar="D", help="depth budget d")
    ap.add_argument("--optimize", action="store_true", help="search the minimum feasible depth upward from 1")
    ap.add_argument("--mode", choices=["deterministic", "randomized"], default="deterministic")
    ap.add_argument("--seed", type=int, default=0, help="seed for the randomized mode (default 0)")
    ap.add_argument("--count-only", action="store_true",
                    help="print the exact sensible-tree count w.r.t. a DFS-derived auxiliary forest")
    ap.add_argument("--validate", metavar="FOREST", default=None,
                    help="validate a PACE solution file against the graph")
    ap.add_argument("--oracle", action="store_true", help="brute-force treedepth (small graphs only)")
    ap.add_argument("--trunc-check", action="store_true",
                    help="with --count-only: recount at an uncapped degree bound and compare")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_depth is not None and args.max_depth < 0:
        print("error: --max-depth must not be negative", file=sys.stderr)
        return 2
    try:
        g = parse_pace_graph(_read_input(args.input))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.oracle:
        from .oracle import brute_td

        try:
            td = brute_td(g)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"td = {td}")
        return 0

    if args.validate is not None:
        try:
            claimed, f = parse_pace_forest(_read_input(args.validate), g.n)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        budget = args.max_depth if args.max_depth is not None else claimed
        ok = f.max_depth == claimed and validate_elimination_forest(g, f, budget)
        print("valid" if ok else "invalid")
        return 0 if ok else 1

    if args.count_only:
        if args.max_depth is None:
            print("error: --count-only needs --max-depth", file=sys.stderr)
            return 2
        t = dfs_elimination_forest(g)
        cnt = count_elim_forests(g, t, args.max_depth)
        if args.trunc_check:
            wide = count_elim_forests(g, t, args.max_depth, cap=g.n + 1)
            if wide != cnt:
                print(f"error: truncation mismatch ({cnt} vs {wide})", file=sys.stderr)
                return 2
        print(cnt)
        return 0

    if args.max_depth is None and not args.optimize:
        print("error: need --max-depth or --optimize", file=sys.stderr)
        return 2

    budgets = [args.max_depth] if not args.optimize else list(range(1, max(g.n, 1) + 1))
    for d in budgets:
        f = _solve(g, d, args.mode, args.seed)
        if f is not None:
            sys.stdout.write(emit_pace_forest(f))
            return 0
        if not args.optimize:
            print(f"td > {d}")
            return 1
    print(f"td > {budgets[-1]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
