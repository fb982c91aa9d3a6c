"""Output checker, written apart from the program's own validator.

It reads the PACE graph file itself, parses the CLI's output, and judges it
against the truth fixed when the corpus was generated.  An elimination
forest is checked with pre/post-order intervals: every edge must join an
ancestor-descendant pair and no vertex may sit deeper than the budget.
"""

from __future__ import annotations

import os

# Outcomes.  "ok" and "false_negative" are answers the program may give;
# every other status counts as failed.
OK = "ok"
FALSE_NEGATIVE = "false_negative"
WRONG = "wrong"  # a certified verdict that contradicts the truth
INVALID = "invalid_forest"
CRASH = "crash"
CAPPED = "capped"


def read_pace_graph(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 0-based edge list of a PACE ``tdp`` file."""
    n = None
    edges = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[2])
            else:
                edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if n is None:
        raise ValueError(f"{path}: no header")
    return n, edges


def forest_depth(n: int, edges, parent: list[int]) -> int | None:
    """Depth of ``parent`` as an elimination forest of the graph (n, edges),
    or None when it is not one: not an acyclic forest on n vertices, or some
    edge joins two vertices neither of which is an ancestor of the other."""
    if len(parent) != n or any(not -1 <= p < n for p in parent):
        return None
    children = [[] for _ in range(n)]
    roots = []
    for v, p in enumerate(parent):
        (roots if p < 0 else children[p]).append(v)
    enter = [-1] * n
    leave = [0] * n
    clock = 0
    deepest = 0
    for r in roots:
        stack = [(r, 1, False)]
        while stack:
            v, dep, done = stack.pop()
            if done:
                leave[v] = clock
                continue
            enter[v] = clock
            clock += 1
            deepest = max(deepest, dep)
            stack.append((v, dep, True))
            stack.extend((w, dep + 1, False) for w in children[v])
    if clock != n:
        return None  # some vertex lies on a cycle, unreachable from a root

    def above(a: int, b: int) -> bool:
        return enter[a] <= enter[b] and leave[b] <= leave[a]

    if all(above(u, v) or above(v, u) for u, v in edges):
        return deepest
    return None


def parse_forest_output(text: str, n: int) -> tuple[int, list[int]] | None:
    """(claimed depth, 0-based parent array) from the solver's stdout, or
    None when the text is not a PACE forest for n vertices."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if len(lines) != n + 1:
        return None
    try:
        vals = [int(x) for x in lines]
    except ValueError:
        return None
    return vals[0], [p - 1 for p in vals[1:]]


def judge(entry: dict, result: dict, corpus_dir: str) -> str:
    """Outcome of one executed instance."""
    status = result["status"]
    if status != OK:
        return status  # crash or capped
    out, rc, truth = result["out"], result["rc"], entry["truth"]
    if entry["kind"] == "validate":
        want = "valid" if truth["feasible"] else "invalid"
        return OK if out.strip() == want and rc == (0 if truth["feasible"] else 1) else WRONG
    d = entry["d"]
    if out.strip() == f"td > {d}" and rc == 1:
        if not truth["feasible"]:
            return OK
        return FALSE_NEGATIVE if entry["mode"] == "randomized" else WRONG
    if rc != 0:
        return CRASH
    n, edges = read_pace_graph(os.path.join(corpus_dir, entry["graph"]))
    parsed = parse_forest_output(out, n)
    if parsed is None:
        return INVALID
    claimed, parent = parsed
    depth = forest_depth(n, edges, parent)
    if depth is None or depth > d or depth != claimed:
        return INVALID
    return OK
