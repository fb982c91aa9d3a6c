"""Exact CLI output of both solvers on seeded oracle graphs.

The literals were recorded before the deterministic and randomized solvers
came to share one construction driver.  A change to any emitted forest or
verdict shows up here, not only a change in validity.
"""

import pytest

from tdsolve.cli import main
from tdsolve.oracle import clique, complete_bipartite, cycle, disjoint_union, path, random_graph, random_tree

GRAPHS = {
    "path7": path(7),
    "cycle6": cycle(6),
    "star5": complete_bipartite(1, 4),
    "k23": complete_bipartite(2, 3),
    "clique4": clique(4),
    "tree9": random_tree(9, 1),
    "tree10": random_tree(10, 4),
    "sparse7": random_graph(7, 9, 2),
    "sparse8": random_graph(8, 10, 2),
    "sparse9": random_graph(9, 10, 1),
    "union": disjoint_union(path(5), cycle(5)),
    "union3": disjoint_union(complete_bipartite(1, 3), path(4), clique(3)),
}
MODES = {"det": "deterministic", "ran": "randomized"}

# (graph, mode, budget) -> (exit status, stdout) at --seed 3; the budgets
# are td-1 and td
GOLDEN = {
    ("path7", "det", 2): (1, "td > 2\n"),
    ("path7", "det", 3): (0, "3\n2\n4\n2\n0\n6\n4\n6\n"),
    ("path7", "ran", 2): (1, "td > 2\n"),
    ("path7", "ran", 3): (0, "3\n2\n4\n2\n0\n6\n4\n6\n"),
    ("cycle6", "det", 3): (1, "td > 3\n"),
    ("cycle6", "det", 4): (0, "4\n0\n3\n1\n5\n3\n5\n"),
    ("cycle6", "ran", 3): (1, "td > 3\n"),
    ("cycle6", "ran", 4): (0, "4\n5\n3\n1\n3\n0\n1\n"),
    ("star5", "det", 1): (1, "td > 1\n"),
    ("star5", "det", 2): (0, "2\n0\n1\n1\n1\n1\n"),
    ("star5", "ran", 1): (1, "td > 1\n"),
    ("star5", "ran", 2): (0, "2\n0\n1\n1\n1\n1\n"),
    ("k23", "det", 2): (1, "td > 2\n"),
    ("k23", "det", 3): (0, "3\n0\n1\n2\n2\n2\n"),
    ("k23", "ran", 2): (1, "td > 2\n"),
    ("k23", "ran", 3): (0, "3\n0\n1\n2\n2\n2\n"),
    ("clique4", "det", 3): (1, "td > 3\n"),
    ("clique4", "det", 4): (0, "4\n0\n1\n2\n3\n"),
    ("clique4", "ran", 3): (1, "td > 3\n"),
    ("clique4", "ran", 4): (0, "4\n4\n1\n0\n3\n"),
    ("tree9", "det", 2): (1, "td > 2\n"),
    ("tree9", "det", 3): (0, "3\n4\n1\n1\n0\n1\n4\n4\n4\n7\n"),
    ("tree9", "ran", 2): (1, "td > 2\n"),
    ("tree9", "ran", 3): (0, "3\n4\n1\n1\n0\n1\n4\n9\n4\n4\n"),
    ("tree10", "det", 2): (1, "td > 2\n"),
    ("tree10", "det", 3): (0, "3\n0\n1\n2\n1\n4\n4\n2\n1\n2\n1\n"),
    ("tree10", "ran", 2): (1, "td > 2\n"),
    ("tree10", "ran", 3): (0, "3\n0\n1\n2\n1\n4\n4\n2\n1\n2\n1\n"),
    ("sparse7", "det", 3): (1, "td > 3\n"),
    ("sparse7", "det", 4): (0, "4\n5\n0\n1\n6\n2\n5\n6\n"),
    ("sparse7", "ran", 3): (1, "td > 3\n"),
    ("sparse7", "ran", 4): (0, "4\n5\n7\n1\n5\n0\n7\n4\n"),
    ("sparse8", "det", 3): (1, "td > 3\n"),
    ("sparse8", "det", 4): (0, "4\n0\n6\n1\n3\n4\n3\n0\n6\n"),
    ("sparse8", "ran", 3): (1, "td > 3\n"),
    ("sparse8", "ran", 4): (0, "4\n0\n6\n1\n3\n4\n3\n0\n6\n"),
    ("sparse9", "det", 3): (1, "td > 3\n"),
    ("sparse9", "det", 4): (0, "4\n0\n4\n2\n1\n2\n2\n4\n7\n1\n"),
    ("sparse9", "ran", 3): (1, "td > 3\n"),
    ("sparse9", "ran", 4): (0, "4\n7\n4\n2\n7\n2\n2\n0\n1\n1\n"),
    ("union", "det", 3): (1, "td > 3\n"),
    ("union", "det", 4): (0, "4\n0\n1\n4\n2\n4\n0\n6\n9\n7\n9\n"),
    ("union", "ran", 3): (1, "td > 3\n"),
    ("union", "ran", 4): (0, "4\n2\n4\n2\n0\n4\n8\n6\n0\n6\n9\n"),
    ("union3", "det", 2): (1, "td > 2\n"),
    ("union3", "det", 3): (0, "3\n0\n1\n1\n1\n0\n7\n5\n7\n0\n9\n10\n"),
    ("union3", "ran", 2): (1, "td > 2\n"),
    ("union3", "ran", 3): (0, "3\n0\n1\n1\n1\n6\n0\n8\n6\n10\n0\n9\n"),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_cli_output_matches_recording(key, tmp_path, capsys):
    name, mode, d = key
    g = GRAPHS[name]
    gfile = tmp_path / "g.gr"
    gfile.write_text(f"p tdp {g.n} {g.m}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges()))
    code = main([str(gfile), "--max-depth", str(d), "--mode", MODES[mode], "--seed", "3"])
    assert (code, capsys.readouterr().out) == GOLDEN[key]
