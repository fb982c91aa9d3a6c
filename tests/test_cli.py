import os
import random
import subprocess
import sys

import pytest

import tdsolve
from tdsolve import cli
from tdsolve.cli import (
    _parse_forest_lines,
    _parse_pace_lines,
    _parse_regular_graph,
    build_parser,
    emit_pace_forest,
    main,
    parse_pace_forest,
    parse_pace_graph,
)
from tdsolve.construct import solve_deterministic
from tdsolve.forest import RootedForest, merge_forests, validate_elimination_forest
from tdsolve.graph import connected_components
from tdsolve.linear import solve_randomized
from tdsolve.oracle import (
    clique,
    connected_graphs_up_to,
    cycle,
    disjoint_union,
    empty_graph,
    parent_array,
    path,
    random_graph,
    random_tree,
    relabel,
)


P3 = "p tdp 3 2\n1 2\n2 3\n"


def test_parse_k2():
    g = parse_pace_graph("p tdp 2 1\n1 2")
    assert g.n == 2 and list(g.edges()) == [(0, 1)]


def test_parse_comments_and_k1():
    g = parse_pace_graph("c comment\np tdp 1 0")
    assert g.n == 1 and g.m == 0


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_pace_graph("p tdp 2 1\n1 3")


def test_parse_rejects_count_mismatch_and_dupes():
    with pytest.raises(ValueError):
        parse_pace_graph("p tdp 3 2\n1 2")
    with pytest.raises(ValueError):
        parse_pace_graph("p tdp 2 2\n1 2\n2 1")
    with pytest.raises(ValueError):
        parse_pace_graph("p tdp 2 1\n1 1")
    with pytest.raises(ValueError):
        parse_pace_graph("1 2\np tdp 2 1")


def pace_text(g):
    return "".join([f"p tdp {g.n} {g.m}\n"] + [f"{u + 1} {v + 1}\n" for u, v in g.edges()])


def outcome(parse, *args):
    """What a parser makes of its input: the parsed value, or its error."""
    try:
        got = parse(*args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(got, tuple):
        claimed, f = got
        return claimed, parent_array(f)
    return got.n, got.m, got.adj


def test_bulk_parse_matches_line_parse():
    graphs = list(connected_graphs_up_to(5)) + [empty_graph(0), empty_graph(4)]
    graphs += [random_graph(n, min(3 * n, n * (n - 1) // 2), seed) for seed, n in enumerate([2, 7, 40, 150, 300])]
    graphs += [random_graph(300, 150, 9)]
    for g in graphs:
        text = pace_text(g)
        bulk = _parse_regular_graph(text)
        assert bulk is not None, text
        assert (bulk.n, bulk.m, bulk.adj) == outcome(_parse_pace_lines, text) == (g.n, g.m, g.adj)


IRREGULAR_GRAPHS = [
    "c first\np tdp 3 2\n1 2\n2 3\n",  # comment first
    "p tdp 3 2\n1 2\nc between\n2 3\n",  # comment between edges
    "p tdp 3 2\n1 2\n\n2 3\n",  # blank line
    "p tdp 3 2\r\n1 2\r\n2 3\r\n",  # CRLF
    "p tdp 3 2\n1\t2\n2 \t 3\n",  # tabs
    "p\ttdp 3 2\n1 2\n2 3\n",  # tab in the header
    "p tdp 3 2\n1 2 \n2 3\n",  # trailing space
    "p tdp 3 2 \n1 2\n2 3\n",  # trailing space after the header
    " 1 2\n",  # leading space, no header
    "p tdp 3 2\n1 2\n2 3",  # no final newline
    "p tdp 3 0",  # header only, no final newline
    "p tdp 0 0\n",
    "",
    "p tdp 3 2\n+1 2\n2 3\n",  # signed token
    "p tdp 12 1\n1_0 2\n",  # underscore in a token
    "p tdp 3 2\n1 2 3\n2 3\n",  # three tokens
    "p tdp 3 2\n1 1\n2 3\n",  # self-loop
    "p tdp 3 2\n1 2\n2 1\n",  # duplicate, both orientations
    "p tdp 3 2\n1 2\n1 2\n",  # duplicate, same orientation
    "p tdp 3 1\n0 1\n",  # endpoint 0
    "p tdp 3 1\n1 4\n",  # endpoint n+1
    "p tdp 0 1\n1 1\n",  # an edge in an empty graph
    "p tdp 3 1\n1 2\n2 3\n",  # m too low
    "p tdp 3 3\n1 2\n2 3\n",  # m too high
    "p tdp 3 1\n1 2\n2 1\n",  # m too low, by a duplicate
    "1 2\np tdp 3 1\n",  # edge before the header
    "p tdp 3 1\np tdp 3 1\n1 2\n",  # duplicate header
    "p tdp three 1\n1 2\n",  # non-decimal header
    "p tdp 3 x\n1 2\n",  # non-decimal edge count
    "p tdp 3 1 1\n1 2\n",  # five header fields
    "p tdp 3 1\n1 x\n",  # non-decimal endpoint
    "p tdp 3 1\n\u0661 2\n",  # a non-ASCII digit
    "p tdp 3 1\n" + "1" * 5000 + " 2\n",  # too many digits for int()
    "p tdp 3 2\n1  2\n2 3\n",  # two spaces
    "p tdp 3 2\n01 2\n2 3\n",  # a leading zero
    "p tdp 03 2\n1 2\n2 3\n",  # a leading zero in the header
    "p tdp 3 2\n1 2\n2 3\n\n",  # blank last line
    "p tdp 3 2\n1 2\r2 3\n",  # a lone CR
    "p tdp 3 1000000000000\n1 2\n",  # m far above the text
]


@pytest.mark.parametrize("text", IRREGULAR_GRAPHS)
def test_parse_graph_agrees_with_line_parser(text):
    bulk = _parse_regular_graph(text)  # never raises
    expected = outcome(_parse_pace_lines, text)
    assert outcome(parse_pace_graph, text) == expected
    if bulk is not None:
        assert (bulk.n, bulk.m, bulk.adj) == expected


IRREGULAR_FORESTS = [
    ("2\n2\n0\n2\n", 3),  # regular
    ("c note\n2\n2\n0\n2\n", 3),  # comment first
    ("2\n2\nc note\n0\n2\n", 3),  # comment between parents
    ("2\n2\n\n0\n2\n", 3),  # blank line
    ("2\r\n2\r\n0\r\n2\r\n", 3),  # CRLF
    ("2\n2\n0\n2", 3),  # no final newline
    ("2\n 2\n0\n2 \n", 3),  # spaces around a number
    ("2\n+2\n0\n2\n", 3),  # signed token
    ("2\n2 0\n2\n", 3),  # two tokens on a line
    ("2\n2\n0\n", 3),  # too few parents
    ("2\n2\n0\n2\n2\n", 3),  # too many parents
    ("2\n4\n0\n2\n", 3),  # parent n+1
    ("2\n-1\n0\n2\n", 3),  # negative parent
    ("2\nx\n0\n2\n", 3),  # non-decimal parent
    ("9\n0\n1\n", 2),  # claimed depth above n
    ("2\n2\n1\n", 2),  # a cycle
    ("0\n", 0),
    ("", 0),
    ("1" * 5000 + "\n0\n", 1),  # too many digits for int()
    ("2\n2\n0\n2\n\n", 3),  # blank last line
    ("2\n2\r0\n2\n", 3),  # a lone CR
]


@pytest.mark.parametrize("text,n", IRREGULAR_FORESTS)
def test_parse_forest_agrees_with_line_parser(text, n):
    assert outcome(parse_pace_forest, text, n) == outcome(_parse_forest_lines, text, n)


def test_regular_graph_file_skips_line_parser(monkeypatch):
    g = random_graph(1000, 3000, 4)

    def refuse(text):
        raise AssertionError("line parser used on a regular file")

    monkeypatch.setattr(cli, "_parse_pace_lines", refuse)
    got = parse_pace_graph(pace_text(g))
    assert (got.n, got.m, got.adj) == (g.n, g.m, g.adj)


def test_regular_forest_file_skips_line_parser(monkeypatch):
    f = RootedForest([-1] + list(range(999)))

    def refuse(text, n):
        raise AssertionError("line parser used on a regular file")

    monkeypatch.setattr(cli, "_parse_forest_lines", refuse)
    assert parse_pace_forest(emit_pace_forest(f), 1000) == (1000, f)


def test_emit_examples():
    assert emit_pace_forest(RootedForest([-1])) == "1\n0\n"
    assert emit_pace_forest(RootedForest([-1, 0])) == "2\n0\n1\n"
    assert emit_pace_forest(RootedForest([1, -1, 1])) == "2\n2\n0\n2\n"


def test_forest_round_trip():
    f = RootedForest([1, -1, 1, 2])
    claimed, back = parse_pace_forest(emit_pace_forest(f), 4)
    assert back == f and claimed == f.max_depth


def run_cli(tmp_path, capsys, graph_text, *args):
    path = tmp_path / "g.gr"
    path.write_text(graph_text)
    code = main([str(path), *args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_feasible_p3(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, P3, "--max-depth", "2", "--mode", "deterministic")
    assert code == 0
    claimed, f = parse_pace_forest(out, 3)
    g = parse_pace_graph(P3)
    assert claimed == 2 and validate_elimination_forest(g, f, 2)


def test_cli_infeasible_k4(tmp_path, capsys):
    k4 = "p tdp 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    code, out, _ = run_cli(tmp_path, capsys, k4, "--max-depth", "3")
    assert code == 1 and "td > 3" in out


def test_cli_randomized_negative_has_no_caveat(tmp_path, capsys):
    # every randomized None is certified, so it carries no false-negative note
    k4 = "p tdp 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    code, out, err = run_cli(tmp_path, capsys, k4, "--max-depth", "3", "--mode", "randomized")
    assert code == 1 and "td > 3" in out and err == ""


def test_cli_count_only_k3(tmp_path, capsys):
    k3 = "p tdp 3 3\n1 2\n1 3\n2 3\n"
    code, out, _ = run_cli(tmp_path, capsys, k3, "--max-depth", "3", "--count-only")
    assert code == 0 and out.strip() == "6"


def test_cli_count_only_with_trunc_check(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, P3, "--max-depth", "2", "--count-only", "--trunc-check")
    assert code == 0 and out.strip() == "1"


def test_cli_oracle(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, P3, "--oracle")
    assert code == 0 and out.strip() == "td = 2"


def test_cli_optimize_finds_minimum(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, P3, "--optimize")
    assert code == 0
    claimed, f = parse_pace_forest(out, 3)
    assert claimed == 2


def test_cli_validate(tmp_path, capsys):
    sol = tmp_path / "sol.tree"
    sol.write_text("2\n2\n0\n2\n")
    gpath = tmp_path / "g.gr"
    gpath.write_text(P3)
    assert main([str(gpath), "--validate", str(sol)]) == 0
    assert "valid" in capsys.readouterr().out
    sol.write_text("3\n0\n1\n2\n")  # chain: depth 3 exceeds nothing but claims 3
    assert main([str(gpath), "--validate", str(sol), "--max-depth", "2"]) == 1


def test_cli_io_error_exit_2(tmp_path, capsys):
    code = main([str(tmp_path / "missing.gr"), "--max-depth", "2"])
    assert code == 2
    bad = tmp_path / "bad.gr"
    bad.write_text("p tdp 2 1\n1 3\n")
    assert main([str(bad), "--max-depth", "2"]) == 2


def test_cli_calls_share_no_flags(tmp_path, capsys):
    k4 = "p tdp 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    assert build_parser() is build_parser()
    code, out, err = run_cli(tmp_path, capsys, k4, "--max-depth", "3", "--mode", "randomized")
    assert code == 1 and "td > 3" in out and err == ""
    code, out, err = run_cli(tmp_path, capsys, k4, "--max-depth", "3")
    assert code == 1 and "td > 3" in out and err == ""
    # the two modes root cycle(6) differently (test_golden), so a mode that
    # leaked into the next call would show in its forest
    c6 = "p tdp 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"
    code, out, _ = run_cli(tmp_path, capsys, c6, "--max-depth", "4", "--mode", "randomized", "--seed", "3")
    assert code == 0 and out == "4\n5\n3\n1\n3\n0\n1\n"
    code, out, _ = run_cli(tmp_path, capsys, c6, "--max-depth", "4")
    assert code == 0 and out == "4\n0\n3\n1\n5\n3\n5\n"
    code, out, _ = run_cli(tmp_path, capsys, k4, "--optimize")
    assert code == 0 and out.startswith("4\n")
    code, _, err = run_cli(tmp_path, capsys, k4)
    assert code == 2 and "max-depth" in err


def test_cli_missing_depth_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, P3)
    assert code == 2 and "max-depth" in err


def test_cli_same_seed_byte_identical(tmp_path, capsys):
    args = ["--max-depth", "3", "--mode", "randomized", "--seed", "9"]
    _, out1, _ = run_cli(tmp_path, capsys, P3, *args)
    _, out2, _ = run_cli(tmp_path, capsys, P3, *args)
    assert out1 == out2


def test_cli_splits_components_in_both_modes(tmp_path, capsys):
    # three components, interleaved in index order; randomized component i
    # gets the seed seed + 10007 * i
    g = relabel(disjoint_union(path(3), cycle(4), random_tree(6, 2)), [7, 0, 12, 3, 9, 1, 5, 10, 2, 6, 11, 4, 8])
    comps = connected_components(g)
    assert len(comps) == 3
    solvers = {
        "deterministic": lambda i, sub: solve_deterministic(sub, 3),
        "randomized": lambda i, sub: solve_randomized(sub, 3, rng=random.Random(5 + 10007 * i)),
    }
    for mode, solve in solvers.items():
        want = merge_forests([(verts, solve(i, sub)) for i, (verts, sub) in enumerate(comps)])
        code, out, err = run_cli(tmp_path, capsys, pace_text(g), "--max-depth", "3", "--mode", mode, "--seed", "5")
        assert (code, out, err) == (0, emit_pace_forest(want), ""), mode
        assert validate_elimination_forest(g, want, 3)


def test_cli_edge_count_decides_before_the_split(tmp_path, capsys, monkeypatch):
    # 1 + 28 edges on 10 vertices is more than 2 * 10: the verdict needs no
    # solver, though the first component, one edge, fits budget 2
    def refuse(*args, **kwargs):
        raise AssertionError("solved a component of a graph with too many edges")

    monkeypatch.setattr(cli, "solve_deterministic", refuse)
    monkeypatch.setattr(cli, "solve_randomized", refuse)
    monkeypatch.setattr(cli, "connected_components", refuse)
    g = disjoint_union(path(2), clique(8))
    assert g.m > 2 * g.n
    for mode in ("deterministic", "randomized"):
        code, out, _ = run_cli(tmp_path, capsys, pace_text(g), "--max-depth", "2", "--mode", mode)
        assert (code, out) == (1, "td > 2\n"), mode


def test_cli_negative_depth_is_usage_error(tmp_path, capsys):
    for mode in ("deterministic", "randomized"):
        code, out, err = run_cli(tmp_path, capsys, P3, "--max-depth", "-1", "--mode", mode)
        assert code == 2 and out == "" and "max-depth" in err


def test_cli_randomized_depth_zero_is_certain(tmp_path, capsys):
    # no randomness decides budget 0, so there is no false-negative note
    code, out, err = run_cli(tmp_path, capsys, P3, "--max-depth", "0", "--mode", "randomized")
    assert (code, out, err) == (1, "td > 0\n", "")
    code, out, err = run_cli(tmp_path, capsys, "p tdp 0 0\n", "--max-depth", "0", "--mode", "randomized")
    assert (code, out, err) == (0, "0\n", "")


def test_cli_randomized_star1500_descends_without_recursion(tmp_path, capsys):
    # one level per leaf used to overflow the interpreter's stack here
    text = "".join([f"p tdp 1500 1499\n"] + [f"1 {v}\n" for v in range(2, 1501)])
    code, out, _ = run_cli(tmp_path, capsys, text, "--mode", "randomized", "--max-depth", "2")
    assert code == 0
    claimed, f = parse_pace_forest(out, 1500)
    assert claimed <= 2 and validate_elimination_forest(parse_pace_graph(text), f, 2)


def test_cli_round_trip_solver_output(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, P3, "--max-depth", "2")
    assert code == 0
    sol = tmp_path / "sol.tree"
    sol.write_text(out)
    gpath = tmp_path / "g.gr"
    gpath.write_text(P3)
    assert main([str(gpath), "--validate", str(sol)]) == 0


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect and its dependencies, which every CLI
    # start would pay for
    src = os.path.dirname(os.path.dirname(tdsolve.__file__))
    code = "import sys, tdsolve.cli; sys.exit('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_skips_json():
    # json.loads converts tokens faster than int(), but importing json costs
    # a small CLI run more than parsing its file
    src = os.path.dirname(os.path.dirname(tdsolve.__file__))
    code = "import sys, tdsolve.cli; sys.exit('json' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
