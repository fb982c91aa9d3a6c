import os
import subprocess
import sys

import pytest

import tdsolve
from tdsolve.cli import emit_pace_forest, main, parse_pace_forest, parse_pace_graph
from tdsolve.forest import RootedForest, validate_elimination_forest


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


def test_cli_randomized_prints_caveat(tmp_path, capsys):
    k4 = "p tdp 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    code, out, err = run_cli(tmp_path, capsys, k4, "--max-depth", "3", "--mode", "randomized")
    assert code == 1 and "td > 3" in out and "false negative" in err


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


def test_cli_missing_depth_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, P3)
    assert code == 2 and "max-depth" in err


def test_cli_same_seed_byte_identical(tmp_path, capsys):
    args = ["--max-depth", "3", "--mode", "randomized", "--seed", "9"]
    _, out1, _ = run_cli(tmp_path, capsys, P3, *args)
    _, out2, _ = run_cli(tmp_path, capsys, P3, *args)
    assert out1 == out2


def test_cli_threads_split_components(tmp_path, capsys):
    g = "p tdp 6 4\n1 2\n2 3\n4 5\n5 6\n"
    code, out, _ = run_cli(tmp_path, capsys, g, "--max-depth", "2")
    assert code == 0
    claimed, f = parse_pace_forest(out, 6)
    assert validate_elimination_forest(parse_pace_graph(g), f, 2)


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
