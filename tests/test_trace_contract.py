"""The benchmark's tracer against the solver: a traced CLI run still works,
and every layer function the per-layer metrics read by name is one the
tracer can wrap.  A renamed or moved function would otherwise drop out of
its metric, which then reads 0 without any error."""

import ast
import importlib
import inspect
import os
import pkgutil
import sys

import tdsolve
from tdsolve import cli
from tdsolve.oracle import path, random_graph

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import tracing  # noqa: E402

# Read by layer_metrics but called only inside graph.py, which the tracer
# does not wrap: graph.filter_s and graph.filter_calls read 0, and
# improved_graph's time counts as bodlaender_step's, until the tracer
# follows these calls.
UNWRAPPED = {"treedepth_lower_bound", "improved_graph"}

# Read by layer_metrics but imported by no site module, because no solver
# draws a prime: the randomized solver counts in exact integers, so the
# polyring.prime_* metrics read 0 until the tracer drops them.
UNCALLED = {"sample_prime"}

# Named in LAYER_OF but defined nowhere since components are split in one
# place, both solvers share the reduction descent and no count divides
# modulo a prime; the tracer skips them until the list drops them.
STALE = {"restrict_to_components", "induced_forest", "prefix_subgraph", "mod_inverse"}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _write_graph(tmp_path, name, g):
    return _write(tmp_path, name, f"p tdp {g.n} {g.m}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges()))


def test_traced_cli_runs_fill_the_layer_metrics(tmp_path, capsys):
    gfile = _write_graph(tmp_path, "p7.gr", path(7))
    # td 3, but its centroid forest is 5 deep, so the randomized solver
    # takes the reduction descent
    rfile = _write_graph(tmp_path, "rg6.gr", random_graph(6, 7, 35))
    # the path with its middle vertex on top, then the middles of each half
    ffile = _write(tmp_path, "p7.tree", "3\n" + "\n".join(map(str, [2, 4, 2, 0, 6, 4, 6])) + "\n")
    runs = {
        "deterministic": [gfile, "--max-depth", "3", "--mode", "deterministic"],
        "randomized": [rfile, "--max-depth", "3", "--mode", "randomized", "--seed", "1"],
        "validate": [gfile, "--max-depth", "3", "--validate", ffile],
    }
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main, site="instance")
    with tracer.installed():
        for name, args in runs.items():
            tracer.instance = name
            assert traced_main(args) == 0, name
            assert capsys.readouterr().out, name
    assert {s[5] for s in tracer.spans if s[4] < 0} == set(runs)
    # the CLI splits components in both modes
    for mode in ("deterministic", "randomized"):
        assert any(s[0] == "graph.connected_components" and s[1] == "cli" and s[5] == mode for s in tracer.spans), mode
    m = tracing.layer_metrics(tracer.spans)
    for metric in (
        "polyring.prime_bits_nominal",
        "linear.depth_scan_calls",
        "linear.root_find_calls",
        "linear.reduce_levels",
        "construct.root_tries",
        "counting.calls",
    ):
        assert m[metric] > 0, metric


def _span_functions() -> set:
    """The function names layer_metrics reads spans of: every string in its
    source that is a wrapped function's name, alone or as <layer>.<name>."""
    tree = ast.parse(inspect.getsource(tracing.layer_metrics))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            layer, _, fname = node.value.rpartition(".")
            if fname in tracing.LAYER_OF:
                assert layer in ("", tracing.LAYER_OF[fname]), node.value
                names.add(fname)
    return names


def test_layer_metrics_read_only_functions_the_tracer_wraps():
    read = _span_functions()
    assert {"count_elim_trees", "bodlaender_step", "determine_exact_depth", "sample_prime"} <= read
    missing = {f for f in read if not any(f in vars(m) for m in tracing.SITES.values())}
    # construct.compress_steps reads prefix_subgraph spans, so it reads 0
    # until the metric goes
    assert missing == UNWRAPPED | UNCALLED | {"prefix_subgraph"}


def test_every_layer_name_is_a_tdsolve_function():
    # Tracer.installed skips a name no site module has, so a renamed
    # function would drop out of the per-layer metrics without an error
    modules = [importlib.import_module(f"tdsolve.{m.name}")
               for m in pkgutil.iter_modules(tdsolve.__path__) if m.name != "__main__"]
    defined = {name for m in modules for name, fn in vars(m).items()
               if inspect.isfunction(fn) and fn.__module__ == m.__name__}
    assert set(tracing.LAYER_OF) - defined == STALE
