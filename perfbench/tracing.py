"""Spans around the public functions of each tdsolve layer.

The solvers import by name (``from .counting import count_elim_trees``), so
a function is wrapped separately in every module that imports it: the CLI,
the two solvers and the counting engine.  Wrapping a module's own function
(``linear.find_root_colorcoding``, ``counting.count_elim_trees``) also
catches the calls made inside that module.  Nothing is installed unless a
traced run asks for it, and ``Tracer.installed`` puts the originals back.

A span is ``(name, site, start, end, parent, instance, attrs)``: ``name`` is
``<layer>.<function>``, ``site`` the module that made the call, ``parent``
the index of the enclosing span (-1 for an instance's root span), and
``attrs`` the few facts a metric needs (ring kind, depth of the auxiliary
tree, zero result, prime bits).  Spans stay in memory and are written once,
at the end.  A layer's self time is the time of its spans minus the time of
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from tdsolve import cli, construct, counting, linear
from tdsolve.polyring import ExactRing

LAYER_OF = {
    "count_elim_trees": "counting",
    "count_elim_forests": "counting",
    "solve_deterministic": "construct",
    "solve_randomized": "linear",
    "new_run_context": "linear",
    "determine_exact_depth": "linear",
    "find_root_colorcoding": "linear",
    "sample_prime": "polyring",
    "mod_inverse": "polyring",
    "treedepth_lower_bound": "graph",
    "connected_components": "graph",
    "bodlaender_step": "graph",
    "improved_graph": "graph",
    "induced_subgraph": "graph",
    "contract_matching": "graph",
    "minus_vertex": "graph",
    "prefix_subgraph": "graph",
    "dfs_elimination_forest": "graph",
    "validate_elimination_forest": "forest",
    "restrict_to_components": "forest",
    "induced_forest": "forest",
    "remove_vertex": "forest",
    "attach_root": "forest",
    "merge_forests": "forest",
    "expand_contracted_forest": "forest",
    "lift_simplicial": "forest",
    "parse_pace_graph": "cli",
    "parse_pace_forest": "cli",
    "emit_pace_forest": "cli",
}
SITES = {"cli": cli, "construct": construct, "linear": linear, "counting": counting}

# Buckets of counting.calls.tdepth_<k>; the last one also holds deeper trees.
MAX_TDEPTH = 8


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_attrs(args, kwargs, result) -> dict:
    ring = _arg(args, kwargs, 3, "ring") or ExactRing()
    return {
        "tdepth": args[1].max_depth,
        "modular": ring.modulus is not None,
        "weighted": _arg(args, kwargs, 4, "weights") is not None,
        "zero": ring.is_zero(result),
    }


def _run_context_attrs(args, kwargs, result) -> dict:
    n, d, cfg = max(args[0], 1), args[1], args[2]
    nominal = max(cfg.prime_lower_threshold, n**5 * 2 ** (5 * cfg.error_exponent * d * d))
    return {"nominal_bits": nominal.bit_length()}


ATTRS = {
    "count_elim_trees": _count_attrs,
    "count_elim_forests": _count_attrs,
    "find_root_colorcoding": lambda args, kwargs, result: {"found": result is not None},
    "new_run_context": _run_context_attrs,
    "sample_prime": lambda args, kwargs, result: {"bits": result.bit_length()},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.instance: str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, site: str):
        spans, open_, attrs_of = self.spans, self._open, ATTRS.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx] = (name, site, start, end, parent, self.instance, None)
            if attrs_of is not None:
                spans[idx] = spans[idx][:6] + (attrs_of(args, kwargs, result),)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for site, module in SITES.items():
            for fname, layer in LAYER_OF.items():
                if fname in vars(module):
                    fn = getattr(module, fname)
                    saved.append((module, fname, fn))
                    setattr(module, fname, self.wrap(f"{layer}.{fname}", fn, site))
        try:
            yield self
        finally:
            for module, fname, fn in saved:
                setattr(module, fname, fn)

    def write(self, path: str) -> None:
        """One JSON array per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "site", "start", "end", "parent", "instance", "attrs"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer metrics of a traced run, plus each layer's share of the
    traced self time (``share.<layer>``)."""
    own = self_times(spans)
    layer_s: dict[str, float] = defaultdict(float)
    by_name_s: dict[str, float] = defaultdict(float)
    by_name_n: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        layer_s[s[0].split(".", 1)[0]] += t
        by_name_s[s[0]] += t
        by_name_n[s[0]] += 1

    trees = [(s, t) for s, t in zip(spans, own) if s[0] == "counting.count_elim_trees"]
    counts = [(s, t) for s, t in zip(spans, own) if s[0].startswith("counting.")]
    tries = [s for s in spans if s[0] == "counting.count_elim_forests" and s[1] == "construct"]
    finds = [s for s in spans if s[0] == "linear.find_root_colorcoding"]
    roots_found = sum(s[6]["found"] for s in finds)
    primes = [s[6]["bits"] for s in spans if s[0] == "polyring.sample_prime"]
    nominal = [s[6]["nominal_bits"] for s in spans if s[0] == "linear.new_run_context"]
    instances = {s[5] for s in spans if s[4] < 0}
    counted = {s[5] for s, _ in trees}

    m = {
        "counting.calls": len(trees),
        "counting.s": layer_s["counting"],
    }
    for k in range(1, MAX_TDEPTH + 1):
        sel = [t for s, t in trees if min(s[6]["tdepth"], MAX_TDEPTH) == k]
        m[f"counting.calls.tdepth_{k}"] = len(sel)
        m[f"counting.s.tdepth_{k}"] = sum(sel, 0.0)
    m.update({
        "counting.exact_s": sum((t for s, t in counts if not s[6]["modular"]), 0.0),
        "counting.modular_s": sum((t for s, t in counts if s[6]["modular"]), 0.0),
        "counting.weighted_calls": sum(s[6]["weighted"] for s, _ in trees),
        "counting.zero_frac": _frac(sum(s[6]["zero"] for s, _ in trees), len(trees)),
        "construct.self_s": layer_s["construct"],
        "construct.compress_steps": by_name_n["graph.prefix_subgraph"],
        "construct.root_tries": len(tries),
        "construct.root_hit_frac": _frac(sum(not s[6]["zero"] for s in tries), len(tries)),
        "linear.self_s": layer_s["linear"],
        "linear.root_find_calls": len(finds),
        "linear.root_find_fail_frac": _frac(len(finds) - roots_found, len(finds)),
        "linear.weighted_counts_per_root": _frac(
            sum(s[6]["weighted"] for s, _ in trees if s[1] == "linear"), roots_found),
        "linear.depth_scan_calls": by_name_n["linear.determine_exact_depth"],
        "linear.reduce_levels": by_name_n["graph.bodlaender_step"],
        "polyring.prime_s": by_name_s["polyring.sample_prime"],
        "polyring.prime_calls": len(primes),
        "polyring.prime_bits": _frac(sum(primes), len(primes)),
        "polyring.prime_bits_nominal": _frac(sum(nominal), len(nominal)),
        "graph.filter_s": by_name_s["graph.treedepth_lower_bound"],
        "graph.filter_calls": by_name_n["graph.treedepth_lower_bound"],
        "graph.filter_decided_frac": _frac(len(instances - counted), len(instances)),
        "graph.components_s": by_name_s["graph.connected_components"],
        "graph.reduce_s": sum(by_name_s[f"graph.{f}"] for f in ("bodlaender_step", "improved_graph", "induced_subgraph")),
        "graph.contract_s": by_name_s["graph.contract_matching"],
        "forest.validate_s": by_name_s["forest.validate_elimination_forest"],
        "forest.validate_calls": by_name_n["forest.validate_elimination_forest"],
        "forest.surgery_s": layer_s["forest"] - by_name_s["forest.validate_elimination_forest"],
        "cli.parse_s": by_name_s["cli.parse_pace_graph"] + by_name_s["cli.parse_pace_forest"],
        "cli.parse_calls": by_name_n["cli.parse_pace_graph"] + by_name_n["cli.parse_pace_forest"],
        "cli.emit_s": by_name_s["cli.emit_pace_forest"],
    })
    total = sum(layer_s.values())
    for layer, t in sorted(layer_s.items()):
        m[f"share.{layer}"] = _frac(t, total)
    return m
