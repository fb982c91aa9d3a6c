#!/usr/bin/env python3
"""tdsolve benchmark: one workload, end to end through the CLI entry point.

    python3 perfbench/run.py --workload det-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark

1. times set-up: a fresh interpreter that imports ``tdsolve.cli`` and
   answers a 1-vertex instance, repeated, median reported;
2. writes the workload's corpus for --seed under .perfbench/ (PACE files
   plus the truth for every instance);
3. starts perfbench/worker.py, which feeds the instances to
   ``tdsolve.cli.main`` one at a time for --seconds (with --trace 1 it
   replays a fixed number of rounds with every layer wrapped instead);
4. checks every output against the truth with perfbench/check.py;
5. prints each metric by name with its unit, and as the last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

Workloads: det-small, rand-small, filter-large (see perfbench/README.md);
``--workload all`` runs the three in turn, each in its own run of this
script, and exits with the worst status.
Exit status: 0 when every output is right (capped or crashed instances only
count as failed), 1 when an output is wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 25
WORKER_TIMEOUT_S = 160.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup(run_dir: str) -> tuple[float, float]:
    """Median reference and wall time of a fresh ``python3 -m tdsolve`` that
    answers a 1-vertex instance."""
    graph = os.path.join(run_dir, "one-vertex.gr")
    with open(graph, "w", encoding="ascii") as fh:
        fh.write("p tdp 1 0\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "tdsolve", graph, "--max-depth", "1"]
    walls, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        if i:  # the first call also writes the bytecode cache
            refs.append(clock.child_time())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.split() != ["1", "0"]:
            raise RuntimeError(f"set-up instance failed: {proc.stdout!r} {proc.stderr!r}")
        if i:
            walls.append(dt)
    refs.append(clock.child_time())
    return statistics.median(clock.scale(walls, refs, clock.REF_CHILD_S)), statistics.median(walls)


def run_worker(manifest: str, run_dir: str, args, trace_rounds: int) -> dict:
    out = os.path.join(run_dir, "results.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", manifest,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-rounds", str(trace_rounds), "--out", out]
    if args.trace:
        cmd += ["--trace-file", os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with status {rc}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so the worker is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "tdsolve", "cli.py")):
        return fail(f"no tdsolve sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import corpus
    import tdsolve
    from check import CAPPED, CRASH, FALSE_NEGATIVE, OK, judge

    if os.path.dirname(os.path.abspath(tdsolve.__file__)) != os.path.join(SRC, "tdsolve"):
        return fail(f"imported tdsolve from {tdsolve.__file__}, not from {SRC}")
    if args.workload not in corpus.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(corpus.WORKLOADS)}")

    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        # Set-up is timed before the corpus is made, while this process is small.
        os.makedirs(run_dir)
        setup_s, setup_wall = (None, None) if args.trace else measure_setup(run_dir)
        t0 = time.perf_counter()
        manifest = corpus.write_corpus(args.workload, args.seed, run_dir)
        gen_s = time.perf_counter() - t0
        report = run_worker(manifest, run_dir, args, corpus.TRACE_ROUNDS[args.workload])
        with open(manifest, encoding="utf-8") as fh:
            entries_by_round = json.load(fh)["rounds"]
        entries = {e["id"]: e for rnd in entries_by_round for e in rnd}
        results = report["results"]
        outcomes = [judge(entries[r["id"]], r, run_dir) for r in results]
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(o not in (OK, FALSE_NEGATIVE) for o in outcomes)
    wrong = [(r["id"], o) for r, o in zip(results, outcomes) if o not in (OK, FALSE_NEGATIVE, CAPPED, CRASH)]
    crashes = [(r["id"], o, r["err"]) for r, o in zip(results, outcomes) if o in (CAPPED, CRASH)]
    feasible_rand = [o for r, o in zip(results, outcomes)
                     if entries[r["id"]]["truth"]["feasible"] and entries[r["id"]]["mode"] == "randomized"
                     and entries[r["id"]]["kind"] == "solve"]
    false_neg = sum(o == FALSE_NEGATIVE for o in outcomes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"corpus {len(entries)} instances, generated in {gen_s:.1f} s")
    for ident, what, err in crashes:
        print(f"  failed {ident}: {what} {err}")
    for ident, what in wrong:
        print(f"  WRONG {ident}: {what}")
    print(f"  failed_frac        {failed / attempted:.4f}  ({failed} of {attempted} instances)")
    print(f"  false_neg_frac     {false_neg / len(feasible_rand) if feasible_rand else 0.0:.4f}  "
          f"({false_neg} of {len(feasible_rand)} feasible randomized instances)")

    if args.trace:
        if not report["round_times"]:
            return fail("no round finished before the worker's deadline")
        metrics = report["layers"]
        untraced, traced = sum(report["round_times"]), sum(report["traced_round_times"])
        metrics["trace.overhead_frac"] = traced / untraced - 1
        print(f"  traced rounds      {len(report['traced_round_times'])}: "
              f"untraced {untraced:.3f} s, traced {traced:.3f} s")
        for name in sorted(k for k in metrics if k.startswith("share.")):
            print(f"  {name:34s} {metrics.pop(name):.4f}")
    else:
        rounds = report["round_times"]
        # Every run of an instance does the same work, so an instance's time
        # is its fastest run: the one least disturbed by the machine.
        runs = defaultdict(list)
        for r in results:
            runs[r["slot"], r["id"]].append(r["t"])
        best = {key: min(times) for key, times in runs.items()}
        latencies = [t * 1000 for t in best.values()]
        slots = defaultdict(list)
        for (slot, _), t in best.items():
            slots[slot].append(t)
        if len(slots) != len(entries_by_round[0]):
            return fail("some slot never ran before the worker's deadline")
        metrics = {
            "solve_s": sum(statistics.median(v) for v in slots.values()),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "right_answer_frac": (attempted - failed - false_neg) / attempted,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": setup_s,
        }
        print(f"  rounds             {len(rounds)} complete; solve_s sums the median times of the round's "
              f"{len(slots)} slots")
        print(f"  latency samples    {len(latencies)} ({len(latencies) - len(latencies) * 9 // 10} above p90)")
        print(f"  setup samples      {SETUP_REPEATS}")
        print(f"  wall clock         latency p50 {percentile([r['wall'] * 1000 for r in results], 50):.3f} ms, "
              f"setup {setup_wall:.4f} s (reported times are on the reference clock, see clock.py)")

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    for name, unit in declared.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    result = {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()}
    correct = not wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for workload in ("det-small", "rand-small", "filter-large"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def declared_metrics(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in a section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
