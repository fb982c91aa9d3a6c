"""Runs one workload's rounds through ``tdsolve.cli.main`` in this process.

Closed loop: one caller, one instance at a time.  Every instance gets the
same per-instance cap, enforced with an interval timer; a capped or crashed
instance is recorded and the loop goes on.

Every instance's wall time is scaled to the reference clock of clock.py by
kernel samples taken between instances; a round's time is the sum of its
instances' reference times.

Untraced: rounds run in order (cycling) until --seconds have passed and at
least MIN_ROUNDS are done.  Traced: each of the first --trace-rounds rounds
runs once untraced and once with the layer wrappers installed, so the two
totals give the tracing overhead and the counts do not depend on speed.

Usage: python3 perfbench/worker.py --manifest M --seconds S --trace 0|1
       --trace-rounds K --out RESULTS.json [--trace-file SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import clock

INSTANCE_CAP_S = 30.0
MIN_ROUNDS = 5  # a whole filter-large corpus
# No instance starts after this long, so even a slow program ends inside the
# benchmark's 180 s limit; a round cut short is left out of the round times.
LAST_START_S = 100.0


class InstanceCapped(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise InstanceCapped()


def run_instance(main, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status, rc = "ok", None
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    except InstanceCapped:
        status = "capped"
    except (Exception, SystemExit) as exc:  # the run goes on; the checker counts it
        status = "crash"
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"t": elapsed, "status": status, "rc": rc, "out": out.getvalue(), "err": err.getvalue()[-300:]}


def run_round(main, entries: list[dict], results: list, round_no: int, deadline: float,
              tracer=None) -> float | None:
    """Reference time of one round, or None when the deadline cut it short."""
    walls, kernels, done = [], [clock.kernel_time()], []
    for slot, e in enumerate(entries):
        if time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.instance = e["id"]
        res = run_instance(main, e["args"])
        kernels.append(clock.kernel_time())
        walls.append(res["t"])
        res.update(id=e["id"], round=round_no, slot=slot, wall=res["t"])
        done.append(res)
    for res, t in zip(done, clock.scale(walls, kernels)):
        res["t"] = t
    results.extend(done)
    return sum(r["t"] for r in done) if len(done) == len(entries) else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-rounds", type=int, default=1)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from tdsolve import cli

    with open(args.manifest, encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    os.chdir(os.path.dirname(os.path.abspath(args.manifest)))  # instance paths are relative
    signal.signal(signal.SIGALRM, _on_alarm)

    results: list[dict] = []
    round_times: list[float] = []
    report: dict = {"results": results, "round_times": round_times}
    deadline = time.perf_counter() + LAST_START_S
    if not args.trace:
        k = 0
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline and (k < MIN_ROUNDS or time.perf_counter() < end):
            t = run_round(cli.main, rounds[k % len(rounds)], results, k, deadline)
            if t is not None:
                round_times.append(t)
            k += 1
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import tracing

        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main, site="instance")
        traced_times = []
        # Each round runs untraced and traced back to back, in alternating
        # order, so drift in machine speed does not bias the overhead.
        for k, entries in enumerate(rounds[: args.trace_rounds]):
            pair = {}
            for traced in (k % 2 == 1, k % 2 == 0):
                if traced:
                    with tracer.installed():
                        pair[traced] = run_round(traced_main, entries, results, k, deadline, tracer)
                else:
                    pair[traced] = run_round(cli.main, entries, results, k, deadline)
            if None not in pair.values():
                round_times.append(pair[False])
                traced_times.append(pair[True])
        report["traced_round_times"] = traced_times
        report["layers"] = tracing.layer_metrics(tracer.spans)
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
