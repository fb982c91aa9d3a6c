"""Times on a reference clock.

The machines this benchmark runs on are shared, and their speed drifts by
a third or more over seconds to minutes (other tenants, frequency steps).
Wall time alone therefore moves more between two runs of the same code than
the regressions the benchmark must catch.  So every timed interval is
bracketed by runs of a fixed reference task, and its wall time is scaled by
how fast the machine ran that task at that moment:

    reference time = wall time * nominal task time / (median task time nearby)

Instances run in-process, so their reference task is KERNEL, run in the
same process: pure Python with the mix the solver has (calls, small lists,
dicts and big-integer arithmetic).  Set-up runs in a fresh interpreter, so
its reference task is REF_CHILD, a fresh interpreter that runs the kernel
30 times: a kernel sampled in the parent after a child exits does not track
the child's speed.  A reference second is the time an interval would take
on a machine that runs the kernel in REF_KERNEL_S and the child in
REF_CHILD_S.  Both tasks live in the benchmark, so they are the same code
for every commit measured.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

REF_KERNEL_S = 0.001
REF_CHILD_S = 0.1
REF_CHILD = [sys.executable, "-c", "import clock\nfor _ in range(30): clock.kernel()"]
# Reference samples on each side of an interval whose median scales it.
WINDOW = 3


def kernel() -> int:
    acc: dict[int, int] = {}
    x = 1
    m = (1 << 127) - 1
    for i in range(400):
        x = (x * 6364136223846793005 + i) % m
        acc[i & 31] = acc.get(i & 31, 0) + sum([(x >> k) & 255 for k in range(0, 40, 4)])
    return len(acc)


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def child_time() -> float:
    t0 = time.perf_counter()
    subprocess.run(REF_CHILD, cwd=os.path.dirname(os.path.abspath(__file__)), check=True, timeout=60)
    return time.perf_counter() - t0


def scale(walls: list[float], refs: list[float], nominal: float = REF_KERNEL_S) -> list[float]:
    """Reference times of ``walls[i]``, where ``refs[i]`` is a reference task
    timed just before interval i and ``refs[i + 1]`` just after it, and
    ``nominal`` is that task's time at reference speed."""
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference sample before each interval and one after the last")
    out = []
    for i, wall in enumerate(walls):
        near = refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(wall * nominal / statistics.median(near))
    return out
