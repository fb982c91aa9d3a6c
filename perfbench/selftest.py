#!/usr/bin/env python3
"""Self-test of the benchmark's inputs and tracing.

    python3 perfbench/selftest.py

Checks, for every workload, that
1. the same seed writes byte-identical input files;
2. another seed writes different files with the same family, budget and
   truth mix;
and that a traced filter-large run makes no counting call at all.
Exit status 0 when all hold.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")


def mix(manifest: str) -> list[tuple]:
    with open(manifest, encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    return [(e["family"], e["kind"], e["d"], e["truth"]["feasible"]) for rnd in rounds for e in rnd]


def same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def main() -> int:
    problems = []
    try:
        for workload in corpus.WORKLOADS:
            dirs = {}
            for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
                dirs[tag] = os.path.join(WORK, f"{workload}-{tag}")
                corpus.write_corpus(workload, seed, dirs[tag], rounds=2)
            if not same_files(dirs["a"], dirs["b"]):
                problems.append(f"{workload}: seed 1 twice gave different files")
            if same_files(dirs["a"], dirs["c"]):
                problems.append(f"{workload}: seeds 1 and 2 gave the same files")
            if mix(os.path.join(dirs["a"], "manifest.json")) != mix(os.path.join(dirs["c"], "manifest.json")):
                problems.append(f"{workload}: seeds 1 and 2 differ in family or budget mix")
            print(f"{workload}: inputs checked")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "filter-large",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"traced filter-large run failed: {proc.stderr.strip()}")
    else:
        calls = json.loads(lines[-1])["metrics"]["counting.calls"]["value"]
        if calls != 0:
            problems.append(f"traced filter-large run made {calls} counting calls, expected 0")
        print(f"filter-large traced: counting.calls = {calls}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
