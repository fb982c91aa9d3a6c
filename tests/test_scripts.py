"""The scripts import the solver directly, so a changed signature breaks
them without any other test failing: run each on a tiny input."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_false_negatives_script_runs():
    script = os.path.join(SCRIPTS, "false_negatives.py")
    out = subprocess.run([sys.executable, script, "--instances", "3", "--seeds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("3 runs on 3 positive instances: "), out.stdout


def test_time_cases_script_runs():
    script = os.path.join(SCRIPTS, "time_cases.py")
    cases = ["det-k44-d4", "det-path15-d4", "rand-cycle12-d4", "split-rg5000"]
    out = subprocess.run([sys.executable, script, "--runs", "1", "--case", *cases],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    rows = [line.split()[0] for line in out.stdout.splitlines() if line and not line[0].isspace()][1:]
    assert rows == cases, out.stdout


def test_same_output_script_runs(tmp_path):
    script = os.path.join(SCRIPTS, "same_output.py")
    dumps = [str(tmp_path / f"{i}.json") for i in range(2)]
    for dump in dumps:
        out = subprocess.run([sys.executable, script, "dump", "--workload", "det-small", "--seed", "1", "--out", dump],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
    out = subprocess.run([sys.executable, script, "diff", *dumps], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout
    assert out.stdout.strip().endswith("0 of 1280 instances differ"), out.stdout
