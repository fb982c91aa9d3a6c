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
