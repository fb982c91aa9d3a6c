#!/usr/bin/env python3
"""Check that two versions of tdsolve print the same thing on a benchmark corpus.

    python scripts/same_output.py dump --workload rand-small --seed 1 --out a.json [--src DIR]
    python scripts/same_output.py diff a.json b.json

`dump` writes one workload's corpus for one seed with perfbench's
`corpus.write_corpus` into a temporary directory, runs every instance once
through `tdsolve.cli.main` in this process and writes each instance's exit
status, stdout and stderr to a JSON file.  --src names the `src` directory
of the tdsolve to run (default: the one next to this script), so two trees
can be dumped from one checkout.  The corpus itself is made by this
checkout's perfbench, which is only imported.

`diff` lists every instance whose status, stdout or stderr differ between
two dumps and exits 1 when any does, 0 when none does.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dump(workload: str, seed: int, src: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import corpus
    from tdsolve import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported tdsolve from {cli.__file__}, not from {src}")
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = corpus.write_corpus(workload, seed, tmp)
        with open(manifest, encoding="utf-8") as fh:
            rounds = json.load(fh)["rounds"]
        os.chdir(tmp)  # instance paths are relative to the corpus
        try:
            for entries in rounds:
                for e in entries:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        try:
                            status = cli.main(e["args"])
                        except Exception as exc:  # a crash is an output too
                            status = f"{type(exc).__name__}: {exc}"
                    out[e["id"]] = {"status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        finally:
            os.chdir(cwd)
    return out


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for ident in sorted(a.keys() | b.keys()):
        if ident not in a or ident not in b:
            lines.append(f"{ident}: only in {'the first' if ident in a else 'the second'} dump")
            continue
        fields = [k for k in ("status", "stdout", "stderr") if a[ident][k] != b[ident][k]]
        if fields:
            lines.append(f"{ident}: {', '.join(fields)} differ")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="run one corpus and write every instance's output")
    d.add_argument("--workload", required=True, choices=("det-small", "rand-small", "filter-large"))
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--src", default=os.path.join(ROOT, "src"))
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()

    if args.cmd == "dump":
        out = dump(args.workload, args.seed, args.src)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        print(f"{len(out)} instances of {args.workload} at seed {args.seed} written to {args.out}")
        return 0
    with open(args.first, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.second, encoding="utf-8") as fh:
        b = json.load(fh)
    lines = diff(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(a.keys() | b.keys())} instances differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
