"""Benchmark: start-up of a ``triform`` process, for two source trees.

Each run is a fresh interpreter that imports ``triform.cli`` and then
translates the PG fixture schema to SHACL and to ShEx in-process, as the
set-up of the benchmark in ``perfbench/`` does.  Runs alternate between
the two trees (A first in even rounds, B first in odd ones), so a drift
of host speed hits both alike.  Interpreter start-up itself is not
timed.  ``PYTHONDONTWRITEBYTECODE=1`` is set unless ``--bytecode`` is
given, so no run reads a bytecode cache another run wrote.

For each tree it prints the median and quartiles of the import and the
translate milliseconds and the ``exec`` audit events the import raises
(counted in one extra run with ``sys.addaudithook``, since the hook
itself costs time); then the median of the paired differences of
import plus translate, and in how many pairs B was faster.

Usage: python benchmarks/bench_startup.py A_SRC B_SRC [--pairs 20] [--bytecode]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SCHEMA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures", "media_pg.json")

CHILD = """
import contextlib, io, json, sys, time
execs = []
if sys.argv[2] == "count":
    sys.addaudithook(lambda event, args: event == "exec" and execs.append(1))
t0 = time.perf_counter()
from triform import cli
t1 = time.perf_counter()
imported = len(execs)
for dialect in ("shacl", "shex"):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["translate", sys.argv[1], "--to", dialect]) != 0:
            sys.exit("translate failed")
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, imported]))
"""


def run(src, mode, bytecode):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", CHILD, SCHEMA, mode], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{1000 * q2:7.1f} ms [{1000 * q1:.1f}-{1000 * q3:.1f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="the src directory of tree A")
    ap.add_argument("b", help="the src directory of tree B")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--bytecode", action="store_true", help="let the runs write and read __pycache__")
    args = ap.parse_args()
    trees = {"A": args.a, "B": args.b}
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        for name in ("AB" if i % 2 == 0 else "BA"):
            runs[name].append(run(trees[name], "time", args.bytecode))
    for name, src in trees.items():
        imports = [r[0] for r in runs[name]]
        translates = [r[1] for r in runs[name]]
        execs = run(src, "count", args.bytecode)[2]
        print(f"{name} {src}")
        print(f"  import    {quartiles(imports)}")
        print(f"  translate {quartiles(translates)}")
        print(f"  exec audit events during the import: {execs}")
    diffs = [sum(b[:2]) - sum(a[:2]) for a, b in zip(runs["A"], runs["B"])]
    wins = sum(d < 0 for d in diffs)
    print(f"B - A, import + translate: median {1000 * statistics.median(diffs):+.1f} ms, B faster in {wins}/{len(diffs)} pairs")


if __name__ == "__main__":
    main()
