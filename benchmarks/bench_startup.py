"""Benchmark: start-up of a ``triform`` process, for two source trees.

Each run is a fresh interpreter that imports ``triform.cli`` and then
runs one command in-process:

  translate       the PG fixture schema to SHACL and to ShEx, as the
                  set-up of the benchmark in ``perfbench/`` does
  validate shacl  ``fixtures/media_graph.json`` against the SHACL,
  validate shex   ShEx or PG fixture schema: a cold ``triform validate``,
  validate pg     whose whole time is start-up and one small graph

Runs alternate between the two trees (A first in even rounds, B first in
odd ones), so a drift of host speed hits both alike.  Interpreter
start-up itself is not timed.  ``PYTHONDONTWRITEBYTECODE=1`` is set
unless ``--bytecode`` is given, so no run reads a bytecode cache another
run wrote; without ``--bytecode`` a tree holding a ``__pycache__`` (left
by an earlier ``--bytecode`` run, say) is refused, since its bytecode
would be read.

For each tree it prints the median and quartiles of the import and the
translate milliseconds, of import plus validate for each fixture schema,
and the ``exec`` audit events the import raises (counted in one extra
run with ``sys.addaudithook``, since the hook itself costs time); then
a ``loaded`` line per command naming the ``triform`` modules it loaded
(taken from that extra run); then, per command, the median of the paired
differences of import plus command, and in how many pairs B was faster.

Usage: python benchmarks/bench_startup.py A_SRC B_SRC [--pairs 20] [--bytecode]
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
GRAPH = os.path.join(FIXTURES, "media_graph.json")
COMMANDS = {
    "translate": [
        ["translate", os.path.join(FIXTURES, "media_pg.json"), "--to", "shacl"],
        ["translate", os.path.join(FIXTURES, "media_pg.json"), "--to", "shex"],
    ],
    **{
        f"validate {dialect}": [["validate", GRAPH, os.path.join(FIXTURES, f"media_{dialect}.json")]]
        for dialect in ("shacl", "shex", "pg")
    },
}

CHILD = """
import contextlib, io, json, sys, time
execs = []
if sys.argv[2] == "count":
    sys.addaudithook(lambda event, args: event == "exec" and execs.append(1))
t0 = time.perf_counter()
from triform import cli
t1 = time.perf_counter()
imported = len(execs)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) not in (0, 1):
            sys.exit(f"{argv[0]} failed")
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, imported, sorted(m for m in sys.modules if m.startswith("triform"))]))
"""


def run(src, command, mode, bytecode):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS[command]), mode],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return f"{1000 * q2:7.1f} ms [{1000 * q1:.1f}-{1000 * q3:.1f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="the src directory of tree A")
    ap.add_argument("b", help="the src directory of tree B")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--bytecode", action="store_true", help="let the runs write and read __pycache__")
    args = ap.parse_args()
    trees = {"A": args.a, "B": args.b}
    if not args.bytecode:
        for src in trees.values():
            for cache in glob.glob(os.path.join(src, "**", "__pycache__"), recursive=True):
                sys.exit(f"{cache} would be read: remove it, or give --bytecode")
    runs = {(name, command): [] for name in trees for command in COMMANDS}
    for i in range(args.pairs):
        for command in COMMANDS:
            for name in ("AB" if i % 2 == 0 else "BA"):
                runs[name, command].append(run(trees[name], command, "time", args.bytecode))
    for name, src in trees.items():
        counted = {command: run(src, command, "count", args.bytecode) for command in COMMANDS}
        translates = runs[name, "translate"]
        print(f"{name} {src}")
        print(f"  {'import':<15} {quartiles([r[0] for r in translates])}")
        print(f"  {'translate':<15} {quartiles([r[1] for r in translates])}")
        for command in COMMANDS:
            if command != "translate":
                print(f"  {command:<15} {quartiles([r[0] + r[1] for r in runs[name, command]])} (import + validate)")
        print(f"  exec audit events during the import: {counted['translate'][2]}")
        for command, (*_, modules) in counted.items():
            print(f"  loaded {command.replace(' ', '-')}: {' '.join(m.replace('triform.', '') for m in modules)}")
    for command in COMMANDS:
        diffs = [sum(b[:2]) - sum(a[:2]) for a, b in zip(runs["A", command], runs["B", command])]
        wins = sum(d < 0 for d in diffs)
        print(
            f"B - A, import + {command}: median {1000 * statistics.median(diffs):+.1f} ms, "
            f"B faster in {wins}/{len(diffs)} pairs"
        )


if __name__ == "__main__":
    main()
