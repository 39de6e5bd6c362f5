"""Benchmark: the bag-matching kernel.

The matcher decides whether a signed neighborhood splits into triples
consumed by a triple expression plus wildcard remainder; the DP over
the counts of rows per signature class behind it is the one hot loop
in ShEx validation.  Three workloads, each over two classes (the p- and
the q-triples):

  pairs       a starred alternation of two-triple sequences that must
              tile the whole neighborhood: a star peels one part per step
  false-pairs the pairs shape over p = q + 2 triples, which cannot be
              tiled: the DP must exhaust every split before it says no
  bounded     an at-most-k repetition under an open closure; the typical
              shape of validation constraints, and a program of about
              k^2 nodes

Each timed call validates in a fresh evaluation context, so the per-run
verdict memo never answers it: the numbers time the template build and
the kernel.

A last row, ``fuzz``, runs a fixed campaign of 100 three-way trials on
12-node graphs (``harness.run_campaign``, seed 1) ``--repeat`` times and
prints the median time per trial, with the min-max spread of the
campaigns after it, and the kernel (``count_match``) calls per trial,
the memo included: the count of distinct (program, bag) pairs decided.
Only the kernel-call column supports a before/after claim: it is a
count that repeats exactly, while the times are unscaled wall clock of
campaigns run back to back, whose spread on a shared host can exceed the
difference being measured (``perfbench`` scales its times to the host's
speed).

Usage: python benchmarks/bench_matcher.py [--sizes 8,12,16,20,32,64] [--repeat 3]
"""

import argparse
import statistics
import time

from triform import _bagmatch_py
from triform.harness import GenParams, run_campaign
from triform.model import EdgeTriple, Node, build_graph
from triform.shex import (
    Alt,
    HalfOpen,
    Seq,
    StarE,
    TC,
    desugar_repetition,
    match_triple_expr,
    open_closure,
    top_shape,
)


def star_graph(n, n_p=None):
    """A focus ``c`` with ``n_p`` outgoing p-triples (default n // 2) and
    n - n_p outgoing q-triples."""
    n_p = n // 2 if n_p is None else n_p
    edges = [EdgeTriple("c", "p", f"a{i}") for i in range(n_p)]
    edges += [EdgeTriple("c", "q", f"b{i}") for i in range(n - n_p)]
    return build_graph(edges, [])


def pairs_shape():
    top = top_shape()
    expr = StarE(
        Alt(
            Seq(TC("p", "fwd", top), TC("q", "fwd", top)),
            Seq(TC("q", "fwd", top), TC("p", "fwd", top)),
        )
    )
    return expr, HalfOpen(frozenset({"p", "q"}))


def workload_pairs(n):
    return (star_graph(n), *pairs_shape())


def workload_false_pairs(n):
    return (star_graph(n, n_p=(n + 2) // 2), *pairs_shape())


def workload_bounded(n):
    top = top_shape()
    shape = open_closure(desugar_repetition(TC("p", "fwd", top), "at-most", max(1, n // 2)))
    return star_graph(n), shape.expr, shape.openness


WORKLOADS = {"pairs": workload_pairs, "false-pairs": workload_false_pairs, "bounded": workload_bounded}


def time_once(g, expr, openness, n):
    start = time.perf_counter()
    result = match_triple_expr(g, Node("c"), expr, openness, cap=n)
    return result, (time.perf_counter() - start) * 1000.0


FUZZ_NODES, FUZZ_TRIALS = 12, 100


def fuzz_once():
    """One fixed campaign: its time per trial in ms and its kernel calls per trial."""
    calls = []
    count_match = _bagmatch_py.count_match
    _bagmatch_py.count_match = lambda *args: calls.append(1) or count_match(*args)
    try:
        start = time.perf_counter()
        summary = run_campaign(FUZZ_TRIALS, GenParams(node_count=FUZZ_NODES, schema_size_budget=5), seed=1)
        ms = (time.perf_counter() - start) * 1000.0
    finally:
        _bagmatch_py.count_match = count_match
    assert summary.ok, summary.divergences
    return ms / FUZZ_TRIALS, len(calls) / FUZZ_TRIALS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,12,16,20,32,64", help="neighborhood sizes")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'workload':<11} {'n':>3} {'median':>12}  verdict")
    for wname, factory in WORKLOADS.items():
        for n in sizes:
            g, expr, openness = factory(n)
            samples = []
            verdicts = set()
            for _ in range(args.repeat):
                result, ms = time_once(g, expr, openness, n)
                verdicts.add(result)
                samples.append(ms)
            assert len(verdicts) == 1, "verdict changed between repeats"
            print(f"{wname:<11} {n:>3} {statistics.median(samples):>10.2f}ms  {verdicts.pop()}")
    runs = [fuzz_once() for _ in range(args.repeat)]
    assert len({calls for _, calls in runs}) == 1, "kernel calls changed between repeats"
    times = [ms for ms, _ in runs]
    spread = f"({min(times):.2f}-{max(times):.2f})"
    print(f"{'fuzz':<11} {FUZZ_NODES:>3} {statistics.median(times):>10.2f}ms {spread}  {runs[0][1]:.2f} kernel calls per trial")


if __name__ == "__main__":
    main()
