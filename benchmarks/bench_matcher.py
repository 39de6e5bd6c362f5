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

Usage: python benchmarks/bench_matcher.py [--sizes 8,12,16,20,32,64] [--repeat 3]
"""

import argparse
import statistics
import time

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


if __name__ == "__main__":
    main()
