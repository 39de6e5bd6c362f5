"""Benchmark: loading a large common graph, selecting foci, validating.

The media fixture graph is replicated k times (copy i renames every node
with the suffix ``_i`` and tags every email ``+i``, so copies share no
node and no email value; k = 6000 gives 42,025 edges and 53,995
property triples, about 96k triples).  For each size it times, in this
process:

  load        ``json.load`` plus ``jsonio.parse_graph`` of the graph file,
              with the collector as this process has it
  indexes     the first read of every index a freshly loaded graph
              derives on first use (adjacency lists, records, value
              owners, ``nodes`` and ``values``, names), the
              load made untimed just before; ``load`` plus ``indexes`` is
              what loading cost when ``build_graph`` filled them all
  load (cli)  ``triform validate`` of the graph against an empty SHACL
              schema through ``cli.main``: the same load as the CLI runs
              it, with the collector paused for the whole command and
              resumed once the graph is freed, and no rule to decide
  select      each dialect's selection of every rule's foci on the loaded
              graph (the raw ``_select`` the validators call)
  decide      the SHACL, PG and ShEx (fixture and compiled) evaluation
              of every rule's shape on its selected elements (the raw
              ``core._sat`` the validators call, in one context of the
              dialect per call, PG's shapes lowered to the shape core):
              the count atoms' path images and the neighborhood
              matching alone (ShEx's row counts included), the
              selection made untimed just before on the same graph
  types       ``pgschema.validate_graph_type`` on the loaded graph with the
              media node and edge types and no constraints: the
              content-type and edge-type checks alone
  validate    ``triform validate`` through ``cli.main``, per schema: the
              fixture SHACL, ShEx and PG schemas, the SHACL and ShEx
              compiled from the PG one, and the graph type (the media
              node and edge types plus the PG constraints)

The repeats run round-robin: each round times every row of a size once,
in the order above, so the rows of a size are timed at the same host
speed and their ratios hold even when that speed drifts between rounds.
Each round loads the graph of the select and types rows afresh, so the
indexes a graph builds on first use are timed in every round, as they
are in ``validate``.
Each line gives the median, the quartiles and the best seconds over the
rounds, and the cyclic-GC collections per generation (gen-0/1/2) of the
median run, counted through ``gc.callbacks``.  A ``gc.collect()``
precedes every timed call.

Usage: python benchmarks/bench_graph.py [--sizes 1000,6000] [--repeat 3]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import tempfile
import time

from triform import cli, core, examples, jsonio, pgschema, shacl, shex
from triform.cogsl import cogsl_to_shacl, cogsl_to_shex
from triform.pgschema import CAny, CBoth, CEither, CEmpty, CField, EBoth, EEither, ET, GraphType


def replicated_media(k):
    """The media graph as a JSON document, replicated ``k`` times."""
    base = jsonio.graph_to_json(examples.media_graph())
    edges, props = [], []
    for i in range(k):
        sfx = f"_{i}"
        edges += [{"s": e["s"] + sfx, "p": e["p"], "o": e["o"] + sfx} for e in base["edges"]]
        for p in base["props"]:
            v = p["v"]
            if p["k"] == "email":
                local, _, domain = v["val"].partition("@")
                v = {"t": "str", "val": f"{local}+{i}@{domain}"}
            props.append({"n": p["n"] + sfx, "k": p["k"], "v": v})
    return {"edges": edges, "props": props}


def media_graph_type(constraints=()):
    """Node types for users, accounts and bare nodes, and edge types
    built with EEither and EBoth; every node and edge of the media graph
    (and of its copies) is a member."""
    empty, priv = CEmpty(), CField("privileged", "bool")
    email = CField("email", "str")
    person = CEither(email, CBoth(email, priv))
    card = CBoth(CField("card", "any"), priv)
    acct = CEither(priv, CEither(card, CBoth(card, CField("plan", "str"))))
    who, where, spare = CEither(person, empty), CEither(acct, empty), CEither(empty, priv)
    edge_types = (
        EEither(ET(who, frozenset({"invited"}), who), ET(empty, frozenset({"invited"}), empty)),
        EBoth(ET(who, frozenset({"hasAccess"}), where), ET(spare, None, CAny())),
        EBoth(ET(who, frozenset({"ownsAccount"}), where), ET(spare, frozenset({"hasAccess", "ownsAccount"}), CAny())),
    )
    return GraphType((person, acct, empty), edge_types, tuple(constraints))


SCHEMAS = {
    "empty": lambda: {"dialect": "shacl", "rules": []},
    "shacl": lambda: jsonio.schema_to_json("shacl", examples.media_shacl_rules()),
    "shex": lambda: jsonio.schema_to_json("shex", examples.media_shex_rules()),
    "pg": lambda: jsonio.schema_to_json("pg", examples.media_pg_rules()),
    "shacl_compiled": lambda: jsonio.schema_to_json("shacl", cogsl_to_shacl(examples.media_pg_rules())),
    "shex_compiled": lambda: jsonio.schema_to_json("shex", cogsl_to_shex(examples.media_pg_rules())),
    "graph_type": lambda: {
        "dialect": "pg",
        "graph_type": jsonio.graph_type_to_json(media_graph_type(examples.media_pg_rules())),
    },
}

SELECT = {
    "shacl": (examples.media_shacl_rules, shacl._select),
    "shex": (examples.media_shex_rules, shex._select),
    "pg": (examples.media_pg_rules, lambda g, sel: pgschema._select(g, sel, None)),
}


def decide(context, lower=None):
    """Every rule's shape on its selected elements, by the one set
    evaluator, in one context of the dialect, as its validator decides
    them (PG's shapes lowered to the shape core first)."""

    def run(g, picked):
        ctx = context(g)
        return [core._sat(ctx, lower(shape) if lower else shape, elems) for shape, elems in picked]

    return run


def shex_context(g):
    return shex.ShexContext(g, None)


DECIDE = {
    "shacl": (examples.media_shacl_rules, shacl._select, decide(shacl.ShaclContext)),
    "pg": (examples.media_pg_rules, lambda g, sel: pgschema._select(g, sel, None), decide(pgschema.PgContext, pgschema.lower_shape)),
    "shex": (examples.media_shex_rules, shex._select, decide(shex_context)),
    "shex_compiled": (lambda: cogsl_to_shex(examples.media_pg_rules()), shex._select, decide(shex_context)),
}


class Collections:
    """Cyclic-GC collections per generation while the context is open."""

    def __init__(self):
        self.counts = [0, 0, 0]

    def _count(self, phase, info):
        if phase == "start":
            self.counts[info["generation"]] += 1

    def __enter__(self):
        gc.callbacks.append(self._count)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._count)


def timed(fn, *args):
    """(seconds, gc counts) of one call of ``fn``."""
    gc.collect()
    with Collections() as c:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
    return dt, c.counts


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.parse_graph(json.load(fh))


def derive_indexes(g):
    """Read every index ``g`` derives on first use, through its readers."""
    g.out_edges(""), g.in_edges(""), g.node_props(""), g.value_owners(None)
    g.nodes, g.values, g.keys, g.preds, g.nodes_of_size(0)


def validate(graph_path, schema_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", graph_path, schema_path])
    if code != cli.EXIT_VALID:
        raise SystemExit(f"validate {schema_path} exited {code}, expected 0")


def report(label, runs):
    runs.sort(key=lambda r: r[0])
    times = [dt for dt, _ in runs]
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    g0, g1, g2 = runs[len(runs) // 2][1]
    print(
        f"  {label:<26} median {statistics.median(times) * 1e3:9.1f} ms"
        f"  quartiles {q1 * 1e3:9.1f} - {q3 * 1e3:9.1f} ms  best {times[0] * 1e3:9.1f} ms  gc {g0}/{g1}/{g2}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="1000,6000", help="replication factors k")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        schema_paths = {}
        for kind, doc in SCHEMAS.items():
            schema_paths[kind] = os.path.join(tmp, f"{kind}.json")
            with open(schema_paths[kind], "w", encoding="utf-8") as fh:
                json.dump(doc(), fh)
        for k in (int(x) for x in args.sizes.split(",")):
            graph_path = os.path.join(tmp, f"media_x{k}.json")
            doc = replicated_media(k)
            with open(graph_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            print(f"media x{k}: {len(doc['edges'])} edges, {len(doc['props'])} props")
            del doc
            rows = {"load": lambda: load(graph_path), "indexes": (lambda: load(graph_path), derive_indexes)}
            for dialect, (rules, select) in SELECT.items():
                sels = [sel for sel, _ in rules()]
                rows[f"select {dialect}"] = lambda select=select, sels=sels: [select(g, s) for s in sels]
            for dialect, (rules, select, decide) in DECIDE.items():
                # (untimed preparation, timed work): the selection, then the shapes on it
                rows[f"decide {dialect}"] = (
                    lambda rules=rules(), select=select: [(shape, select(g, sel)) for sel, shape in rules],
                    lambda picked, decide=decide: decide(g, picked),
                )
            types = media_graph_type()
            rows["types"] = lambda: pgschema.validate_graph_type(g, types)
            for kind, schema_path in schema_paths.items():
                label = "load (cli)" if kind == "empty" else f"validate {kind}"
                rows[label] = lambda schema_path=schema_path: validate(graph_path, schema_path)
            runs = {label: [] for label in rows}
            for _ in range(args.repeat):
                # a fresh graph per round: the indexes a graph builds on first use are timed each round
                g = load(graph_path)
                for label, fn in rows.items():
                    if isinstance(fn, tuple):
                        prepare, fn = fn
                        runs[label].append(timed(fn, prepare()))
                    else:
                        runs[label].append(timed(fn))
                del g
            for label, row_runs in runs.items():
                report(label, row_runs)


if __name__ == "__main__":
    main()
