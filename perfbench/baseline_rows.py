"""Re-measure the ROADMAP baseline rows that fall inside the benchmark's
workloads, with the same method as the ROADMAP (in-process, wall clock,
graphs built once, validate-only times):

  * media graph x k (k = 1000, 3000): build, and validate-only time per
    dialect, including the schemas translated from the PG fixture;
  * media graph plus 30 privileged accessors of a1: exit codes;
  * graph-type edge membership of one non-member edge under one EBoth,
    2 to 5 keys per endpoint;
  * `triform fuzz --trials 100 --seed 1` at 8 and 12 nodes: capped trials.

Run from the root of a checkout:  python3 perfbench/baseline_rows.py
Prints one markdown table.  Takes about a minute on 2 vCPUs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time

sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]

from triform import cli, examples, jsonio  # noqa: E402
from triform.cogsl import cogsl_to_shacl, cogsl_to_shex  # noqa: E402
from triform.model import EdgeTriple, PropTriple, bool_v, build_graph, str_v  # noqa: E402
from triform.pgschema import CBoth, CField, EBoth, ET, edge_type_member, pg_validate  # noqa: E402
from triform.shacl import shacl_validate  # noqa: E402
from triform.shex import shex_validate  # noqa: E402

import corpus  # noqa: E402

REPEATS = 3


def median_of(fn, repeats: int = REPEATS) -> float:
    """Median wall seconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fixture_rules(name: str):
    with open(os.path.join("fixtures", name), encoding="utf-8") as fh:
        return jsonio.parse_schema(json.load(fh))[1]


def media_rows(k: int, rows: list) -> None:
    edges, props, _ = corpus._replicated_media(k, random.Random(0), per_kind=0)
    doc = {"edges": edges, "props": props}
    parse_s = median_of(lambda: jsonio.parse_graph(doc))
    g = jsonio.parse_graph(doc)
    edge_list, prop_list = list(g.edges), [PropTriple(n, key, w) for (n, key), w in g.props.items()]
    build_s = median_of(lambda: build_graph(edge_list, prop_list))
    # only the graph stays alive while validating, as in `triform validate`:
    # more live objects would make every garbage collection slower
    del edges, props, doc, edge_list, prop_list
    gc.collect()
    shacl_rules, shex_rules = fixture_rules("media_shacl.json"), fixture_rules("media_shex.json")
    pg_rules = fixture_rules("media_pg.json")
    shacl_pg, shex_pg = cogsl_to_shacl(pg_rules), cogsl_to_shex(pg_rules)
    cases = [
        ("SHACL", lambda: shacl_validate(g, shacl_rules)),
        ("PG", lambda: pg_validate(g, pg_rules)),
        ("ShEx", lambda: shex_validate(g, shex_rules)),
        ("SHACL from PG", lambda: shacl_validate(g, shacl_pg)),
        ("ShEx from PG", lambda: shex_validate(g, shex_pg)),
    ]
    rows.append((f"media k={k}: build_graph", f"{build_s * 1000:.0f} ms"))
    rows.append((f"media k={k}: parse_graph (parse + build)", f"{parse_s * 1000:.0f} ms"))
    for name, fn in cases:
        rows.append((f"media k={k}: validate {name}", f"{median_of(fn) * 1000:.0f} ms"))


def hub30_row(rows: list) -> None:
    g = build_graph(
        examples.media_edges() + [EdgeTriple(f"x{j}", "hasAccess", "a1") for j in range(30)],
        examples.media_props() + [PropTriple(f"x{j}", "privileged", bool_v(True)) for j in range(30)],
    )
    doc = jsonio.graph_to_json(g)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "hub30.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        shex_pg = os.path.join(tmp, "shex_pg.json")
        with open(shex_pg, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            cli.main(["translate", "fixtures/media_pg.json", "--to", "shex"])
        codes = []
        for schema in ("fixtures/media_pg.json", "fixtures/media_shacl.json", "fixtures/media_shex.json", shex_pg):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(str(cli.main(["validate", path, schema])))
    rows.append(("media + 30 accessors of a1: exit PG / SHACL / ShEx / ShEx from PG", " / ".join(codes)))


def edge_type_rows(rows: list) -> None:
    for keys in (2, 3, 4, 5):
        props = [PropTriple(n, f"k{i}", str_v("v")) for n in ("s", "o") for i in range(keys)]
        g = build_graph([EdgeTriple("s", "p", "o")], props)
        # the left part needs a key no record has, so every split is tried
        t = EBoth(ET(CBoth(CField("missing", "str"), CField("k0", "str")), None, CField("k0", "str")),
                  ET(CField("k1", "str"), None, CField("k1", "str")))
        e = next(iter(g.edges))
        assert not edge_type_member(g, e, t)
        rows.append((f"graph-type edge membership, one EBoth, {keys} keys per endpoint",
                     f"{median_of(lambda: edge_type_member(g, e, t)) * 1000:.1f} ms per edge"))


def fuzz_rows(rows: list) -> None:
    for nodes in (8, 12):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["fuzz", "--trials", "100", "--seed", "1", "--nodes", str(nodes)])
        doc = json.loads(out.getvalue())
        rows.append((f"fuzz --trials 100 --seed 1 --nodes {nodes}: capped", str(doc["capped"])))


def main() -> int:
    rows: list = []
    media_rows(1000, rows)
    media_rows(3000, rows)
    hub30_row(rows)
    edge_type_rows(rows)
    fuzz_rows(rows)
    print("| row | measured |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
