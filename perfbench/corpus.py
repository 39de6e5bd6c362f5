"""Input generation for the benchmark workloads.

Everything here is deterministic in the workload seed.  The generators
write JSON files into a work directory and return a manifest: the list
of validate operations with their expected outcome, and the fuzz
campaign parameters.  The program under test only ever sees the files.

Expected outcomes are derived from how the inputs were built, never
from running the program: the rule indices each graph must violate
(one per kind of planted media mutation), the graph-type node and edge
violations (the wide hub accessors and their edges), and, for graphs
whose ShEx neighbourhood exceeds the default cap, that exit 3 is an
accepted outcome next to the true verdict.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from typing import Dict, List, Tuple

from triform import examples, jsonio

# Rule schemas, in the order ops are run within a pass.  "graph_type" is
# the sixth schema kind; its constraints are the five media rules.
SCHEMA_KINDS = ("shacl", "shex", "pg", "shacl_compiled", "shex_compiled", "graph_type")
FIXTURE_SCHEMAS = {"shacl": "media_shacl.json", "shex": "media_shex.json", "pg": "media_pg.json"}

# Default `triform fuzz` family (8 nodes) and the fuzz-small family.
FUZZ_DEFAULT = {"nodes": 8, "budget": 5}
FUZZ_SMALL = {"nodes": 12, "budget": 5}

# How a run spends its --seconds: validate passes while the next one fits
# (at least MIN_PASSES), with fuzz trials between the ops, at least
# MIN_TRIALS in all.  An op faster than ``min_op_s`` is repeated, so cheap
# ops get more samples; hub's is lower because its pass is the longest.
# Traced runs do fixed work: one pass with each op once, then
# ``trace_trials`` trials.
MIN_PASSES = 3  # each ShEx and graph-type op on media-bulk and hub takes 1-5 s
MIN_TRIALS = 1000  # fuzz_trial_p99_s then has at least 10 samples beyond it
MEDIA_PLAN = {"min_op_s": 1.0, "trace_trials": 200}
HUB_PLAN = {"min_op_s": 0.5, "trace_trials": 200}
FUZZ_PLAN = {"min_op_s": 0.0, "trace_trials": 300}

HUB_SIZES = (12, 14, 16)  # signed neighbourhoods of n + 5 triples, under the cap of 24
OVERCAP_SIZES = (32, 128, 512)
WIDE_KEYS = (("badge", "str"), ("dept", "str"), ("level", "int"))


def _val(tag: str, payload) -> Dict:
    return {"t": tag, "val": payload}


def _media_variants() -> List[Tuple[str, Dict, List[int]]]:
    """The media fixture graph and its five mutations as JSON documents,
    each with the rule indices it violates."""
    out = [("base", jsonio.graph_to_json(examples.media_graph()), [])]
    for name, (g, rule) in sorted(examples.media_mutations().items(), key=lambda kv: kv[1][1]):
        out.append((name, jsonio.graph_to_json(g), [rule]))
    return out


def _rename_copy(doc: Dict, i: int) -> Tuple[List[Dict], List[Dict]]:
    """Copy ``i`` of a media graph: ids get the suffix ``_i``, emails a
    ``+i`` tag, so copies share no node and no email value (an email
    duplicated inside the copy stays duplicated)."""
    sfx = f"_{i}"
    edges = [{"s": e["s"] + sfx, "p": e["p"], "o": e["o"] + sfx} for e in doc["edges"]]
    props = []
    for p in doc["props"]:
        v = p["v"]
        if p["k"] == "email":
            local, _, domain = v["val"].partition("@")
            v = _val("str", f"{local}+{i}@{domain}")
        props.append({"n": p["n"] + sfx, "k": p["k"], "v": v})
    return edges, props


def _replicated_media(k: int, rng: random.Random, per_kind: int):
    """The media graph replicated ``k`` times with ``per_kind`` seeded
    copies carrying each of the five mutations."""
    variants = _media_variants()
    mutated = rng.sample(range(k), per_kind * (len(variants) - 1))
    kind_of = {c: 1 + j % (len(variants) - 1) for j, c in enumerate(mutated)}
    edges: List[Dict] = []
    props: List[Dict] = []
    for i in range(k):
        e, p = _rename_copy(variants[kind_of.get(i, 0)][1], i)
        edges += e
        props += p
    violated = sorted({r for c in mutated for r in variants[kind_of[c]][2]})
    return edges, props, violated


def _hub(n: int, rng: random.Random):
    """One privileged account ``h<n>`` with its owner and ``n`` privileged
    accessors whose records have 3 to 5 keys (widths balanced, their
    placement seeded).  The account's signed neighbourhood has n + 5
    triples: n + 1 hasAccess, one ownsAccount, card, privileged, plan."""
    acct, owner = f"h{n}", f"h{n}_owner"
    edges = [
        {"s": owner, "p": "ownsAccount", "o": acct},
        {"s": owner, "p": "hasAccess", "o": acct},
    ]
    props = [
        {"n": acct, "k": "card", "v": _val("int", 7000 + n)},
        {"n": acct, "k": "privileged", "v": _val("bool", True)},
        {"n": acct, "k": "plan", "v": _val("str", "gold")},
        {"n": owner, "k": "email", "v": _val("str", f"owner@h{n}")},
        {"n": owner, "k": "privileged", "v": _val("bool", True)},
    ]
    widths = [3 + j % 3 for j in range(n)]
    rng.shuffle(widths)
    wide_nodes, wide_edges = [], []
    for j, w in enumerate(widths):
        u = f"h{n}_x{j}"
        edges.append({"s": u, "p": "hasAccess", "o": acct})
        props.append({"n": u, "k": "email", "v": _val("str", f"x{j}@h{n}")})
        props.append({"n": u, "k": "privileged", "v": _val("bool", True)})
        for key, tag in WIDE_KEYS[: w - 2]:
            props.append({"n": u, "k": key, "v": _val(tag, j if tag == "int" else f"{key}{j % 4}")})
        wide_nodes.append(u)
        wide_edges.append([u, "hasAccess", acct])
    return edges, props, wide_nodes, wide_edges


def _field(k: str, t: str) -> Dict:
    return {"op": "field", "k": k, "type": t}


def _both(*args) -> Dict:
    return {"op": "both", "args": list(args)}


def _either(*args) -> Dict:
    return {"op": "either", "args": list(args)}


def graph_type_schema(constraints: List[Dict]) -> Dict:
    """Node types for users (1-2 keys), accounts and bare nodes; edge
    types built with EEither and EBoth.  Media records are members at
    the first record split; a hub accessor (3-5 keys) is in no node
    type and its hasAccess edge in no edge type, so both EBoth types
    enumerate every split of it."""
    empty = {"op": "empty"}
    person = _either(_field("email", "str"), _both(_field("email", "str"), _field("privileged", "bool")))
    acct = _either(
        _field("privileged", "bool"),
        _both(_field("card", "any"), _field("privileged", "bool")),
        _both(_field("card", "any"), _field("privileged", "bool"), _field("plan", "str")),
    )
    who, where = _either(person, empty), _either(acct, empty)
    spare = _either(empty, _field("privileged", "bool"))
    edge_types = [
        _et_either(("invited", who, who), ("invited", empty, empty)),
        {"op": "both", "args": [_et(who, ["hasAccess"], where), _et(spare, "*", {"op": "any"})]},
        {
            "op": "both",
            "args": [
                _et(who, ["ownsAccount"], where),
                _et(spare, ["hasAccess", "ownsAccount"], {"op": "any"}),
            ],
        },
    ]
    return {
        "dialect": "pg",
        "graph_type": {
            "node_types": [person, acct, empty],
            "edge_types": edge_types,
            "constraints": constraints,
        },
    }


def _et(src: Dict, labels, dst: Dict) -> Dict:
    return {"op": "et", "src": src, "labels": labels, "dst": dst}


def _et_either(*parts) -> Dict:
    return {"op": "either", "args": [_et(src, [label], dst) for label, src, dst in parts]}


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return path


def _graph_ops(name: str, path: str, violated: List[int], kinds=SCHEMA_KINDS, **extra) -> List[Dict]:
    ops = []
    for kind in kinds:
        op = {"id": f"{name}:{kind}", "graph": path, "kind": kind, "rules": violated}
        op.update(extra)
        if kind == "graph_type":
            op.setdefault("node_violations", [])
            op.setdefault("edge_violations", [])
        ops.append(op)
    return ops


def build(workload: str, seed: int, src_root: str, workdir: str) -> Dict:
    """Write the inputs of one run into ``workdir`` and return its manifest."""
    rng = random.Random(f"{workload}-{seed}")
    fixtures = os.path.join(src_root, "fixtures")
    schemas = {}
    for kind, fname in FIXTURE_SCHEMAS.items():
        schemas[kind] = shutil.copy(os.path.join(fixtures, fname), os.path.join(workdir, fname))
    with open(schemas["pg"], encoding="utf-8") as fh:
        constraints = json.load(fh)["rules"]
    schemas["graph_type"] = _write(os.path.join(workdir, "media_graph_type.json"), graph_type_schema(constraints))
    schemas["shacl_compiled"] = os.path.join(workdir, "compiled_shacl.json")
    schemas["shex_compiled"] = os.path.join(workdir, "compiled_shex.json")

    ops: List[Dict] = []
    if workload == "media-bulk":
        edges, props, violated = _replicated_media(1000, rng, per_kind=2)
        path = _write(os.path.join(workdir, "media_k1000.json"), {"edges": edges, "props": props})
        ops += _graph_ops("media_k1000", path, violated)
        fuzz = dict(FUZZ_DEFAULT, first_seed=0, **MEDIA_PLAN)
    elif workload == "hub":
        edges, props, violated = _replicated_media(100, rng, per_kind=1)
        nodes, bad_edges = [], []
        for n in HUB_SIZES:
            e, p, wn, we = _hub(n, rng)
            edges += e
            props += p
            nodes += wn
            bad_edges += we
        path = _write(os.path.join(workdir, "hub.json"), {"edges": edges, "props": props})
        ops += _graph_ops(
            "hub", path, violated,
            node_violations=sorted(nodes), edge_violations=sorted(bad_edges),
        )
        for n in OVERCAP_SIZES:
            e, p, _, _ = _hub(n, rng)
            path = _write(os.path.join(workdir, f"hub{n}.json"), {"edges": e, "props": p})
            ops += _graph_ops(f"hub{n}", path, [], kinds=("shex", "shex_compiled"), may_cap=True)
        fuzz = dict(FUZZ_DEFAULT, first_seed=0, **HUB_PLAN)
    elif workload == "fuzz-small":
        for name, doc, violated in _media_variants():
            path = _write(os.path.join(workdir, f"golden_{name}.json"), doc)
            ops += _graph_ops(f"golden_{name}", path, violated)
        fuzz = dict(FUZZ_SMALL, first_seed=rng.randrange(1 << 40), **FUZZ_PLAN)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op["schema"] = schemas[op["kind"]]
    return {"workload": workload, "seed": seed, "ops": ops, "fuzz": fuzz, "pg_schema": schemas["pg"],
            "compiled": {"shacl": schemas["shacl_compiled"], "shex": schemas["shex_compiled"]}}
