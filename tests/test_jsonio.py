import random

import pytest

from triform import jsonio
from triform.examples import (
    media_graph,
    media_pg_rules,
    media_shacl_rules,
    media_shex_rules,
)
from triform.harness import GenParams, gen_cogsl_schema, gen_shacl_schema, gen_shex_schema, gen_sshex_shape
from triform.model import FormatError, Node, Val, int_v, str_v
from triform.pgschema import CAny, CEmpty, CField, ET, GraphType
from triform.shex import SelOut
from triform.shacl import shacl_validate
from triform.sshex import normalize_shape_intervals


def test_graph_round_trip(g_media):
    doc = jsonio.graph_to_json(g_media)
    assert jsonio.parse_graph(doc) == g_media


def test_graph_unknown_field_rejected():
    with pytest.raises(FormatError) as err:
        jsonio.parse_graph({"edges": [], "props": [], "labels": []})
    assert "labels" in str(err.value)


def test_graph_field_errors_name_path():
    with pytest.raises(FormatError) as err:
        jsonio.parse_graph({"edges": [], "props": [{"n": "u", "k": "k", "v": {"t": "int", "val": "x"}}]})
    assert "$.props[0].v.val" in str(err.value)


def test_graph_triple_errors_are_exact():
    # the error path is built only once a check fails; each message is
    # the one the field-by-field checks give
    ok_v = {"t": "int", "val": 1}

    def edge(**kw):
        return {"edges": [{"s": "a", "p": "p", "o": "b"}, kw], "props": []}

    def prop(v, **kw):
        return {"edges": [], "props": [{"n": "a", "k": "k", "v": ok_v}, dict({"n": "b", "k": "k", "v": v}, **kw)]}

    cases = [
        ({"edges": [[]], "props": []}, "at $.edges[0]: expected an object, got list"),
        (edge(s="a", p="p"), "at $.edges[1]: missing field 'o'"),
        (edge(s="a", p="p", o="b", x=1), "at $.edges[1].x: unknown field"),
        (edge(s="a", p="", o="b"), "at $.edges[1].p: expected a non-empty string"),
        (edge(s="a", p="p", o=3), "at $.edges[1].o: expected a non-empty string"),
        (edge(s="a", p="p", x="b"), "at $.edges[1].x: unknown field"),
        (prop(ok_v, n=""), "at $.props[1].n: expected a non-empty string"),
        (prop(ok_v, k=5), "at $.props[1].k: expected a non-empty string"),
        ({"edges": [], "props": [{"n": "a", "k": "k"}]}, "at $.props[0]: missing field 'v'"),
        (prop(5), "at $.props[1].v: expected an object, got int"),
        (prop({"t": "int", "val": True}), "at $.props[1].v.val: expected an integer"),
        (prop({"t": "int", "val": 2**63}), "at $.props[1].v.val: integer outside the 64-bit signed range"),
        (prop({"t": "int", "val": -(2**63) - 1}), "at $.props[1].v.val: integer outside the 64-bit signed range"),
        (prop({"t": "str", "val": 1}), "at $.props[1].v.val: expected a string"),
        (prop({"t": "bool", "val": 0}), "at $.props[1].v.val: expected a boolean"),
        (prop({"t": "float", "val": 1.5}), "at $.props[1].v.t: unknown value tag 'float'"),
        (prop({"t": ["int"], "val": 1}), "at $.props[1].v.t: unknown value tag ['int']"),
        (prop({"t": "int"}), "at $.props[1].v: missing field 'val'"),
        (prop({"t": "int", "val": 1, "x": 0}), "at $.props[1].v.x: unknown field"),
        (prop({"t": "int", "value": 1}), "at $.props[1].v.value: unknown field"),
    ]
    for doc, message in cases:
        with pytest.raises(FormatError) as err:
            jsonio.parse_graph(doc)
        assert str(err.value) == message, doc
    g = jsonio.parse_graph(prop({"t": "int", "val": -(2**63)}))
    assert g.prop("b", "k") == int_v(-(2**63))


def test_graph_duplicate_key_value_rejected():
    doc = {
        "edges": [],
        "props": [
            {"n": "u", "k": "k", "v": {"t": "int", "val": 1}},
            {"n": "u", "k": "k", "v": {"t": "int", "val": 2}},
        ],
    }
    with pytest.raises(FormatError):
        jsonio.parse_graph(doc)


def test_value_bounds():
    with pytest.raises(FormatError):
        jsonio.parse_value({"t": "int", "val": 2**63}, "$")
    with pytest.raises(FormatError):
        jsonio.parse_value({"t": "float", "val": 1.5}, "$")
    assert jsonio.parse_value({"t": "bool", "val": True}, "$").payload is True


def test_focus_round_trip():
    for f in (Node("u1"), Val(int_v(3)), Val(str_v("x"))):
        assert jsonio.parse_focus(jsonio.focus_to_json(f), "$") == f


def test_schema_round_trips_all_dialects():
    fixtures = [
        ("shacl", media_shacl_rules()),
        ("shex", media_shex_rules()),
        ("pg", media_pg_rules()),
    ]
    for dialect, rules in fixtures:
        doc = jsonio.schema_to_json(dialect, rules)
        dialect2, rules2 = jsonio.parse_schema(doc)
        assert dialect2 == dialect
        assert rules2 == rules
        # serialization is stable under a second round trip
        assert jsonio.schema_to_json(dialect2, rules2) == doc


def test_generated_schema_round_trips():
    for seed in range(30):
        p = GenParams(seed=seed)
        for dialect, rules in (
            ("shacl", gen_shacl_schema(p)),
            ("shex", gen_shex_schema(p)),
            ("pg", gen_cogsl_schema(p)),
        ):
            doc = jsonio.schema_to_json(dialect, rules)
            assert jsonio.parse_schema(doc) == (dialect, rules)


def test_sshex_schema_round_trip():
    rng = random.Random(3)
    p = GenParams(seed=3)
    rules = [(SelOut("p"), normalize_shape_intervals(gen_sshex_shape(rng, p, 2))) for _ in range(5)]
    doc = jsonio.schema_to_json("sshex", rules)
    assert jsonio.parse_schema(doc) == ("sshex", rules)


def test_unknown_dialect_rejected():
    with pytest.raises(FormatError):
        jsonio.parse_schema({"dialect": "owl", "rules": []})


def test_pg_key_steps_only_at_ends():
    bad = {
        "dialect": "pg",
        "rules": [
            {
                "sel": {"op": "geq", "n": 1, "path": {"op": "key_step", "k": "k"}},
                "shape": {
                    "op": "geq",
                    "n": 1,
                    "path": {
                        "op": "union",
                        "args": [{"op": "key_step", "k": "k"}, {"op": "pred", "p": "p"}],
                    },
                },
            }
        ],
    }
    with pytest.raises(FormatError) as err:
        jsonio.parse_schema(bad)
    assert "key steps" in str(err.value)


def test_pg_selector_must_be_existential():
    bad = {
        "dialect": "pg",
        "rules": [
            {
                "sel": {"op": "leq", "n": 0, "path": {"op": "key_step", "k": "k"}},
                "shape": {"op": "geq", "n": 1, "path": {"op": "key_step", "k": "k"}},
            }
        ],
    }
    with pytest.raises(FormatError):
        jsonio.parse_schema(bad)


def test_graph_type_round_trip():
    gt = GraphType(
        (CEmpty(), CField("k", "int")),
        (ET(CAny(), None, CAny()), ET(CEmpty(), frozenset({"p"}), CAny())),
        tuple(media_pg_rules()),
    )
    doc = {"dialect": "pg", "graph_type": jsonio.graph_type_to_json(gt)}
    dialect, parsed = jsonio.parse_schema(doc)
    assert dialect == "pg"
    assert parsed == gt


def test_report_serialization(g_media, mutations):
    rules = media_shacl_rules()
    broken, idx = mutations["duplicated_email"]
    report = shacl_validate(broken, rules)
    doc = jsonio.report_to_json(report, "shacl", rules)
    assert doc["valid"] is False
    assert doc["violations"][0]["rule_index"] == idx
    assert doc["violations"][0]["selector"] == {"op": "exists_in", "q": "email"}
    assert doc["stats"][idx]["violations"] == 1
    # deterministic output
    assert jsonio.dumps(doc) == jsonio.dumps(jsonio.report_to_json(report, "shacl", rules))


def test_dumps_modes():
    doc = {"b": 1, "a": [1, 2]}
    compact = jsonio.dumps(doc)
    pretty = jsonio.dumps(doc, pretty=True)
    assert compact == '{"a":[1,2],"b":1}\n'
    assert compact != pretty and pretty.startswith("{\n")


def _mutate(doc, rng):
    """One random structural mutation: drop, rename, or retype a field."""
    import copy

    doc = copy.deepcopy(doc)
    nodes = []

    def collect(x):
        if isinstance(x, dict):
            nodes.append(x)
            for v in x.values():
                collect(v)
        elif isinstance(x, list):
            for v in x:
                collect(v)

    collect(doc)
    target = rng.choice(nodes)
    if not target:
        target["junk"] = 1
        return doc
    key = rng.choice(sorted(target))
    roll = rng.randrange(3)
    if roll == 0:
        del target[key]
    elif roll == 1:
        target[key + "_x"] = target.pop(key)
    else:
        target[key] = {"surprise": []}
    return doc


def test_parser_robust_under_mutation():
    """Mutated documents either parse to something or raise FormatError;
    no other exception type escapes."""
    rng = random.Random(987)
    seeds = [
        jsonio.graph_to_json(media_graph()),
        jsonio.schema_to_json("shacl", media_shacl_rules()),
        jsonio.schema_to_json("shex", media_shex_rules()),
        jsonio.schema_to_json("pg", media_pg_rules()),
    ]
    rejected = 0
    for doc in seeds:
        for _ in range(150):
            mutated = _mutate(doc, rng)
            try:
                if "dialect" in mutated:
                    jsonio.parse_schema(mutated)
                else:
                    jsonio.parse_graph(mutated)
            except FormatError:
                rejected += 1
    assert rejected > 300  # most mutations must be caught, and cleanly
