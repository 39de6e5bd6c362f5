import copy
import json
import random
import typing

import pytest

from triform import jsonio
from triform import pgschema as pg
from triform import shacl as sh
from triform import shex as sx
from triform import sshex as ssx
from triform.cli import main
from triform.examples import (
    media_graph,
    media_pg_rules,
    media_shacl_rules,
    media_shex_rules,
)
from triform.harness import GenParams, gen_cogsl_schema, gen_shacl_schema, gen_shex_schema, gen_sshex_shape
from triform.model import FWD, INV, FormatError, Node, TriformError, Val, int_v, str_v
from triform.pgschema import (
    CAny,
    CBoth,
    CEither,
    CEmpty,
    CField,
    EBoth,
    EEither,
    ET,
    FKeyIs,
    FNotKeyIs,
    FNotOfType,
    FOfType,
    GraphType,
    PConcat,
    PFilter,
    PgGeq,
    PgLeq,
    PgPath,
    PPred,
)
from triform.shex import SelOut
from triform.report import make_report
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
    field, other = CField("k", "int"), CField("j", "str")
    filters = PConcat(
        PConcat(PFilter(FKeyIs("k", int_v(1))), PFilter(FNotKeyIs("k", str_v("x")))),
        PConcat(PFilter(FOfType(CBoth(field, CAny()))), PFilter(FNotOfType(CEither(field, other)))),
    )
    gt = GraphType(
        (CEmpty(), field, CBoth(field, other), CEither(CEmpty(), CBoth(field, CAny()))),
        (
            ET(CAny(), None, CAny()),
            ET(CEmpty(), frozenset({"p"}), CAny()),
            EBoth(ET(field, frozenset({"p", "q"}), CAny()), EEither(ET(CAny(), None, other), ET(other, None, field))),
        ),
        tuple(media_pg_rules())
        + ((PgGeq(1, PgPath(None, filters, None)), PgLeq(2, PgPath("k", PConcat(filters, PPred("p")), "j"))),),
    )
    doc = {"dialect": "pg", "graph_type": jsonio.graph_type_to_json(gt)}
    dialect, parsed = jsonio.parse_schema(doc)
    assert dialect == "pg"
    assert parsed == gt


# One document per grammar, each with a field that only a sibling
# operator of the same family has (accepted, and ignored, before the
# grammars were tables): the first is the typo "arg" for "shape".
_STEP = {"op": "step", "q": "p"}
_PRED = {"op": "pred", "p": "p"}
_TOP = {"op": "top"}
_INT = {"t": "int", "val": 1}


def _rule(dialect, sel, shape):
    return {"dialect": dialect, "rules": [{"sel": sel, "shape": shape}]}


def _pg(shape_path):
    return _rule("pg", {"op": "geq", "n": 1, "path": _PRED}, {"op": "geq", "n": 1, "path": shape_path})


def _shex(shape):
    return _rule("shex", {"op": "out", "q": "p"}, shape)


def _neigh(expr):
    return {"op": "neigh", "expr": expr, "half_open": {"r": []}}


def _graph_type(node_types=(), edge_types=()):
    return {"dialect": "pg", "graph_type": {"node_types": list(node_types), "edge_types": list(edge_types), "constraints": []}}


_ET = {"op": "et", "src": {"op": "any"}, "labels": "*", "dst": {"op": "any"}}

SIBLING_FIELDS = {
    "shacl-shape": (
        _rule("shacl", {"op": "exists_out", "q": "p"}, {"op": "exists", "path": _STEP, "arg": _TOP}),
        "at $.rules[0].shape.arg: unknown field",
    ),
    "shacl-path": (
        _rule("shacl", {"op": "exists_out", "q": "p"}, {"op": "geq", "n": 1, "path": dict(_STEP, arg=_STEP)}),
        "at $.rules[0].shape.path.arg: unknown field",
    ),
    "shacl-selector": (
        _rule("shacl", {"op": "exists_out", "q": "p", "value": _INT}, _TOP),
        "at $.rules[0].sel.value: unknown field",
    ),
    "shex-expr": (
        _shex(_neigh({"op": "eps", "q": "p"})),
        "at $.rules[0].shape.expr.q: unknown field",
    ),
    "shex-shape": (
        _shex({"op": "test_type", "vt": "int", "expr": {"op": "eps"}}),
        "at $.rules[0].shape.expr: unknown field",
    ),
    "shex-selector": (
        _rule("shex", {"op": "out", "q": "p", "value": _INT}, _neigh({"op": "eps"})),
        "at $.rules[0].sel.value: unknown field",
    ),
    "sshex-expr": (
        _rule(
            "sshex",
            {"op": "out", "q": "p"},
            {"op": "shape", "expr": {"op": "tc", "q": "p", "dir": "fwd", "shape": None, "interval": [0, 1]}},
        ),
        "at $.rules[0].shape.expr.interval: unknown field",
    ),
    "sshex-shape": (
        _rule("sshex", {"op": "out", "q": "p"}, {"op": "test_type", "vt": "int", "closed": True}),
        "at $.rules[0].shape.closed: unknown field",
    ),
    "content": (
        _graph_type(node_types=[{"op": "any", "k": "k"}]),
        "at $.graph_type.node_types[0].k: unknown field",
    ),
    "filter": (
        _pg({"op": "filter", "kind": {"op": "of_type", "type": {"op": "any"}, "k": "k"}}),
        "at $.rules[0].shape.path.kind.k: unknown field",
    ),
    "pg-body": (
        _pg(dict(_PRED, preds=["q"])),
        "at $.rules[0].shape.path.preds: unknown field",
    ),
    "pg-path-concat": (
        _pg({"op": "concat", "args": [_PRED, _PRED], "p": "p"}),
        "at $.rules[0].shape.path.p: unknown field",
    ),
    "pg-shape": (
        _rule("pg", {"op": "geq", "n": 1, "path": _PRED}, {"op": "and", "args": [{"op": "geq", "n": 1, "path": _PRED}] * 2, "n": 1}),
        "at $.rules[0].shape.n: unknown field",
    ),
    "edge-type": (
        _graph_type(edge_types=[{"op": "both", "args": [_ET, _ET], "labels": "*"}]),
        "at $.graph_type.edge_types[0].labels: unknown field",
    ),
}


@pytest.mark.parametrize("case", sorted(SIBLING_FIELDS))
def test_sibling_operator_field_rejected(case):
    doc, message = SIBLING_FIELDS[case]
    with pytest.raises(FormatError) as err:
        jsonio.parse_schema(doc)
    assert str(err.value) == message
    # without the stray field the document parses
    doc = copy.deepcopy(doc)
    *steps, stray = message[len("at $.") : -len(": unknown field")].split(".")
    holder = doc
    for step in steps:
        name, _, index = step.partition("[")
        holder = holder[name][int(index[:-1])] if index else holder[name]
    del holder[stray]
    jsonio.parse_schema(doc)


# Each value-type field, naming a type that is not registered
UNKNOWN_TYPES = {
    "shacl": (_rule("shacl", {"op": "exists_out", "q": "p"}, {"op": "test_type", "vt": "bogus"}), "shape.vt"),
    "shex": (_shex({"op": "test_type", "vt": "bogus"}), "shape.vt"),
    "sshex": (_rule("sshex", {"op": "out", "q": "p"}, {"op": "test_type", "vt": "bogus"}), "shape.vt"),
    "pg": (
        _graph_type(node_types=[{"op": "either", "args": [{"op": "field", "k": "k", "type": "str"}, {"op": "field", "k": "k", "type": "bogus"}]}]),
        "node_types[0].args[1].type",
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_TYPES))
def test_unregistered_value_type_rejected(case):
    doc, field = UNKNOWN_TYPES[case]
    with pytest.raises(FormatError) as err:
        jsonio.parse_schema(doc)
    where = "$.graph_type." if case == "pg" else "$.rules[0]."
    assert str(err.value) == f"at {where}{field}: unknown value type 'bogus'"
    # a registered type in its place parses
    jsonio.parse_schema(json.loads(json.dumps(doc).replace('"bogus"', '"any"')))


def test_focus_sibling_field_rejected():
    for doc, field in (
        ({"kind": "node", "id": "a", "value": _INT}, "value"),
        ({"kind": "value", "value": _INT, "id": "a"}, "id"),
    ):
        with pytest.raises(FormatError) as err:
            jsonio.parse_focus(doc, "$")
        assert str(err.value) == f"at $.{field}: unknown field"


def test_cli_rejects_sibling_operator_field(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(media_graph())))
    schema = tmp_path / "typo.json"
    # PG's predicate step is no SHACL path operator, though both build NodePaths
    shacl_count = lambda path: _rule("shacl", {"op": "exists_out", "q": "p"}, {"op": "geq", "n": 1, "path": path})
    for doc, error in (
        (SIBLING_FIELDS["shacl-shape"][0], "at $.rules[0].shape.arg: unknown field"),
        (shacl_count(_PRED), "at $.rules[0].shape.path.p: unknown field"),
        (shacl_count({"op": "pred", "q": "p"}), "at $.rules[0].shape.path.op: unknown path operator 'pred'"),
    ):
        schema.write_text(json.dumps(doc))
        assert main(["validate", str(graph), str(schema)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


# Every class of each AST union has exactly one grammar row and
# round-trips through it, but the internal-only classes, which have no
# wire form: a new class without a row fails here.  The SHACL and PG
# path grammars are two readings of the one NodePath union, each with
# its own samples and internal classes.
_V = int_v(1)
_TC = sx.TC("p", FWD, sx.STestType("int"))
_XTC = ssx.XTC("p", INV, None)
_SNEIGH = sx.SNeigh(_TC, sx.HalfOpen(frozenset({"p"})))
_XSHAPE = ssx.XShape(True, frozenset({("q", FWD)}), ssx.XTC("p", FWD, ssx.XTestType("int")))
_BODY = pg.PPred("p")
_PGGEQ = pg.PgGeq(1, pg.PgPath("k", _BODY, "j"))
_SHACL_PATHS = [
    sh.Id(), sh.Step("p"), sh.Inverse(sh.Step("p")), sh.Star(sh.Step("p")),
    sh.Concat(sh.Id(), sh.Step("p")), sh.PathUnion(sh.Step("p"), sh.Id()),
]
_PG_BODIES = [
    pg.PFilter(pg.FKeyIs("k", _V)), _BODY, pg.PNotPreds(frozenset({"p"})), pg.PInv(_BODY),
    pg.PConcat(_BODY, _BODY), pg.PUnion(_BODY, pg.PInv(_BODY)), pg.PStar(_BODY),
]
_AST_SAMPLES = [
    sh.Top(), sh.TestConst(_V), sh.TestType("int"), sh.Closed(frozenset({"p", "q"})),
    sh.Eq(sh.Step("p"), "q"), sh.Disj(sh.Step("p"), "q"), sh.Not(sh.Top()), sh.And(sh.Top(), sh.TestType("int")),
    sh.Or(sh.Top(), sh.Top()), sh.GeqCount(2, sh.Step("p"), sh.Top()), sh.LeqCount(0, sh.Id(), sh.Not(sh.Top())),
    sh.ExistsOut("p"), sh.ExistsIn("p"), sh.SelConst(_V),
    sx.Eps(), _TC, sx.Seq(_TC, sx.Eps()), sx.Alt(sx.Eps(), _TC), sx.StarE(_TC),
    sx.STestConst(_V), sx.STestType("int"), _SNEIGH, sx.SNeigh(sx.Eps(), sx.Open(frozenset({"p"}), frozenset({"q"}))),
    sx.SAnd(_SNEIGH, _SNEIGH), sx.SOr(_SNEIGH, sx.STestConst(_V)), sx.SNot(_SNEIGH),
    sx.SelTestConst(_V), sx.SelOutConst("p", _V), sx.SelOut("p"), sx.SelIn("p"),
    _XTC, ssx.XSeq(_XTC, _XTC), ssx.XAlt(_XTC, _XTC), ssx.XRepeat(_XTC, 0, None), ssx.XRepeat(_XTC, 1, 3),
    ssx.XTestConst(_V), ssx.XTestType("int"), _XSHAPE, ssx.XShape(False, frozenset(), None),
    ssx.XAnd(_XSHAPE, _XSHAPE), ssx.XOr(_XSHAPE, ssx.XTestType("str")), ssx.XNot(_XSHAPE),
    pg.CAny(), pg.CEmpty(), pg.CField("k", "int"), pg.CBoth(pg.CField("k", "int"), pg.CAny()),
    pg.CEither(pg.CEmpty(), pg.CField("k", "int")),
    pg.FKeyIs("k", _V), pg.FNotKeyIs("k", _V), pg.FOfType(pg.CAny()), pg.FNotOfType(pg.CEmpty()),
    _PGGEQ, pg.PgLeq(0, pg.PgPath(None, None, "k")), pg.PgAnd(_PGGEQ, pg.PgGeq(1, pg.PgPath("k", None, None))),
    pg.ET(pg.CAny(), None, pg.CEmpty()), pg.ET(pg.CEmpty(), frozenset({"p"}), pg.CAny()),
    pg.EBoth(pg.ET(pg.CAny(), None, pg.CAny()), pg.ET(pg.CAny(), None, pg.CAny())),
    pg.EEither(pg.ET(pg.CAny(), None, pg.CAny()), pg.ET(pg.CEmpty(), None, pg.CAny())),
]
_AST_GRAMMARS = [
    pytest.param(sh.PathExpr, jsonio._SHACL_PATH, id="sh.PathExpr"),
    pytest.param(sh.ShaclShape, jsonio._SHACL_SHAPE, id="sh.ShaclShape"),
    pytest.param(sh.ShaclSelector, jsonio._SHACL_SELECTOR, id="sh.ShaclSelector"),
    pytest.param(sx.TripleExpr, jsonio._SHEX_EXPR, id="sx.TripleExpr"),
    pytest.param(sx.ShexShape, jsonio._SHEX_SHAPE, id="sx.ShexShape"),
    pytest.param(sx.ShexSelector, jsonio._SHEX_SELECTOR, id="sx.ShexSelector"),
    pytest.param(ssx.STripleExpr, jsonio._SSHEX_EXPR, id="ssx.STripleExpr"),
    pytest.param(ssx.SShapeExpr, jsonio._SSHEX_SHAPE, id="ssx.SShapeExpr"),
    pytest.param(pg.ContentType, jsonio._CONTENT, id="pg.ContentType"),
    pytest.param(pg.FilterKind, jsonio._FILTER, id="pg.FilterKind"),
    pytest.param(pg.NodePath, jsonio._PG_BODY, id="pg.NodePath"),
    pytest.param(pg.PgShape, jsonio._PG_SHAPE, id="pg.PgShape"),
    pytest.param(pg.EdgeType, jsonio._EDGE_TYPE, id="pg.EdgeType"),
]
_PATH_SAMPLES = {jsonio._SHACL_PATH: _SHACL_PATHS, jsonio._PG_BODY: _PG_BODIES}
# Per grammar, a sample of each class of its union without a row there
_INTERNAL = {
    jsonio._SHEX_EXPR: [sx.WildOut(frozenset()), sx.WildIn(frozenset({"p"}))],
    jsonio._SHACL_PATH: [pg.PFilter(pg.FKeyIs("k", _V)), _BODY, pg.PNotPreds(frozenset({"p"}))],
    jsonio._PG_BODY: [sh.Step("p"), sh.Id()],
}


@pytest.mark.parametrize("union,grammar", _AST_GRAMMARS)
def test_every_ast_class_has_a_wire_row(union, grammar):
    classes = set(typing.get_args(union))
    internal = _INTERNAL.get(grammar, [])
    wire = classes - {type(x) for x in internal}
    assert set(grammar.classes) == wire
    samples = _PATH_SAMPLES.get(grammar) or [x for x in _AST_SAMPLES if type(x) in classes]
    assert {type(x) for x in samples} == wire
    for x in samples:
        doc = json.loads(jsonio.dumps(grammar.dump(x)))
        assert grammar.parse(doc, "$") == x, doc
    for x in internal:
        with pytest.raises(TriformError, match="has no wire form"):
            grammar.dump(x)
    if grammar is jsonio._SHACL_PATH:
        # a PG-only atom that Python put inside a SHACL shape never reaches SHACL JSON
        for x in internal:
            rule = (sh.ExistsOut("p"), sh.exists(sh.Concat(sh.Step("p"), sh.Star(x))))
            with pytest.raises(TriformError, match="has no wire form"):
                jsonio.schema_to_json("shacl", [rule])


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


def test_report_dumps_each_violated_rule_once(monkeypatch):
    rules = media_shex_rules()
    failing = [Node(f"n{i}") for i in range(300)]
    report = make_report([([], []), (failing, failing), (failing[:2], failing[:1])])
    # the serialization of one rule per violation, as a reference
    per_violation = jsonio._rules_to_json("shex", [rules[v.rule_index] for v in report.violations])
    want = [
        {"rule_index": v.rule_index, "focus": jsonio.focus_to_json(v.focus), "selector": r["sel"], "shape": r["shape"]}
        for v, r in zip(report.violations, per_violation)
    ]
    dumped = []
    rules_to_json = jsonio._rules_to_json

    def counting(dialect, some):
        dumped.extend(some)
        return rules_to_json(dialect, some)

    monkeypatch.setattr(jsonio, "_rules_to_json", counting)
    doc = jsonio.report_to_json(report, "shex", rules)
    assert dumped == [rules[1], rules[2]]
    assert jsonio.dumps(doc["violations"]) == jsonio.dumps(want)


def test_dumps_modes():
    doc = {"b": 1, "a": [1, 2]}
    compact = jsonio.dumps(doc)
    pretty = jsonio.dumps(doc, pretty=True)
    assert compact == '{"a":[1,2],"b":1}\n'
    assert compact != pretty and pretty.startswith("{\n")


def _mutate(doc, rng):
    """One random structural mutation: drop, rename, or retype a field."""
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
