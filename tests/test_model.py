import copy
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from triform import shacl as sh
from triform import shex as sx
from triform import examples
from triform.cogsl import cogsl_to_shacl, cogsl_to_shex
from triform.examples import media_graph, media_mutations
from triform.harness import GenParams, gen_graph
from triform.jsonio import parse_graph
from triform.model import (
    FWD,
    INV,
    CommonGraph,
    DuplicateKeyValue,
    EdgeTriple,
    Node,
    PropTriple,
    SignedTriple,
    SortClash,
    TriformError,
    UnknownValueType,
    Val,
    Value,
    ValueTypeRegistry,
    bool_v,
    build_graph,
    content,
    int_v,
    neigh,
    neigh_signed,
    str_v,
    triple_ends,
    value_type_member,
)
from triform.pgschema import (
    ET,
    CAny,
    CBoth,
    CEither,
    CEmpty,
    CField,
    EBoth,
    EEither,
    FKeyIs,
    GraphType,
    PConcat,
    PFilter,
    PgGeq,
    PgLeq,
    PgPath,
    PInv,
    PPred,
    PStar,
    inv_key_path,
    key_path,
    pg_validate,
    pred_path,
    validate_graph_type,
)
from triform.shacl import shacl_validate
from triform.shex import shex_validate

from shex_rows import row_profile, signed_rows


def test_build_graph_media_fragment(g_media_core):
    assert g_media_core.nodes == {"u2", "u3", "a1"}
    assert g_media_core.keys == {"email", "card"}
    assert g_media_core.values == {str_v("d@d.d"), int_v(1234)}


def test_build_graph_empty():
    g = build_graph([], [])
    assert g.nodes == frozenset()
    assert g.keys == frozenset()
    assert g.values == frozenset()


def test_build_graph_duplicate_key_value():
    with pytest.raises(DuplicateKeyValue):
        build_graph([], [PropTriple("u", "email", str_v("a")), PropTriple("u", "email", str_v("b"))])


def test_build_graph_duplicate_same_value_ok():
    g = build_graph([], [PropTriple("u", "email", str_v("a")), PropTriple("u", "email", str_v("a"))])
    assert g.prop("u", "email") == str_v("a")


def test_build_graph_sort_clash():
    with pytest.raises(SortClash):
        build_graph([EdgeTriple("a", "name", "b")], [PropTriple("c", "name", str_v("x"))])


def test_triple_view_round_trip(g_media):
    edges = [t for t in g_media.triple_view() if isinstance(t, EdgeTriple)]
    props = [t for t in g_media.triple_view() if isinstance(t, PropTriple)]
    assert build_graph(edges, props) == g_media


def test_content(g_media_core):
    assert content(g_media_core, "u2") == {"email": str_v("d@d.d")}
    assert content(g_media_core, "a1") == {"card": int_v(1234)}
    assert content(g_media_core, "fresh_node") == {}


def test_neigh_node(g_media_core):
    triples = neigh(g_media_core, Node("u3"))
    assert EdgeTriple("u3", "invited", "u2") in triples


def test_neigh_value_one_triple_graph():
    g = build_graph([], [PropTriple("u2", "email", str_v("d@d.d"))])
    assert neigh(g, Val(str_v("d@d.d"))) == {PropTriple("u2", "email", str_v("d@d.d"))}


def test_neigh_isolated_node(g_media_core):
    assert neigh(g_media_core, Node("nowhere")) == frozenset()


def test_neigh_value_only_prop_triples(g_media):
    for w in g_media.values:
        assert all(isinstance(t, PropTriple) for t in neigh(g_media, Val(w)))


def test_neigh_signed_loop_counted_twice():
    g = build_graph([EdgeTriple("a", "p", "a")], [])
    signed = neigh_signed(g, Node("a"))
    assert signed == {
        SignedTriple("p", False, "fwd", Node("a")),
        SignedTriple("p", False, "inv", Node("a")),
    }


def test_neigh_signed_cardinality(g_media):
    for u in g_media.nodes:
        outdeg = len(g_media.out_edges(u)) + len(g_media.node_props(u))
        indeg = len(g_media.in_edges(u))
        assert len(neigh_signed(g_media, Node(u))) == outdeg + indeg


def test_neigh_signed_value_inverse_only(g_media):
    for w in g_media.values:
        signed = neigh_signed(g_media, Val(w))
        assert signed
        assert all(t.direction == "inv" and t.is_key for t in signed)


def test_neigh_signed_isolated(g_media):
    assert neigh_signed(g_media, Node("nowhere")) == frozenset()


def test_value_type_builtins():
    assert value_type_member(int_v(1234), "int")
    assert not value_type_member(str_v("d@d.d"), "int")
    assert value_type_member(bool_v(False), "any")


def test_every_value_satisfies_any(g_media):
    for w in g_media.values:
        assert value_type_member(w, "any")


def test_value_type_unknown():
    with pytest.raises(UnknownValueType):
        value_type_member(int_v(1), "date")


def test_value_type_custom_registry():
    reg = ValueTypeRegistry()
    reg.register("even", lambda w: w.tag == "int" and w.payload % 2 == 0)
    assert value_type_member(int_v(4), "even", reg)
    assert not value_type_member(int_v(5), "even", reg)


def test_value_tag_discipline():
    assert int_v(1) != str_v("1")
    assert bool_v(True) != int_v(1)
    with pytest.raises(TriformError):
        bool_v(1)  # type: ignore[arg-type]
    with pytest.raises(TriformError):
        int_v(2**63)


def test_graph_equality_and_hash(g_media):
    twin = build_graph(list(g_media.edges), [PropTriple(n, k, w) for (n, k), w in g_media.props.items()])
    assert twin == g_media
    assert hash(twin) == hash(g_media)
    assert isinstance(repr(g_media), str)


def _shuffled_with_duplicates(g, seed):
    """The triples of ``g`` in a random order, with about a third of the
    edges and props given twice; a repeated prop carries an equal but
    distinct ``Value`` object."""
    rng = random.Random(seed)
    edges = sorted(g.edges)
    props = [PropTriple(n, k, w) for (n, k), w in sorted(g.props.items())]
    edges += rng.sample(edges, len(edges) // 3)
    props += [PropTriple(n, k, Value(w.tag, w.payload)) for n, k, w in rng.sample(props, len(props) // 3)]
    rng.shuffle(edges)
    rng.shuffle(props)
    return edges, props


def _first_occurrences(items):
    return list(dict.fromkeys(items))


@pytest.mark.parametrize("nodes, density", [(8, 0.18), (12, 0.12), (40, 0.06)])
def test_one_pass_build_equals_naive_indexes(nodes, density):
    for seed in range(10):
        p = GenParams(seed=seed, node_count=nodes, edge_density=density, prop_density=0.3)
        edges, props = _shuffled_with_duplicates(gen_graph(p), seed)
        g = build_graph(edges, props)
        prop_map = {(t.n, t.k): t.v for t in props}
        assert g.edges == set(edges)
        assert g.props == prop_map
        assert g.nodes == {e.s for e in edges} | {e.o for e in edges} | {t.n for t in props}
        assert g.keys == {t.k for t in props}
        assert g.values == {t.v for t in props}
        assert g.preds == {e.p for e in edges}
        for u in g.nodes | {"nowhere"}:
            # adjacency in first-occurrence input order, each edge once
            assert g.out_edges(u) == _first_occurrences(e for e in edges if e.s == u)
            assert g.in_edges(u) == _first_occurrences(e for e in edges if e.o == u)
            assert g.node_props(u) == {k: w for (n, k), w in prop_map.items() if n == u}
        for w in g.values:
            assert g.value_owners(w) == _first_occurrences((t.n, t.k) for t in props if t.v == w)
        for q in g.preds | g.keys | {"nowhere"}:
            # the name index: the input triple objects themselves, each once, in input order
            named = _first_occurrences(e for e in edges if e.p == q)
            named += _first_occurrences(t for t in props if t.k == q)
            assert [id(t) for t in g.triples_named(q)] == [id(t) for t in named]
            for d, i in ((FWD, 0), (INV, 2)):
                assert triple_ends(g, q, d) == {t[i] for t in g.triple_view() if t[1] == q}
                # each near end's far ends, in first-occurrence input order
                grouped = {}
                for t in named:
                    grouped.setdefault(t[i], []).append(t[2 - i])
                assert g.ends(q, d) == grouped
        assert all(type(x) is str for q in g.preds | g.keys for x in g.ends(q, FWD))
        assert all(type(w) is Value for k in g.keys for w in g.ends(k, INV))
        for size in range(len(g.keys) + 2):
            assert g.nodes_of_size(size) == {u for u in g.nodes if sum(n == u for n, _ in prop_map) == size}
        assert g == gen_graph(p)


# all a graph holds before its first read; the ends and counts caches start empty
LOADED = {"edges", "props", "_by_name", "_ends", "_counts"}
DERIVED = ("_out_edges", "_in_edges", "_node_props", "_value_owners", "nodes", "values")


def _eager_indexes(g):
    """The adjacency lists, records, value owners, ``nodes``, ``values`` and
    ``keys`` of ``g``, built at once from ``g.edges`` and ``g.props`` in
    their order; a record is a list of its (key, value) pairs, so that its
    order counts."""
    out, into, records, owners = {}, {}, {}, {}
    for e in g.edges:
        out.setdefault(e.s, []).append(e)
        into.setdefault(e.o, []).append(e)
    for (n, k), w in g.props.items():
        records.setdefault(n, []).append((k, w))
        owners.setdefault(w, []).append((n, k))
    return {
        "_out_edges": out,
        "_in_edges": into,
        "_node_props": records,
        "_value_owners": owners,
        "nodes": {e.s for e in g.edges} | {e.o for e in g.edges} | {n for n, _ in g.props},
        "values": set(g.props.values()),
        "keys": {k for _, k in g.props},
    }


def _derivation_cases():
    """Fresh graphs: the media graph, its five mutations, a graph whose
    elements are near and far ends of one name (a loop included), and
    seeded generated graphs given shuffled, with duplicates."""
    yield "media", media_graph(), None
    for name, (g, _) in media_mutations().items():
        yield name, g, None
    # "a" and "e" have two forward and two inverse p rows, met in different orders
    both_ways = [EdgeTriple("a", "p", "a"), EdgeTriple("b", "p", "a"), EdgeTriple("a", "p", "c"), EdgeTriple("c", "q", "b")]
    both_ways += [EdgeTriple("e", "p", "f"), EdgeTriple("e", "p", "g"), EdgeTriple("h", "p", "e"), EdgeTriple("i", "p", "e")]
    yield "both-ways", build_graph(both_ways, [PropTriple("b", "k", int_v(1)), PropTriple("c", "k", int_v(1))]), None
    for nodes, density in [(8, 0.18), (40, 0.06)]:
        for seed in range(5):
            p = GenParams(seed=seed, node_count=nodes, edge_density=density, prop_density=0.3)
            edges, props = _shuffled_with_duplicates(gen_graph(p), seed)
            yield f"gen-{nodes}-{seed}", build_graph(edges, props), (edges, props)


def test_derived_indexes_equal_an_eager_construction():
    for label, g, given in _derivation_cases():
        assert set(vars(g)) == LOADED, label
        if given is not None:  # the loaded edges and records keep the input's first-occurrence order
            edges, props = given
            assert list(g.edges) == _first_occurrences(edges), label
            assert list(g.props) == _first_occurrences((t.n, t.k) for t in props), label
        want = _eager_indexes(g)
        for name in DERIVED:
            got = getattr(g, name)
            if name == "_node_props":
                got = {n: list(r.items()) for n, r in got.items()}
            assert got == want[name], (label, name)
        assert g.keys == want["keys"] and g.preds == {e.p for e in g.edges}, label
        elems = sorted(g.nodes) + sorted(g.values, key=repr) + ["ghost", int_v(-5)]
        names = sorted(g.keys | g.preds) + ["absent"]
        for x in elems:
            fwd, inv = row_profile(g, x)
            for d, pairs in ((FWD, fwd), (INV, inv)):
                assert [(name, g.counts(name, d)[x]) for name in names if x in g.counts(name, d)] == list(pairs), (label, x)
                assert g.degrees(d).get(x, 0) == sum(n for _, n in pairs), (label, x)
            assert sx._size(g, x) == len(signed_rows(g, x)), (label, x)
        for d in (FWD, INV):  # counted once, then kept; an absent element adds no entry
            assert all(g.counts(name, d) is g.counts(name, d) for name in names), label
            assert g.degrees(d) is g.degrees(d) and set(g.degrees(d)) <= set(g.nodes) | set(g.values), label
        assert set(g.degrees(FWD)) | set(g.degrees(INV)) == set(g.nodes) | set(g.values), label


def test_grouping_by_record_size_builds_no_records():
    g = media_graph()
    groups = {n: g.nodes_of_size(n) for n in range(len(g.keys) + 2)}
    assert "_node_props" not in vars(g)  # the sizes are counted from the record map
    for n, nodes in groups.items():
        assert nodes == {u for u in g.nodes if len(g.node_props(u)) == n}, n


def test_graph_pickles_and_copies_as_its_triples():
    g = media_graph()
    g.counts("hasAccess", FWD), g.degrees(INV), g.nodes  # derived indexes are not copied
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert set(vars(twin)) == LOADED and not twin._ends and not twin._counts
        assert list(twin.edges) == list(g.edges) and list(twin.props) == list(g.props)
        assert twin == g and hash(twin) == hash(g)


def test_build_graph_error_messages():
    with pytest.raises(DuplicateKeyValue) as dup:
        build_graph(
            [EdgeTriple("a", "name", "b")],
            [
                PropTriple("u", "email", str_v("a")),
                PropTriple("c", "name", int_v(1)),
                PropTriple("u", "email", str_v("b")),
            ],
        )
    assert str(dup.value) == (
        "node 'u' key 'email' maps to both Value(tag='str', payload='a') and Value(tag='str', payload='b')"
    )
    with pytest.raises(SortClash) as clash:
        build_graph(
            [EdgeTriple("a", "name", "b"), EdgeTriple("a", "age", "b")],
            [PropTriple("c", "name", str_v("x")), PropTriple("c", "age", int_v(3))],
        )
    assert str(clash.value) == "names used both as predicate and key: ['age', 'name']"


def _name_step_rules(p, q, k, c):
    """SHACL, PG and ShEx rules over the predicates ``p`` and ``q``, the
    key ``k`` and its value ``c`` that read the graph through name steps,
    inverse steps, key ranges, key-is filters and tested triple
    constraints only."""
    shacl_rules = [
        (sh.ExistsOut(p), sh.GeqCount(1, sh.Concat(sh.Step(p), sh.Inverse(sh.Step(q))), sh.Top())),
        (sh.ExistsIn(q), sh.LeqCount(2, sh.Inverse(sh.Step(q)), sh.exists(sh.Step(k)))),
        (sh.ExistsIn(k), sh.LeqCount(1, sh.Inverse(sh.Step(k)), sh.Top())),
        (sh.ExistsOut(k), sh.Disj(sh.Star(sh.Step(p)), q)),
        (sh.SelConst(c), sh.exists(sh.Inverse(sh.Step(k)), sh.exists(sh.Step(p)))),
    ]
    pg_rules = [
        (PgGeq(1, pred_path(p)), PgLeq(2, PgPath(None, PConcat(PPred(p), PInv(PPred(q))), None))),
        (PgGeq(1, inv_key_path(k)), PgLeq(1, inv_key_path(k))),
        (PgGeq(1, key_path(k)), PgGeq(1, PgPath(None, PConcat(PPred(p), PFilter(FKeyIs(k, c))), k))),
        (PgGeq(1, PgPath(k, PStar(PPred(q)), None)), PgLeq(3, PgPath(k, PInv(PPred(p)), k))),
    ]
    keyed = sx.open_closure(sx.TC(k, FWD, sx.STestConst(c)))
    shex_rules = [
        (sx.SelOut(p), sx.open_closure(sx.StarE(sx.TC(q, INV, keyed)))),
        (sx.SelOutConst(k, c), sx.open_closure(sx.StarE(sx.TC(p, FWD, sx.SNot(keyed))))),
        (sx.SelIn(k), sx.open_closure(sx.TC(k, INV, sx.open_closure(sx.StarE(sx.TC(q, INV, keyed)))))),
    ]
    return shacl_rules, pg_rules, shex_rules


def test_name_steps_read_only_the_name_index(monkeypatch):
    """Name steps, key ranges, key-is filters and tested triple
    constraints read a name's rows through ``CommonGraph.ends`` alone:
    with the adjacency readers made to raise, every report is the one
    they give unpatched."""
    cases = [(media_graph(), _name_step_rules("hasAccess", "invited", "email", str_v("d@d.d")))]
    for seed in range(3):
        g = gen_graph(GenParams(seed=seed, node_count=40, edge_density=0.06, prop_density=0.3))
        cases.append((g, _name_step_rules("p", "q", "k1", sorted(g.values, key=repr)[0])))

    def reports():
        return [
            (
                shacl_validate(g, shacl_rules),
                pg_validate(g, pg_rules),
                shex_validate(g, shex_rules, cap=64),
            )
            for g, (shacl_rules, pg_rules, shex_rules) in cases
        ]

    expected = reports()
    assert any(not r.valid for rs in expected for r in rs)

    def no_read(*args):
        raise AssertionError("an adjacency list was read")

    for name in ("out_edges", "in_edges", "value_owners"):
        monkeypatch.setattr(CommonGraph, name, no_read)
    assert reports() == expected


def test_shacl_and_shex_validation_derive_no_adjacency():
    """SHACL and ShEx validation read a freshly parsed graph through its
    name index and its row counts alone: the adjacency lists, records,
    value owners, ``nodes`` and ``values`` stay underived."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    docs = {name: json.loads((fixtures / f"{name}.json").read_text()) for name in ("media_graph", "media_graph_six_access")}
    schemas = [
        (shacl_validate, examples.media_shacl_rules()),
        (shacl_validate, cogsl_to_shacl(examples.media_pg_rules())),
        (shex_validate, examples.media_shex_rules()),
        (shex_validate, cogsl_to_shex(examples.media_pg_rules())),
    ]
    for name, doc in docs.items():
        for validate, rules in schemas:
            g = parse_graph(doc)
            assert set(vars(g)) == LOADED
            report = validate(g, rules)
            assert report.valid == (name == "media_graph")
            assert not set(DERIVED) & set(vars(g)), (name, validate.__name__)


_ORDER_SCRIPT = """
import json
from triform.harness import GenParams, gen_graph
from triform.model import FWD, INV
g = gen_graph(GenParams(seed=3, node_count=40, edge_density=0.06, prop_density=0.3))
counts = lambda d: [[n, list(g.counts(n, d).items())] for n in sorted(g.keys | g.preds)] + [["*", list(g.degrees(d).items())]]
print(json.dumps([[u, g.out_edges(u), g.in_edges(u)] for u in sorted(g.nodes)]
                 + [[w, g.value_owners(w)] for w in sorted(g.values, key=repr)] + [counts(FWD), counts(INV)]))
"""


def test_adjacency_order_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    *lists, fwd, inv = runs[0]
    assert sum(len(row[1]) > 1 for row in lists) > 5  # some lists have an order to keep
    assert sum(len(row[1]) > 1 for row in fwd + inv) > 5  # and so do the row counts


def test_value_equality_is_tag_and_payload_equality():
    one = [Value("int", 1), Value("bool", True), Value("str", "1")]
    assert one[0] != one[1] != one[2] != one[0]
    assert len(set(one)) == 3
    assert Value("int", 1) == int_v(1) and hash(Value("int", 1)) == hash(int_v(1))
    assert {Value("int", 1)} & {Value("bool", True), Value("str", "1")} == set()


def test_values_and_triples_are_immutable():
    w = int_v(1)
    e, t = EdgeTriple("a", "p", "b"), PropTriple("a", "k", w)
    for obj, attr in [(w, "payload"), (w, "tag"), (e, "o"), (t, "v")]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, "x")
    with pytest.raises(AttributeError):
        w.extra = 1


VALUE_ERRORS = [
    ("bool", 1, "bool value with non-bool payload 1"),
    ("int", True, "int value with non-int payload True"),
    ("int", "1", "int value with non-int payload '1'"),
    ("int", 2**63, "integer 9223372036854775808 outside the 64-bit signed range"),
    ("str", 1, "str value with non-str payload 1"),
    ("float", 1.0, "unknown value tag 'float'"),
]


@pytest.mark.parametrize("tag, payload, message", VALUE_ERRORS)
def test_value_construction_errors(tag, payload, message):
    with pytest.raises(TriformError) as err:
        Value(tag, payload)
    assert str(err.value) == message


@pytest.mark.parametrize("tag, payload, message", VALUE_ERRORS)
def test_value_make_and_replace_check_like_the_constructor(tag, payload, message):
    with pytest.raises(TriformError) as err:
        Value._make((tag, payload))
    assert str(err.value) == message
    with pytest.raises(TriformError) as err:
        str_v("a")._replace(tag=tag, payload=payload)
    assert str(err.value) == message


def test_value_replace_checks_the_field_it_keeps():
    with pytest.raises(TriformError) as err:
        int_v(1)._replace(payload="x")
    assert str(err.value) == "int value with non-int payload 'x'"
    with pytest.raises(TriformError) as err:
        int_v(1)._replace(tag="bool")
    assert str(err.value) == "bool value with non-bool payload 1"
    assert int_v(1)._replace(payload=2) == int_v(2) and type(Value._make(("str", "a"))) is Value


def test_value_and_triple_repr():
    assert repr(int_v(1)) == "Value(tag='int', payload=1)"
    assert repr(str_v("a")) == "Value(tag='str', payload='a')"
    assert repr(EdgeTriple("a", "p", "b")) == "EdgeTriple(s='a', p='p', o='b')"
    want = "PropTriple(n='a', k='k', v=Value(tag='bool', payload=False))"
    assert repr(PropTriple("a", "k", bool_v(False))) == want


def test_parsed_values_are_values():
    vals = {"a": {"t": "int", "val": 1}, "b": {"t": "bool", "val": True}, "c": {"t": "str", "val": "1"}}
    doc = {"edges": [], "props": [{"n": "u", "k": k, "v": v} for k, v in vals.items()]}
    g = parse_graph(doc)
    assert [g.prop("u", k) for k in "abc"] == [Value("int", 1), Value("bool", True), Value("str", "1")]
    assert all(type(w) is Value for w in g.values)
    assert repr(g.prop("u", "a")) == "Value(tag='int', payload=1)"


def _media_graph_type():
    """A graph type over the media records, built anew on each call, so
    no normal form of it is computed yet: content types shared by several
    edge types, and an EBoth of EEither contents."""
    person = CEither(CField("email", "str"), CBoth(CField("email", "str"), CField("privileged", "bool")))
    acct = CEither(CField("privileged", "bool"), CBoth(CField("card", "any"), CField("privileged", "bool")))
    who, where = CEither(person, CEmpty()), CEither(acct, CEmpty())
    spare = CEither(CEmpty(), CField("privileged", "bool"))
    edge_types = (
        EEither(ET(who, frozenset({"invited"}), who), ET(CEmpty(), frozenset({"invited"}), CEmpty())),
        EBoth(ET(who, frozenset({"hasAccess", "ownsAccount"}), where), ET(spare, None, CAny())),
    )
    return GraphType((person, acct, CEmpty()), edge_types, tuple(examples.media_pg_rules()))


_GRAPH_MEMOS = DERIVED + ("preds", "keys", "_by_size", "_hash")


def _memo_reads(g, gt):
    """Every first-use memo of a graph and of a graph type's top-level
    types, as (object, attribute name) pairs."""
    return [(g, name) for name in _GRAPH_MEMOS] + [(t, "dnf") for t in gt.node_types + gt.edge_types]


def test_memo_first_reads_race_to_one_value():
    """More threads than cores make the first reads of a fresh graph's
    indexes and a fresh graph type's normal forms at once, with a short
    switch interval: every thread sees values equal to those of one
    reader, complete, and the very value kept in the instance ``__dict__``."""
    n_threads = 2 * (os.cpu_count() or 1) + 2
    g0, gt0 = media_graph(), _media_graph_type()
    want = [getattr(obj, name) for obj, name in _memo_reads(g0, gt0)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(20):
            g, gt = media_graph(), _media_graph_type()
            reads = _memo_reads(g, gt)
            start = threading.Barrier(n_threads, timeout=30)
            seen = [None] * n_threads

            def reader(i):
                start.wait()
                order = reads[i % len(reads):] + reads[: i % len(reads)]  # the threads start on different memos
                got = {(id(obj), name): getattr(obj, name) for obj, name in order}
                seen[i] = [got[id(obj), name] for obj, name in reads]

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), rnd
            for values in seen:
                assert values == want, rnd
                assert all(v is vars(obj)[name] for v, (obj, name) in zip(values, reads)), rnd
            assert validate_graph_type(g, gt) == validate_graph_type(g0, gt0), rnd
    finally:
        sys.setswitchinterval(interval)
