import random

import pytest

from triform.harness import (
    GenParams,
    brute_match_oracle,
    gen_graph,
    gen_openness,
    gen_triple_expr,
)
from triform.model import (
    FWD,
    INV,
    EdgeTriple,
    InstanceTooLarge,
    NeighborhoodTooLarge,
    Node,
    PropTriple,
    Val,
    build_graph,
    int_v,
    str_v,
)
from triform.shex import (
    NO_NAMES,
    Alt,
    Eps,
    HalfOpen,
    Open,
    SAnd,
    Seq,
    SNeigh,
    SNot,
    SOr,
    STestType,
    SelIn,
    SelOut,
    SelOutConst,
    SelTestConst,
    StarE,
    TC,
    TriformError,
    WildIn,
    desugar_repetition,
    match_triple_expr,
    match_witness,
    open_closure,
    preds_triple_expr,
    selector_shape,
    shex_satisfies,
    shex_select,
    shex_validate,
    top_shape,
)

TOP = top_shape()


def test_match_single_email_property():
    g = build_graph([], [PropTriple("v", "email", str_v("a@b"))])
    assert match_triple_expr(g, Node("v"), TC("email", FWD, STestType("str")), HalfOpen(NO_NAMES))


def test_match_eps_empty_neighborhood():
    g = build_graph([], [])
    assert match_triple_expr(g, Node("v"), Eps(), HalfOpen(NO_NAMES))


def test_match_two_successors_example():
    expr = Seq(TC("p", FWD, TOP), TC("p", FWD, TOP))
    one = build_graph([EdgeTriple("v", "p", "a")], [])
    two = build_graph([EdgeTriple("v", "p", "a"), EdgeTriple("v", "p", "b")], [])
    assert not match_triple_expr(one, Node("v"), expr, Open(NO_NAMES, NO_NAMES))
    assert match_triple_expr(two, Node("v"), expr, Open(NO_NAMES, NO_NAMES))


def test_match_closed_properties_example():
    # email plus optional card, arbitrary incoming, nothing else outgoing
    expr = Seq(TC("email", FWD, STestType("str")), Alt(TC("card", FWD, STestType("int")), Eps()))
    ok = build_graph([], [PropTriple("v", "email", str_v("x"))])
    extra = build_graph(
        [], [PropTriple("v", "email", str_v("x")), PropTriple("v", "phone", str_v("y"))]
    )
    assert shex_satisfies(ok, Node("v"), SNeigh(expr, HalfOpen(NO_NAMES)))
    assert not shex_satisfies(extra, Node("v"), SNeigh(expr, HalfOpen(NO_NAMES)))


def test_top_shape_everywhere(g_media):
    for u in sorted(g_media.nodes):
        assert shex_satisfies(g_media, Node(u), TOP)
    for w in g_media.values:
        assert shex_satisfies(g_media, Val(w), TOP)


def test_test_type_value(g_media):
    assert shex_satisfies(g_media, Val(int_v(1234)), STestType("int"))
    assert not shex_satisfies(g_media, Node("u1"), STestType("any"))


def test_neighborhood_cap():
    g = build_graph([EdgeTriple("v", "p", f"t{i}") for i in range(6)], [])
    with pytest.raises(NeighborhoodTooLarge):
        shex_satisfies(g, Node("v"), SNeigh(Eps(), HalfOpen(NO_NAMES)), cap=5)
    # cap is about the focus under evaluation only
    assert shex_satisfies(g, Node("t0"), SNeigh(TC("p", INV, TOP), HalfOpen(NO_NAMES)), cap=5)


def test_wildcards_rejected_in_user_shapes():
    with pytest.raises(TriformError):
        SNeigh(StarE(WildIn(NO_NAMES)), HalfOpen(NO_NAMES))


def test_desugar_exactly():
    e = TC("p", FWD, TOP)
    assert desugar_repetition(e, "exactly", 2) == Seq(e, e)
    assert desugar_repetition(e, "exactly", 0) == Eps()


def test_desugar_at_most_zero():
    assert desugar_repetition(TC("p", FWD, TOP), "at-most", 0) == Eps()


def test_desugar_at_least_one_matches_oracle():
    e = TC("p", FWD, TOP)
    sugar = desugar_repetition(e, "at-least", 1)
    assert sugar == Seq(e, StarE(e))
    for n_edges in range(4):
        g = build_graph([EdgeTriple("v", "p", f"t{i}") for i in range(n_edges)], [])
        got = match_triple_expr(g, Node("v"), sugar, HalfOpen(NO_NAMES))
        want = brute_match_oracle(g, Node("v"), sugar, HalfOpen(NO_NAMES))
        assert got == want == (n_edges >= 1)


def test_open_closure_nested_example():
    inner = open_closure(Seq(TC("q", FWD, TOP), TC("p", INV, TOP)))
    e = TC("p", FWD, inner)
    shape = open_closure(e)
    assert shape.openness == Open(frozenset(), frozenset({"p"}))


def test_open_closure_eps():
    assert open_closure(Eps()) == TOP


def test_open_closure_mixed_directions():
    e = Seq(TC("a", FWD, TOP), TC("b", INV, TOP))
    shape = open_closure(e)
    assert shape.openness == Open(frozenset({"b"}), frozenset({"a"}))


def test_preds():
    assert preds_triple_expr(TC("p", FWD, TOP)) == {("p", FWD)}
    assert preds_triple_expr(Eps()) == set()
    nested = Seq(TC("p", FWD, TOP), Alt(TC("q", INV, TOP), TC("p", FWD, TOP)))
    assert preds_triple_expr(nested) == {("p", FWD), ("q", INV)}
    # names inside nested shapes do not count
    buried = TC("p", FWD, SNeigh(TC("hidden", FWD, TOP), Open(NO_NAMES, NO_NAMES)))
    assert preds_triple_expr(buried) == {("p", FWD)}


def test_counting_by_triples():
    g = build_graph([EdgeTriple("v", "p", "a"), EdgeTriple("v", "q", "b")], [])
    two = desugar_repetition(Alt(TC("p", FWD, TOP), TC("q", FWD, TOP)), "exactly", 2)
    assert shex_satisfies(g, Node("v"), SNeigh(two, HalfOpen(NO_NAMES)))


def test_seq_disjointness_witness(g_media):
    from triform.model import neigh_signed

    rng = random.Random(31)
    p = GenParams(seed=31)
    found = 0
    for _ in range(200):
        expr = gen_triple_expr(rng, p, 2)
        openness = gen_openness(rng, p)
        for u in sorted(g_media.nodes):
            witness = match_witness(g_media, Node(u), expr, openness)
            if witness is None:
                continue
            found += 1
            seen = set()
            for _, consumed in witness:
                for t in consumed:
                    assert t not in seen  # no triple is consumed twice
                    seen.add(t)
            assert seen == set(neigh_signed(g_media, Node(u)))
    assert found > 50


def test_select_in_card(g_media_core):
    assert shex_select(g_media_core, SelIn("card")) == [Val(int_v(1234))]


def test_select_out_const(g_media):
    assert shex_select(g_media, SelOutConst("email", str_v("d@d.d"))) == [Node("u2")]
    assert shex_select(g_media, SelOutConst("invited", str_v("u2"))) == []


def test_select_const_without_occurrence(g_media):
    assert shex_select(g_media, SelTestConst(int_v(777))) == [Val(int_v(777))]


def test_select_agrees_with_selector_shape(g_media):
    selectors = [
        SelOut("email"),
        SelOut("hasAccess"),
        SelIn("card"),
        SelIn("invited"),
        SelOutConst("card", int_v(1234)),
        SelTestConst(str_v("d@d.d")),
    ]
    universe = [Node(u) for u in sorted(g_media.nodes)] + [Val(w) for w in g_media.values]
    for sel in selectors:
        shape = selector_shape(sel)
        direct = set(shex_select(g_media, sel))
        slow = {v for v in universe if shex_satisfies(g_media, v, shape)}
        if isinstance(sel, SelTestConst):
            slow.add(Val(sel.c))  # the constant itself, wherever it lives
        assert direct == slow


def test_validate_media(g_media, shex_c1_c5):
    assert shex_validate(g_media, shex_c1_c5).valid


def test_validate_empty_schema(g_media):
    assert shex_validate(g_media, []).valid


@pytest.mark.parametrize("rng_seed, edge_density", [(37, 0.25), (103, 0.3)])
def test_matcher_equals_oracle_random(rng_seed, edge_density):
    rng = random.Random(rng_seed)
    checked = 0
    for seed in range(60):
        p = GenParams(seed=seed, node_count=4, edge_density=edge_density, prop_density=0.4)
        g = gen_graph(p)
        expr = gen_triple_expr(rng, p, 2)
        openness = gen_openness(rng, p)
        for u in sorted(g.nodes):
            try:
                want = brute_match_oracle(g, Node(u), expr, openness)
            except InstanceTooLarge:
                continue
            assert match_triple_expr(g, Node(u), expr, openness) == want
            checked += 1
    assert checked > 100


def test_boolean_shapes(g_media):
    a = SNeigh(TC("email", FWD, TOP), Open(NO_NAMES, NO_NAMES))
    b = SNeigh(TC("card", FWD, TOP), Open(NO_NAMES, NO_NAMES))
    assert shex_satisfies(g_media, Node("u1"), SAnd(a, SNot(b)))
    assert shex_satisfies(g_media, Node("a1"), SOr(a, b))
    assert not shex_satisfies(g_media, Node("a2"), SOr(a, b))


def test_template_masks_rebuilt_per_focus():
    # one SNeigh, compiled once in one context, evaluated at foci whose
    # neighborhoods differ: each focus must get its own leaf masks
    from triform.shex import EvalContext, _compile, _satisfies

    g = build_graph(
        [
            EdgeTriple("a", "p", "x"),
            EdgeTriple("a", "q", "y"),
            EdgeTriple("b", "p", "x"),
            EdgeTriple("c", "p", "y"),
            EdgeTriple("c", "q", "x"),
            EdgeTriple("c", "q", "z"),
            EdgeTriple("d", "p", "x"),
            EdgeTriple("d", "r", "y"),
        ],
        [],
    )
    shape = SNeigh(Seq(TC("p", FWD, TOP), TC("q", FWD, TOP)), HalfOpen(frozenset({"p", "q"})))
    ctx = EvalContext(cap=24)
    compiled = _compile(ctx, shape)
    got = {u: _satisfies(ctx, g, Node(u), compiled) for u in ("a", "b", "c", "d", "a")}
    assert got == {"a": True, "b": False, "c": False, "d": False}
    assert _compile(ctx, shape) is compiled
    for u in "abcd":
        assert got[u] == brute_match_oracle(g, Node(u), shape.expr, shape.openness)
    report = shex_validate(g, [(SelOut("p"), shape)])
    assert [viol.focus for viol in report.violations] == [Node("b"), Node("c"), Node("d")]
