import random
from collections import Counter

import pytest

from triform import shex
from triform.harness import (
    GenParams,
    brute_match_oracle,
    brute_shex_satisfies,
    gen_graph,
    gen_openness,
    gen_shex_schema,
    gen_shex_shape,
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
    ValueTypeRegistry,
    build_graph,
    elems_to_foci,
    focus_elem,
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
    STestConst,
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
    open_closure,
    preds_triple_expr,
    selector_shape,
    shex_satisfies,
    shex_select,
    shex_validate,
    top_shape,
)

from helpers import sorted_foci
from shex_rows import match_witness

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


def test_deep_star_peel_is_a_capability_error():
    # the kernel recurses once per peeled star part: 512 rows make 256
    # parts, deeper than the interpreter allows, so matching them is
    # refused with the capability error naming the focus, not a crash
    def star_of_pairs(n):
        g = build_graph([EdgeTriple("a", p, f"{p}{i}") for p in "pq" for i in range(n)], [])
        return g, StarE(Seq(TC("p", FWD, TOP), TC("q", FWD, TOP)))

    g, star = star_of_pairs(256)
    with pytest.raises(NeighborhoodTooLarge, match=r"of Node\(id='a'\) has 512 triples"):
        match_triple_expr(g, Node("a"), star, HalfOpen(NO_NAMES), cap=1000)
    g, star = star_of_pairs(64)
    assert match_triple_expr(g, Node("a"), star, HalfOpen(NO_NAMES), cap=1000)


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
    checked, matched = Counter(), Counter()
    for seed in range(60):
        p = GenParams(seed=seed, node_count=4, edge_density=edge_density, prop_density=0.4)
        g = gen_graph(p)
        expr = gen_triple_expr(rng, p, 2)
        openness = gen_openness(rng, p)
        # value foci have only inverse key triples, one per owner
        for v in [Node(u) for u in sorted(g.nodes)] + sorted_foci(Val(w) for w in g.values):
            try:
                want = brute_match_oracle(g, v, expr, openness)
            except InstanceTooLarge:
                continue
            assert match_triple_expr(g, v, expr, openness) == want, v
            checked[type(v)] += 1
            matched[type(v)] += want
    assert checked[Node] > 100 and checked[Val] > 100
    assert 0 < matched[Val] < checked[Val]


@pytest.mark.parametrize("rng_seed", [5, 59])
def test_nested_shapes_equal_brute_oracle(rng_seed):
    # every triple named by the tested constraints must satisfy a nested
    # neighborhood or boolean shape, evaluated at its far end; the
    # top-shape constraints and the wildcards take their triples untested
    rng = random.Random(rng_seed)
    checked = Counter()
    for seed in range(80):
        p = GenParams(seed=seed, node_count=4, edge_density=0.25, prop_density=0.4)
        g = gen_graph(p)
        names = p.pred_pool + p.key_pool
        inner = SNeigh(gen_triple_expr(rng, p, 1), gen_openness(rng, p))
        nested = rng.choice([inner, SNot(inner), SAnd(inner, gen_shex_shape(rng, p, 1))])
        q, direction = rng.choice(names), rng.choice([FWD, INV])
        untested = StarE(Alt(TC(rng.choice(names), FWD, TOP), gen_triple_expr(rng, p, 1)))

        def closed_over(tc):
            return open_closure(Seq(Seq(Alt(tc, Eps()), StarE(tc)), untested))

        shape, topped = closed_over(TC(q, direction, nested)), closed_over(TC(q, direction, TOP))
        for v in [Node(u) for u in sorted(g.nodes)] + sorted_foci(Val(w) for w in g.values):
            try:
                want = brute_shex_satisfies(g, v, shape)
            except InstanceTooLarge:
                continue
            assert shex_satisfies(g, v, shape) == want, (seed, v)
            checked[want] += 1
            checked["nested decides"] += want != shex_satisfies(g, v, topped)
    assert checked[True] > 100 and checked[False] > 100
    assert checked["nested decides"] > 30


def shape_calls(monkeypatch):
    """Record every evaluation of ``shex._sat`` as [depth, compiled
    shape, elements, result], in call order."""
    calls, depth = [], [0]
    sat = shex._sat

    def probe(ctx, g, c, elems):
        call = [depth[0], c, set(elems), None]
        calls.append(call)
        depth[0] += 1
        try:
            out = sat(ctx, g, c, elems)
        finally:
            depth[0] -= 1
        call[3] = set(out)
        return out

    monkeypatch.setattr(shex, "_sat", probe)
    return calls


def test_cap_counts_rows_before_nested_evaluation(monkeypatch):
    # a loop is one forward and one inverse signed triple: "a" has 4,
    # and so has the value 7, owned by four nodes; "b" has 3
    g = build_graph(
        [EdgeTriple("a", "p", "a"), EdgeTriple("a", "q", "b")]
        + [EdgeTriple(f"o{i}", "owns", "b") for i in range(2)],
        [PropTriple("a", "k", int_v(1))] + [PropTriple(f"o{i}", "k", int_v(7)) for i in range(4)],
    )
    nested = SNeigh(TC("owns", INV, TOP), HalfOpen(NO_NAMES))
    shape = open_closure(Seq(StarE(TC("q", FWD, nested)), StarE(TC("p", INV, TOP))))
    calls = shape_calls(monkeypatch)
    for v in (Node("a"), Val(int_v(7))):
        assert shex_satisfies(g, v, shape, cap=4)
        asked = [elems for _, _, elems, _ in calls]
        assert ({"b"} in asked) == (v == Node("a"))  # the probe sees the nested shape at "b"
        calls.clear()
        with pytest.raises(NeighborhoodTooLarge) as info:
            shex_satisfies(g, v, shape, cap=3)
        assert str(info.value) == f"signed neighborhood of {v!r} has 4 triples (cap 3)"
        # raised before the nested shape was evaluated at "b"
        assert [elems for _, _, elems, _ in calls] == [{focus_elem(v)}]
        calls.clear()


def test_boolean_shapes(g_media):
    a = SNeigh(TC("email", FWD, TOP), Open(NO_NAMES, NO_NAMES))
    b = SNeigh(TC("card", FWD, TOP), Open(NO_NAMES, NO_NAMES))
    assert shex_satisfies(g_media, Node("u1"), SAnd(a, SNot(b)))
    assert shex_satisfies(g_media, Node("a1"), SOr(a, b))
    assert not shex_satisfies(g_media, Node("a2"), SOr(a, b))


def test_or_and_and_decide_their_right_branch_only_where_needed():
    asked = []
    registry = ValueTypeRegistry()
    registry.register("asked", lambda w: asked.append(w.payload) or True)
    g = build_graph([], [PropTriple(f"n{i}", "k", int_v(i)) for i in range(5)])
    owned = SNeigh(TC("k", INV, SNeigh(TC("k", FWD, TOP), HalfOpen(NO_NAMES))), HalfOpen(NO_NAMES))
    one, ask = STestConst(int_v(1)), STestType("asked")
    assert shex_validate(g, [(SelIn("k"), SOr(one, SOr(owned, ask)))], registry=registry).valid
    assert asked == []  # every value has an owner with only its k property
    assert shex_validate(g, [(SelIn("k"), SOr(one, ask))], registry=registry).valid
    assert sorted(asked) == [0, 2, 3, 4]
    asked.clear()
    report = shex_validate(g, [(SelIn("k"), SAnd(SNot(one), ask))], registry=registry)
    assert [viol.focus for viol in report.violations] == [Val(int_v(1))]
    assert sorted(asked) == [0, 2, 3, 4]


@pytest.mark.parametrize("nodes, density", [(8, 0.18), (12, 0.12)])
def test_connectives_narrow_their_right_branch(nodes, density, monkeypatch):
    # SAnd asks its right branch about the elements its left branch
    # kept, SOr about those its left branch rejected, and no more; each
    # generated shape is decided on every element of the graph at once
    calls = shape_calls(monkeypatch)
    narrowed, checked = Counter(), Counter()
    for seed in range(80):
        p = GenParams(seed=seed, node_count=nodes, edge_density=density, prop_density=0.3)
        g = gen_graph(p)
        domain = set(g.nodes) | set(g.values)
        for _, shape in gen_shex_schema(p):
            calls.clear()
            ctx = shex.EvalContext(cap=64)
            extension = shex._sat(ctx, g, shex._compile(ctx, shape), domain)
            for i, (depth, c, elems, result) in enumerate(calls):
                if c.kind is not SAnd and c.kind is not SOr:
                    continue
                kids = []
                for call in calls[i + 1 :]:
                    if call[0] <= depth:
                        break
                    if call[0] == depth + 1:
                        kids.append(call)
                left = kids[0]
                assert left[1] is c.left and left[2] == elems
                rest = left[3] if c.kind is SAnd else elems - left[3]
                if c.kind is SOr and not rest:
                    assert len(kids) == 1 and result == left[3]
                    continue
                right = kids[1]
                assert len(kids) == 2 and right[1] is c.right and right[2] == rest
                assert result == (right[3] if c.kind is SAnd else left[3] | right[3])
                narrowed[c.kind.__name__] += rest < elems
            for v in elems_to_foci(domain):
                try:
                    want = brute_shex_satisfies(g, v, shape)
                except InstanceTooLarge:
                    continue
                assert (focus_elem(v) in extension) == want, (seed, shape, v)
                checked[want] += 1
    assert narrowed["SAnd"] > 20 and narrowed["SOr"] > 20, narrowed
    assert checked[True] > 100 and checked[False] > 100, checked


def test_template_masks_rebuilt_per_focus():
    # one SNeigh, compiled once in one context, evaluated at foci whose
    # neighborhoods differ: each focus must get its own leaf masks
    from triform.shex import EvalContext, _compile, _sat

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
    got = {u: u in _sat(ctx, g, compiled, {u}) for u in ("a", "b", "c", "d", "a")}
    assert got == {"a": True, "b": False, "c": False, "d": False}
    assert _compile(ctx, shape) is compiled
    assert _sat(ctx, g, compiled, set("abcd")) == {"a"}
    for u in "abcd":
        assert got[u] == brute_match_oracle(g, Node(u), shape.expr, shape.openness)
    report = shex_validate(g, [(SelOut("p"), shape)])
    assert [viol.focus for viol in report.violations] == [Node("b"), Node("c"), Node("d")]
