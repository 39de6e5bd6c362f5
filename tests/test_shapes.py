"""The shape core: one set of Boolean and test classes, one fold pair and
one set evaluator (``core._sat``) for SHACL, ShEx and PG-Schema, each
dialect reading its paths and deciding its own atoms through its context."""

import random

import pytest

from triform.core import TOP, And, GeqCount, LeqCount, Not, Or, TestConst, Top, _sat, and_all, or_all
from triform.harness import GenParams, gen_graph, gen_pg_body
from triform.model import FWD, INV, EdgeTriple, PropTriple, SortError, TriformError, build_graph, int_v
from triform.pgschema import (
    PgContext,
    PgGeq,
    PgLeq,
    PgPath,
    PPred,
    inv_key_path,
    key_path,
    lower_shape,
    pg_validate,
    pred_path,
    shape_atoms,
)
from triform.shacl import Closed, Inverse, ShaclContext, Step
from triform.shex import ShexContext, TC, open_closure, top_shape


def test_folds_go_left_and_end_in_the_dialects_top():
    a, b, c = TestConst(int_v(1)), TestConst(int_v(2)), TestConst(int_v(3))
    assert and_all([a, b, c]) == And(And(a, b), c)
    assert or_all([a, b, c]) == Or(Or(a, b), c)
    assert and_all([a]) is a and or_all([a]) is a
    assert and_all([]) is TOP and and_all([], top_shape()) == top_shape()
    with pytest.raises(TriformError, match="empty disjunction"):
        or_all([])


def test_a_pg_shape_lowers_to_count_atoms_with_the_top_body():
    p, q = pred_path("p"), key_path("k")
    shape = And(PgGeq(1, p), And(PgLeq(2, q), PgGeq(0, p)))
    assert lower_shape(shape) == And(And(GeqCount(1, p, TOP), LeqCount(2, q, TOP)), GeqCount(0, p, TOP))
    assert lower_shape(PgLeq(3, q)) == LeqCount(3, q, TOP)


def test_pg_rejects_the_empty_conjunction():
    g = build_graph([EdgeTriple("a", "p", "b")], [])
    with pytest.raises(TriformError, match="empty PG conjunction"):
        shape_atoms(and_all([]))
    with pytest.raises(TriformError, match="empty PG conjunction"):
        pg_validate(g, [(PgGeq(1, pred_path("p")), and_all([]))])
    with pytest.raises(TriformError, match="unknown PG-shape"):
        lower_shape(And(PgGeq(1, pred_path("p")), TestConst(int_v(1))))


@pytest.mark.parametrize(
    "ctx, shape, error",
    [
        (lambda g: ShexContext(g, 24), GeqCount(1, Step("p"), Top()), "no count atom over"),
        (lambda g: ShaclContext(g), open_closure(TC("p", "fwd", top_shape())), "unknown SHACL shape"),
        (lambda g: ShexContext(g, 24), Closed(frozenset()), "unknown ShEx shape"),
        (lambda g: PgContext(g), Closed(frozenset()), "unknown shape"),
    ],
    ids=["shex-count", "shacl-neigh", "shex-closed", "pg-closed"],
)
def test_a_context_decides_the_atoms_of_its_own_dialect_only(ctx, shape, error):
    g = build_graph([EdgeTriple("a", "p", "b")], [])
    with pytest.raises(TriformError, match=error):
        _sat(ctx(g), Not(shape), {"a"})


def test_shacl_and_pg_count_atoms_agree_on_graph_nodes():
    # one count atom, two readings of its path: SHACL's from any element,
    # PG's from the graph nodes (its sort check rejects values)
    rng, checked = random.Random(11), 0
    for seed in range(60):
        p = GenParams(seed=seed, node_count=6, edge_density=0.25, prop_density=0.4)
        g = gen_graph(p)
        body = gen_pg_body(rng, p)
        for n in range(3):
            for atom in (GeqCount, LeqCount):
                shacl = _sat(ShaclContext(g), atom(n, body, TOP), set(g.nodes))
                pg = _sat(PgContext(g), atom(n, PgPath(None, body, None), TOP), set(g.nodes))
                assert shacl == pg, (seed, body, atom, n)
                checked += len(shacl)
        if g.values:
            with pytest.raises(SortError):
                _sat(PgContext(g), GeqCount(1, PgPath(None, PPred("p"), None), TOP), set(g.values))
    assert checked > 500


def test_one_context_serves_every_rule_of_a_run():
    g = build_graph([EdgeTriple("a", "p", "b"), EdgeTriple("b", "p", "c")], [])
    ctx = ShexContext(g, 24)
    shape = open_closure(TC("p", "fwd", top_shape()))
    assert _sat(ctx, shape, {"a", "b", "c"}) == {"a", "b"}
    assert _sat(ctx, Not(shape), {"a", "b", "c"}) == {"c"}
    assert list(ctx.templates) == [0] and ctx.shapes == [shape]


COUNTED_PATHS = [
    (ShaclContext, Step("p"), ("p", FWD)),
    (ShaclContext, Inverse(Step("p")), ("p", INV)),
    (ShaclContext, Step("k"), ("k", FWD)),
    (ShaclContext, Inverse(Step("k")), ("k", INV)),
    (PgContext, pred_path("p"), ("p", FWD)),
    (PgContext, key_path("k"), ("k", FWD)),
    (PgContext, inv_key_path("k"), ("k", INV)),
]


def counted_graph():
    return build_graph(
        [EdgeTriple("a", "p", "b"), EdgeTriple("a", "p", "c"), EdgeTriple("b", "p", "b"), EdgeTriple("c", "q", "a")],
        [PropTriple("a", "k", int_v(1)), PropTriple("b", "k", int_v(1)), PropTriple("c", "k", int_v(2))],
    )


@pytest.mark.parametrize("make_ctx, path, index", COUNTED_PATHS, ids=[repr(p) for _, p, _ in COUNTED_PATHS])
def test_a_top_body_atom_over_one_name_reads_its_counts(make_ctx, path, index):
    # a name step reads the graph's counts, whether or not its ends are
    # grouped, and they give the image sizes
    g = counted_graph()
    elems = set(g.values) if path == inv_key_path("k") else {"a", "b", "c"}
    sizes = {x: len(img) for x, img in make_ctx(g).images(path, elems).items()}
    g = counted_graph()
    ctx = make_ctx(g)
    counted = ctx.counts(path, elems)
    assert counted is g.counts(*index) and g.grouped_ends(*index) is None
    assert {x: c for x, c in counted.items() if x in elems} == sizes
    for n in range(4):
        for part in (elems, set(sorted(elems, key=repr)[:1])):
            assert _sat(ctx, GeqCount(n, path, TOP), part) == {x for x in part if sizes.get(x, 0) >= n}
            assert _sat(ctx, LeqCount(n, path, TOP), part) == {x for x in part if sizes.get(x, 0) <= n}
    g.ends(*index)
    assert ctx.counts(path, elems) is counted


def test_pg_counts_keep_the_sort_check_and_the_key_guards():
    g = build_graph([EdgeTriple("a", "p", "b")], [PropTriple("a", "k", int_v(1))])
    ctx = PgContext(g)
    assert ctx.counts(pred_path("k"), {"a"}) == {}  # a predicate step over a key reads nothing
    assert ctx.counts(key_path("absent"), {"a"}) == {}
    with pytest.raises(SortError):
        ctx.counts(pred_path("p"), {int_v(1)})
    with pytest.raises(SortError):
        _sat(ctx, GeqCount(0, key_path("k"), TOP), {int_v(1)})
