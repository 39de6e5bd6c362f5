"""ShEx neighborhood shapes whose Parikh image is a box, decided as
shape-core count atoms.

``shex._image`` tells, bottom-up, whether the Parikh image of a triple
expression is a box, one interval per (name, direction); ``shex._lower``
then writes the shape as count atoms (and a ``Closed`` atom for a
half-open shape's forward rows), with no template and no kernel call.
These tests compare the lowered verdicts, per (shape, focus), with the
template path and the brute-force oracle on seeded expressions, and
check that the shapes whose image is not a box keep their template.
"""

import random

import pytest

from test_shex_keys import HAS_Q, NAMES, ONLY_INT_K, random_openness, small_graph
from triform import core, shex
from triform.cogsl import SHEX
from triform.harness import brute_shex_satisfies
from triform.model import FWD, INV, EdgeTriple, InstanceTooLarge, build_graph, elems_to_foci, focus_elem, int_v
from triform.shex import (
    NO_NAMES,
    Alt,
    Eps,
    HalfOpen,
    Open,
    SNeigh,
    SNot,
    STestConst,
    STestType,
    Seq,
    StarE,
    TC,
    open_closure,
    top_shape,
)

TOP = top_shape()
# each builds a new object: a nested shape shared by two pairs keeps its template
NESTED = [
    top_shape,
    lambda: STestType("int"),
    lambda: SNot(STestConst(int_v(1))),
    lambda: SNeigh(HAS_Q.expr, HAS_Q.openness),
    lambda: SNeigh(ONLY_INT_K.expr, ONLY_INT_K.openness),
    lambda: open_closure(TC("p", INV, TOP)),
]


def random_expr(rng, names, nested, depth):
    """An expression over ``names`` in both directions; each pair's
    triple constraints share one nested shape, drawn once into ``nested``."""
    roll = rng.randrange(8 if depth else 3)
    if roll < 2:
        pair = (rng.choice(names), rng.choice((FWD, INV)))
        if pair not in nested:
            nested[pair] = rng.choice(NESTED)()
        return TC(*pair, nested[pair])
    if roll == 2:
        return Eps()
    if roll < 5:
        return Seq(random_expr(rng, names, nested, depth - 1), random_expr(rng, names, nested, depth - 1))
    if roll < 7:
        return Alt(random_expr(rng, names, nested, depth - 1), random_expr(rng, names, nested, depth - 1))
    return StarE(random_expr(rng, names, nested, depth - 1))


def random_shapes(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        names = NAMES[: rng.randrange(1, 4)]
        yield SNeigh(random_expr(rng, names, {}, 3), random_openness(rng))


def lowered_and_template(g, shape, domain):
    """The shape's extension over ``domain``, decided lowered if it is a
    box, and by its template; and whether it was lowered."""
    ctx, ref = shex.ShexContext(g, None), shex.ShexContext(g, None)
    got = core._sat(ctx, shape, set(domain))
    shex._sid(ref, shape)
    want = shex._neigh(ref, shex._template(ref, shape.expr, shape.openness), set(domain))
    return got, want, type(ctx.templates.get(0)) is tuple  # the top shape has neither


def check(g, shape):
    """Compares the lowered, template and oracle verdicts at every element
    of ``g`` and two outside it; the number of oracle checks and whether
    the shape was lowered."""
    domain = set(g.nodes) | set(g.values) | {"ghost", int_v(-5)}
    got, want, lowered = lowered_and_template(g, shape, domain)
    assert got == want, shape
    checked = 0
    for v in elems_to_foci(domain):
        try:
            oracle = brute_shex_satisfies(g, v, shape)
        except InstanceTooLarge:
            continue
        assert (focus_elem(v) in got) == oracle, (shape, v)
        checked += 1
    return checked, lowered


def test_generated_shapes_equal_the_template_and_the_oracle():
    checked = lowered = 0
    for i, shape in enumerate(random_shapes(300, seed=3)):
        n, low = check(small_graph(i), shape)
        checked += n
        lowered += low
    assert lowered > 100 and checked > 2000, (lowered, checked)


def test_the_compilers_closed_guard_is_one_closed_atom():
    # StarE(Alt(TC k1, TC k2, ...)): the image holds every name's one-row bag
    rng, checked = random.Random(5), 0
    for i in range(40):
        keys = frozenset(rng.sample(["k", "absent"], rng.randrange(3)))
        preds = tuple(rng.sample(["p", "q"], rng.randrange(3)))
        shape = SHEX.closed(keys, preds)
        assert shex._lower(shex.ShexContext(build_graph([], []), None), shape) == ([], core.TOP, keys | set(preds))
        n, lowered = check(small_graph(i), shape)
        assert lowered
        checked += n
    assert checked > 300


# (expression, openness, the atoms _lower writes: tested, rest, allowed)
P, Q, PI = ("p", FWD), ("q", FWD), ("p", INV)
LOWERED = {
    "at most two, closed": (
        Alt(Eps(), Alt(TC("p", FWD, TOP), Seq(TC("p", FWD, TOP), TC("p", FWD, TOP)))),
        Open(NO_NAMES, frozenset({"p"})),
        ([], core.LeqCount(2, P, core.TOP), None),
    ),
    "exactly one, tested, closed": (
        TC("p", FWD, STestType("int")),
        HalfOpen(frozenset({"q"})),
        (
            [core.LeqCount(0, P, core.Not(STestType("int")))],
            core.And(core.And(core.GeqCount(1, P, core.TOP), core.LeqCount(1, P, core.TOP)), core.LeqCount(0, ("q", INV), core.TOP)),
            frozenset({"p"}),
        ),
    ),
    "two pairs, one open": (
        Seq(StarE(TC("q", FWD, HAS_Q)), Seq(TC("p", INV, TOP), TC("p", INV, TOP))),
        Open(NO_NAMES, frozenset({"q", "k"})),
        ([core.LeqCount(0, Q, core.Not(HAS_Q))], core.And(core.GeqCount(2, PI, core.TOP), core.LeqCount(0, ("k", FWD), core.TOP)), None),
    ),
}


@pytest.mark.parametrize("label", list(LOWERED))
def test_lowered_atoms(label):
    expr, openness, atoms = LOWERED[label]
    shape = SNeigh(expr, openness)
    assert shex._lower(shex.ShexContext(build_graph([], []), None), shape) == atoms
    checks = [check(small_graph(seed), shape) for seed in range(12)]
    assert sum(n for n, _ in checks) > 60 and all(lowered for _, lowered in checks)


NOT_BOXES = {
    "two names, either": Alt(TC("p", FWD, TOP), TC("q", FWD, TOP)),
    "star of two names": StarE(Seq(TC("p", FWD, TOP), TC("q", FWD, TOP))),
    "star of two copies": StarE(Seq(TC("p", FWD, TOP), TC("p", FWD, TOP))),
    "one or three": Alt(TC("p", INV, TOP), Seq(TC("p", INV, TOP), Seq(TC("p", INV, TOP), TC("p", INV, TOP)))),
    "two nested shapes": Seq(TC("k", FWD, STestType("int")), StarE(TC("k", FWD, TOP))),
}


@pytest.mark.parametrize("openness", [Open(NO_NAMES, NO_NAMES), HalfOpen(frozenset({"p"}))], ids=["open", "half open"])
@pytest.mark.parametrize("label", list(NOT_BOXES))
def test_shapes_that_are_not_boxes_keep_their_template(label, openness):
    shape = SNeigh(NOT_BOXES[label], openness)
    checked = 0
    for seed in range(12):
        n, lowered = check(small_graph(seed), shape)
        assert not lowered
        checked += n
    assert checked > 60


def test_a_nested_shape_shared_by_two_pairs_keeps_its_template():
    # one object nested under p and q: the template evaluates it once, on
    # the union of both pairs' far ends, which the atoms would not
    shape = SNeigh(Seq(TC("p", FWD, HAS_Q), TC("q", FWD, HAS_Q)), HalfOpen(NO_NAMES))
    equal = SNeigh(Seq(TC("p", FWD, HAS_Q), TC("q", FWD, SNeigh(HAS_Q.expr, HAS_Q.openness))), HalfOpen(NO_NAMES))
    ctx = shex.ShexContext(build_graph([], []), None)
    assert shex._lower(ctx, shape) is None and shex._lower(ctx, equal) is not None
    for seed in range(6):
        assert not check(small_graph(seed), shape)[1]


def test_a_loop_is_a_row_in_each_direction():
    g = build_graph([EdgeTriple("v", "p", "v"), EdgeTriple("u", "p", "v")], [])
    # exactly one forward p row, any inverse p rows, and nothing else
    shape = SNeigh(Seq(TC("p", FWD, TOP), Alt(Eps(), StarE(TC("p", INV, TOP)))), HalfOpen(frozenset({"p"})))
    domain = set(g.nodes) | {"ghost"}
    assert lowered_and_template(g, shape, domain) == ({"u", "v"}, {"u", "v"}, True)
    assert check(g, shape) == (4, True)
