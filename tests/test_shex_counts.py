"""ShEx count forms decided as shape-core count atoms.

A neighborhood shape made of n >= 1 triple constraints in sequence, all
of one name, direction and nested shape, open to every other row
(``Open(∅, ∅)``), is lowered once per run to ``GeqCount(n, (name,
direction), body)`` and decided by the set evaluator, with no template
and no kernel call; any other shape keeps its template.  A run keeps
both by the shape's run id (``ShexContext.templates``).  These tests pin
both sides against the brute-force oracle, per (rule, focus), and check
which side each shape takes.
"""

import json

import pytest

from test_shex_keys import small_graph
from test_shex_memo import kernel_calls  # noqa: F401  a fixture
from triform import core, jsonio, shex
from triform.core import GeqCount
from triform.harness import brute_shex_satisfies
from triform.model import (
    FWD,
    INV,
    EdgeTriple,
    InstanceTooLarge,
    NeighborhoodTooLarge,
    build_graph,
    elems_to_foci,
    focus_elem,
    int_v,
)
from triform.shex import (
    NO_NAMES,
    Alt,
    Eps,
    HalfOpen,
    Open,
    SAnd,
    SelOut,
    SNeigh,
    SNot,
    STestConst,
    STestType,
    Seq,
    StarE,
    TC,
    seq_all,
    shex_validate,
    top_shape,
)

TOP = top_shape()
OPEN = Open(NO_NAMES, NO_NAMES)
HAS_Q = SNeigh(TC("q", FWD, TOP), OPEN)  # a count form itself
BODIES = [TOP, STestType("int"), SNot(STestConst(int_v(1))), HAS_Q, SAnd(HAS_Q, SNot(STestType("str")))]
# predicate and key names, both directions: a key's inverse rows are a value's owners
PATHS = [(name, d) for name in ("p", "k") for d in (FWD, INV)]


def count_form(n, name, direction, body=TOP):
    return SNeigh(seq_all([TC(name, direction, body)] * n), OPEN)


def decide(g, shape):
    """The run's context and the shape's extension over the graph's
    elements and a few outside it, in one evaluator call."""
    domain = set(g.nodes) | set(g.values) | {"ghost", int_v(-5)}
    ctx = shex.ShexContext(g, None)
    return ctx, domain, core._sat(ctx, shape, domain)


def check_against_the_oracle(g, shape):
    _, domain, got = decide(g, shape)
    checked = 0
    for v in elems_to_foci(domain):
        try:
            want = brute_shex_satisfies(g, v, shape)
        except InstanceTooLarge:
            continue
        assert (focus_elem(v) in got) == want, (shape, v)
        checked += 1
    return checked


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_forms_are_lowered_and_equal_the_oracle(n, kernel_calls):
    checked = 0
    for name, d in PATHS:
        for body in BODIES:
            shape = count_form(n, name, d, body)
            for seed in range(12):
                g = small_graph(seed)
                ctx, _, _ = decide(g, shape)
                assert ctx.templates[0] == GeqCount(n, (name, d), core.TOP if body is TOP else body)
                assert all(type(t) is GeqCount for t in ctx.templates.values())
                checked += check_against_the_oracle(g, shape)
    assert checked > 2000
    assert kernel_calls == []


def test_a_loop_counts_once_forward_and_once_inverse(kernel_calls):
    g = build_graph([EdgeTriple("v", "p", "v"), EdgeTriple("u", "p", "v")], [])
    want = {(1, FWD): {"v", "u"}, (2, FWD): set(), (1, INV): {"v"}, (2, INV): {"v"}, (3, INV): set()}
    for (n, d), elems in want.items():
        shape = count_form(n, "p", d)
        assert decide(g, shape)[2] == elems, (n, d)
        assert check_against_the_oracle(g, shape) == 4
    assert kernel_calls == []


NEAR_MISSES = {
    "half open": SNeigh(TC("p", FWD, TOP), HalfOpen(NO_NAMES)),
    "inverse exclusion": SNeigh(TC("p", FWD, TOP), Open(frozenset({"q"}), NO_NAMES)),
    "forward exclusion": SNeigh(Seq(TC("p", FWD, TOP), TC("p", FWD, TOP)), Open(NO_NAMES, frozenset({"k"}))),
    "mixed names": SNeigh(Seq(TC("p", FWD, TOP), TC("q", FWD, TOP)), OPEN),
    "mixed directions": SNeigh(Seq(TC("p", FWD, TOP), TC("p", INV, TOP)), OPEN),
    "mixed bodies": SNeigh(Seq(TC("k", FWD, STestType("int")), TC("k", FWD, TOP)), OPEN),
    "alt": SNeigh(Alt(TC("p", FWD, TOP), TC("p", FWD, TOP)), OPEN),
    "star": SNeigh(Seq(TC("p", FWD, TOP), StarE(TC("p", FWD, TOP))), OPEN),
    "eps": SNeigh(Seq(TC("p", INV, TOP), Eps()), OPEN),
}


@pytest.mark.parametrize("label", list(NEAR_MISSES))
def test_near_misses_keep_their_template(label, kernel_calls):
    shape, checked = NEAR_MISSES[label], 0
    for seed in range(12):
        g = small_graph(seed)
        ctx, _, _ = decide(g, shape)
        assert list(ctx.templates) == [0] and type(ctx.templates[0]) is shex._Template
        checked += check_against_the_oracle(g, shape)
    assert checked > 60
    assert kernel_calls  # the template's program decides its bags


def tc_json(name, direction):
    return {"op": "tc", "q": name, "dir": direction, "shape": {"op": "test_type", "vt": "int"}}


def shape_json(expr):
    return {"op": "neigh", "expr": expr, "open": {"r": [], "q": []}}


def test_repetitions_parsed_from_json_are_lowered(kernel_calls):
    # three constraints written out, so their nested shapes are equal
    # but distinct objects, and one repeated by the repeat sugar
    written = shape_json({"op": "seq", "args": [tc_json("k", "inv")] * 3})
    repeated = shape_json({"op": "repeat", "kind": "exactly", "n": 2, "arg": tc_json("k", "fwd")})
    doc = {"dialect": "shex", "rules": [{"sel": {"op": "out", "q": "p"}, "shape": s} for s in (written, repeated)]}
    _, rules = jsonio.parse_schema(json.loads(json.dumps(doc)))
    leaves = [rules[0][1].expr.left.left, rules[0][1].expr.left.right, rules[0][1].expr.right]
    assert len({id(tc.shape) for tc in leaves}) == 3 and len({tc.shape for tc in leaves}) == 1
    for seed in range(12):
        g = small_graph(seed)
        for _, shape in rules:
            ctx, _, _ = decide(g, shape)
            assert all(type(t) is GeqCount for t in ctx.templates.values())
            if shape is rules[0][1]:
                # every leaf's nested shape has its run id, in walk order;
                # the first is the atom's body
                assert ctx.shapes[1:] == [tc.shape for tc in leaves]
                assert all(ctx.shapes[i + 1] is tc.shape for i, tc in enumerate(leaves))
                assert ctx.templates[0].body is leaves[0].shape
            check_against_the_oracle(g, shape)
    assert kernel_calls == []


def test_a_shape_is_lowered_once_per_run(monkeypatch):
    g = build_graph([EdgeTriple(f"a{i}", "p", "b") for i in range(3)], [])
    lowered = []
    count_atom = shex._count_atom
    monkeypatch.setattr(shex, "_count_atom", lambda ctx, shape: lowered.append(ctx) or count_atom(ctx, shape))
    shape = count_form(2, "p", INV)
    rules = [(SelOut("p"), shape), (SelOut("p"), SNot(shape))]
    first = shex_validate(g, rules)
    assert len(lowered) == 1 and [v.rule_index for v in first.violations] == [0, 0, 0]
    assert shex_validate(g, rules) == first
    assert len(lowered) == 2 and lowered[0] is not lowered[1]  # each run lowers afresh


@pytest.mark.parametrize("body", [TOP, STestType("int")], ids=["counts", "images"])
def test_a_lowered_atom_checks_the_cap_first(body):
    # "a" has 6 rows (5 p rows out, one q row in) and "b" 4; the focus "c"
    # is under the cap, but "a" is its far end
    edges = [EdgeTriple("a", "p", f"t{i}") for i in range(5)] + [EdgeTriple("b", "p", f"t{i}") for i in range(4)]
    g = build_graph(edges + [EdgeTriple("c", "q", "a")], [])
    for elems in ({"a", "b"}, {"b", "a"}):
        with pytest.raises(NeighborhoodTooLarge) as info:
            core._sat(shex.ShexContext(g, 3), count_form(1, "p", FWD, body), elems)
        assert str(info.value) == "signed neighborhood of Node(id='a') has 6 triples (cap 3)"
    nested = count_form(1, "q", FWD, count_form(1, "p", FWD, body))
    with pytest.raises(NeighborhoodTooLarge) as info:
        core._sat(shex.ShexContext(g, 3), nested, {"c"})
    assert str(info.value) == "signed neighborhood of Node(id='a') has 6 triples (cap 3)"
