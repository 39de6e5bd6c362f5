import random
from collections import Counter

import pytest

import triform.harness as harness
from triform.harness import (
    GenParams,
    brute_path_oracle,
    gen_graph,
    gen_shacl_path,
    gen_shacl_schema,
    gen_shacl_shape,
)
from triform.model import (
    EdgeTriple,
    Node,
    PropTriple,
    Val,
    ValueTypeRegistry,
    build_graph,
    int_v,
    str_v,
    value_type_member,
)
from triform.shacl import (
    And,
    Closed,
    Concat,
    Disj,
    Eq,
    ExistsIn,
    ExistsOut,
    GeqCount,
    Id,
    Inverse,
    LeqCount,
    Not,
    Or,
    PathUnion,
    SelConst,
    Star,
    Step,
    TestConst,
    TestType,
    Top,
    count_eq,
    eval_path,
    exists,
    forall,
    shacl_satisfies,
    shacl_select,
    shacl_validate,
)

from helpers import sorted_foci


def test_eval_path_step(g_media):
    assert eval_path(g_media, Node("u3"), Step("invited")) == {Node("u2")}


def test_eval_path_id(g_media):
    for v in (Node("u1"), Node("zzz"), Val(int_v(99))):
        assert eval_path(g_media, v, Id()) == {v}


def test_eval_path_star_includes_any_focus(g_media):
    # unlike a PG star, the SHACL star is reflexive on values and on
    # nodes outside the graph
    for v in (Node("zzz"), Val(int_v(99))):
        assert eval_path(g_media, v, Star(Step("invited"))) == {v}
    card = Val(int_v(1234))
    assert eval_path(g_media, card, Star(Inverse(Step("card")))) == {card, Node("a1")}


def test_eval_path_star_chain():
    g = build_graph([EdgeTriple("a", "p", "b"), EdgeTriple("b", "p", "c")], [])
    assert eval_path(g, Node("a"), Star(Step("p"))) == {Node("a"), Node("b"), Node("c")}


def test_eval_path_key_step(g_media):
    assert eval_path(g_media, Node("u2"), Step("email")) == {Val(str_v("d@d.d"))}


def test_eval_path_inverse_key(g_media):
    assert eval_path(g_media, Val(int_v(1234)), Inverse(Step("card"))) == {Node("a1")}


def test_eval_path_image_in_domain(g_media):
    rng = random.Random(7)
    p = GenParams(seed=7)
    domain = {Node(u) for u in g_media.nodes} | {Val(w) for w in g_media.values}
    for _ in range(50):
        path = gen_shacl_path(rng, p, 3)
        for v in sorted(domain, key=repr):
            assert eval_path(g_media, v, path) <= domain | {v}


def test_eval_path_union_monotone(g_media):
    rng = random.Random(9)
    p = GenParams(seed=9)
    for _ in range(30):
        a = gen_shacl_path(rng, p, 2)
        b = gen_shacl_path(rng, p, 2)
        for u in sorted(g_media.nodes):
            v = Node(u)
            assert eval_path(g_media, v, PathUnion(a, b)) == eval_path(g_media, v, a) | eval_path(
                g_media, v, b
            )


def test_satisfies_top_everywhere(g_media):
    assert shacl_satisfies(g_media, Node("u1"), Top())
    assert shacl_satisfies(g_media, Val(int_v(1234)), Top())


def test_satisfies_eq_owner_access():
    g = build_graph([EdgeTriple("u", "ownsAccount", "a")], [])
    shape = Eq(PathUnion(Step("hasAccess"), Step("ownsAccount")), "hasAccess")
    assert not shacl_satisfies(g, Node("u"), shape)
    g2 = build_graph([EdgeTriple("u", "ownsAccount", "a"), EdgeTriple("u", "hasAccess", "a")], [])
    assert shacl_satisfies(g2, Node("u"), shape)


def test_satisfies_eq_identity_path():
    # eq(id, p): a p-self-loop and no other p-successors
    loop_only = build_graph([EdgeTriple("u", "p", "u")], [])
    assert shacl_satisfies(loop_only, Node("u"), Eq(Id(), "p"))
    loop_plus = build_graph([EdgeTriple("u", "p", "u"), EdgeTriple("u", "p", "v")], [])
    assert not shacl_satisfies(loop_plus, Node("u"), Eq(Id(), "p"))
    no_loop = build_graph([EdgeTriple("u", "p", "v")], [])
    assert not shacl_satisfies(no_loop, Node("u"), Eq(Id(), "p"))
    assert shacl_satisfies(no_loop, Node("u"), Disj(Id(), "p"))


def test_satisfies_disj():
    g = build_graph([EdgeTriple("u", "p", "a"), EdgeTriple("u", "q", "b")], [])
    assert shacl_satisfies(g, Node("u"), Disj(Step("q"), "p"))
    g2 = build_graph([EdgeTriple("u", "p", "a"), EdgeTriple("u", "q", "a")], [])
    assert not shacl_satisfies(g2, Node("u"), Disj(Step("q"), "p"))


def test_satisfies_leq_duplicate_email():
    g = build_graph(
        [], [PropTriple("u1", "email", str_v("x")), PropTriple("u2", "email", str_v("x"))]
    )
    assert not shacl_satisfies(g, Val(str_v("x")), LeqCount(1, Inverse(Step("email")), Top()))


def test_satisfies_closed(g_media):
    assert shacl_satisfies(g_media, Node("a2"), Closed(frozenset({"privileged"})))
    assert not shacl_satisfies(g_media, Node("a1"), Closed(frozenset({"privileged"})))
    # closedness constrains outgoing triples only; values pass trivially
    assert shacl_satisfies(g_media, Val(int_v(1234)), Closed(frozenset()))


def test_satisfies_test_type_on_nodes_is_false(g_media):
    assert not shacl_satisfies(g_media, Node("u1"), TestType("any"))
    assert shacl_satisfies(g_media, Val(int_v(1234)), TestType("any"))


def test_de_morgan(g_media):
    rng = random.Random(11)
    p = GenParams(seed=11)
    foci = [Node(u) for u in sorted(g_media.nodes)] + [Val(w) for w in g_media.values]
    for _ in range(40):
        a = gen_shacl_shape(rng, p, 2)
        b = gen_shacl_shape(rng, p, 2)
        for v in foci:
            lhs = shacl_satisfies(g_media, v, Not(And(a, b)))
            rhs = shacl_satisfies(g_media, v, Or(Not(a), Not(b)))
            assert lhs == rhs


def test_geq_zero_always_holds(g_media):
    rng = random.Random(13)
    p = GenParams(seed=13)
    for _ in range(20):
        path = gen_shacl_path(rng, p, 2)
        body = gen_shacl_shape(rng, p, 1)
        for u in sorted(g_media.nodes):
            assert shacl_satisfies(g_media, Node(u), GeqCount(0, path, body))


def test_leq_is_not_geq_plus_one(g_media):
    rng = random.Random(17)
    p = GenParams(seed=17)
    foci = [Node(u) for u in sorted(g_media.nodes)] + [Val(w) for w in g_media.values]
    for _ in range(30):
        n = rng.randrange(0, 3)
        path = gen_shacl_path(rng, p, 2)
        body = gen_shacl_shape(rng, p, 1)
        for v in foci:
            assert shacl_satisfies(g_media, v, LeqCount(n, path, body)) == shacl_satisfies(
                g_media, v, Not(GeqCount(n + 1, path, body))
            )


def test_sugar_forms(g_media):
    assert shacl_satisfies(g_media, Node("u1"), exists(Step("email")))
    assert shacl_satisfies(
        g_media, Node("a1"), forall(Inverse(Step("hasAccess")), exists(Step("privileged")))
    )
    assert shacl_satisfies(g_media, Node("u1"), count_eq(1, Step("email")))


def test_select_exists_in_card(g_media_core):
    assert shacl_select(g_media_core, ExistsIn("card")) == [Val(int_v(1234))]


def test_select_empty_graph():
    g = build_graph([], [])
    assert shacl_select(g, ExistsOut("p")) == []
    assert shacl_select(g, SelConst(int_v(7))) == [Val(int_v(7))]


def test_select_exists_out_key(g_media):
    assert Node("u2") in shacl_select(g_media, ExistsOut("email"))


def test_validate_media(g_media, shacl_c1_c5):
    assert shacl_validate(g_media, shacl_c1_c5).valid


def test_validate_card_mutation(g_media, shacl_c1_c5):
    broken = build_graph(
        list(g_media.edges),
        [PropTriple(n, k, w) for (n, k), w in g_media.props.items() if k != "card"]
        + [PropTriple("a1", "card", str_v("oops"))],
    )
    report = shacl_validate(broken, shacl_c1_c5)
    assert not report.valid
    assert [(v.rule_index, v.focus) for v in report.violations] == [(0, Val(str_v("oops")))]


def test_each_path_is_normalised_once_per_run(monkeypatch):
    """A run pushes the inverses of each path object once, however many
    count atoms, rules and foci read it; an equal but distinct path gets
    its own entry, and a new run normalises again.  The reports are those
    of per-atom normalisation."""
    import triform.shacl as shacl_module

    g = gen_graph(GenParams(seed=3, node_count=12))
    back = Inverse(Concat(Step("p"), Inverse(Step("q"))))
    twin = Inverse(Concat(Step("p"), Inverse(Step("q"))))
    rules = [
        (ExistsOut("p"), And(GeqCount(1, back, Top()), LeqCount(2, back, exists(back)))),
        (ExistsIn("q"), Or(LeqCount(0, twin, Top()), GeqCount(2, back, exists(Star(twin))))),
        (ExistsOut("k1"), Eq(back, "p")),
    ]
    want = shacl_validate(g, rules)
    assert {v.rule_index for v in want.violations} == {0, 1, 2}
    calls = Counter()
    real = shacl_module.push_inv

    def counted(path, *args):
        calls[id(path)] += 1
        return real(path, *args)

    monkeypatch.setattr(shacl_module, "push_inv", counted)
    for run in (1, 2):
        assert shacl_validate(g, rules) == want
        assert {id(back), id(twin)} <= set(calls) and set(calls.values()) == {run}, calls


def test_validate_empty_schema(g_media):
    assert shacl_validate(g_media, []).valid


def test_paths_match_relational_oracle():
    rng = random.Random(23)
    mismatches = 0
    for seed in range(40):
        p = GenParams(seed=seed, node_count=5, edge_density=0.2)
        g = gen_graph(p)
        for _ in range(10):
            path = gen_shacl_path(rng, p, 4)
            for u in sorted(g.nodes):
                if eval_path(g, Node(u), path) != brute_path_oracle(g, Node(u), path):
                    mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# The set evaluator against the per-focus definition


class PerFocus:
    """SHACL satisfaction by its per-focus definition: recursive over the
    shape AST, with every path image taken from the relational oracle."""

    def __init__(self, g, registry=None):
        self.g = g
        self.registry = registry
        self.images = {}
        self.verdicts = {}

    def image(self, v, path):
        key = (v, id(path))
        if key not in self.images:
            self.images[key] = (path, brute_path_oracle(self.g, v, path))
        return self.images[key][1]

    def select(self, sel):
        g = self.g
        if isinstance(sel, SelConst):
            return {Val(sel.c)}
        fwd = isinstance(sel, ExistsOut)
        out = {Node(e.s if fwd else e.o) for e in g.edges if e.p == sel.q}
        return out | {Node(n) if fwd else Val(w) for (n, k), w in g.props.items() if k == sel.q}

    def sat(self, v, shape):
        key = (v, id(shape))
        if key not in self.verdicts:
            self.verdicts[key] = (shape, self._sat(v, shape))
        return self.verdicts[key][1]

    def _sat(self, v, shape):
        if isinstance(shape, Top):
            return True
        if isinstance(shape, TestConst):
            return isinstance(v, Val) and v.value == shape.c
        if isinstance(shape, TestType):
            return isinstance(v, Val) and value_type_member(v.value, shape.t, self.registry)
        if isinstance(shape, Closed):
            if isinstance(v, Val):
                return True
            names = {e.p for e in self.g.edges if e.s == v.id}
            names |= {k for (n, k) in self.g.props if n == v.id}
            return names <= shape.allowed
        if isinstance(shape, Eq):
            return self.image(v, shape.path) == self.image(v, Step(shape.p))
        if isinstance(shape, Disj):
            return not (self.image(v, shape.path) & self.image(v, Step(shape.p)))
        if isinstance(shape, Not):
            return not self.sat(v, shape.inner)
        if isinstance(shape, And):
            return self.sat(v, shape.left) and self.sat(v, shape.right)
        if isinstance(shape, Or):
            return self.sat(v, shape.left) or self.sat(v, shape.right)
        hits = sum(self.sat(u, shape.body) for u in self.image(v, shape.path))
        return hits >= shape.n if isinstance(shape, GeqCount) else hits <= shape.n


def judge_rules(g, rules, registry=None, extra_foci=()):
    """Check every (rule, focus) verdict of ``shacl_validate`` and of
    ``shacl_satisfies`` against the per-focus definition; also check
    ``shacl_satisfies`` at ``extra_foci``.  Returns the verdicts' counts."""
    judge = PerFocus(g, registry)
    report = shacl_validate(g, rules, registry)
    failing = {(viol.rule_index, viol.focus) for viol in report.violations}
    verdicts = Counter()
    for i, (sel, shape) in enumerate(rules):
        foci = judge.select(sel)
        assert shacl_select(g, sel) == sorted_foci(foci)
        assert report.stats[i].selected == len(foci)
        for v in foci:
            want = judge.sat(v, shape)
            assert ((i, v) not in failing) == want, (i, sel, shape, v)
            assert shacl_satisfies(g, v, shape, registry) == want, (shape, v)
            verdicts[want] += 1
        for v in extra_foci:
            assert shacl_satisfies(g, v, shape, registry) == judge.sat(v, shape), (shape, v)
    assert len(failing) == len(report.violations) == verdicts[False]
    return verdicts


@pytest.mark.parametrize("nodes, density", [(8, 0.18), (12, 0.12), (40, 0.04)])
def test_rule_focus_verdicts_equal_the_per_focus_definition(nodes, density):
    verdicts = Counter()
    for seed in range(100):
        p = GenParams(seed=seed, node_count=nodes, edge_density=density, prop_density=0.3)
        verdicts += judge_rules(gen_graph(p), gen_shacl_schema(p))
    assert verdicts[True] > 200 and verdicts[False] > 200, verdicts


def test_hand_cases_equal_the_per_focus_definition():
    even = ValueTypeRegistry()
    even.register("even", lambda w: w.tag == "int" and w.payload % 2 == 0)
    g = build_graph(
        [
            EdgeTriple("a", "p", "b"),
            EdgeTriple("b", "p", "c"),
            EdgeTriple("c", "p", "a"),
            EdgeTriple("a", "q", "a"),
            EdgeTriple("b", "q", "c"),
            EdgeTriple("d", "p", "d"),
            EdgeTriple("d", "q", "d"),
        ],
        [
            PropTriple("a", "k", int_v(2)),
            PropTriple("b", "k", int_v(3)),
            PropTriple("c", "k", int_v(2)),
            PropTriple("d", "m", str_v("x")),
        ],
    )
    off = int_v(98)  # an even constant that occurs nowhere in the graph
    shapes = [
        Closed(frozenset({"p", "k"})),
        Closed(frozenset()),
        Eq(Id(), "q"),
        Disj(Id(), "q"),
        Eq(Star(Step("p")), "p"),
        Disj(Star(Step("p")), "q"),
        Eq(Concat(Step("p"), Star(Step("p"))), "q"),
        Disj(Star(Inverse(Step("k"))), "q"),
        LeqCount(0, Step("p"), GeqCount(2, Inverse(Step("p")), Top())),
        LeqCount(0, Star(Step("p")), Not(GeqCount(1, Step("k"), TestType("even")))),
        GeqCount(1, Star(Inverse(Step("k"))), TestConst(off)),
        GeqCount(2, Concat(Inverse(Step("k")), Step("p")), Closed(frozenset({"p", "q"}))),
        Or(TestType("even"), GeqCount(1, Inverse(Step("k")), Closed(frozenset({"p", "q", "k"})))),
        And(TestType("even"), LeqCount(1, Inverse(Step("k")), Top())),
        Not(Or(TestConst(int_v(3)), Eq(Id(), "p"))),
    ]
    selectors = [ExistsOut("p"), ExistsIn("k"), ExistsIn("p"), SelConst(off), SelConst(int_v(2)), ExistsOut("m")]
    rules = [(sel, shape) for sel in selectors for shape in shapes]
    domain = [Node(u) for u in sorted(g.nodes)] + [Val(w) for w in g.values] + [Node("ghost"), Val(off)]
    verdicts = judge_rules(g, rules, even, domain)
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


def test_or_decides_its_right_branch_only_where_its_left_fails():
    asked = []
    registry = ValueTypeRegistry()
    registry.register("asked", lambda w: asked.append(w.payload) or True)
    g = build_graph([], [PropTriple(f"n{i}", "k", int_v(i)) for i in range(5)])
    owned = GeqCount(1, Inverse(Step("k")), Closed(frozenset({"k"})))
    shape = Or(TestConst(int_v(1)), Or(owned, TestType("asked")))
    assert shacl_validate(g, [(ExistsIn("k"), shape)], registry).valid
    assert asked == []  # every value has an owner with only its k property
    shape = Or(TestConst(int_v(1)), TestType("asked"))
    assert shacl_validate(g, [(ExistsIn("k"), shape)], registry).valid
    assert sorted(asked) == [0, 2, 3, 4]
