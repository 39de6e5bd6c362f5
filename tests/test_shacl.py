import random

from triform.harness import GenParams, brute_path_oracle, gen_graph, gen_shacl_path, gen_shacl_shape
from triform.model import EdgeTriple, Node, PropTriple, Val, build_graph, int_v, str_v
from triform.shacl import (
    And,
    Closed,
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
