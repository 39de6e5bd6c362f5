import itertools
import random
from collections import Counter, defaultdict

import pytest

import triform.harness as harness
import triform.pgschema as pgschema
from triform import examples
from triform.cogsl import cogsl_to_shacl
from triform.harness import (
    GenParams,
    brute_edge_type_member,
    brute_path_relation,
    brute_pg_path_oracle,
    brute_pg_relation,
    gen_cogsl_schema,
    gen_graph,
    gen_pg_path,
    gen_shacl_path,
    gen_shacl_schema,
)
from triform.model import (
    FWD,
    INV,
    CommonGraph,
    EdgeTriple,
    Node,
    PropTriple,
    SortError,
    Val,
    ValueTypeRegistry,
    build_graph,
    bool_v,
    elem_focus,
    int_v,
    str_v,
    value_sort_key,
    value_type_member,
)
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
    PgAnd,
    PgGeq,
    PgLeq,
    PgPath,
    PInv,
    PName,
    PNotPreds,
    PPred,
    PStar,
    PUnion,
    content_dnf,
    content_member,
    disjunct_member,
    edge_type_member,
    eval_pg_path,
    inv_key_path,
    key_path,
    path_image,
    path_relation,
    pg_satisfies,
    pg_select,
    pg_validate,
    pred_path,
    push_inv,
    shape_atoms,
    validate_graph_type,
)
from triform.shacl import Step, eval_path, shacl_validate

from helpers import edge_type_to_path, filter_path, loose_graph_type, normalize_edge_type, sorted_foci

EMAIL_CARD = CBoth(CField("email", "str"), CEither(CField("card", "int"), CEmpty()))


def brute_content_member(r, t):
    """Independent membership test by enumerating record splits."""
    if isinstance(t, CAny):
        return True
    if isinstance(t, CEmpty):
        return not r
    if isinstance(t, CField):
        return set(r) == {t.k} and value_type_member(r[t.k], t.t)
    if isinstance(t, CEither):
        return brute_content_member(r, t.left) or brute_content_member(r, t.right)
    if isinstance(t, CBoth):
        keys = sorted(r)
        for assignment in itertools.product((0, 1, 2), repeat=len(keys)):
            r1 = {k: r[k] for k, side in zip(keys, assignment) if side in (0, 2)}
            r2 = {k: r[k] for k, side in zip(keys, assignment) if side in (1, 2)}
            if brute_content_member(r1, t.left) and brute_content_member(r2, t.right):
                return True
        return False
    raise AssertionError(t)


def test_content_member_examples():
    assert content_member({"email": str_v("x")}, EMAIL_CARD)
    assert content_member({"email": str_v("x"), "card": int_v(5)}, EMAIL_CARD)
    assert not content_member({"email": str_v("x"), "phone": str_v("y")}, EMAIL_CARD)
    assert content_member({}, CEmpty())
    assert not content_member({"k": int_v(1)}, CBoth(CField("k", "int"), CField("k", "str")))


def test_content_dnf_examples():
    dnf = content_dnf(CBoth(CField("a", "int"), CEither(CField("b", "str"), CEmpty())))
    assert [(d.reqs, d.open) for d in dnf] == [
        ((("a", "int"), ("b", "str")), False),
        ((("a", "int"),), False),
    ]
    assert [(d.reqs, d.open) for d in content_dnf(CAny())] == [((), True)]
    dnf2 = content_dnf(CBoth(CEither(CField("a", "int"), CField("b", "str")), CAny()))
    assert [(d.reqs, d.open) for d in dnf2] == [((("a", "int"),), True), ((("b", "str"),), True)]


def test_content_member_matches_brute_split_enumeration():
    rng = random.Random(61)
    values = [int_v(1), str_v("s"), bool_v(True), int_v(0)]
    keys = ["a", "b", "c"]

    def gen_type(depth):
        if depth == 0 or rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.2:
                return CAny()
            if roll < 0.4:
                return CEmpty()
            return CField(rng.choice(keys), rng.choice(["int", "str", "bool", "any"]))
        ctor = CBoth if rng.random() < 0.5 else CEither
        return ctor(gen_type(depth - 1), gen_type(depth - 1))

    records = []
    for n in range(len(keys) + 1):
        for combo in itertools.combinations(keys, n):
            records.append({k: values[i % len(values)] for i, k in enumerate(combo)})
    for _ in range(150):
        t = gen_type(4)
        for r in records:
            assert content_member(r, t) == brute_content_member(r, t)
            assert content_member(r, t) == any(disjunct_member(r, d) for d in content_dnf(t))


def test_eval_key_step(g_media):
    assert eval_pg_path(g_media, Node("u2"), key_path("email")) == {Val(str_v("d@d.d"))}


def test_eval_trivial_filter():
    g = build_graph([EdgeTriple("u", "p", "u")], [])
    path = filter_path(FOfType(CBoth(CEmpty(), CAny())))
    assert eval_pg_path(g, Node("u"), path) == {Node("u")}


def test_eval_star_not_preds():
    g = build_graph([EdgeTriple("a", "p", "b"), EdgeTriple("b", "q", "c")], [])
    path = PgPath(None, PStar(PNotPreds(frozenset())), None)
    assert eval_pg_path(g, Node("a"), path) == {Node("a"), Node("b"), Node("c")}


def test_filters_are_subidentity(g_media):
    kinds = [
        FKeyIs("privileged", bool_v(True)),
        FNotKeyIs("privileged", bool_v(True)),
        FOfType(CBoth(CField("email", "str"), CAny())),
        FNotOfType(CAny()),
    ]
    for kind in kinds:
        for u in sorted(g_media.nodes):
            assert eval_pg_path(g_media, Node(u), filter_path(kind)) <= {Node(u)}


def test_filter_requires_graph_membership():
    g = build_graph([EdgeTriple("a", "p", "b")], [])
    assert eval_pg_path(g, Node("ghost"), filter_path(FOfType(CAny()))) == set()


def test_star_outside_graph_is_empty(g_media):
    # the reflexive part of a PG star covers graph nodes only
    for body in (PStar(PPred("invited")), PStar(PNotPreds(frozenset()))):
        assert eval_pg_path(g_media, Node("ghost"), PgPath(None, body, None)) == set()
    assert eval_pg_path(g_media, Node("u3"), PgPath(None, PStar(PPred("invited")), None)) == {
        Node("u3"),
        Node("u2"),
    }


def test_pred_step_ignores_keys(g_media):
    # PG keeps edge and key steps apart; SHACL's step covers both
    assert eval_pg_path(g_media, Node("u2"), pred_path("email")) == set()
    assert eval_pg_path(g_media, Node("u2"), PgPath(None, PInv(PPred("email")), None)) == set()
    assert eval_path(g_media, Node("u2"), Step("email")) == {Val(str_v("d@d.d"))}


def test_key_step_ignores_predicates(g_media):
    assert eval_pg_path(g_media, Node("u3"), key_path("invited")) == set()
    assert eval_pg_path(g_media, Node("u3"), PgPath(None, PPred("invited"), "invited")) == set()
    assert eval_path(g_media, Node("u3"), Step("invited")) == {Node("u2")}


def test_star_never_yields_values(g_media):
    path = PgPath(None, PStar(PUnion(PPred("invited"), PInv(PPred("hasAccess")))), None)
    for u in sorted(g_media.nodes):
        assert all(isinstance(f, Node) for f in eval_pg_path(g_media, Node(u), path))


def test_sort_errors():
    g = build_graph([], [PropTriple("u", "k", int_v(1))])
    with pytest.raises(SortError):
        eval_pg_path(g, Val(int_v(1)), pred_path("p"))
    with pytest.raises(SortError):
        eval_pg_path(g, Node("u"), inv_key_path("k"))


def test_validate_media(g_media, pg_c1_c5):
    assert pg_validate(g_media, pg_c1_c5).valid


def test_validate_closed_graph_style():
    # every node: privileged plus card-or-email, nothing else; only known predicates
    whitelist = CBoth(
        CField("privileged", "bool"), CEither(CField("card", "int"), CField("email", "str"))
    )
    rules = [
        (PgGeq(1, filter_path(FOfType(CAny()))), PgGeq(1, filter_path(FOfType(whitelist)))),
        (
            PgGeq(1, filter_path(FOfType(CAny()))),
            PgLeq(0, PgPath(None, PNotPreds(frozenset({"ownsAccount", "hasAccess", "invited"})), None)),
        ),
    ]
    good = build_graph(
        [EdgeTriple("u", "ownsAccount", "a")],
        [
            PropTriple("u", "privileged", bool_v(True)),
            PropTriple("u", "email", str_v("x")),
            PropTriple("a", "privileged", bool_v(False)),
            PropTriple("a", "card", int_v(1)),
        ],
    )
    assert pg_validate(good, rules).valid
    with_phone = build_graph(
        list(good.edges),
        [PropTriple(n, k, w) for (n, k), w in good.props.items()]
        + [PropTriple("u", "phone", str_v("123"))],
    )
    report = pg_validate(with_phone, rules)
    assert not report.valid
    assert report.violated_rules() == [0]


def test_validate_empty_rules(g_media):
    assert pg_validate(g_media, []).valid


def test_validate_rejects_mixed_sorts():
    rules = [(PgGeq(1, inv_key_path("k")), PgGeq(1, pred_path("p")))]
    with pytest.raises(SortError):
        pg_validate(build_graph([], []), rules)


def test_c4_flags_unprivileged_accessors(g_media, pg_c1_c5, mutations):
    broken, idx = mutations["unprivileged_accessor"]
    report = pg_validate(broken, pg_c1_c5)
    assert report.violated_rules() == [idx]
    assert [v.focus for v in report.violations] == [Node("a1")]


def test_edge_type_member_examples(g_media):
    e = EdgeTriple("u1", "ownsAccount", "a1")
    t = ET(CBoth(CField("email", "str"), CAny()), frozenset({"ownsAccount"}), CAny())
    assert edge_type_member(g_media, e, t)
    assert edge_type_member(g_media, e, ET(CAny(), None, CAny()))
    assert not edge_type_member(g_media, e, ET(CAny(), frozenset({"invited"}), CAny()))


def test_edge_type_both_compatible_union():
    g = build_graph(
        [EdgeTriple("u", "p", "v")],
        [PropTriple("u", "a", int_v(1)), PropTriple("u", "b", str_v("s"))],
    )
    t = EBoth(
        ET(CBoth(CField("a", "int"), CAny()), None, CAny()),
        ET(CBoth(CField("b", "str"), CAny()), frozenset({"p"}), CAny()),
    )
    assert edge_type_member(g, EdgeTriple("u", "p", "v"), t)
    t2 = EBoth(ET(CField("a", "int"), None, CEmpty()), ET(CField("b", "str"), None, CEmpty()))
    assert edge_type_member(g, EdgeTriple("u", "p", "v"), t2)
    t3 = EBoth(ET(CField("a", "int"), None, CEmpty()), ET(CField("a", "str"), None, CEmpty()))
    assert not edge_type_member(g, EdgeTriple("u", "p", "v"), t3)


def test_normalize_edge_type_examples():
    split = normalize_edge_type(ET(CEither(CField("a", "int"), CField("b", "str")), None, CAny()))
    assert len(split) == 2
    meet = normalize_edge_type(
        EBoth(ET(CAny(), frozenset({"p", "q"}), CAny()), ET(CAny(), frozenset({"q"}), CAny()))
    )
    assert len(meet) == 1 and meet[0].labels == frozenset({"q"})
    prim = ET(CField("a", "int"), frozenset({"p"}), CEmpty())
    assert normalize_edge_type(prim) == [prim]


def test_negated_edge_type_nine_terms():
    t = EEither(
        ET(CField("k1", "int"), frozenset({"p"}), CField("k2", "str")),
        ET(CField("k3", "bool"), frozenset({"q"}), CAny()),
    )
    neg = edge_type_to_path(t, negated=True)

    def union_terms(p):
        if isinstance(p, PUnion):
            return union_terms(p.left) + union_terms(p.right)
        return [p]

    assert len(union_terms(neg)) == 9


def test_edge_type_path_agreement():
    rng = random.Random(67)

    def gen_content(depth):
        if depth == 0 or rng.random() < 0.5:
            roll = rng.random()
            if roll < 0.25:
                return CAny()
            if roll < 0.4:
                return CEmpty()
            return CField(rng.choice(["k1", "k2"]), rng.choice(["int", "str", "any"]))
        ctor = CBoth if rng.random() < 0.5 else CEither
        return ctor(gen_content(depth - 1), gen_content(depth - 1))

    def gen_et(depth):
        if depth == 0 or rng.random() < 0.55:
            labels = None if rng.random() < 0.3 else frozenset(
                rng.sample(["p", "q", "r"], rng.randrange(0, 3))
            )
            return ET(gen_content(1), labels, gen_content(1))
        ctor = EBoth if rng.random() < 0.5 else EEither
        return ctor(gen_et(depth - 1), gen_et(depth - 1))

    checked = 0
    for seed in range(80):
        params = GenParams(seed=seed, node_count=5, edge_density=0.25, prop_density=0.4)
        g = gen_graph(params)
        t = gen_et(2)
        prims = normalize_edge_type(t)
        if len(prims) > 6:  # keep the 3^k negation grid small
            continue
        pos = PgPath(None, edge_type_to_path(t, negated=False), None)
        neg = PgPath(None, edge_type_to_path(t, negated=True), None)
        for e in sorted(g.edges, key=lambda x: (x.s, x.p, x.o)):
            want = brute_edge_type_member(g, e, t)
            assert edge_type_member(g, e, t) == want
            assert any(edge_type_member(g, e, pr) for pr in prims) == want
        for u in sorted(g.nodes):
            img_pos = eval_pg_path(g, Node(u), pos)
            img_neg = eval_pg_path(g, Node(u), neg)
            for w in sorted(g.nodes):
                want_pos = any(
                    e.s == u and e.o == w and edge_type_member(g, e, t) for e in g.edges
                )
                want_neg = any(
                    e.s == u and e.o == w and not edge_type_member(g, e, t) for e in g.edges
                )
                assert (Node(w) in img_pos) == want_pos
                assert (Node(w) in img_neg) == want_neg
                checked += 1
    assert checked > 1000


def test_pg_paths_match_relational_oracle():
    g = build_graph(
        [
            EdgeTriple("u1", "ownsAccount", "a1"),
            EdgeTriple("u1", "hasAccess", "a1"),
            EdgeTriple("u2", "hasAccess", "a1"),
            EdgeTriple("u1", "invited", "u2"),
        ],
        [
            PropTriple("u1", "email", str_v("a@a.a")),
            PropTriple("u2", "privileged", bool_v(True)),
            PropTriple("a1", "card", int_v(1234)),
        ],
    )
    paths = [
        key_path("email"),
        inv_key_path("email"),
        PgPath(None, PConcat(PInv(PPred("hasAccess")), PFilter(FKeyIs("privileged", bool_v(True)))), None),
        PgPath("card", PStar(PInv(PPred("ownsAccount"))), "email"),
        PgPath(None, PUnion(PPred("invited"), PStar(PPred("invited"))), None),
        PgPath(None, PFilter(FNotOfType(CBoth(CField("email", "str"), CAny()))), None),
    ]
    for path in paths:
        foci = (
            [Val(w) for w in g.values]
            if path.src_key is not None
            else [Node(u) for u in sorted(g.nodes)]
        )
        for v in foci:
            assert eval_pg_path(g, v, path) == brute_pg_path_oracle(g, v, path)


def test_graph_type_validation(g_media, pg_c1_c5):
    loose = loose_graph_type(pg_c1_c5)
    assert validate_graph_type(g_media, loose).valid

    account = CBoth(CBoth(CField("card", "int"), CField("privileged", "bool")), CAny())
    user = CBoth(CField("email", "str"), CAny())
    gt = GraphType(
        (account, user),
        (ET(CAny(), None, CAny()),),
        tuple(pg_c1_c5),
    )
    report = validate_graph_type(g_media, gt)
    assert report.node_violations == ["a2"]  # a2 has no card
    assert not report.valid

    strict_edges = GraphType(
        (CAny(),),
        (ET(user, frozenset({"ownsAccount", "hasAccess", "invited"}), CAny()),),
        (),
    )
    report2 = validate_graph_type(g_media, strict_edges)
    assert report2.valid


def test_graph_type_empty_graph():
    gt = GraphType((CEmpty(),), (), ())
    assert validate_graph_type(build_graph([], []), gt).valid


def test_pg_and_counts(g_media):
    shape = PgAnd(PgGeq(1, key_path("email")), PgLeq(5, pred_path("hasAccess")))
    assert pg_satisfies(g_media, Node("u2"), shape)


def per_focus_select(g, sel, registry=None):
    """The definition of selection: the candidates of the selector's sort
    whose path image is nonempty."""
    if sel.path.src_key is not None:
        candidates = [Val(w) for w in g.values]
    else:
        candidates = [Node(u) for u in g.nodes]
    return sorted_foci(v for v in candidates if eval_pg_path(g, v, sel.path, registry))


def test_select_equals_per_focus_definition():
    seen = {"value_sorted": 0, "star": 0, "filter": 0, "dst_key": 0}

    def note(path):
        text = repr(path)
        seen["value_sorted"] += path.src_key is not None
        seen["star"] += "PStar" in text
        seen["filter"] += "PFilter" in text
        seen["dst_key"] += path.dst_key is not None

    checked = 0
    for n in (8, 12, 40):
        for seed in range(40):
            params = GenParams(seed=seed, node_count=n, schema_size_budget=5)
            g = gen_graph(params)
            rng = random.Random(f"select-{n}-{seed}")
            sels = [sel for sel, _ in gen_cogsl_schema(params)]
            sels += [PgGeq(1, gen_pg_path(rng, params)) for _ in range(6)]
            for sel in sels:
                got = pg_select(g, sel)
                assert got == per_focus_select(g, sel), (n, seed, sel)
                # foci outside the graph are never selected
                assert all(v.id in g.nodes if isinstance(v, Node) else v.value in g.values for v in got)
                note(sel.path)
                checked += 1
    assert checked > 1000
    assert min(seen.values()) > 50, seen
    # a reflexive star selects every graph node and no node outside it
    g = gen_graph(GenParams(seed=3, node_count=8))
    star = PgGeq(1, PgPath(None, PStar(PPred("p")), None))
    assert pg_select(g, star) == sorted_foci(Node(u) for u in g.nodes)
    assert not eval_pg_path(g, Node("ghost"), star.path)


def test_select_by_name_index_equals_per_focus_definition(monkeypatch):
    """Selectors with a ``dst_key`` range, or with a body that inverts to
    a name step from every node, select what the per-element definition
    does; and selection takes both sides of a name step's by-size choice
    (the name's near ends read once, from its rows or its grouped map,
    or each source looked up in the map)."""
    calls = Counter()
    ends, grouped_ends, name_image = CommonGraph.ends, CommonGraph.grouped_ends, pgschema._name_image

    class Counted(dict):
        def __contains__(self, x):
            calls["lookup"] += 1
            return super().__contains__(x)

    def counted_name_image(g, q, inverse, sources, edges_only=False):
        before = calls["lookup"]
        out = name_image(g, q, inverse, sources, edges_only)
        if sources and not (edges_only and q in g.keys):  # else neither side is read
            calls["adjacency" if calls["lookup"] > before else "scan"] += 1
        return out

    monkeypatch.setattr(CommonGraph, "ends", lambda g, q, d: Counted(ends(g, q, d)))
    monkeypatch.setattr(
        CommonGraph, "grouped_ends", lambda g, q, d: None if (m := grouped_ends(g, q, d)) is None else Counted(m)
    )
    monkeypatch.setattr(pgschema, "_name_image", counted_name_image)
    seen = Counter()
    for n in (8, 12, 40):
        for seed in range(6):
            params = GenParams(seed=seed, node_count=n)
            g = gen_graph(params)
            q, r = params.pred_pool[:2]
            bodies = [None, PPred(q), PInv(PPred(q)), PConcat(PPred(q), PInv(PPred(r))), PStar(PPred(r))]
            for body, src, dst in itertools.product(bodies, (None, "k1", q), (None, "k1", "k2", q)):
                if body is None and src is None and dst is None:
                    continue
                sel = PgGeq(1, PgPath(src, body, dst))
                calls.clear()
                got = pg_select(g, sel)
                seen["scan"] += calls["scan"] > 0
                seen["adjacency"] += calls["adjacency"] > 0
                assert got == per_focus_select(g, sel), (n, seed, sel)
    assert min(seen["scan"], seen["adjacency"]) > 20, seen


def test_name_steps_and_key_filters_equal_a_scan_of_the_graph():
    """A name step (PName: edges or the key; PPred: edges only) or its
    inverse, and a key-is filter, from source sets of every size, equal a
    scan of the graph, on both sides of their by-size choice (the name's
    triples or the value's owners, against the sources' adjacency)."""
    for n in (8, 12, 40):
        params = GenParams(seed=n, node_count=n)
        g = gen_graph(params)
        elems = sorted(g.nodes) + sorted(g.values, key=value_sort_key) + ["ghost"]
        rng = random.Random(n)
        sizes = (0, 1, 3, len(elems) // 2, len(elems))
        for q in sorted(g.preds | g.keys) + ["nowhere"]:
            for step, inverse in itertools.product((PName(q), PPred(q)), (False, True)):
                i, j = (2, 0) if inverse else (0, 2)
                for size in sizes:
                    sources = set(rng.sample(elems, size))
                    expected = {
                        t[j]
                        for t in g.triple_view()
                        if t[1] == q and t[i] in sources and (type(step) is PName or type(t) is EdgeTriple)
                    }
                    assert path_image(g, PInv(step) if inverse else step, sources) == expected
        for k, c in itertools.product(params.key_pool, params.value_pool):
            for size in sizes:
                sources = set(rng.sample(elems, size))
                expected = {u for u in sources if u in g.nodes and g.prop(u, k) == c}
                assert path_image(g, PFilter(FKeyIs(k, c)), sources) == expected


def _small_registry(member):
    registry = ValueTypeRegistry()
    registry.register("small", member)
    return registry


def test_graph_type_check_equals_per_element_definition():
    # two registries that give the custom type "small" different members:
    # a membership memo that ignored the registry, or outlived its run,
    # would carry the first run's verdicts into the second
    registries = (
        _small_registry(lambda w: w.tag == "int" and 0 <= w.payload < 10),
        _small_registry(lambda w: w.tag == "str"),
    )
    keys = ("k1", "k2", "k3", "k4", "k5")
    values = (int_v(0), int_v(7), int_v(1234), str_v("x"), bool_v(True))
    rng = random.Random(71)

    def gen_content(depth):
        if depth == 0 or rng.random() < 0.45:
            roll = rng.random()
            if roll < 0.2:
                return CAny()
            if roll < 0.3:
                return CEmpty()
            return CField(rng.choice(keys), rng.choice(["int", "str", "small", "any"]))
        ctor = CBoth if rng.random() < 0.5 else CEither
        return ctor(gen_content(depth - 1), gen_content(depth - 1))

    def gen_et(depth):
        if depth == 0 or rng.random() < 0.5:
            labels = None if rng.random() < 0.3 else frozenset(rng.sample(["p", "q"], rng.randrange(0, 3)))
            return ET(gen_content(2), labels, gen_content(2))
        ctor = EBoth if rng.random() < 0.5 else EEither
        return ctor(gen_et(depth - 1), gen_et(depth - 1))

    def gen_hub_graph():
        # a hub with narrow records pointing at it from wide accessors
        # (3 to 5 keys), plus a few narrow nodes and edges among them
        edges, props = [], []
        for k in rng.sample(keys, rng.randrange(0, 3)):
            props.append(PropTriple("hub", k, rng.choice(values)))
        for j in range(4):
            x = f"x{j}"
            edges.append(EdgeTriple(x, rng.choice(["p", "q"]), "hub"))
            for k in rng.sample(keys, rng.randrange(3, 6)):
                props.append(PropTriple(x, k, rng.choice(values)))
        for j in range(3):
            u = f"u{j}"
            edges.append(EdgeTriple(u, rng.choice(["p", "q"]), rng.choice(["hub", "u0", "u1", "u2"])))
            for k in rng.sample(keys, rng.randrange(0, 3)):
                props.append(PropTriple(u, k, rng.choice(values)))
        return build_graph(edges, props)

    differ = node_bad = edge_bad = 0
    for _ in range(30):
        g = gen_hub_graph()
        gt = GraphType(
            tuple(gen_content(2) for _ in range(rng.randrange(1, 4))),
            (EBoth(gen_et(0), gen_et(0)),) + tuple(gen_et(1) for _ in range(rng.randrange(0, 2))),
            (),
        )
        verdicts = []
        for registry in registries:
            report = validate_graph_type(g, gt, registry)
            want_nodes = sorted(
                u for u in g.nodes if not any(content_member(g.node_props(u), t, registry) for t in gt.node_types)
            )
            want_edges = sorted(
                (e for e in g.edges if not any(brute_edge_type_member(g, e, t, registry) for t in gt.edge_types)),
                key=lambda e: (e.s, e.p, e.o),
            )
            assert report.node_violations == want_nodes
            assert report.edge_violations == want_edges
            verdicts.append((want_nodes, want_edges))
            node_bad += len(want_nodes)
            edge_bad += len(want_edges)
        differ += verdicts[0] != verdicts[1]
    assert differ >= 3 and node_bad and edge_bad, (differ, node_bad, edge_bad)


@pytest.mark.parametrize("nodes", [8, 12, 40])
def test_content_members_equal_per_record_membership(nodes, monkeypatch):
    # the set evaluator of content types, and the type filters through
    # it, against per-record membership; the second registry re-registers
    # "int" (even ints only), so a value test by tag would disagree
    even = ValueTypeRegistry()
    even.register("int", lambda w: w.tag == "int" and w.payload % 2 == 0)
    rng = random.Random(nodes)
    keys = ("k1", "k2", "k3")

    def gen_content(depth):
        if depth == 0 or rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.15:
                return CAny()
            if roll < 0.3:
                return CEmpty()
            return CField(rng.choice(keys), rng.choice(["int", "str", "bool", "any"]))
        ctor = CBoth if rng.random() < 0.5 else CEither
        return ctor(gen_content(depth - 1), gen_content(depth - 1))

    cases = []
    for seed in range(40):
        g = gen_graph(GenParams(seed=seed, node_count=nodes))
        # values and nodes outside the graph are never members
        elems = sorted(g.nodes) + ["ghost1", "ghost2"] + sorted(g.values, key=value_sort_key) + [int_v(99)]
        for _ in range(6):
            t = gen_content(3)
            sources = set(rng.sample(elems, rng.randrange(len(elems) + 1)))
            for registry in (None, even):
                want = {u for u in sources if u in g.nodes and content_member(g.node_props(u), t, registry)}
                cases.append((g, t, sources, registry, want))
    sides = Counter()

    def counted(side, fn):
        def wrapped(*args):
            sides[side] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(pgschema, "_pair_owners", counted("index", pgschema._pair_owners))
    monkeypatch.setattr(pgschema, "content_member", counted("record", pgschema.content_member))
    kinds = Counter()
    for g, t, sources, registry, want in cases:
        assert pgschema.content_members(g, t, sources, registry) == want, (t, sources)
        assert path_image(g, PFilter(FOfType(t)), sources, registry) == want
        assert path_image(g, PFilter(FNotOfType(t)), sources, registry) == (sources & g.nodes) - want
        for d in t.dnf:
            kinds["closed" if not d.open else "open"] += 1
            kinds["no requirement"] += not d.reqs
        kinds["member"] += len(want)
        kinds["outside"] += len(sources - want)
    assert min(sides["index"], sides["record"]) > 100, sides
    assert min(kinds.values()) > 100, kinds


def per_focus_satisfies(g, v, shape):
    """The definition of PG satisfaction: every count atom bounds the
    number of distinct elements in the focus's image, taken from the
    relational oracle."""
    for atom in shape_atoms(shape):
        size = len(brute_pg_path_oracle(g, v, atom.path))
        if not (size >= atom.n if isinstance(atom, PgGeq) else size <= atom.n):
            return False
    return True


@pytest.mark.parametrize("nodes, density", [(8, 0.18), (12, 0.12), (40, 0.04)])
def test_rule_focus_verdicts_equal_per_focus_counting(nodes, density):
    verdicts = Counter()
    atoms = Counter()
    for seed in range(100):
        p = GenParams(seed=seed, node_count=nodes, edge_density=density, schema_size_budget=5)
        g = gen_graph(p)
        rules = gen_cogsl_schema(p)
        report = pg_validate(g, rules)
        failing = {(viol.rule_index, viol.focus) for viol in report.violations}
        for i, (sel, shape) in enumerate(rules):
            foci = per_focus_select(g, sel)
            assert report.stats[i].selected == len(foci)
            for v in foci:
                want = per_focus_satisfies(g, v, shape)
                assert ((i, v) not in failing) == want, (nodes, seed, i, v)
                assert pg_satisfies(g, v, shape) == want
                verdicts[want] += 1
                for atom in shape_atoms(shape):
                    atoms["src_key"] += atom.path.src_key is not None
                    atoms["dst_key"] += atom.path.dst_key is not None
        assert len(failing) == len(report.violations)
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert atoms["src_key"] > 100 and atoms["dst_key"] > 100, atoms


def test_key_images_count_each_value_once():
    # c reaches three k-owners through p, two of which share a value;
    # the value 1 is owned through k by a and b, and reaches c twice
    g = build_graph(
        [EdgeTriple("c", "p", "a"), EdgeTriple("c", "p", "b"), EdgeTriple("c", "p", "d")],
        [
            PropTriple("a", "k", int_v(1)),
            PropTriple("b", "k", int_v(1)),
            PropTriple("d", "k", int_v(2)),
            PropTriple("c", "m", str_v("x")),
        ],
    )
    to_values = PgPath(None, PPred("p"), "k")
    back_to_c = PgPath("k", PInv(PPred("p")), None)
    rules = [
        (PgGeq(1, pred_path("p")), PgLeq(2, to_values)),
        (PgGeq(1, pred_path("p")), PgGeq(3, to_values)),
        (PgGeq(1, inv_key_path("k")), PgLeq(1, back_to_c)),
        (PgGeq(1, inv_key_path("k")), PgLeq(1, PgPath("k", PInv(PPred("p")), "m"))),
    ]
    report = pg_validate(g, rules)
    assert [(viol.rule_index, viol.focus) for viol in report.violations] == [(1, Node("c"))]
    assert pg_satisfies(g, Node("c"), rules[0][1]) and not pg_satisfies(g, Node("c"), rules[1][1])
    for v in (Val(int_v(1)), Val(int_v(2))):
        assert len(brute_pg_path_oracle(g, v, back_to_c)) == 1
        assert pg_satisfies(g, v, rules[3][1])


def by_source(pairs):
    """A relation given as pairs of foci, as each source's image."""
    images = defaultdict(set)
    for x, y in pairs:
        images[x].add(y)
    return images


@pytest.mark.parametrize("nodes", [8, 12, 40])
def test_relation_equals_the_path_oracles_per_source(nodes):
    """The per-source relation evaluator, from every element at once,
    maps each element to its image under the relational oracle, with no
    element twice (the count atoms use ``len``): PG-paths over the full
    grammar (star, union, inverse, negated predicate sets, filters,
    ``src_key`` and ``dst_key``), their bodies against :func:`path_image`
    of the element alone, and SHACL paths (name steps, ``id``)."""
    shapes = Counter()
    for seed in range(4):
        params = GenParams(seed=seed, node_count=nodes)
        g = gen_graph(params)
        rng = random.Random(f"relation-{nodes}-{seed}")
        nodes_in, values = set(g.nodes) | {"ghost"}, set(g.values)
        everything = nodes_in | values
        for _ in range(12):
            path = gen_pg_path(rng, params)
            elems = values if path.src_key is not None else nodes_in
            images = pgschema._pg_relation(g, path, elems, None)
            oracle = by_source(brute_pg_relation(g, path))
            assert images.keys() <= elems
            for x in elems:
                img = images.get(x, ())
                assert len(img) == len(set(img)), (path, x)
                assert {elem_focus(y) for y in img} == oracle[elem_focus(x)], (nodes, seed, path, x)
                shapes[bool(img), len(img) > 1] += 1
            if path.body is not None:
                body = path.normal_body
                images = path_relation(g, body, everything)
                for x in everything:
                    img = images.get(x, ())
                    assert len(img) == len(set(img)) and set(img) == path_image(g, body, {x}), (body, x)
        for _ in range(6):
            path = gen_shacl_path(rng, params)
            images = path_relation(g, push_inv(path), everything)
            oracle = by_source(brute_path_relation(g, path, Node("ghost")))
            for x in everything:
                img = images.get(x, ())
                assert len(img) == len(set(img)), (path, x)
                assert {elem_focus(y) for y in img} == oracle[elem_focus(x)], (path, x)
    assert shapes[True, True] > 20 and shapes[False, False] > 20, shapes


def test_no_count_atom_walks_a_path_per_focus(monkeypatch):
    """PG, SHACL (fixture or compiled from PG) and graph-type validation
    of the media graph and of a 40-node fuzz graph give the same reports
    when :func:`path_image` refuses to start from a single element: a
    count atom takes its images from one relation call over all its
    foci.  Only calls from outside the evaluator count; a sub-path may
    meet one element.  Validation leaves every name's ``ends`` map as a
    fresh graph groups it, since images alias those maps."""
    params = GenParams(seed=3, node_count=40)
    media_pg, fuzz_pg = examples.media_pg_rules(), gen_cogsl_schema(params)
    any_edge, pq_edge = ET(CAny(), None, CAny()), ET(CAny(), frozenset({"p", "q"}), CAny())
    cases = [
        (
            examples.media_graph,
            media_pg,
            examples.media_shacl_rules(),
            GraphType((EMAIL_CARD, CBoth(CField("card", "any"), CAny())), (any_edge,), tuple(media_pg)),
        ),
        (
            lambda: gen_graph(params),
            fuzz_pg,
            gen_shacl_schema(params),
            GraphType((CBoth(CField("k1", "any"), CAny()), CEmpty()), (pq_edge,), tuple(fuzz_pg)),
        ),
    ]

    def validators(pg_rules, shacl_rules, graph_type):
        return (
            lambda g: pg_validate(g, pg_rules),
            lambda g: shacl_validate(g, shacl_rules),
            lambda g: shacl_validate(g, cogsl_to_shacl(pg_rules)),
            lambda g: validate_graph_type(g, graph_type),
        )

    expected = [[check(make()) for check in validators(*schemas)] for make, *schemas in cases]
    walk, depth, calls = pgschema.path_image, [0], Counter()

    def guarded(g, path, sources, registry=None):
        if depth[0] == 0:
            calls["outer"] += 1
            assert len(sources) != 1, f"path walked from one focus: {path!r}"
        depth[0] += 1
        try:
            return walk(g, path, sources, registry)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pgschema, "path_image", guarded)
    for (make, *schemas), reports in zip(cases, expected):
        fresh = make()
        for check, want in zip(validators(*schemas), reports):
            g = make()
            assert check(g) == want
            for name, d in itertools.product(sorted(g.preds | g.keys), (FWD, INV)):
                got = g.grouped_ends(name, d)
                if got is not None:
                    calls["grouped"] += 1
                    assert got == fresh.ends(name, d), (check, name, d)
    assert calls["grouped"] > 20 and calls["outer"] > 0, calls  # the selectors take the patched function
