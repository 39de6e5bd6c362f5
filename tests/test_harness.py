import pytest

import triform.harness as harness
from triform.harness import (
    GenParams,
    brute_match_oracle,
    brute_path_oracle,
    brute_path_relation,
    brute_pg_path_oracle,
    brute_pg_relation,
    copyswap,
    differential_check,
    double,
    gen_cn_neighbourhood,
    gen_cogsl_schema,
    gen_graph,
    gen_shacl_schema,
    gen_shex_schema,
    run_campaign,
    shacl_max_bound,
    shrink_divergence,
    similar,
)
from triform.examples import counting_pair, counting_shacl_rule, counting_shex_shape
from triform.model import (
    FWD,
    EdgeNotInGraph,
    EdgeTriple,
    InstanceTooLarge,
    Node,
    PropTriple,
    Val,
    build_graph,
    int_v,
    str_v,
)
from triform.report import ValidationReport, Violation
from triform.pgschema import PgPath, PPred, PStar
from triform.shacl import GeqCount, Id, Inverse, LeqCount, Not, Star, Step, Top, shacl_validate
from triform.shex import (
    NO_NAMES,
    TC,
    Eps,
    HalfOpen,
    Open,
    Seq,
    SNeigh,
    match_triple_expr,
    top_shape,
)
from triform import cogsl
from triform.cogsl import check_common, cogsl_to_shacl, cogsl_validate


def test_gen_graph_empty():
    assert gen_graph(GenParams(seed=1, node_count=0)) == build_graph([], [])


def test_gen_graph_deterministic():
    p = GenParams(seed=42, node_count=7)
    assert gen_graph(p) == gen_graph(p)
    assert gen_cogsl_schema(p) == gen_cogsl_schema(p)
    assert gen_shacl_schema(p) == gen_shacl_schema(p)
    assert gen_shex_schema(p) == gen_shex_schema(p)
    tuned = dict(edge_density=0.5, value_pool=(int_v(7), str_v("x")), key_pool=("k",), max_count_n=5)
    reseeded = GenParams(seed=1, node_count=7, **tuned).with_seed(42)
    assert reseeded == GenParams(seed=42, node_count=7, **tuned)


def test_gen_schema_budget_one():
    rules = gen_cogsl_schema(GenParams(seed=3, schema_size_budget=1))
    assert len(rules) == 1
    assert check_common(rules).in_fragment


def test_double_and_copyswap_shapes():
    g = build_graph(
        [EdgeTriple("u", "p", "v")], [PropTriple("u", "k", int_v(1))]
    )
    doubled, d = double(g)
    assert len(doubled.nodes) == 2 * len(g.nodes)
    assert set(d) == set(g.nodes)
    swapped = copyswap(g, EdgeTriple("u", "p", "v"))
    assert len(swapped.nodes) == 2 * len(g.nodes)
    assert EdgeTriple("u", "p", "v") not in swapped.edges
    assert EdgeTriple("u", "p", d["v"]) in swapped.edges
    assert EdgeTriple(d["u"], "p", "v") in swapped.edges
    assert swapped.prop("u", "k") == int_v(1)
    assert swapped.prop(d["u"], "k") == int_v(1)


def test_copyswap_requires_edge():
    g = build_graph([EdgeTriple("u", "p", "v")], [])
    with pytest.raises(EdgeNotInGraph):
        copyswap(g, EdgeTriple("u", "q", "v"))


def test_copyswap_counting_pair():
    left, right, hub = counting_pair()
    swapped = copyswap(left, EdgeTriple("u", "hasAccess", "a"))
    # same graph up to the copy naming
    assert len(swapped.edges) == len(right.edges) == 4
    rule = counting_shacl_rule()
    assert not shacl_validate(left, [rule]).valid
    assert shacl_validate(swapped, [rule]).valid
    assert shacl_validate(right, [rule]).valid


def test_counting_shex_shape_blind():
    from triform.shex import shex_satisfies

    left, right, hub = counting_pair()
    shape = counting_shex_shape()
    assert shex_satisfies(left, Node(hub), shape)
    assert shex_satisfies(right, Node(hub), shape)


def test_cn_neighbourhood_minimal():
    g = gen_cn_neighbourhood("c", 2, ["p"], GenParams(seed=0))
    p_edges = [e for e in g.edges if e.p == "p"]
    assert len(p_edges) >= 2
    assert all(e.s == "c" for e in g.edges)
    targets = [e.o for e in g.edges]
    assert len(targets) == len(set(targets))


def test_similar():
    p = GenParams(seed=5)
    g = gen_cn_neighbourhood("c", 2, ["p", "q"], p)
    extended = build_graph(list(g.edges) + [EdgeTriple("c", "p", "fresh")], [])
    assert similar(g, extended)
    other = gen_cn_neighbourhood("c", 2, ["r"], p)
    assert not similar(g, other)


def test_shacl_max_bound():
    rules = [
        (None, GeqCount(3, Step("p"), Top())),
        (None, LeqCount(5, Star(Step("p")), GeqCount(7, Step("q"), Top()))),
    ]
    assert shacl_max_bound(rules) == 7
    assert shacl_max_bound([]) == 0


def test_differential_check_golden(g_media, pg_c1_c5, mutations):
    report = differential_check(g_media, pg_c1_c5)
    assert report.agree and report.verdict_pg and not report.capped
    broken, _ = mutations["card_as_string"]
    report2 = differential_check(broken, pg_c1_c5)
    assert report2.agree
    assert report2.verdict_pg is False
    assert report2.verdict_shacl is False
    assert report2.verdict_shex is False


def test_differential_check_classifies_the_rules_once(monkeypatch, g_media, pg_c1_c5, mutations):
    calls = []
    classify = cogsl._classify
    monkeypatch.setattr(cogsl, "_classify", lambda rules: calls.append(rules) or classify(rules))
    broken, _ = mutations["card_as_string"]
    for g in (g_media, broken):
        calls.clear()
        report = differential_check(g, pg_c1_c5)
        assert report.agree and len(calls) == 1
    checked = cogsl.CheckedSchema(pg_c1_c5)
    assert checked == tuple(pg_c1_c5)
    assert cogsl_to_shacl(checked) == cogsl_to_shacl(pg_c1_c5)
    assert cogsl.cogsl_to_shex(checked) == cogsl.cogsl_to_shex(pg_c1_c5)
    calls.clear()
    cogsl_validate(broken, checked)
    assert calls == []  # a checked schema is not classified again


def test_differential_check_empty():
    report = differential_check(build_graph([], []), [])
    assert report.agree


def test_differential_check_compares_foci(monkeypatch, g_media, pg_c1_c5):
    # u1 and u4 own accounts but have no email: rule 1 fails at both
    props = [
        PropTriple(n, k, w)
        for (n, k), w in g_media.props.items()
        if not (k == "email" and n in ("u1", "u4"))
    ]
    g = build_graph(g_media.edges, props)
    assert differential_check(g, pg_c1_c5).agree
    real = harness.shacl_validate
    dropped = Violation(1, Node("u4"))

    def lossy_shacl(graph, rules):
        report = real(graph, rules)
        return ValidationReport([v for v in report.violations if v != dropped], report.stats)

    monkeypatch.setattr(harness, "shacl_validate", lossy_shacl)
    lossy = lossy_shacl(g, cogsl_to_shacl(pg_c1_c5))
    # rule 1 still fails in SHACL, so the violated rules alone agree
    assert lossy.violated_rules() == cogsl_validate(g, pg_c1_c5).violated_rules() == [1]
    report = differential_check(g, pg_c1_c5)
    assert not report.agree
    assert report.witness == (1, Node("u4"), "violated only in pg,shex")


def test_differential_capped_counts_separately(g_media, pg_c1_c5):
    report = differential_check(g_media, pg_c1_c5, cap=1)
    assert report.capped
    assert report.agree  # capped trials are not divergences


def test_run_campaign_small():
    summary = run_campaign(50, GenParams(node_count=7, schema_size_budget=4), seed=11)
    assert summary.trials == 50
    assert summary.agreed + summary.capped == 50
    assert summary.ok


def test_run_campaign_zero_trials():
    summary = run_campaign(0)
    assert summary.trials == 0 and summary.ok


def test_brute_match_oracle_trivial():
    g = build_graph([], [])
    assert brute_match_oracle(g, Node("v"), Eps(), HalfOpen(NO_NAMES))


def test_brute_match_oracle_takes_far_ends_of_any_size_under_the_top_shape():
    # 25 hubs share one string value: its neighbourhood is far above the
    # oracle's bound, but the top shape takes it without looking
    hubs = [f"h{i}" for i in range(25)]
    g = build_graph(
        [EdgeTriple("h0", "p", "x")],
        [PropTriple(h, "k", str_v("shared")) for h in hubs],
    )
    assert len(g.value_owners(str_v("shared"))) > harness.MAX_ORACLE_NEIGH
    one_k = Seq(TC("k", FWD, top_shape()), TC("p", FWD, top_shape()))
    assert brute_match_oracle(g, Node("h0"), one_k, HalfOpen(NO_NAMES))
    assert match_triple_expr(g, Node("h0"), one_k, HalfOpen(NO_NAMES))
    assert not brute_match_oracle(g, Node("h1"), one_k, HalfOpen(NO_NAMES))
    # a nested neighbourhood shape other than the top shape is still
    # judged exhaustively
    only_incoming = SNeigh(Eps(), HalfOpen(NO_NAMES))
    with pytest.raises(InstanceTooLarge):
        brute_match_oracle(g, Node("h0"), TC("k", FWD, only_incoming), Open(NO_NAMES, NO_NAMES))


def test_brute_path_oracle_star_chain():
    g = build_graph([EdgeTriple("a", "p", "b"), EdgeTriple("b", "p", "c")], [PropTriple("c", "k", int_v(1))])
    image = brute_path_oracle(g, Node("a"), Star(Step("p")))
    assert image == {Node("a"), Node("b"), Node("c")}
    # the one relational interpreter, with each dialect's identity: SHACL's
    # id and star are reflexive on the whole domain, values and a focus
    # outside the graph included; PG's star on the graph nodes only
    ghost, one = Node("ghost"), Val(int_v(1))
    for path in (Id(), Star(Step("p")), Star(Inverse(Step("k")))):
        assert brute_path_oracle(g, ghost, path) == {ghost}
        assert one in brute_path_oracle(g, one, path)
        assert {(d, d) for d in (ghost, one, Node("a"), Node("c"))} <= brute_path_relation(g, path, ghost)
    star = PgPath(None, PStar(PPred("p")), None)
    assert brute_pg_path_oracle(g, ghost, star) == set()
    assert brute_pg_path_oracle(g, Node("c"), star) == {Node("c")}
    assert {x for x, y in brute_pg_relation(g, star) if x == y} == {Node("a"), Node("b"), Node("c")}


def test_shrink_preserves_divergence_shape(g_media, pg_c1_c5):
    # shrinking an agreeing instance is a no-op loop; exercise the helper
    small = shrink_divergence(g_media, pg_c1_c5)
    assert small == g_media


def test_shrink_minimizes_under_predicate(g_media, pg_c1_c5):
    # with an injected predicate the greedy loop deletes every triple
    # that is not needed to keep the predicate true
    wanted = EdgeTriple("u2", "hasAccess", "a1")
    small = shrink_divergence(g_media, pg_c1_c5, keep=lambda g: wanted in g.edges)
    assert small.edges == frozenset({wanted})
    assert not small.props


def test_concurrent_validation_shares_graph(g_media, pg_c1_c5, shex_c1_c5):
    from concurrent.futures import ThreadPoolExecutor

    from triform.pgschema import pg_validate
    from triform.shex import shex_validate

    def pg_job(_):
        return pg_validate(g_media, pg_c1_c5).valid

    def shex_job(_):
        return shex_validate(g_media, shex_c1_c5).valid

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(pg_job, range(8)))
        assert all(pool.map(shex_job, range(8)))


def test_campaign_records_a_forced_divergence(monkeypatch):
    real = harness.cogsl_to_shacl

    def failing_shacl(rules):
        return [(sel, Not(Top())) for sel, _ in real(rules)]

    monkeypatch.setattr(harness, "cogsl_to_shacl", failing_shacl)
    summary = run_campaign(1, GenParams(node_count=6, schema_size_budget=3), seed=5)
    assert summary.trials == 1 and not summary.ok
    [record] = summary.divergences
    assert set(record) == {"seed", "rule", "focus", "witness", "graph_size"}
    assert record["seed"] == 5
    assert isinstance(record["rule"], int)
    assert record["focus"]["kind"] in ("node", "value")
    assert record["witness"] == "violated only in shacl"
    edges, props = record["graph_size"]
    assert edges + props > 0
