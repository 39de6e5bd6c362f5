"""The signature bag a ShEx template decides an element by, against the oracle.

A template reads an element's rows of each (direction, name) pair its
expression or its exclusions mention, splits the tested rows by their
far ends, never reads the rows of other names in an open direction, and
gives a half-open shape's forward rows of other names the empty
signature.  These tests compare the verdicts on those bags with
``harness.brute_match_oracle`` per (shape, focus), on templates that
exercise each part of the bag through the openness (exclusions, the
half-open forward rest, starred single constraints), and check the
kernel's work bound and the absence of a default row cap.
"""

import os
import random
import subprocess
import sys

import pytest

from test_cli import run
from test_shex_memo import SRC
from triform import _bagmatch_py, cli, jsonio, shex
from triform.cogsl import cogsl_to_shex
from triform.examples import media_pg_rules
from triform.harness import brute_match_oracle
from triform.model import (
    FWD,
    INV,
    CommonGraph,
    EdgeTriple,
    InstanceTooLarge,
    Node,
    PropTriple,
    bool_v,
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
NAMES = ("p", "q", "k")  # two predicates and a key
HAS_Q = open_closure(TC("q", FWD, TOP))
ONLY_INT_K = shex.SNeigh(TC("k", FWD, STestType("int")), HalfOpen(NO_NAMES))
NESTED = [TOP, STestType("int"), SNot(STestConst(int_v(1))), HAS_Q, ONLY_INT_K]


def tc(name, direction, nested=TOP):
    return TC(name, direction, nested)


# each case names the part of the bag it exercises
CASES = {
    "closed": (Seq(StarE(tc("p", FWD)), tc("k", FWD)), HalfOpen(NO_NAMES)),
    "closed, tested": (StarE(tc("p", FWD, STestType("int"))), HalfOpen(frozenset({"p"}))),
    "half-open rest": (Alt(tc("p", FWD), Seq(tc("p", FWD), StarE(tc("p", INV)))), HalfOpen(frozenset({"q"}))),
    "starred, excluded": (Seq(StarE(tc("p", INV)), Alt(tc("q", FWD), Eps())), Open(frozenset({"p", "q"}), frozenset({"q"}))),
    "starred, tested": (Alt(StarE(tc("k", FWD, STestType("int"))), StarE(tc("p", FWD, HAS_Q))), HalfOpen(NO_NAMES)),
    "wildstar under alt": (Alt(StarE(tc("p", FWD)), Seq(tc("q", FWD), StarE(tc("k", FWD)))), HalfOpen(NO_NAMES)),
    "wildstar under alt, open": (Alt(StarE(tc("p", INV)), tc("q", FWD)), Open(frozenset({"p"}), frozenset({"q"}))),
    "exclusions only": (tc("p", FWD), Open(frozenset({"q", "absent"}), frozenset({"k"}))),
    "exclusions only, closed": (Eps(), HalfOpen(frozenset({"p", "q"}))),
    "multi-leaf": (Seq(StarE(tc("p", FWD, STestType("int"))), StarE(tc("p", FWD, HAS_Q))), HalfOpen(NO_NAMES)),
    "multi-leaf, open": (Alt(tc("p", INV, HAS_Q), Seq(tc("p", INV, ONLY_INT_K), tc("p", INV))), Open(NO_NAMES, NO_NAMES)),
    "value foci": (StarE(tc("k", INV, ONLY_INT_K)), HalfOpen(NO_NAMES)),
    "loops": (Seq(tc("p", FWD, HAS_Q), tc("p", INV, HAS_Q)), Open(NO_NAMES, frozenset({"p"}))),
    "counted": (Seq(tc("p", FWD), Seq(tc("p", FWD), StarE(Seq(tc("q", FWD), tc("q", INV))))), Open(NO_NAMES, NO_NAMES)),
}


def small_graph(seed):
    """Five nodes, loops and parallel names included, and k values
    shared by some owners: every focus has at most 8 signed triples."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(5)]
    edges = [EdgeTriple(rng.choice(nodes), rng.choice("pq"), rng.choice(nodes)) for _ in range(rng.randrange(3, 9))]
    values = [int_v(1), int_v(2), str_v("x"), bool_v(True)]
    props = [PropTriple(u, "k", rng.choice(values)) for u in nodes if rng.random() < 0.6]
    return build_graph(edges, props)


def random_expr(rng, depth):
    roll = rng.randrange(9 if depth else 4)
    if roll < 2:
        return TC(rng.choice(NAMES), rng.choice((FWD, INV)), rng.choice(NESTED))
    if roll == 2:
        return StarE(TC(rng.choice(NAMES), rng.choice((FWD, INV)), rng.choice(NESTED)))
    if roll == 3:
        return Eps()
    if roll < 6:
        return Seq(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll < 8:
        return Alt(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return StarE(random_expr(rng, depth - 1))


def random_openness(rng):
    r = frozenset(rng.sample(NAMES + ("absent",), rng.randrange(3)))
    if rng.random() < 0.4:
        return HalfOpen(r)
    return Open(r, frozenset(rng.sample(NAMES + ("absent",), rng.randrange(3))))


def random_cases(n, seed):
    rng = random.Random(seed)
    return [(random_expr(rng, 3), random_openness(rng)) for _ in range(n)]


def extension(g, expr, openness, domain):
    """The elements of ``domain`` the template of ``expr`` and
    ``openness`` matches, decided in one call of the evaluator, which
    takes boxes to the template too (``SNeigh`` would lower them)."""
    ctx = shex.ShexContext(g, None)
    return shex._neigh(ctx, shex._template(ctx, expr, openness), set(domain))


def check_against_the_oracle(g, expr, openness):
    domain = set(g.nodes) | set(g.values) | {"ghost", int_v(-5)}
    got = extension(g, expr, openness, domain)
    checked = 0
    for v in elems_to_foci(domain):
        try:
            want = brute_match_oracle(g, v, expr, openness)
        except InstanceTooLarge:
            continue
        assert (focus_elem(v) in got) == want, (expr, openness, v)
        checked += 1
    return checked


@pytest.mark.parametrize("label", list(CASES))
def test_each_part_of_the_key_equals_the_oracle(label):
    expr, openness = CASES[label]
    checked = sum(check_against_the_oracle(small_graph(seed), expr, openness) for seed in range(25))
    assert checked > 150, checked


def test_generated_templates_equal_the_oracle():
    # starred single constraints, exclusions, half-open shapes and tested leaves anywhere
    checked = 0
    for i, (expr, openness) in enumerate(random_cases(120, seed=7)):
        checked += check_against_the_oracle(small_graph(i), expr, openness)
    assert checked > 1000, checked


def test_validated_shapes_equal_the_oracle_per_focus():
    # through shex_validate and shex_satisfies, for the cases SNeigh takes
    for label, (expr, openness) in CASES.items():
        if not shex.is_closed_expr(expr):
            continue
        shape = shex.SNeigh(expr, openness)
        for seed in range(6):
            g = small_graph(seed)
            report = shex.shex_validate(g, [(shex.SelOut("p"), shape), (shex.SelIn("k"), shape)])
            failing = {(viol.rule_index, viol.focus) for viol in report.violations}
            for i, sel in enumerate((shex.SelOut("p"), shex.SelIn("k"))):
                for v in shex.shex_select(g, sel):
                    try:
                        want = brute_match_oracle(g, v, expr, openness)
                    except InstanceTooLarge:
                        continue
                    assert ((i, v) not in failing) == want == shex.shex_satisfies(g, v, shape), (label, v)


def test_rows_of_other_names_are_unread_or_one_empty_class(monkeypatch):
    # a, b and c have one p row each and 0, 1 and 3 r rows, a name no
    # shape here mentions
    edges = [EdgeTriple(u, "p", "t") for u in "abc"] + [EdgeTriple("b", "r", "t")]
    g = build_graph(edges + [EdgeTriple("c", "r", f"t{i}") for i in range(3)], [])
    expr = Alt(tc("p", FWD), Seq(tc("p", FWD), tc("p", FWD)))
    read, calls = [], []
    counts, count_match = CommonGraph.counts, _bagmatch_py.count_match
    monkeypatch.setattr(CommonGraph, "counts", lambda g, name, d: read.append((name, d)) or counts(g, name, d))
    monkeypatch.setattr(_bagmatch_py, "count_match", lambda *args: calls.append(args[1:]) or count_match(*args))
    ctx = shex.ShexContext(g, None)
    # open: only the rows of the mentioned and the excluded pairs are read
    t = shex._template(ctx, expr, Open(frozenset({"q"}), NO_NAMES))
    assert [(name, d) for name, d, _, _ in t.pairs] == [("p", FWD), ("q", INV)]
    with monkeypatch.context() as m:
        m.setattr(CommonGraph, "degrees", lambda *args: pytest.fail("the rows of other names were read"))
        assert shex._neigh(ctx, t, {"a", "b", "c"}) == {"a", "b", "c"}
    assert sorted(read) == [("p", FWD), ("q", INV)] and len(calls) == 1
    # half-open: the forward r rows form one class with the empty
    # signature, counted once, so b and c share one bag
    del read[:], calls[:]
    t = shex._template(ctx, expr, HalfOpen(NO_NAMES))
    assert shex._neigh(ctx, t, {"a", "b", "c"}) == {"a"}
    assert read == [("p", FWD)]
    sig = t.pairs[0][2]  # a p row's
    assert sorted(calls) == [((0, sig), (1, 1)), ((sig,), (1,))]


_BOUND_SCRIPT = """
import sys
from triform import _bagmatch_py
from triform.cli import main
_bagmatch_py.MAX_WORK = 400
sys.exit(main(["validate", {graph!r}, {schema!r}]))
"""


def test_a_bag_over_the_work_bound_is_a_capability_error(tmp_path):
    # a star of pairs over six names, each pair of two different names:
    # an odd number of rows has no match, and finding that out takes
    # more states than the lowered bound on the hubs with three rows per
    # name, not on the one with one row per name
    names = [f"p{i}" for i in range(6)]
    pairs = [Seq(tc(a, FWD), tc(b, FWD)) for i, a in enumerate(names) for b in names[i + 1 :]]
    shape = shex.SNeigh(StarE(shex.alt_all(pairs)), HalfOpen(NO_NAMES))
    edges = []
    for hub, rows in (("h2", 3), ("h0", 1), ("h1", 3)):
        edges += [EdgeTriple(hub, p, f"{hub}{p}{j}") for i, p in enumerate(names) for j in range(rows + (i == 0))]
    graph, schema = tmp_path / "g.json", tmp_path / "s.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(build_graph(edges, []))))
    schema.write_text(jsonio.dumps(jsonio.schema_to_json("shex", [(shex.SelOut("p0"), shape)])))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _BOUND_SCRIPT.format(graph=str(graph), schema=str(schema))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0] == runs[1]
    assert runs[0] == (
        cli.EXIT_CAPABILITY,
        "",
        "error: signed neighborhood of Node(id='h1') has 19 triples, more than 400 matcher states and split steps\n",
    )
    # under the shipped bound every hub is decided: none has a match
    report = shex.shex_validate(build_graph(edges, []), [(shex.SelOut("p0"), shape)])
    assert [v.focus for v in report.violations] == [Node("h0"), Node("h1"), Node("h2")]


WIDE_KEYS = (("badge", "str"), ("dept", "str"), ("level", "int"))


def hub(n, rng):
    """A privileged account with its owner and ``n`` privileged
    accessors whose records have 3 to 5 keys: n + 5 signed triples at
    the account."""
    acct, owner = f"h{n}", f"h{n}_owner"
    edges = [EdgeTriple(owner, "ownsAccount", acct), EdgeTriple(owner, "hasAccess", acct)]
    props = [
        PropTriple(acct, "card", int_v(7000 + n)),
        PropTriple(acct, "privileged", bool_v(True)),
        PropTriple(acct, "plan", str_v("gold")),
        PropTriple(owner, "email", str_v(f"owner@h{n}")),
        PropTriple(owner, "privileged", bool_v(True)),
    ]
    widths = [3 + j % 3 for j in range(n)]
    rng.shuffle(widths)
    for j, w in enumerate(widths):
        u = f"h{n}_x{j}"
        edges.append(EdgeTriple(u, "hasAccess", acct))
        props += [PropTriple(u, "email", str_v(f"x{j}@h{n}")), PropTriple(u, "privileged", bool_v(True))]
        for key, tag in WIDE_KEYS[: w - 2]:
            props.append(PropTriple(u, key, int_v(j) if tag == "int" else str_v(f"{key}{j % 4}")))
    return build_graph(edges, props)


@pytest.mark.parametrize("n", [32, 512])
def test_hubs_validate_without_a_cap(n, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TRIFORM_CAP", raising=False)
    graph = tmp_path / "hub.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(hub(n, random.Random(1)))))
    translated = tmp_path / "translated.json"
    translated.write_text(jsonio.dumps(jsonio.schema_to_json("shex", cogsl_to_shex(media_pg_rules()))))
    fixture = str(SRC.parent / "fixtures" / "media_shex.json")
    for schema in (fixture, str(translated)):
        code, out, err = run(capsys, "validate", str(graph), schema)
        assert (code, err) == (cli.EXIT_VALID, ""), schema
    assert f"has {n + 5} triples (cap 24)" in run(capsys, "validate", str(graph), fixture, "--cap", "24")[2]


def test_fuzz_at_40_nodes_is_never_capped(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "20", "--nodes", "40", "--seed", "1")
    assert code == 0 and '"capped":0' in out.replace(" ", "")
