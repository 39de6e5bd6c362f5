"""The per-run verdict memo of ShEx neighborhood matching.

A focus is decided by its bag of row signatures, read from the counts
of the names a template mentions, so the kernel runs once per distinct
bag per template per run; these tests pin the verdicts against the
brute-force oracle, count the kernel calls and check what is read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shex_rows import row_sat
from triform import _bagmatch_py, core, shex
from triform.cogsl import cogsl_to_shex
from triform.examples import media_graph, media_mutations, media_pg_rules, media_shex_rules
from triform.harness import GenParams, brute_shex_satisfies, gen_graph, gen_shex_schema
from triform.model import (
    FWD,
    CommonGraph,
    EdgeTriple,
    InstanceTooLarge,
    NeighborhoodTooLarge,
    INV,
    Node,
    PropTriple,
    build_graph,
    bool_v,
    int_v,
    str_v,
)
from triform.shex import (
    Alt,
    HalfOpen,
    Open,
    SAnd,
    SelIn,
    SelOut,
    Seq,
    SNeigh,
    SNot,
    SOr,
    STestConst,
    STestType,
    StarE,
    TC,
    open_closure,
    shex_select,
    shex_validate,
    top_shape,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The number of kernel calls so far, counted through the module attribute."""
    calls = []
    count_match = _bagmatch_py.count_match

    def counting(*args):
        calls.append(sum(args[-1]))  # the number of rows
        return count_match(*args)

    monkeypatch.setattr(_bagmatch_py, "count_match", counting)
    return calls


@pytest.mark.parametrize("nodes, density", [(8, 0.18), (12, 0.12), (40, 0.04)])
def test_rule_focus_verdicts_equal_the_brute_oracle(nodes, density, kernel_calls):
    checked = decided = 0
    for seed in range(40):
        p = GenParams(seed=seed, node_count=nodes, edge_density=density, prop_density=0.3)
        g = gen_graph(p)
        rules = gen_shex_schema(p)
        report = shex_validate(g, rules, cap=64)
        failing = {(viol.rule_index, viol.focus) for viol in report.violations}
        for i, (sel, shape) in enumerate(rules):
            for v in shex_select(g, sel):
                try:
                    want = brute_shex_satisfies(g, v, shape)
                except InstanceTooLarge:
                    continue
                assert ((i, v) not in failing) == want, (nodes, seed, i, v)
                checked += 1
        decided += sum(stat.selected for stat in report.stats)
    assert checked > 150
    assert len(kernel_calls) < decided  # the memo answered some foci


def copies_graph(n_copies, str_every=0, extra_p_every=0):
    """Hubs c0, c1, ... with one neighborhood each: three p-edges (four
    on every ``extra_p_every``-th hub), two q-edges, one incoming r-edge
    and a k-property, an int except on every ``str_every``-th hub.  Hub
    ``ci`` gives its p- and q-edges rotated by ``i``, so the hubs list
    their rows in different orders."""
    edges, props = [], []
    for i in range(n_copies):
        c = f"c{i}"
        extra = bool(extra_p_every) and i % extra_p_every == 0
        out = [EdgeTriple(c, "p", f"a{i}_{j}") for j in range(3 + extra)]
        out += [EdgeTriple(c, "q", f"b{i}_{j}") for j in range(2)]
        r = i % len(out)
        edges += out[r:] + out[:r]
        edges.append(EdgeTriple(f"d{i}", "r", c))
        odd = str_every and i % str_every == 0
        props.append(PropTriple(c, "k", str_v(f"x{i}") if odd else int_v(i)))
    return build_graph(edges, props)


TOP = top_shape()
# pairs of one p and one q triple, then the spare p triple and the k
# triple; the incoming r triple is tolerated
PAIRS = HalfOpen(frozenset())
PAIRS_EXPR = Seq(
    StarE(Alt(Seq(TC("p", FWD, TOP), TC("q", FWD, TOP)), Seq(TC("q", FWD, TOP), TC("p", FWD, TOP)))),
    Seq(TC("p", FWD, TOP), TC("k", FWD, TOP)),
)


def one_or_three(name, direction, nested=TOP):
    """One row of ``(name, direction)`` whose far end satisfies
    ``nested``, or three: a Parikh image that is not a box, so a shape
    that keeps its template and calls the kernel, where one row alone would
    be lowered to count atoms.  A node has at most one value per key."""
    one = TC(name, direction, nested)
    return Alt(one, Seq(Seq(one, one), one))


# an int k row, as a template
INT_K = open_closure(one_or_three("k", FWD, STestType("int")))


def test_copies_cost_one_kernel_call_per_signature_bag(kernel_calls):
    g = copies_graph(50, str_every=2, extra_p_every=5)
    hubs = [Node(f"c{i}") for i in range(50)]
    # the premise: the hubs list their rows in different orders
    assert len({tuple(e.p for e in g.out_edges(c.id)) for i, c in enumerate(hubs) if i % 5}) > 1
    shape = SAnd(SNeigh(PAIRS_EXPR, PAIRS), INT_K)
    report = shex_validate(g, [(SelOut("p"), shape)])
    # the pairs template sees two bags, three p-triples or four; INT_K,
    # whose k row is tested, sees an int or a string on the hubs with three
    assert len(kernel_calls) == 4
    failing = {viol.focus for viol in report.violations}
    assert failing == set(hubs[::2]) | set(hubs[::5])
    for c in hubs:
        assert (c not in failing) == brute_shex_satisfies(g, c, shape)


# at least two p rows, whatever else: a count form, decided without the kernel
TWO_P = SNeigh(Seq(TC("p", FWD, TOP), TC("p", FWD, TOP)), Open(frozenset(), frozenset()))


def test_runs_share_no_memo(kernel_calls, monkeypatch):
    g = copies_graph(20)
    tables = []
    lower = shex._lower
    monkeypatch.setattr(shex, "_lower", lambda ctx, shape: tables.append(ctx.templates) or lower(ctx, shape))
    rules = [(SelOut("p"), SNeigh(PAIRS_EXPR, PAIRS)), (SelOut("q"), INT_K), (SelOut("p"), TWO_P)]
    first = shex_validate(g, rules)
    calls = len(kernel_calls)
    assert calls == 2
    assert shex_validate(g, rules) == first
    assert len(kernel_calls) == 2 * calls  # the second run decides afresh
    # each run tries to lower its three neighborhood shapes afresh, and
    # keeps the count atom or the template in its own table
    assert len(tables) == 6 and len({id(t) for t in tables[:3]}) == len({id(t) for t in tables[3:]}) == 1
    lowered = ([], core.GeqCount(2, ("p", FWD), core.TOP), None)
    assert tables[0] is not tables[3] and tables[0][3] == tables[3][3] == lowered
    for table in (tables[0], tables[3]):
        assert [type(t) for t in table.values()] == [shex._Template, shex._Template, tuple]
    for mod in (core, shex, _bagmatch_py):
        state = [name for name, x in vars(mod).items() if not name.startswith("__") and isinstance(x, (dict, list, set))]
        assert state == [], mod.__name__


# one program over different names: each hub of copies_graph has one k
# row and one incoming r row, but no incoming s row
K_ONE = open_closure(one_or_three("k", FWD))
R_ONE = open_closure(one_or_three("r", INV))
S_ONE = open_closure(one_or_three("s", INV))
SHARED_PROGRAM = [(SelOut("p"), K_ONE), (SelOut("p"), R_ONE), (SelOut("q"), S_ONE)]


def starred_hubs():
    """Hubs h0, h1, ... h5 with 4,096 p-edges each and 1, 2 or 3
    q-edges, two hubs per count."""
    edges = []
    for i in range(6):
        edges += [EdgeTriple(f"h{i}", "p", f"t{j}") for j in range(4096)]
        edges += [EdgeTriple(f"h{i}", "q", f"u{j}") for j in range(1 + i % 3)]
    return build_graph(edges, [])


# any number of p rows, then one q row or three
STARRED_P = open_closure(Seq(StarE(TC("p", FWD, TOP)), one_or_three("q", FWD)))


def test_shapes_that_flatten_alike_keep_their_own_memos(kernel_calls):
    g = copies_graph(6, extra_p_every=2)
    ctx = shex.ShexContext(g, cap=24)
    templates = [shex._template(ctx, shape.expr, shape.openness) for _, shape in SHARED_PROGRAM]
    assert all(t.kernel == templates[0].kernel for t in templates)  # the premise: one program
    first = shex_validate(g, SHARED_PROGRAM)
    # each shape sees one bag (K_ONE and R_ONE one leaf row, the free
    # class of the other rows counted once, whatever the hub's number of
    # p rows; S_ONE the free class alone), and decides it in its own memo
    assert len(kernel_calls) == 3
    assert {viol.rule_index for viol in first.violations} == {2}
    for i, (_, shape) in enumerate(SHARED_PROGRAM):
        for c in (Node(f"c{j}") for j in range(6)):
            assert (c not in {v.focus for v in first.violations if v.rule_index == i}) == brute_shex_satisfies(
                g, c, shape
            )
    assert shex_validate(g, SHARED_PROGRAM) == first
    assert len(kernel_calls) == 6  # a new run decides the bags again


_COUNT_SCRIPT = """
import json
from triform import _bagmatch_py, jsonio
from triform.cogsl import cogsl_to_shex
from triform.examples import media_pg_rules
from triform.harness import GenParams, gen_graph, gen_shex_schema, run_campaign
from triform.model import NeighborhoodTooLarge
from triform.shex import SNeigh, is_closed_expr, shex_validate
import test_shex_keys as k
import test_shex_memo as t

calls = []
count_match = _bagmatch_py.count_match
_bagmatch_py.count_match = lambda *args: calls.append(sum(args[-1])) or count_match(*args)
out = []
cases = [
    (t.copies_graph(30, str_every=3), [(t.SelOut("p"), t.SAnd(t.SNeigh(t.PAIRS_EXPR, t.PAIRS), t.INT_K))]),
    (t.copies_graph(30, extra_p_every=2), t.SHARED_PROGRAM),
]
for seed in range(12):
    p = GenParams(seed=seed, node_count=12, edge_density=0.12, prop_density=0.3)
    cases.append((gen_graph(p), gen_shex_schema(p)))
# every part of a bag: closed shapes, wildstars under Alt, names only
# excluded, multi-leaf groups, value foci and loops
cases.append((t.shared_far_ends(), t.SHARED_RULES))
for i, (expr, openness) in enumerate(k.CASES.values()):
    if is_closed_expr(expr):
        shape = SNeigh(expr, openness)
        cases.append((k.small_graph(i), [(t.SelOut("p"), shape), (t.SelIn("k"), shape), (t.SelIn("p"), shape)]))
# the ShEx compiled from the media PG rules, as the compiler gives it and
# read back from JSON, on media copies
compiled = cogsl_to_shex(media_pg_rules())
for _, g in t.media_copies(3):
    cases += [(g, compiled), (g, jsonio.parse_schema(jsonio.schema_to_json("shex", compiled))[1])]
for g, rules in cases:
    del calls[:]
    report = shex_validate(g, rules, cap=64)
    out.append([len(calls), [[v.rule_index, repr(v.focus)] for v in report.violations]])
# a campaign with no cap
del calls[:]
summary = run_campaign(40, GenParams(node_count=40), seed=987654321)
out.append([len(calls), [summary.capped, summary.agreed]])
# a campaign in which some trials stop at the cap
del calls[:]
summary = run_campaign(150, GenParams(node_count=40), seed=987654321, cap=24)
out.append([len(calls), [summary.capped, summary.agreed]])
# generated schemas, whose shapes are not all boxes, on 40-node graphs,
# with no cap and with one that stops some runs
for cap in (None, 6):
    del calls[:]
    outcomes = []
    for seed in range(40):
        p = GenParams(seed=seed, node_count=40)
        try:
            outcomes.append(len(shex_validate(gen_graph(p), gen_shex_schema(p), cap=cap).violations))
        except NeighborhoodTooLarge as err:
            outcomes.append(str(err))
    out.append([len(calls), outcomes])
# the p rows, which only the starred constraint takes, form a free class
# counted once, so the bags hold 2 to 4 rows, not 4,097 to 4,099
del calls[:]
report = shex_validate(t.starred_hubs(), [(t.SelOut("p"), t.STARRED_P)])
out.append([sorted(calls), [v.focus.id for v in report.violations]])
print(json.dumps(out))
"""


def run_under_hash_seeds(script):
    """The stdout of ``script`` under the hash seeds 0 and 1."""
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    return runs


def test_kernel_calls_do_not_depend_on_the_hash_seed():
    runs = [json.loads(out) for out in run_under_hash_seeds(_COUNT_SCRIPT)]
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 3 and len(runs[0][0][1]) == 10
    assert runs[0][1][0] == 3 and len(runs[0][1][1]) == 30  # one bag per shape
    # the compiled media ShEx has count forms only, which need no kernel call
    compiled = runs[0][-17:-5]
    assert [calls for calls, _ in compiled] == [0] * 12 and sum(len(v) for _, v in compiled) == 30
    # without a cap every trial is decided; the compiled shapes are boxes, decided without the kernel
    calls, (capped, agreed) = runs[0][-5]
    assert capped == 0 and agreed == 40 and calls == 0
    calls, (capped, agreed) = runs[0][-4]
    assert capped > 0 and capped + agreed == 150 and calls == 0
    calls, outcomes = runs[0][-3]
    assert calls > 0 and all(type(n) is int for n in outcomes)
    # a capped run decides no bag before its cap error, in any set order
    calls, outcomes = runs[0][-2]
    assert calls > 0 and 0 < sum(type(n) is str for n in outcomes) < 40
    # one kernel call per distinct bag of the 4,096-row hubs, each of 2, 3
    # or 4 rows, and the hubs with two q rows fail
    assert runs[0][-1] == [[2, 3, 4], ["h1", "h4"]]


_CAP_SCRIPT = """
from triform import jsonio
from triform.cogsl import cogsl_to_shex
from triform.examples import media_graph, media_mutations, media_pg_rules
from triform.model import FWD, EdgeTriple, NeighborhoodTooLarge, build_graph
from triform.shex import SelOut, Seq, StarE, TC, open_closure, shex_validate, top_shape

def hubs(h):
    return [EdgeTriple(f"{h}{i}", "p", f"t{j}") for i in range(8) for j in range(30)]


def wide():
    return open_closure(StarE(TC("p", FWD, top_shape())))


def links(r, q, h):
    return [EdgeTriple(r, q, f"{h}{i}") for i in range(8)]


# the hubs as foci of one rule, then as the far ends of one nested
# shape, then of two, reached first through q from r0, through s from r1
two = open_closure(Seq(StarE(TC("q", FWD, wide())), StarE(TC("s", FWD, wide()))))
cases = [
    (hubs("h"), SelOut("p"), wide()),
    (hubs("h") + links("r", "q", "h"), SelOut("q"), open_closure(StarE(TC("q", FWD, wide())))),
    (hubs("h") + hubs("k") + links("r0", "q", "h") + links("r0", "s", "k") + links("r1", "s", "k")
     + links("r1", "q", "h"), SelOut("q"), two),
]
for edges, sel, shape in cases:
    try:
        shex_validate(build_graph(edges, []), [(sel, shape)], cap=24)
    except NeighborhoodTooLarge as err:
        print(err)
# the ShEx compiled from the media PG rules, whose count atoms are decided
# without templates, as compiled and read back from JSON
compiled = cogsl_to_shex(media_pg_rules())
for rules in (compiled, jsonio.parse_schema(jsonio.schema_to_json("shex", compiled))[1]):
    for g, cap in ((media_graph(), 4), (media_mutations()["six_access_edges"][0], 5)):
        try:
            shex_validate(g, rules, cap=cap)
        except NeighborhoodTooLarge as err:
            print(err)
"""


def test_cap_error_names_the_least_element_under_any_hash_seed():
    runs = run_under_hash_seeds(_CAP_SCRIPT)
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == [
        "signed neighborhood of Node(id='h0') has 30 triples (cap 24)",
        "signed neighborhood of Node(id='h0') has 31 triples (cap 24)",
        "signed neighborhood of Node(id='h0') has 32 triples (cap 24)",
    ] + [
        "signed neighborhood of Node(id='a1') has 5 triples (cap 4)",
        "signed neighborhood of Node(id='u2') has 9 triples (cap 5)",
    ] * 2


def test_one_profile_with_different_tested_far_ends():
    # "a" and "b" both have one k row and one incoming r row, so they
    # have the same counts; the nested shape tests the k value, which differs
    g = build_graph(
        [EdgeTriple("r0", "r", "a"), EdgeTriple("r1", "r", "b")],
        [PropTriple("a", "k", int_v(1)), PropTriple("b", "k", str_v("x"))],
    )
    for name, d in (("k", FWD), ("r", INV)):
        assert g.counts(name, d)["a"] == g.counts(name, d)["b"] == 1
    report = shex_validate(g, [(SelOut("k"), INT_K)])
    assert [viol.focus for viol in report.violations] == [Node("b")]
    for v in (Node("a"), Node("b")):
        assert (v not in {viol.focus for viol in report.violations}) == brute_shex_satisfies(g, v, INT_K)


def test_untested_profile_reads_no_rows(monkeypatch, kernel_calls):
    # the targets of the hubs' p-edges have one p row in and nothing
    # else, so neither conjunct tests a row of theirs
    g = copies_graph(6)
    targets = {e.o for e in g.triples_named("p")}
    ints = open_closure(StarE(Seq(TC("k", FWD, STestType("int")), TC("k", FWD, STestType("int")))))
    shape = SAnd(ints, open_closure(StarE(Seq(TC("q", FWD, ints), TC("q", FWD, ints)))))
    calls, counted = [], set()
    sat, counts = core._sat, CommonGraph.counts
    monkeypatch.setattr(core, "_sat", lambda *args: calls.append(args[2]) or sat(*args))
    monkeypatch.setattr(CommonGraph, "counts", lambda g, name, d: counted.add((name, d)) or counts(g, name, d))

    def no_read(*args):
        raise AssertionError("a row was read")

    for name in ("out_edges", "in_edges", "node_props", "value_owners", "ends", "degrees"):
        monkeypatch.setattr(CommonGraph, name, no_read)
    assert shex_validate(g, [(SelIn("p"), shape)]).valid
    # the rule's shape and its two conjuncts, at the targets; nothing nested
    assert calls == [targets] * 3
    assert counted == {("k", FWD), ("q", FWD)}  # the counts of the names the conjuncts mention, and no total
    assert len(kernel_calls) == 2  # one bag per conjunct


def test_cap_error_names_the_least_of_two_profiles():
    # "a" has 25 p rows and "b" 30 q rows: two elements over the cap
    edges = [EdgeTriple("a", "p", f"t{i}") for i in range(25)] + [EdgeTriple("b", "q", f"t{i}") for i in range(30)]
    g = build_graph(edges + [EdgeTriple("r", "s", "a"), EdgeTriple("r", "s", "b")], [])
    assert g.degrees(FWD)["a"] == 25 and g.degrees(FWD)["b"] == 30
    ctx = shex.ShexContext(g, cap=24)
    shape = open_closure(StarE(TC("p", FWD, TOP)))
    template = shex._template(ctx, shape.expr, shape.openness)
    for order in (["a", "b"], ["b", "a"]):  # a list fixes the order the elements are visited in
        with pytest.raises(NeighborhoodTooLarge) as info:
            shex._neigh(ctx, template, order)
        assert str(info.value) == "signed neighborhood of Node(id='a') has 26 triples (cap 24)"


_DEEP_SCRIPT = """
from triform.model import FWD, EdgeTriple, NeighborhoodTooLarge, build_graph, int_v
from triform.shex import HalfOpen, SelOut, Seq, SNeigh, SNot, STestConst, StarE, TC, shex_validate, top_shape

def pairs(u, n):
    return [EdgeTriple(u, p, f"{u}{p}{i}") for p in "pq" for i in range(n)]

# a star of (p, q) pairs, with the q far end untested, then tested by a
# shape every node satisfies
untested = StarE(Seq(TC("p", FWD, top_shape()), TC("q", FWD, top_shape())))
tested = StarE(Seq(TC("p", FWD, top_shape()), TC("q", FWD, SNot(STestConst(int_v(0))))))
graphs = [
    pairs("a", 256) + pairs("b", 256) + pairs("c", 256) + pairs("d", 256),  # one count vector
    pairs("a", 256) + pairs("b", 300) + pairs("c", 280) + pairs("d", 256),  # three count vectors
    pairs("a", 256) + pairs("b", 256) + pairs("e", 501),  # e is over the cap
]
for edges in graphs:
    for star in (untested, tested):
        try:
            shex_validate(build_graph(edges, []), [(SelOut("p"), SNeigh(star, HalfOpen(frozenset())))], cap=1000)
        except NeighborhoodTooLarge as err:
            print(err)
"""


def test_too_deep_error_names_the_least_element_under_any_hash_seed():
    runs = run_under_hash_seeds(_DEEP_SCRIPT)
    assert runs[0] == runs[1]
    deep = "signed neighborhood of Node(id='a') has 512 triples, too many star parts for the matcher's recursion depth"
    over = "signed neighborhood of Node(id='e') has 1002 triples (cap 1000)"
    assert runs[0].splitlines() == [deep] * 4 + [over] * 2


def media_copies(k):
    """The media graph and its five mutations, each copied ``k`` times:
    copy i suffixes every node id with ``_i`` and every string value
    with ``+i``, so the copies share only their int and bool values."""
    graphs = {"media": media_graph(), **{name: g for name, (g, _) in media_mutations().items()}}
    for name, g in graphs.items():
        edges, props = [], []
        for i in range(k):
            edges += [EdgeTriple(f"{e.s}_{i}", e.p, f"{e.o}_{i}") for e in g.edges]
            for (n, key), w in g.props.items():
                props.append(PropTriple(f"{n}_{i}", key, str_v(f"{w.payload}+{i}") if w.tag == "str" else w))
        yield f"{name} x{k}", build_graph(edges, props)


def shared_far_ends():
    """Hubs h0..h7 with three p-edges each (two on every fourth), to
    targets t0..t5 taken in turn, so most hubs share their counts but not
    their far ends; the targets have an int, a string, a bool or no k
    value; every hub has two q-edges to u0..u3."""
    edges, props = [], []
    for i in range(8):
        edges += [EdgeTriple(f"h{i}", "p", f"t{(i + j) % 6}") for j in range(2 if i % 4 == 3 else 3)]
        edges += [EdgeTriple(f"h{i}", "q", f"u{(i + j) % 4}") for j in range(2)]
    for i, w in enumerate([int_v(1), int_v(2), str_v("x"), str_v("y"), bool_v(True)]):
        props.append(PropTriple(f"t{i}", "k", w))
    props.append(PropTriple("u0", "k", int_v(3)))
    return build_graph(edges, props)


INT_T = open_closure(TC("k", FWD, STestType("int")))
STR_T = open_closure(TC("k", FWD, STestType("str")))
# two leaves test the same (p, forward) rows with different nested shapes
TWO_LEAVES = open_closure(Seq(StarE(TC("p", FWD, INT_T)), StarE(TC("p", FWD, STR_T))))
SHARED_RULES = [
    (SelOut("p"), TWO_LEAVES),
    (SelOut("q"), open_closure(Seq(TC("p", FWD, INT_T), StarE(Alt(TC("p", FWD, STR_T), TC("q", FWD, INT_T)))))),
    (SelOut("p"), SOr(SNot(TWO_LEAVES), open_closure(StarE(TC("q", FWD, SNot(INT_T)))))),
    (SelIn("p"), open_closure(StarE(TC("p", INV, TWO_LEAVES)))),
    (SelIn("k"), open_closure(TC("k", INV, SAnd(INT_T, STestConst(int_v(0)))))),
]
# elements the graphs do not hold
OUTSIDE = {"ghost", int_v(-5), str_v("nobody"), bool_v(False)}


def _oracle_cases():
    for schema, rules in (("fixture", media_shex_rules()), ("compiled", cogsl_to_shex(media_pg_rules()))):
        for label, g in media_copies(50):
            yield f"{schema} {label}", g, rules
    yield "shared far ends", shared_far_ends(), SHARED_RULES


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("label, g, rules", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES])
def test_verdicts_equal_the_row_by_row_reference(label, g, rules, monkeypatch):
    # every element of the graph and a few outside it, for every rule's
    # shape, in one run; the reference reads each element's rows alone
    domain = set(g.nodes) | set(g.values) | OUTSIDE
    bags = []
    count_match = _bagmatch_py.count_match

    def recording(program, sigs, counts):
        bags.append((id(program), sigs, counts))
        return count_match(program, sigs, counts)

    monkeypatch.setattr(_bagmatch_py, "count_match", recording)
    ctx = shex.ShexContext(g, cap=10**6)
    got = [core._sat(ctx, shape, domain) for _, shape in rules]
    monkeypatch.setattr(_bagmatch_py, "count_match", count_match)
    assert len(bags) == len(set(bags))  # one kernel call per distinct bag per template per run
    if label == "shared far ends":  # the premise: hubs with equal counts but different far ends
        assert len({(g.counts("p", FWD)[f"h{i}"], g.counts("q", FWD)[f"h{i}"]) for i in range(8)}) == 2
    ref, templates = shex.ShexContext(g, cap=10**6), {}
    for (_, shape), sat in zip(rules, got):
        for x in domain:
            assert (x in sat) == row_sat(ref, shape, x, templates), (label, shape, x)


def test_templates_are_built_on_first_use(monkeypatch):
    built = []
    template = shex._template

    def counting(ctx, expr, openness):
        built.append(expr)
        return template(ctx, expr, openness)

    monkeypatch.setattr(shex, "_template", counting)
    g = copies_graph(4)
    never = SNeigh(PAIRS_EXPR, PAIRS)
    rules = [
        (SelOut("absent"), never),  # selects nothing
        (SelOut("p"), SAnd(STestConst(int_v(1)), never)),  # the right branch is handed an empty set
        (SelOut("k"), INT_K),
        (SelOut("q"), INT_K),  # one shape reached twice
    ]
    report = shex_validate(g, rules)
    assert {viol.rule_index for viol in report.violations} == {1}
    assert built == [INT_K.expr]  # nothing nested in INT_K has a template
