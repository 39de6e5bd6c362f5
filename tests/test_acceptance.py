"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, tolerances, and budgets:
  1. golden media suite        exact rule-level agreement, < 1 s
  2. differential campaign     >= 1000 trials, 100% agreement, < 60 s
  3. copyswap suite            >= 500 valid pairs, 0 failures
  4. similar-neighbourhood     >= 200 pairs, equal verdicts
  5. counting divergence       exact verdicts on the golden pair
  6. oracle equivalence        exhaustive grid + 500 random, < 120 s combined
  7. rewrite preservation      >= 300 instances per rewrite, 0 mismatches
"""

import itertools
import random
import time

from triform.examples import (
    counting_pair,
    counting_shacl_rule,
    counting_shex_shape,
    media_graph,
    media_mutations,
    media_pg_rules,
    media_shacl_rules,
    media_shex_rules,
)
from triform.harness import (
    GenParams,
    brute_edge_type_member,
    brute_match_oracle,
    brute_path_oracle,
    brute_pg_path_oracle,
    copyswap,
    gen_cn_neighbourhood,
    gen_graph,
    gen_pg_path,
    gen_shacl_path,
    gen_shacl_schema,
    gen_shex_schema,
    gen_shex_shape,
    gen_sshex_shape,
    run_campaign,
    shacl_max_bound,
    similar,
    sshex_satisfies_oracle,
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
    build_graph,
    str_v,
)
from triform.pgschema import (
    PgPath,
    edge_type_member,
    eval_pg_path,
)
from triform.pgschema import CAny, CBoth, CEither, CEmpty, CField, EBoth, EEither, ET
from triform.shacl import eval_path, shacl_validate
from triform.shex import (
    NO_NAMES,
    Alt,
    Eps,
    HalfOpen,
    Open,
    Seq,
    StarE,
    STestType,
    TC,
    match_triple_expr,
    shex_satisfies,
    shex_validate,
    top_shape,
)
from triform.sshex import (
    eliminate_extra,
    normalize_shape_intervals,
    shex_to_sshex,
    sshex_to_shex,
)
from triform.cogsl import cogsl_validate

from helpers import edge_type_to_path, normalize_edge_type


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_golden_media_suite():
    start = time.perf_counter()
    g = media_graph()
    shacl_rules = media_shacl_rules()
    shex_rules = media_shex_rules()
    pg_rules = media_pg_rules()
    ok = (
        shacl_validate(g, shacl_rules).valid
        and shex_validate(g, shex_rules).valid
        and cogsl_validate(g, pg_rules).valid
    )
    details = []
    for name, (broken, idx) in media_mutations().items():
        got = (
            shacl_validate(broken, shacl_rules).violated_rules(),
            shex_validate(broken, shex_rules).violated_rules(),
            cogsl_validate(broken, pg_rules).violated_rules(),
        )
        if got != ([idx], [idx], [idx]):
            ok = False
            details.append(f"{name}: expected rule {idx}, got {got}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        "golden media suite",
        ok,
        f"3 dialects valid, 5 mutations rule-exact, {elapsed:.2f}s"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_differential_campaign():
    start = time.perf_counter()
    params = GenParams(node_count=10, schema_size_budget=6)
    summary = run_campaign(1000, params, seed=20260810)
    elapsed = time.perf_counter() - start
    effective = summary.trials - summary.capped
    ok = (
        summary.trials >= 1000
        and summary.agreed == effective
        and not summary.divergences
        and elapsed < 60.0
    )
    _report(
        "differential campaign",
        ok,
        f"{summary.trials} trials, {summary.agreed}/{effective} agreed, "
        f"{summary.capped} capped, {len(summary.divergences)} divergences, {elapsed:.1f}s",
    )


def test_criterion_copyswap_suite():
    start = time.perf_counter()
    valid_pairs = 0
    failures = 0
    seed = 0
    attempts = 0
    while valid_pairs < 500 and attempts < 20000:
        attempts += 1
        params = GenParams(
            seed=seed, node_count=4, edge_density=0.22, prop_density=0.3, schema_size_budget=3
        )
        seed += 1
        g = gen_graph(params)
        if not g.edges:
            continue
        rules = gen_shex_schema(params)
        try:
            if not shex_validate(g, rules).valid:
                continue
        except NeighborhoodTooLarge:
            continue
        valid_pairs += 1
        for e in sorted(g.edges, key=lambda t: (t.s, t.p, t.o)):
            swapped = copyswap(g, e)
            try:
                if not shex_validate(swapped, rules).valid:
                    failures += 1
            except NeighborhoodTooLarge:
                continue
    elapsed = time.perf_counter() - start
    ok = valid_pairs >= 500 and failures == 0
    _report(
        "copyswap suite",
        ok,
        f"{valid_pairs} valid (graph, schema) pairs, {failures} failures after "
        f"swapping every edge, {elapsed:.1f}s",
    )


def test_criterion_similar_neighbourhood_suite():
    start = time.perf_counter()
    pairs = 0
    unequal = 0
    for seed in range(200):
        params = GenParams(seed=seed, schema_size_budget=3, max_count_n=3)
        rules = gen_shacl_schema(params)
        bound = shacl_max_bound(rules)
        # star graphs carry no values and schemas cannot name nodes, so
        # schema constants never occur in the generated neighbourhoods
        preds = params.pred_pool[: 1 + seed % len(params.pred_pool)]
        g1 = gen_cn_neighbourhood("c", bound + 1, preds, params)
        g2 = gen_cn_neighbourhood("c", bound + 1, preds, params.with_seed(seed + 90000))
        assert similar(g1, g2)
        pairs += 1
        if shacl_validate(g1, rules).valid != shacl_validate(g2, rules).valid:
            unequal += 1
    elapsed = time.perf_counter() - start
    ok = pairs >= 200 and unequal == 0
    _report(
        "similar-neighbourhood suite",
        ok,
        f"{pairs} similar pairs with bound+1 multiplicity, {unequal} verdict "
        f"differences, {elapsed:.1f}s",
    )


def test_criterion_counting_divergence():
    left, right, hub = counting_pair()
    rule = counting_shacl_rule()
    shacl_left = shacl_validate(left, [rule]).valid
    shacl_right = shacl_validate(right, [rule]).valid
    shape = counting_shex_shape()
    shex_left = shex_satisfies(left, Node(hub), shape)
    shex_right = shex_satisfies(right, Node(hub), shape)
    ok = (shacl_left, shacl_right) == (False, True) and (shex_left, shex_right) == (True, True)
    _report(
        "counting divergence",
        ok,
        f"node-counting schema: left={shacl_left} right={shacl_right}; "
        f"triple-counting shape: left={shex_left} right={shex_right}",
    )


def _grid_neighborhood_graphs():
    """Star graphs realizing every signed-triple multiset of size <= 5
    over two predicates and one key (plus loop variants)."""
    kinds = [("p", FWD), ("p", INV), ("q", FWD), ("q", INV), ("k", FWD)]
    graphs = []
    for size in range(6):
        for combo in itertools.combinations_with_replacement(kinds, size):
            if combo.count(("k", FWD)) > 1:
                continue  # a node carries at most one triple per key
            edges = []
            props = []
            for i, (name, direction) in enumerate(combo):
                if name == "k":
                    props.append(PropTriple("c", "k", str_v(f"w{i}")))
                elif direction == FWD:
                    edges.append(EdgeTriple("c", name, f"t{i}"))
                else:
                    edges.append(EdgeTriple(f"t{i}", name, "c"))
            graphs.append(build_graph(edges, props))
    graphs.append(build_graph([EdgeTriple("c", "p", "c")], []))
    graphs.append(build_graph([EdgeTriple("c", "p", "c"), EdgeTriple("c", "q", "t0")], []))
    return graphs


def _grid_expressions():
    """Every combinator shape up to depth 3 over a small leaf alphabet."""
    top = top_shape()
    leaves = [
        Eps(),
        TC("p", FWD, top),
        TC("p", INV, top),
        TC("q", FWD, top),
        TC("k", FWD, STestType("str")),
    ]
    depth2 = [Seq(a, b) for a in leaves for b in leaves]
    depth2 += [Alt(a, b) for a in leaves for b in leaves]
    depth2 += [StarE(a) for a in leaves]
    depth3 = [StarE(c) for c in depth2[:20]]
    depth3 += [Seq(c, d) for c in depth2[::5] for d in leaves]
    depth3 += [Alt(c, d) for c in depth2[::5] for d in leaves]
    return leaves + depth2 + depth3


def test_criterion_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checks = 0

    # exhaustive grid: every neighborhood multiset x every grid expression
    opennesses = [HalfOpen(NO_NAMES), Open(NO_NAMES, NO_NAMES), Open(frozenset({"p"}), frozenset({"q"}))]
    graphs = _grid_neighborhood_graphs()
    exprs = _grid_expressions()
    for g in graphs:
        for expr in exprs:
            for openness in opennesses[:2]:
                got = match_triple_expr(g, Node("c"), expr, openness)
                want = brute_match_oracle(g, Node("c"), expr, openness)
                checks += 1
                if got != want:
                    mismatches += 1

    # random matcher cases on generated graphs
    rng = random.Random(20260810)
    from triform.harness import gen_openness, gen_triple_expr

    random_cases = 0
    while random_cases < 500:
        params = GenParams(
            seed=rng.randrange(10**6), node_count=4, edge_density=0.25, prop_density=0.4
        )
        g = gen_graph(params)
        expr = gen_triple_expr(rng, params, 3)
        openness = gen_openness(rng, params)
        for u in sorted(g.nodes):
            try:
                want = brute_match_oracle(g, Node(u), expr, openness)
            except InstanceTooLarge:
                continue
            got = match_triple_expr(g, Node(u), expr, openness)
            checks += 1
            random_cases += 1
            if got != want:
                mismatches += 1

    # path evaluators against the relational closure oracle
    path_params = GenParams(
        node_count=6,
        edge_density=0.18,
        prop_density=0.25,
        value_pool=(str_v("a"), str_v("b")),
        key_pool=("k1", "k2"),
    )
    for seed in range(40):
        g = gen_graph(path_params.with_seed(seed))
        prng = random.Random(f"paths-{seed}")
        for _ in range(12):
            spath = gen_shacl_path(prng, path_params, 4)
            for u in sorted(g.nodes):
                checks += 1
                if eval_path(g, Node(u), spath) != brute_path_oracle(g, Node(u), spath):
                    mismatches += 1
        for _ in range(12):
            ppath = gen_pg_path(prng, path_params, 3)
            foci = (
                [Val(w) for w in g.values]
                if ppath.src_key is not None
                else [Node(u) for u in sorted(g.nodes)]
            )
            for v in foci:
                checks += 1
                if eval_pg_path(g, v, ppath) != brute_pg_path_oracle(g, v, ppath):
                    mismatches += 1

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _report(
        "oracle equivalence",
        ok,
        f"{checks} checks (grid: {len(graphs)} neighborhoods x {len(exprs)} expressions, "
        f"500 random matches, 40 path graphs), {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_rewrite_preservation():
    start = time.perf_counter()
    counts = {}
    mismatches = {}

    def record(name, ok):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            mismatches[name] = mismatches.get(name, 0) + 1

    rng = random.Random(424242)
    small = GenParams(node_count=3, edge_density=0.3, prop_density=0.4)

    instances = 0
    seed = 0
    while instances < 300:
        params = small.with_seed(seed)
        seed += 1
        g = gen_graph(params)
        se = gen_sshex_shape(rng, params, 2, allow_extra=False)
        se_n = normalize_shape_intervals(se)
        used = False
        for u in sorted(g.nodes):
            try:
                a = sshex_satisfies_oracle(g, Node(u), se)
                b = sshex_satisfies_oracle(g, Node(u), se_n)
            except InstanceTooLarge:
                continue
            record("normalize_intervals", a == b)
            used = True
        if used:
            instances += 1

    instances = 0
    while instances < 300:
        params = small.with_seed(seed)
        seed += 1
        g = gen_graph(params)
        se = normalize_shape_intervals(gen_sshex_shape(rng, params, 2, allow_extra=True))
        free = eliminate_extra(se)
        shape = sshex_to_shex(free)
        used = False
        for u in sorted(g.nodes):
            try:
                want = sshex_satisfies_oracle(g, Node(u), se)
                mid = sshex_satisfies_oracle(g, Node(u), free)
            except InstanceTooLarge:
                continue
            got = shex_satisfies(g, Node(u), shape)
            record("eliminate_extra", want == mid == got)
            used = True
        if used:
            instances += 1

    for i in range(300):
        params = small.with_seed(seed + i)
        g = gen_graph(params)
        shape = gen_shex_shape(rng, params, 2)
        back = sshex_to_shex(shex_to_sshex(shape))
        for v in [Node(u) for u in sorted(g.nodes)] + [Val(w) for w in g.values]:
            record("round_trip", shex_satisfies(g, v, shape) == shex_satisfies(g, v, back))
    seed += 300

    def gen_content(depth):
        if depth == 0 or rng.random() < 0.5:
            roll = rng.random()
            if roll < 0.25:
                return CAny()
            if roll < 0.4:
                return CEmpty()
            return CField(rng.choice(("k1", "k2")), rng.choice(("int", "str", "any")))
        ctor = CBoth if rng.random() < 0.5 else CEither
        return ctor(gen_content(depth - 1), gen_content(depth - 1))

    def gen_et(depth):
        if depth == 0 or rng.random() < 0.55:
            labels = (
                None
                if rng.random() < 0.3
                else frozenset(rng.sample(("p", "q", "r"), rng.randrange(0, 3)))
            )
            return ET(gen_content(1), labels, gen_content(1))
        ctor = EBoth if rng.random() < 0.5 else EEither
        return ctor(gen_et(depth - 1), gen_et(depth - 1))

    et_params = GenParams(node_count=5, edge_density=0.3, prop_density=0.4)
    norm_instances = 0
    path_instances = 0
    while norm_instances < 300 or path_instances < 300:
        params = et_params.with_seed(seed)
        seed += 1
        g = gen_graph(params)
        t = gen_et(2)
        prims = normalize_edge_type(t)
        if norm_instances < 300:
            for e in sorted(g.edges, key=lambda x: (x.s, x.p, x.o)):
                want = brute_edge_type_member(g, e, t)
                record(
                    "normalize_edge_type",
                    edge_type_member(g, e, t) == want
                    and any(edge_type_member(g, e, pr) for pr in prims) == want,
                )
            norm_instances += 1
        if len(prims) <= 6 and path_instances < 300:
            pos = PgPath(None, edge_type_to_path(t, negated=False), None)
            neg = PgPath(None, edge_type_to_path(t, negated=True), None)
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
                    record("edge_type_to_path", (Node(w) in img_pos) == want_pos)
                    record("edge_type_to_path", (Node(w) in img_neg) == want_neg)
            path_instances += 1

    elapsed = time.perf_counter() - start
    ok = not mismatches and all(counts.get(k, 0) >= 300 for k in (
        "normalize_intervals",
        "eliminate_extra",
        "round_trip",
        "normalize_edge_type",
        "edge_type_to_path",
    ))
    _report(
        "rewrite preservation",
        ok,
        "; ".join(f"{k}: {counts.get(k, 0)} checks" for k in sorted(counts))
        + (f"; mismatches: {mismatches}" if mismatches else f"; 0 mismatches, {elapsed:.1f}s"),
    )
