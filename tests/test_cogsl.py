import functools
import hashlib
import random
from collections import Counter

import pytest

from triform.cogsl import (
    check_common,
    cogsl_to_shacl,
    cogsl_to_shex,
    cogsl_validate,
)
from triform.core import And, Not, Or
from triform.harness import (
    GenParams,
    gen_cogsl_schema,
    gen_graph,
)
from triform.model import (
    EdgeTriple,
    Node,
    NotInFragment,
    PropTriple,
    build_graph,
    int_v,
)
from triform.pgschema import (
    CAny,
    CEmpty,
    CField,
    FKeyIs,
    FOfType,
    PConcat,
    PFilter,
    PgGeq,
    PgLeq,
    PgPath,
    PNotPreds,
    PPred,
    PStar,
    eval_pg_path,
    inv_key_path,
    key_path,
    pred_path,
)
from triform.shacl import shacl_satisfies, shacl_validate
from triform.shex import shex_satisfies, shex_validate
import triform.cogsl as cg
from triform import jsonio
from triform import shex as sx
from triform.examples import media_pg_rules

from helpers import filter_path


def test_media_rules_are_common(pg_c1_c5):
    assert check_common(pg_c1_c5).in_fragment


def test_universal_selector_rejected():
    rules = [(PgGeq(1, filter_path(FOfType(CAny()))), PgGeq(1, key_path("k")))]
    diags = check_common(rules)
    assert not diags.in_fragment
    assert any(v.rule == "selector-form" for v in diags.violations)


def test_star_rejected():
    rules = [(PgGeq(1, pred_path("p")), PgGeq(1, PgPath(None, PStar(PPred("p")), None)))]
    diags = check_common(rules)
    assert any(v.rule == "star-free" for v in diags.violations)


def test_not_preds_outside_guard_rejected():
    rules = [(PgGeq(1, pred_path("p")), PgGeq(1, PgPath(None, PNotPreds(frozenset()), None)))]
    diags = check_common(rules)
    assert any(v.rule in ("no-not-preds", "guard-pairing") for v in diags.violations)


def test_unpaired_guard_halves_rejected():
    closed = PgGeq(1, filter_path(FOfType(CField("k", "int"))))
    rules = [(PgGeq(1, key_path("k")), closed)]
    diags = check_common(rules)
    assert any(v.rule == "guard-pairing" for v in diags.violations)
    ban = PgLeq(0, PgPath(None, PNotPreds(frozenset({"p"})), None))
    diags2 = check_common([(PgGeq(1, key_path("k")), ban)])
    assert any(v.rule == "guard-pairing" for v in diags2.violations)


def test_closed_content_in_path_rejected():
    bad = PgGeq(
        1, PgPath(None, PConcat(PFilter(FOfType(CField("k", "int"))), PPred("p")), None)
    )
    diags = check_common([(PgGeq(1, pred_path("p")), bad)])
    assert any(v.rule == "open-content-only" for v in diags.violations)


def test_multi_step_counting_rejected():
    two_steps = PgLeq(3, PgPath(None, PConcat(PPred("p"), PPred("q")), None))
    diags = check_common([(PgGeq(1, pred_path("p")), two_steps)])
    assert any(v.rule == "count-path" for v in diags.violations)


def test_sort_mismatch_rejected():
    rules = [(PgGeq(1, inv_key_path("k")), PgGeq(2, pred_path("p")))]
    diags = check_common(rules)
    assert any(v.rule == "sort-match" for v in diags.violations)


def test_translators_require_fragment():
    bad = [(PgGeq(1, filter_path(FOfType(CAny()))), PgGeq(1, key_path("k")))]
    with pytest.raises(NotInFragment):
        cogsl_to_shacl(bad)
    with pytest.raises(NotInFragment):
        cogsl_to_shex(bad)
    with pytest.raises(NotInFragment):
        cogsl_validate(build_graph([], []), bad)


def test_cogsl_validate_media(g_media, pg_c1_c5):
    assert cogsl_validate(g_media, pg_c1_c5).valid


def test_cogsl_validate_six_access(mutations, pg_c1_c5):
    broken, idx = mutations["six_access_edges"]
    report = cogsl_validate(broken, pg_c1_c5)
    assert report.violated_rules() == [idx]


def test_cogsl_validate_empty_graph(pg_c1_c5):
    assert cogsl_validate(build_graph([], []), pg_c1_c5).valid


def test_empty_schema_translates_to_empty():
    assert cogsl_to_shacl([]) == []
    assert cogsl_to_shex([]) == []


def test_translations_agree_on_golden(g_media, mutations, pg_c1_c5):
    shacl_rules = cogsl_to_shacl(pg_c1_c5)
    shex_rules = cogsl_to_shex(pg_c1_c5)
    assert shacl_validate(g_media, shacl_rules).valid
    assert shex_validate(g_media, shex_rules).valid
    for name, (broken, idx) in mutations.items():
        assert cogsl_validate(broken, pg_c1_c5).violated_rules() == [idx], name
        assert shacl_validate(broken, shacl_rules).violated_rules() == [idx], name
        assert shex_validate(broken, shex_rules).violated_rules() == [idx], name


def test_empty_closed_guard_becomes_closed_p():
    # exists {} and nothing outside P: the closed-record guard
    guard = And(
        PgGeq(1, filter_path(FOfType(CEmpty()))),
        PgLeq(0, PgPath(None, PNotPreds(frozenset({"p"})), None)),
    )
    rules = [(PgGeq(1, pred_path("p")), guard)]
    shacl_rules = cogsl_to_shacl(rules)
    shex_rules = cogsl_to_shex(rules)
    bare = build_graph([EdgeTriple("u", "p", "v")], [])
    assert shacl_validate(bare, shacl_rules).valid
    assert shex_validate(bare, shex_rules).valid
    assert cogsl_validate(bare, rules).valid
    keyed = build_graph([EdgeTriple("u", "p", "v")], [PropTriple("u", "k", int_v(1))])
    assert not shacl_validate(keyed, shacl_rules).valid
    assert not shex_validate(keyed, shex_rules).valid
    assert not cogsl_validate(keyed, rules).valid


def test_geq_zero_atom_translates_to_top():
    rules = [(PgGeq(1, pred_path("p")), PgGeq(0, pred_path("q")))]
    g = build_graph([EdgeTriple("u", "p", "v")], [])
    assert cogsl_validate(g, rules).valid
    assert shacl_validate(g, cogsl_to_shacl(rules)).valid
    assert shex_validate(g, cogsl_to_shex(rules)).valid


def test_filter_lemma_equivalences(g_media):
    """A filter's dialect translation holds at v iff (v, v) is in the
    filter's own relation."""
    rng = random.Random(79)
    p = GenParams(seed=79)
    from triform.harness import _gen_filter  # test-only reuse of the generator

    for _ in range(60):
        kind = _gen_filter(rng, p)
        shacl_shape = cg._filter(cg.SHACL, kind)
        shex_shape = cg._filter(cg.SHEX, kind)
        for u in sorted(g_media.nodes):
            in_relation = bool(eval_pg_path(g_media, Node(u), filter_path(kind)))
            assert shacl_satisfies(g_media, Node(u), shacl_shape) == in_relation
            assert shex_satisfies(g_media, Node(u), shex_shape) == in_relation


def test_generated_schemas_in_fragment_and_agree():
    for seed in range(80):
        params = GenParams(seed=seed, node_count=6, schema_size_budget=4)
        rules = gen_cogsl_schema(params)
        assert check_common(rules).in_fragment
        g = gen_graph(params)
        a = cogsl_validate(g, rules).violated_rules()
        b = shacl_validate(g, cogsl_to_shacl(rules)).violated_rules()
        c = shex_validate(g, cogsl_to_shex(rules)).violated_rules()
        assert a == b == c, seed


def test_selector_folding_key_value_head():
    # selector with a {k:c} head: widened selector plus antecedent folding
    rules = [
        (
            PgGeq(1, PgPath(None, PFilter(FKeyIs("k", int_v(5))), None)),
            PgGeq(1, key_path("m")),
        )
    ]
    shacl_rules = cogsl_to_shacl(rules)
    shex_rules = cogsl_to_shex(rules)
    # k present but not 5: selected by the widened selector, passes vacuously
    vacuous = build_graph([], [PropTriple("u", "k", int_v(6))])
    assert cogsl_validate(vacuous, rules).valid
    assert shacl_validate(vacuous, shacl_rules).valid
    assert shex_validate(vacuous, shex_rules).valid
    # k = 5 without m: violation in all three dialects
    broken = build_graph([], [PropTriple("u", "k", int_v(5))])
    assert not cogsl_validate(broken, rules).valid
    assert not shacl_validate(broken, shacl_rules).valid
    assert not shex_validate(broken, shex_rules).valid


# sha256 of the compiled SHACL and then ShEx JSON of every schema below
GOLDEN_COMPILED_SHA256 = "22e38bab9c41102721e8ea0c38ffbeb1d7f4d2c4a682ecb7d5e60acfce4a2128"


@functools.lru_cache(maxsize=None)
def golden_schemas():
    """Media rules, then `gen_cogsl_schema` seeds 0-399 at each (nodes, budget)."""
    schemas = [media_pg_rules()]
    for nodes, budget in ((8, 5), (12, 8), (40, 5)):
        for seed in range(400):
            params = GenParams(seed=seed, node_count=nodes, schema_size_budget=budget)
            schemas.append(gen_cogsl_schema(params))
    return schemas


def test_compiled_output_is_golden():
    """Pins the compilers' bytes: `triform translate` and every consumer of
    a compiled schema read them."""
    schemas = golden_schemas()
    digest = hashlib.sha256()
    for rules in schemas:
        for dialect, compile_ in (("shacl", cogsl_to_shacl), ("shex", cogsl_to_shex)):
            doc = jsonio.schema_to_json(dialect, compile_(rules))
            digest.update(jsonio.dumps(doc).encode())
    assert len(schemas) == 1201
    assert digest.hexdigest() == GOLDEN_COMPILED_SHA256


def _constraints(e):
    if isinstance(e, (sx.Seq, sx.Alt)):
        return _constraints(e.left) + _constraints(e.right)
    if isinstance(e, sx.StarE):
        return _constraints(e.inner)
    return [e] if isinstance(e, sx.TC) else []


def test_compiled_count_atoms_bypass_the_kernel():
    """Every count atom the ShEx compiler writes (n repetitions of one
    constraint, open to every other row) is lowered to a core count atom,
    as it comes from the compiler and as `validate` reads it back from
    JSON; the closed shapes keep their templates.  Over the schemas of
    the golden test."""
    ctx = sx.ShexContext(build_graph([], []), None)
    seen = Counter()

    def walk(shape):
        kind = type(shape)
        if kind is And or kind is Or:
            walk(shape.left)
            walk(shape.right)
        elif kind is Not:
            walk(shape.inner)
        elif kind is sx.SNeigh and not sx._is_top(shape.expr, shape.openness):
            lowered = sx._count_atom(ctx, shape)
            closed = type(shape.openness) is sx.HalfOpen
            assert (lowered is None) == closed, shape
            seen["closed" if closed else "count"] += 1
            for tc in _constraints(shape.expr):
                walk(tc.shape)

    for rules in golden_schemas():
        compiled = cogsl_to_shex(rules)
        _, parsed = jsonio.parse_schema(jsonio.schema_to_json("shex", compiled))
        for _, shape in compiled + parsed:
            walk(shape)
    assert seen["count"] > 10000 and seen["closed"] > 100, seen
