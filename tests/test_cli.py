import argparse
import contextlib
import gc
import json
from pathlib import Path

import pytest

from test_shex_memo import run_under_hash_seeds
from triform import cli, jsonio, shex
from triform.cli import main
from triform.cogsl import cogsl_to_shacl, cogsl_to_shex
from triform.examples import (
    media_edges,
    media_graph,
    media_mutations,
    media_props,
    media_pg_rules,
    media_shacl_rules,
    media_shex_rules,
)
from triform.model import FWD, EdgeTriple, PropTriple, bool_v, build_graph, int_v
from triform.pgschema import ET, CAny, CBoth, CEither, CField, GraphType

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(jsonio.dumps(doc, pretty=True))
        paths[name] = str(p)
        return str(p)

    write("graph.json", jsonio.graph_to_json(media_graph()))
    write("shacl.json", jsonio.schema_to_json("shacl", media_shacl_rules()))
    write("shex.json", jsonio.schema_to_json("shex", media_shex_rules()))
    write("pg.json", jsonio.schema_to_json("pg", media_pg_rules()))
    broken, _ = media_mutations()["six_access_edges"]
    write("broken.json", jsonio.graph_to_json(broken))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_valid_all_dialects(files, capsys):
    for schema in ("shacl.json", "shex.json", "pg.json"):
        code, out, _ = run(capsys, "validate", files["graph.json"], files[schema])
        assert code == 0
        assert json.loads(out)["valid"] is True


def test_validate_invalid_names_rule(files, capsys):
    code, out, _ = run(capsys, "validate", files["broken.json"], files["pg.json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert [v["rule_index"] for v in doc["violations"]] == [4]


def test_validate_reports_are_byte_identical(files, capsys):
    _, out1, _ = run(capsys, "validate", files["graph.json"], files["pg.json"])
    _, out2, _ = run(capsys, "validate", files["graph.json"], files["pg.json"])
    assert out1 == out2


_VALIDATE_SCRIPT = """
import contextlib, io, json
from triform.cli import main
out = []
for argv in {argvs!r}:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([argv, code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Every schema kind on the media graph, its five mutations and a
    40-accessor hub gives the same exit code, stdout and stderr under the
    hash seeds 0 and 1."""

    def write(name, doc):
        path = tmp_path / name
        path.write_text(jsonio.dumps(doc))
        return str(path)

    pg = media_pg_rules()
    person, priv = CField("email", "str"), CField("privileged", "bool")
    gt = GraphType(
        (CBoth(person, CAny()), CBoth(priv, CAny())),
        (ET(CBoth(person, CAny()), frozenset({"hasAccess", "ownsAccount", "invited"}), CAny()),),
        tuple(pg),
    )
    schemas = [
        write("shacl.json", jsonio.schema_to_json("shacl", media_shacl_rules())),
        write("shex.json", jsonio.schema_to_json("shex", media_shex_rules())),
        write("pg.json", jsonio.schema_to_json("pg", pg)),
        write("shacl_compiled.json", jsonio.schema_to_json("shacl", cogsl_to_shacl(pg))),
        write("shex_compiled.json", jsonio.schema_to_json("shex", cogsl_to_shex(pg))),
        write("graph_type.json", {"dialect": "pg", "graph_type": jsonio.graph_type_to_json(gt)}),
    ]
    hub = build_graph(
        media_edges() + [EdgeTriple(f"h{i}", "hasAccess", "a1") for i in range(40)],
        media_props() + [PropTriple(f"h{i}", "privileged", bool_v(True)) for i in range(40)],
    )
    graphs = [media_graph(), hub] + [g for g, _ in media_mutations().values()]
    argvs = [
        ["validate", write(f"graph{i}.json", jsonio.graph_to_json(g)), schema]
        for i, g in enumerate(graphs)
        for schema in schemas
    ]
    runs = [json.loads(out) for out in run_under_hash_seeds(_VALIDATE_SCRIPT.format(argvs=argvs))]
    assert runs[0] == runs[1]
    assert {code for _, code, _, _ in runs[0]} == {0, 1, 3}


def _validate_argv(files, tmp_path, code):
    """``validate`` arguments that exit with ``code``."""
    if code == 0:
        return [files["graph.json"], files["shacl.json"]]
    if code == 1:
        return [files["broken.json"], files["pg.json"]]
    if code == 2:  # well-formed JSON, malformed graph
        bad = tmp_path / "bad_graph.json"
        bad.write_text('{"edges": [{"s": "u1", "p": "knows"}], "props": []}')
        return [str(bad), files["pg.json"]]
    return [files["graph.json"], files["shex.json"], "--cap", "1"]


@pytest.mark.parametrize("caller", ["enabled", "disabled", "frozen"])
@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_validate_leaves_the_collector_as_found(files, tmp_path, capsys, code, caller):
    argv = ["validate", *_validate_argv(files, tmp_path, code)]
    enabled = gc.isenabled()
    try:
        if caller == "disabled":
            gc.disable()
        elif caller == "frozen":
            gc.freeze()
        before = (gc.isenabled(), gc.get_freeze_count())
        got = main(argv)
        after = (gc.isenabled(), gc.get_freeze_count())
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert got == code
    assert after == before
    assert before[1] > 0 if caller == "frozen" else before[1] == 0


def test_reports_equal_without_the_collector_handling(files, capsys, monkeypatch):
    cases = [
        ("validate", files[g], files[s])
        for g in ("graph.json", "broken.json")
        for s in ("shacl.json", "shex.json", "pg.json")
    ]
    handled = [run(capsys, *argv) for argv in cases]

    @contextlib.contextmanager
    def untouched():
        yield lambda: None

    monkeypatch.setattr(cli, "_inputs_out_of_gc", untouched)
    assert [run(capsys, *argv) for argv in cases] == handled
    assert {code for code, _, _ in handled} == {0, 1}


def test_validate_malformed_json(tmp_path, files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad), files["pg.json"])
    assert code == 2
    assert "invalid JSON" in err


def test_validate_dialect_mismatch(files, capsys):
    code, _, err = run(capsys, "validate", files["graph.json"], files["shacl.json"], "--dialect", "pg")
    assert code == 2
    assert "tagged" in err


def test_validate_cap_exit_code(files, capsys):
    code, _, err = run(capsys, "validate", files["graph.json"], files["shex.json"], "--cap", "1")
    assert code == 3
    assert "cap" in err


def test_cap_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("TRIFORM_CAP", "1")
    code, _, _ = run(capsys, "validate", files["graph.json"], files["shex.json"])
    assert code == 3
    monkeypatch.setenv("TRIFORM_CAP", "24")
    code, _, _ = run(capsys, "validate", files["graph.json"], files["shex.json"])
    assert code == 0


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("validate", "--cap", "-1", id="validate--1"),
        pytest.param("fuzz", "--cap", "-5", id="fuzz--5"),
        ("fuzz", "--budget", "0"),
        ("fuzz", "--max-count", "-2"),
        ("fuzz", "--nodes", "-3"),
        ("fuzz", "--trials", "-1"),
    ],
)
def test_negative_cap_is_a_usage_error(files, capsys, command, flag, value):
    args = [files["graph.json"], files["shex.json"]] if command == "validate" else ["--trials", "3"]
    code, out, err = run(capsys, command, *args, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be {'at least 1' if flag == '--budget' else 'non-negative'}\n"


def test_translate_then_validate(files, capsys, tmp_path):
    for target in ("shacl", "shex"):
        code, out, _ = run(capsys, "translate", files["pg.json"], "--to", target)
        assert code == 0
        translated = tmp_path / f"translated_{target}.json"
        translated.write_text(out)
        code2, out2, _ = run(capsys, "validate", files["graph.json"], str(translated))
        assert code2 == 0
        assert json.loads(out2)["valid"] is True
        code3, out3, _ = run(capsys, "validate", files["broken.json"], str(translated))
        assert code3 == 1
        assert [v["rule_index"] for v in json.loads(out3)["violations"]] == [4]


def test_translate_rejects_non_fragment(tmp_path, capsys):
    doc = {
        "dialect": "pg",
        "rules": [
            {
                "sel": {"op": "geq", "n": 1, "path": {"op": "filter", "kind": {"op": "of_type", "type": {"op": "any"}}}},
                "shape": {"op": "geq", "n": 1, "path": {"op": "key_step", "k": "k"}},
            }
        ],
    }
    schema = tmp_path / "top.json"
    schema.write_text(jsonio.dumps(doc))
    code, out, _ = run(capsys, "translate", str(schema), "--to", "shacl")
    assert code == 2
    parsed = json.loads(out)
    assert parsed["in_fragment"] is False
    assert parsed["violations"]


def test_check_common(files, capsys, tmp_path):
    code, out, _ = run(capsys, "check-common", files["pg.json"])
    assert code == 0
    assert json.loads(out)["in_fragment"] is True
    doc = {
        "dialect": "pg",
        "rules": [
            {
                "sel": {"op": "geq", "n": 1, "path": {"op": "pred", "p": "p"}},
                "shape": {"op": "geq", "n": 1, "path": {"op": "star", "arg": {"op": "pred", "p": "p"}}},
            }
        ],
    }
    starry = tmp_path / "starry.json"
    starry.write_text(jsonio.dumps(doc))
    code2, out2, _ = run(capsys, "check-common", str(starry))
    assert code2 == 1
    assert json.loads(out2)["in_fragment"] is False


def test_fuzz_zero_trials(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"trials": 0, "agreed": 0, "capped": 0, "divergences": []}


def test_fuzz_small_campaign(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "25", "--seed", "3", "--nodes", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 25
    assert doc["agreed"] + doc["capped"] == 25


def test_validate_sshex_dialect(tmp_path, files, capsys):
    doc = {
        "dialect": "sshex",
        "rules": [
            {
                "sel": {"op": "out", "q": "ownsAccount"},
                "shape": {
                    "op": "shape",
                    "closed": False,
                    "extra": [],
                    "expr": {"op": "repeat", "arg": {"op": "tc", "q": "email", "dir": "fwd", "shape": None}, "interval": [1, "*"]},
                },
            }
        ],
    }
    schema = tmp_path / "sshex.json"
    schema.write_text(jsonio.dumps(doc))
    code, out, _ = run(capsys, "validate", files["graph.json"], str(schema))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_shipped_fixtures_match_examples(capsys):
    # the checked-in fixture files are exactly the canonical examples,
    # in both directions: parsed, and as the serializer writes them
    assert (FIXTURES / "media_graph.json").exists()
    graph_doc = json.loads((FIXTURES / "media_graph.json").read_text())
    assert jsonio.parse_graph(graph_doc) == media_graph()
    assert jsonio.graph_to_json(media_graph()) == graph_doc
    for dialect, rules in (
        ("pg", media_pg_rules()),
        ("shacl", media_shacl_rules()),
        ("shex", media_shex_rules()),
    ):
        doc = json.loads((FIXTURES / f"media_{dialect}.json").read_text())
        assert jsonio.parse_schema(doc) == (dialect, rules)
        assert jsonio.schema_to_json(dialect, rules) == doc


def test_validate_cogsl_dialect(tmp_path, files, capsys):
    doc = jsonio.schema_to_json("pg", media_pg_rules())
    doc["dialect"] = "cogsl"
    schema = tmp_path / "cogsl.json"
    schema.write_text(jsonio.dumps(doc))
    code, out, _ = run(capsys, "validate", files["graph.json"], str(schema))
    assert code == 0
    assert json.loads(out)["valid"] is True
    # a schema outside the fragment is a usage error under the cogsl tag
    bad = {
        "dialect": "cogsl",
        "rules": [
            {
                "sel": {"op": "geq", "n": 1, "path": {"op": "pred", "p": "p"}},
                "shape": {"op": "geq", "n": 1, "path": {"op": "star", "arg": {"op": "pred", "p": "p"}}},
            }
        ],
    }
    bad_schema = tmp_path / "bad_cogsl.json"
    bad_schema.write_text(jsonio.dumps(bad))
    code2, out2, _ = run(capsys, "validate", files["graph.json"], str(bad_schema))
    assert code2 == 2
    assert json.loads(out2)["in_fragment"] is False


def test_graph_type_validate(tmp_path, files, capsys):
    doc = {
        "dialect": "pg",
        "graph_type": {
            "node_types": [{"op": "any"}],
            "edge_types": [{"op": "et", "src": {"op": "any"}, "labels": "*", "dst": {"op": "any"}}],
            "constraints": [],
        },
    }
    schema = tmp_path / "gt.json"
    schema.write_text(jsonio.dumps(doc))
    code, out, _ = run(capsys, "validate", files["graph.json"], str(schema))
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize("with_k", [False, True])
def test_unregistered_value_type_is_a_parse_error(tmp_path, capsys, with_k):
    """An unknown type is rejected when the schema loads, whether or not
    the graph has a value that evaluation would test against it."""
    gt = GraphType((CEither(CField("k", "str"), CField("k", "bogus")),), (ET(CAny(), None, CAny()),), ())
    schema = tmp_path / "gt.json"
    schema.write_text(jsonio.dumps({"dialect": "pg", "graph_type": jsonio.graph_type_to_json(gt)}))
    props = [PropTriple("a", "k", int_v(1))] if with_k else []
    graph = tmp_path / "g.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(build_graph([EdgeTriple("a", "p", "b")], props))))
    code, out, err = run(capsys, "validate", str(graph), str(schema))
    assert (code, out) == (2, "")
    assert err == "error: at $.graph_type.node_types[0].args[1].type: unknown value type 'bogus'\n"


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "validate" in out


def test_deeply_nested_schema_is_a_parse_error(files, tmp_path, capsys):
    depth = 2000
    shape = '{"op": "not", "arg": ' * depth + '{"op": "top"}' + "}" * depth
    schema = tmp_path / "deep.json"
    schema.write_text(
        '{"dialect": "shacl", "rules": [{"sel": {"op": "exists_out", "q": "ownsAccount"}, '
        f'"shape": {shape}}}]}}'
    )
    code, out, err = run(capsys, "validate", files["graph.json"], str(schema))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_star_is_a_capability_error(tmp_path, capsys):
    # 256 p-edges and 256 q-edges under a star of (p, q) pairs: within
    # the cap, but too many star parts for the matcher's recursion depth
    graph = tmp_path / "star.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_json(build_graph(
        [EdgeTriple("a", p, f"{p}{i}") for p in "pq" for i in range(256)], []
    ))))
    top = shex.top_shape()
    star = shex.StarE(shex.Seq(shex.TC("p", FWD, top), shex.TC("q", FWD, top)))
    rules = [(shex.SelOut("p"), shex.SNeigh(star, shex.HalfOpen(frozenset())))]
    schema = tmp_path / "star_schema.json"
    schema.write_text(jsonio.dumps(jsonio.schema_to_json("shex", rules)))
    code, out, err = run(capsys, "validate", str(graph), str(schema), "--cap", "1000")
    assert code == cli.EXIT_CAPABILITY
    assert out == ""
    assert err.startswith("error: signed neighborhood of Node(id='a')") and err.count("\n") == 1


def test_internal_error_has_its_own_exit_code(files, capsys, monkeypatch):
    def crash(graph, rules):
        raise KeyError("boom")

    monkeypatch.setattr("triform.cli.pg_validate", crash)
    code, out, err = run(capsys, "validate", files["graph.json"], files["pg.json"])
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "KeyError: 'boom'" in err


def oracle_match(capsys, files, tmp_path, **fields):
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"focus": {"kind": "node", "id": "u1"}, "expr": {"op": "eps"}, **fields}))
    return run(capsys, "oracle", "match", files["graph.json"], str(query))


def test_oracle_match_openness(files, tmp_path, capsys):
    # u1 has outgoing triples: the empty expression matches only when they are tolerated
    tolerated = (0, '{"result":true}\n', "")
    assert oracle_match(capsys, files, tmp_path) == tolerated
    assert oracle_match(capsys, files, tmp_path, openness={"open": {"r": [], "q": []}}) == tolerated
    assert oracle_match(capsys, files, tmp_path, openness={"half_open": {"r": []}}) == (0, '{"result":false}\n', "")


@pytest.mark.parametrize(
    "openness, error",
    [
        ([1], "at $.openness: expected an object, got list"),
        ({"op": "test_type", "vt": "int"}, "at $.openness.op: unknown field"),
        ({"expr": {"op": "tc"}, "half_open": {"r": []}}, "at $.openness.expr: unknown field"),
        ({}, "at $.openness: neigh needs exactly one of half_open or open"),
        ({"half_open": {"r": [], "q": []}}, "at $.openness.half_open.q: unknown field"),
    ],
    ids=["list", "shape-op", "expr", "empty", "inner-field"],
)
def test_oracle_match_rejects_a_bad_openness(files, tmp_path, capsys, openness, error):
    code, out, err = oracle_match(capsys, files, tmp_path, openness=openness)
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


def oracle_path(capsys, files, tmp_path, **fields):
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"focus": {"kind": "node", "id": "u1"}, **fields}))
    return run(capsys, "oracle", "path", files["graph.json"], str(query))


def test_oracle_path_reads_only_the_shacl_and_pg_dialects(files, tmp_path, capsys):
    step, pred = {"op": "step", "q": "ownsAccount"}, {"op": "pred", "p": "ownsAccount"}
    image = (0, '{"result":[{"id":"a1","kind":"node"}]}\n', "")
    assert oracle_path(capsys, files, tmp_path, path=step) == image  # SHACL by default
    assert oracle_path(capsys, files, tmp_path, path=step, dialect="shacl") == image
    assert oracle_path(capsys, files, tmp_path, path=pred, dialect="pg") == image
    for dialect in ("shex", 5, None):
        code, out, err = oracle_path(capsys, files, tmp_path, path=step, dialect=dialect)
        assert (code, out) == (2, "")
        assert err == f'error: at $.dialect: expected "shacl" or "pg", got {dialect!r}\n'


@pytest.mark.parametrize(
    "fields, stray",
    [({"path": {"op": "bogus"}}, "path"), ({"dialect": "owl"}, "dialect")],
    ids=["path", "dialect"],
)
def test_oracle_match_rejects_the_path_fields(files, tmp_path, capsys, fields, stray):
    assert oracle_match(capsys, files, tmp_path, **fields) == (2, "", f"error: at $.{stray}: unknown field\n")


@pytest.mark.parametrize(
    "fields, stray",
    [({"expr": {"op": "bogus"}}, "expr"), ({"openness": 5}, "openness")],
    ids=["expr", "openness"],
)
def test_oracle_path_rejects_the_match_fields(files, tmp_path, capsys, fields, stray):
    step = {"op": "step", "q": "ownsAccount"}
    assert oracle_path(capsys, files, tmp_path, path=step, **fields) == (2, "", f"error: at $.{stray}: unknown field\n")


def test_main_builds_the_parser_once(files, capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run(capsys, "check-common", files["pg.json"])[0] == 0
    assert run(capsys, "translate", files["pg.json"], "--to", "shex")[0] == 0
    assert made.count("triform") == 1
