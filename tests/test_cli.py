import json
from pathlib import Path

import pytest

from triform import jsonio
from triform.cli import main
from triform.examples import (
    media_graph,
    media_mutations,
    media_pg_rules,
    media_shacl_rules,
    media_shex_rules,
)

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


@pytest.mark.parametrize("command, cap", [("validate", "-1"), ("fuzz", "-5")])
def test_negative_cap_is_a_usage_error(files, capsys, command, cap):
    args = [files["graph.json"], files["shex.json"]] if command == "validate" else ["--trials", "3"]
    code, out, err = run(capsys, command, *args, "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == "error: --cap must be non-negative\n"


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
    # the checked-in fixture files are exactly the canonical examples
    assert (FIXTURES / "media_graph.json").exists()
    graph_doc = json.loads((FIXTURES / "media_graph.json").read_text())
    assert jsonio.parse_graph(graph_doc) == media_graph()
    pg_doc = json.loads((FIXTURES / "media_pg.json").read_text())
    assert jsonio.parse_schema(pg_doc) == ("pg", media_pg_rules())
    shacl_doc = json.loads((FIXTURES / "media_shacl.json").read_text())
    assert jsonio.parse_schema(shacl_doc) == ("shacl", media_shacl_rules())
    shex_doc = json.loads((FIXTURES / "media_shex.json").read_text())
    assert jsonio.parse_schema(shex_doc) == ("shex", media_shex_rules())


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


def test_internal_error_has_its_own_exit_code(files, capsys, monkeypatch):
    def crash(graph, rules):
        raise KeyError("boom")

    monkeypatch.setattr("triform.cli.pg_validate", crash)
    code, out, err = run(capsys, "validate", files["graph.json"], files["pg.json"])
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "KeyError: 'boom'" in err
