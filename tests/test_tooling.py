"""The benchmark's tracer patches functions where their callers look
them up; every patched name must still exist there, or a traced run
would fail.  The CLI's import stays free of the modules only some
commands need, and the README's Python examples run as written."""

import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_patch_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for modname, attr, _ in tracer.PATCHES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


FIXTURE_GRAPH = Path(__file__).resolve().parent.parent / "fixtures" / "media_graph.json"


def test_parse_graph_builds_through_the_module_global(monkeypatch):
    """The tracer times ``model.build_graph`` by patching the name
    ``jsonio.build_graph``; parsing must call it, once."""
    from triform import jsonio

    calls = []
    build = jsonio.build_graph
    monkeypatch.setattr(jsonio, "build_graph", lambda *args: calls.append(1) or build(*args))
    g = jsonio.parse_graph(json.loads(FIXTURE_GRAPH.read_text()))
    assert len(calls) == 1
    assert len(g.edges) > 0 and len(g.props) > 0


SRC = Path(__file__).resolve().parent.parent / "src"


# the modules that load only with the commands that run their code
LAZY = {"triform.cogsl", "triform.sshex", "triform._bagmatch_py"}


def test_cli_import_loads_neither_dataclasses_nor_harness():
    """Every ``triform`` process pays for the import of ``triform.cli``:
    the AST classes are built by ``model.frozen``, not by ``dataclasses``
    (which imports ``inspect``), the generators and oracles of
    ``harness`` load only for the commands that use them, and so do the
    common-fragment compiler, the standard-ShEx front end and the ShEx
    matcher kernel (:data:`LAZY`); ``traceback`` loads only on a crash."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    watched = {"dataclasses", "inspect", "traceback", "triform.harness"} | LAZY
    code = f"import sys, triform.cli; print(sorted({sorted(watched)!r} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


_FRESH_CLI = """
import contextlib, io, json, sys
from triform import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(m for m in sys.modules if m.startswith("triform."))]))
"""


def fresh_cli(*argv):
    """Exit code, stdout, stderr and loaded ``triform`` modules of one
    command run through ``cli.main`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(argv)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    code, out, err, modules = json.loads(done.stdout)
    return code, out, err, set(modules)


FIXTURES = FIXTURE_GRAPH.parent


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["translate", "media_pg.json", "--to", "shacl"], {"triform.cogsl"}),
        (["translate", "media_pg.json", "--to", "shex"], {"triform.cogsl"}),
        (["validate", "media_graph.json", "media_shacl.json"], set()),
        (["validate", "media_graph.json", "media_pg.json"], set()),
        (["validate", "media_graph.json", "media_shex.json"], set()),  # its shapes are boxes
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_each_command_loads_only_the_dialect_code_it_runs(argv, loaded):
    code, out, err, modules = fresh_cli(*(str(FIXTURES / a) if a.endswith(".json") else a for a in argv))
    assert (code, err) == (0, "") and out
    assert modules & LAZY == loaded


_TC_EMAIL = {"op": "tc", "q": "email", "dir": "fwd", "shape": None}
_SSHEX_CLOSED = {
    "op": "shape",
    "closed": True,
    "extra": [{"q": "email", "dir": "fwd"}],
    "expr": {"op": "repeat", "arg": _TC_EMAIL, "interval": [0, 1]},
}
_STAR_FREE = "Kleene star is not allowed in common schemas"
# (graph, dialect, rule shape, exit code, stdout or stderr) of runs whose
# first read of the sshex grammars or first use of the cogsl compiler is
# the command's own
_LAZY_RUNS = [
    (
        "media_graph.json",
        "sshex",
        {"op": "shape", "closed": False, "extra": [], "expr": {"op": "repeat", "arg": _TC_EMAIL, "interval": [1, "*"]}},
        0,
        '{"stats":[{"rule_index":0,"selected":2,"violations":0}],"valid":true,"violations":[]}\n',
    ),
    (
        "media_graph.json",
        "sshex",
        _SSHEX_CLOSED,
        1,
        '{"stats":[{"rule_index":0,"selected":2,"violations":2}],"valid":false,"violations":['
        + ",".join(
            f'{{"focus":{{"id":"{u}","kind":"node"}},"rule_index":0,"selector":{{"op":"out","q":"ownsAccount"}},'
            '"shape":{"closed":true,"expr":{"arg":{"dir":"fwd","op":"tc","q":"email","shape":null},'
            '"interval":[0,1],"op":"repeat"},"extra":[{"dir":"fwd","q":"email"}],"op":"shape"}}'
            for u in ("u1", "u4")
        )
        + "]}\n",
    ),
    ("media_graph.json", "sshex", {"op": "bogus"}, 2, "error: at $.rules[0].shape.op: unknown standard shape operator 'bogus'\n"),
    (
        "media_graph.json",
        "sshex",
        {"op": "shape", "expr": {"op": "eps"}},
        2,
        "error: at $.rules[0].shape.expr.op: unknown standard triple-expression operator 'eps'\n",
    ),
    (
        "media_graph.json",
        "sshex",
        {"op": "not", "arg": {"op": "test_type", "vt": "int"}, "expr": None},
        2,
        "error: at $.rules[0].shape.expr: unknown field\n",
    ),
    (
        "media_graph.json",
        "sshex",
        {"op": "shape", "expr": _TC_EMAIL, "interval": [1, 1]},
        2,
        "error: at $.rules[0].shape.interval: unknown field\n",
    ),
    (
        "media_graph_six_access.json",
        "cogsl",
        None,
        1,
        '{"stats":[{"rule_index":0,"selected":1,"violations":0},{"rule_index":1,"selected":2,"violations":0},'
        '{"rule_index":2,"selected":4,"violations":0},{"rule_index":3,"selected":1,"violations":0},'
        '{"rule_index":4,"selected":4,"violations":1}],"valid":false,"violations":[{"focus":{"id":"u2","kind":"node"},'
        '"rule_index":4,"selector":{"n":1,"op":"geq","path":{"k":"email","op":"key_step"}},'
        '"shape":{"n":5,"op":"leq","path":{"op":"pred","p":"hasAccess"}}}]}\n',
    ),
    (
        "media_graph.json",
        "cogsl",
        {"op": "geq", "n": 1, "path": {"op": "star", "arg": {"op": "pred", "p": "p"}}},
        2,
        '{"in_fragment":false,"violations":[{"loc":"rules[0].shape.atoms[0]",'
        f'"message":"{_STAR_FREE}","rule":"star-free"}}]}}\n',
    ),
]


@pytest.mark.parametrize("graph,dialect,shape,code,text", _LAZY_RUNS, ids=[f"{r[1]}-{i}" for i, r in enumerate(_LAZY_RUNS)])
def test_lazily_loaded_dialects_keep_their_bytes(tmp_path, graph, dialect, shape, code, text):
    """An sshex or cogsl schema validates, or fails to parse, with the
    same bytes and exit code as when every module loaded with the CLI."""
    if shape is None:  # the PG fixture's rules
        doc = dict(json.loads((FIXTURES / "media_pg.json").read_text()), dialect=dialect)
    else:
        sel = {"op": "out", "q": "ownsAccount"} if dialect == "sshex" else {"op": "geq", "n": 1, "path": {"op": "pred", "p": "p"}}
        doc = {"dialect": dialect, "rules": [{"sel": sel, "shape": shape}]}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    got, out, err, modules = fresh_cli("validate", str(FIXTURES / graph), str(schema))
    assert (got, err if code == 2 and dialect == "sshex" else out) == (code, text)
    assert ("triform.cogsl" in modules) == (dialect == "cogsl")
    assert ("triform.sshex" in modules) == (dialect == "sshex")



BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def bench_lines(script, *args):
    """The first two words of each line ``script`` prints, run at its
    smallest sizes in a subprocess."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, (script, done.stderr)
    return [line.split()[:2] for line in done.stdout.splitlines()]


def test_benchmark_scripts_run(tmp_path):
    """The benchmark scripts the roadmap quotes still run and print a
    line for every schema and every kernel workload, the matcher
    benchmark a fixed fuzz campaign's kernel calls, the graph benchmark
    times the derived indexes next to the load, and the start-up
    benchmark, given one tree as A and B, times a cold validate of each
    fixture schema and names the modules each command loaded."""
    spec = importlib.util.spec_from_file_location("bench_graph", BENCHMARKS / "bench_graph.py")
    bench_graph = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_graph)
    lines = bench_lines("bench_graph.py", "--sizes", "20", "--repeat", "1")
    for kind in bench_graph.SCHEMAS.keys() - {"empty"}:
        assert ["validate", kind] in lines, kind
    for dialect in ("shacl", "pg", "shex", "shex_compiled"):
        assert ["decide", dialect] in lines, dialect
    assert [line[0] for line in lines[1:3]] == ["load", "indexes"]
    lines = bench_lines("bench_matcher.py", "--sizes", "8", "--repeat", "1")
    for workload in ("pairs", "false-pairs", "bounded"):
        assert [workload, "8"] in lines, workload
    assert ["fuzz", "12"] in lines
    # a copy without bytecode caches, which the script refuses to read
    shutil.copytree(SRC / "triform", tmp_path / "triform", ignore=shutil.ignore_patterns("__pycache__"))
    lines = bench_lines("bench_startup.py", str(tmp_path), str(tmp_path), "--pairs", "1")
    firsts = [line[0] for line in lines]
    assert firsts.count("import") == firsts.count("translate") == 2
    for dialect in ("shacl", "shex", "pg"):
        assert lines.count(["validate", dialect]) == 2, dialect
    for command in ("translate:", "validate-shacl:", "validate-shex:", "validate-pg:"):
        assert lines.count(["loaded", command]) == 2, command


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Every ```` ```python ```` block of the README runs as written."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
