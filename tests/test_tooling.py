"""The benchmark's tracer patches functions where their callers look
them up; every patched name must still exist there, or a traced run
would fail.  The CLI's import stays free of the modules only some
commands need, and the README's Python examples run as written."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_neither_dataclasses_nor_harness():
    """Every ``triform`` process pays for the import of ``triform.cli``:
    the AST classes are built by ``model.frozen``, not by ``dataclasses``
    (which imports ``inspect``), and the generators and oracles of
    ``harness`` load only for the commands that use them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, triform.cli; print(sorted({'dataclasses', 'inspect', 'triform.harness'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"



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


def test_benchmark_scripts_run():
    """The benchmark scripts the roadmap quotes still run and print a
    line for every schema and every kernel workload, the matcher
    benchmark a fixed fuzz campaign's kernel calls, and the graph
    benchmark times the derived indexes next to the load."""
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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Every ```` ```python ```` block of the README runs as written."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
