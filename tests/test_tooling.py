"""The benchmark's tracer patches functions where their callers look
them up; every patched name must still exist there, or a traced run
would fail."""

import importlib
import importlib.util
import json
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
