"""The benchmark's tracer patches functions where their callers look
them up; every patched name must still exist there, or a traced run
would fail."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_patch_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for modname, attr, _ in tracer.PATCHES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
