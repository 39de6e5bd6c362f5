"""Outside-in tracing of the triform layers.

The tracer wraps public functions where their caller looks them up
(``module.name`` at call time) and restores them afterwards, so nothing
inside ``src/`` changes.  Each call becomes a span (name, start, end,
parent) kept in memory; self time is a span's duration minus the time
covered by its direct child spans.  A few call sites also feed counters
(neighbourhood sizes, kernel mask widths, report bytes, selected foci).
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute as looked up by its caller, span name)
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("triform.jsonio", "parse_graph", "jsonio.parse_graph"),
    ("triform.jsonio", "parse_schema", "jsonio.parse_schema"),
    ("triform.jsonio", "report_to_json", "jsonio.report_to_json"),
    ("triform.jsonio", "dumps", "jsonio.dumps"),
    ("triform.jsonio", "build_graph", "model.build_graph"),
    ("triform.harness", "build_graph", "model.build_graph"),
    ("triform.shex", "neigh_signed", "model.neigh_signed"),
    ("triform._bagmatch_py", "bag_match", "kernel.bag_match"),
    ("triform.shacl", "shacl_select", "shacl.select"),
    ("triform.shex", "shex_select", "shex.select"),
    ("triform.pgschema", "pg_select", "pgschema.select"),
    ("triform.cli", "shacl_validate", "shacl.validate"),
    ("triform.harness", "shacl_validate", "shacl.validate"),
    ("triform.cli", "shex_validate", "shex.validate"),
    ("triform.harness", "shex_validate", "shex.validate"),
    ("triform.cli", "pg_validate", "pgschema.validate"),
    ("triform.cogsl", "pg_validate", "pgschema.validate"),
    ("triform.pgschema", "pg_validate", "pgschema.validate"),
    ("triform.cli", "validate_graph_type", "pgschema.validate_graph_type"),
    ("triform.shacl", "eval_path", "shacl.eval_path"),
    ("triform.pgschema", "eval_pg_path", "pgschema.eval_pg_path"),
    ("triform.pgschema", "content_member", "pgschema.content_member"),
    ("triform.pgschema", "edge_type_member", "pgschema.edge_type_member"),
    ("triform.harness", "gen_graph", "harness.gen_graph"),
    ("triform.harness", "gen_cogsl_schema", "harness.gen_cogsl_schema"),
    ("triform.harness", "shrink_divergence", "harness.shrink_divergence"),
    ("triform.harness", "cogsl_validate", "cogsl.validate"),
    ("triform.harness", "cogsl_to_shacl", "cogsl.to_shacl"),
    ("triform.harness", "cogsl_to_shex", "cogsl.to_shex"),
)


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.neigh_max = 0
        self.bits_max = 0
        self.subset_bound = 0
        self.report_bytes = 0
        self.foci: Dict[str, int] = {"shacl.select": 0, "shex.select": 0, "pgschema.select": 0}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_neigh(self, args, result) -> None:
        self.neigh_max = max(self.neigh_max, len(result))

    def _observe_kernel(self, args, result) -> None:
        bits = args[-1].bit_length()  # the full neighbourhood mask
        self.bits_max = max(self.bits_max, bits)
        self.subset_bound += 1 << bits

    def _observe_dumps(self, args, result) -> None:
        self.report_bytes += len(result.encode("utf-8"))

    def _observer_foci(self, name: str) -> Callable:
        def observe(args, result) -> None:
            self.foci[name] += len(result)

        return observe

    def __enter__(self) -> "Tracer":
        observers = {
            "model.neigh_signed": self._observe_neigh,
            "kernel.bag_match": self._observe_kernel,
            "jsonio.dumps": self._observe_dumps,
        }
        observers.update((name, self._observer_foci(name)) for name in self.foci)
        for modname, attr, name in PATCHES:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original, observers.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def aggregate(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (root span name, span name): call count, inclusive and self
        seconds.  The root is the outermost span a call happened under."""
        n = len(self.start)
        child = [0.0] * n
        root = array("i", [0]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]  # parents precede their children
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for i in range(n):
            key = (self.names[self.name_of[root[i]]], self.names[self.name_of[i]])
            agg = out.get(key)
            if agg is None:
                agg = out[key] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["incl_s"] += dur
            agg["self_s"] += dur - child[i]
        return out

    def write_tsv(self, path: str) -> None:
        """Write every span as gzip-compressed TSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
