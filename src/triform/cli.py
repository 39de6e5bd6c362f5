"""Command-line front end.

Subcommands: validate, translate, check-common, fuzz (and an
undocumented ``oracle`` subcommand that runs the brute-force reference
semantics for debugging).  All input and output is JSON; reports are
deterministic, so identical invocations produce byte-identical output.

Exit codes: 0 valid / agreement, 1 invalid / divergence, 2 parse or
usage error, 3 capability error (an explicit ShEx row cap, or the
matcher's state bound or recursion depth, exceeded), 4 internal error
(an unexpected exception; its traceback goes to stderr), so a crash
never reads as a verdict.

Code that only some commands run is imported when they run: ``cogsl``
by ``translate``, ``check-common`` and cogsl schemas, ``sshex`` by
sshex schemas, ``harness`` by ``fuzz`` and ``oracle``.

``validate`` runs with the cyclic garbage collector paused, from load to
report (:func:`cmd_validate`); the other commands leave it as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys
import traceback
from typing import List, Optional

from . import jsonio
from .model import (
    FormatError,
    NeighborhoodTooLarge,
    NotInFragment,
    SortError,
    TriformError,
)
from .pgschema import GraphType, pg_validate, validate_graph_type
from .shacl import shacl_validate
from .shex import shex_validate

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _emit(doc, pretty: bool) -> None:
    sys.stdout.write(jsonio.dumps(doc, pretty=pretty))


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector, and put it back as found on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cmd_validate(args) -> int:
    # a command's objects are a burst of containers that survive every
    # pass, so a pass would only traverse them; the graph, its indexes and
    # the report live in _validate's frame and are freed by reference
    # counting when it returns, before collection resumes
    with _collector_paused():
        return _validate(args)


def _validate(args) -> int:
    graph = jsonio.parse_graph(_load_json(args.graph))
    dialect, payload = jsonio.parse_schema(_load_json(args.schema))
    if args.dialect and args.dialect != dialect:
        raise FormatError(
            f"schema is tagged {dialect!r} but --dialect {args.dialect!r} was given"
        )
    if isinstance(payload, GraphType):
        gt_report = validate_graph_type(graph, payload)
        _emit(
            {
                "valid": gt_report.valid,
                "node_violations": gt_report.node_violations,
                "edge_violations": [
                    {"s": e.s, "p": e.p, "o": e.o} for e in gt_report.edge_violations
                ],
                "constraints": jsonio.report_to_json(
                    gt_report.constraints, "pg", list(payload.constraints)
                ),
            },
            args.pretty,
        )
        return EXIT_VALID if gt_report.valid else EXIT_INVALID
    rules = payload
    if dialect == "shacl":
        report = shacl_validate(graph, rules)
    elif dialect == "shex":
        report = shex_validate(graph, rules, cap=args.cap)
    elif dialect == "sshex":
        from .sshex import eliminate_extra, normalize_shape_intervals, sshex_to_shex

        core_rules = [
            (sel, sshex_to_shex(eliminate_extra(normalize_shape_intervals(shape))))
            for sel, shape in rules
        ]
        report = shex_validate(graph, core_rules, cap=args.cap)
    elif dialect == "cogsl":
        from .cogsl import check_common

        diags = check_common(rules)
        if not diags.in_fragment:
            _emit(jsonio.diagnostics_to_json(diags), args.pretty)
            return EXIT_USAGE
        report = pg_validate(graph, rules)
    else:
        report = pg_validate(graph, rules)
    _emit(jsonio.report_to_json(report, dialect, rules), args.pretty)
    return EXIT_VALID if report.valid else EXIT_INVALID


def cmd_translate(args) -> int:
    from .cogsl import check_common, cogsl_to_shacl, cogsl_to_shex

    dialect, rules = jsonio.parse_schema(_load_json(args.schema))
    if dialect not in ("pg", "cogsl") or isinstance(rules, GraphType):
        raise FormatError("translate expects a pg/cogsl rule schema as input")
    diags = check_common(rules)
    if not diags.in_fragment:
        _emit(jsonio.diagnostics_to_json(diags), args.pretty)
        return EXIT_USAGE
    if args.to == "shacl":
        out = jsonio.schema_to_json("shacl", cogsl_to_shacl(rules))
    else:
        out = jsonio.schema_to_json("shex", cogsl_to_shex(rules))
    _emit(out, args.pretty)
    return EXIT_VALID


def cmd_check_common(args) -> int:
    from .cogsl import check_common

    dialect, rules = jsonio.parse_schema(_load_json(args.schema))
    if dialect not in ("pg", "cogsl") or isinstance(rules, GraphType):
        raise FormatError("check-common expects a pg/cogsl rule schema as input")
    diags = check_common(rules)
    _emit(jsonio.diagnostics_to_json(diags), args.pretty)
    return EXIT_VALID if diags.in_fragment else EXIT_INVALID


def cmd_fuzz(args) -> int:
    from .harness import GenParams, run_campaign  # only fuzz and oracle load the generators and oracles
    params = GenParams(
        node_count=args.nodes,
        schema_size_budget=args.budget,
        max_count_n=args.max_count,
    )
    summary = run_campaign(args.trials, params, seed=args.seed, cap=args.cap)
    _emit(
        {
            "trials": summary.trials,
            "agreed": summary.agreed,
            "capped": summary.capped,
            "divergences": summary.divergences,
        },
        args.pretty,
    )
    return EXIT_VALID if summary.ok else EXIT_INVALID


def cmd_oracle(args) -> int:
    from .harness import brute_match_oracle, brute_path_oracle, brute_pg_path_oracle
    graph, query = jsonio.parse_graph(_load_json(args.graph)), _load_json(args.query)
    # each kind takes only its own fields, as the schema parsers do
    spec = jsonio._obj(query, "$", ["focus"], ["path", "dialect"] if args.kind == "path" else ["expr", "openness"])
    focus = jsonio.parse_focus(spec["focus"], "$.focus")
    if args.kind == "path":
        dialect = spec.get("dialect", "shacl")
        if dialect == "pg":
            image = brute_pg_path_oracle(graph, focus, jsonio.parse_pg_path(spec.get("path"), "$.path"))
        elif dialect == "shacl":
            image = brute_path_oracle(graph, focus, jsonio.parse_shacl_path(spec.get("path"), "$.path"))
        else:
            raise jsonio._err("$.dialect", f'expected "shacl" or "pg", got {dialect!r}')
        ordered = sorted(image, key=lambda f: repr(f))
        _emit({"result": [jsonio.focus_to_json(f) for f in ordered]}, args.pretty)
        return EXIT_VALID
    expr = jsonio.parse_shex_expr(spec.get("expr"), "$.expr")
    openness = jsonio.parse_shex_openness(spec.get("openness", {"open": {"r": [], "q": []}}), "$.openness")
    result = brute_match_oracle(graph, focus, expr, openness)
    _emit({"result": result}, args.pretty)
    return EXIT_VALID


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It binds only the ``cmd_*``
    functions; they look their helpers up at call time."""
    parser = argparse.ArgumentParser(
        prog="triform",
        description="Validate common graphs against SHACL, ShEx, and PG-Schema core schemas.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{validate,translate,check-common,fuzz}"
    )

    p_val = sub.add_parser("validate", help="validate a graph against a schema")
    p_val.add_argument("graph", help="graph JSON file")
    p_val.add_argument("schema", help="schema JSON file (dialect-tagged)")
    p_val.add_argument("--dialect", choices=list(jsonio.DIALECTS), help="expected dialect tag")
    p_val.add_argument("--cap", type=int, default=None, help="ShEx row cap (none by default)")
    p_val.add_argument("--pretty", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_tr = sub.add_parser("translate", help="compile a common schema to SHACL or ShEx")
    p_tr.add_argument("schema", help="pg/cogsl schema JSON file")
    p_tr.add_argument("--to", choices=["shacl", "shex"], required=True)
    p_tr.add_argument("--pretty", action="store_true")
    p_tr.set_defaults(func=cmd_translate)

    p_cc = sub.add_parser("check-common", help="check membership in the common fragment")
    p_cc.add_argument("schema", help="pg/cogsl schema JSON file")
    p_cc.add_argument("--pretty", action="store_true")
    p_cc.set_defaults(func=cmd_check_common)

    p_fz = sub.add_parser("fuzz", help="run a three-way differential campaign")
    p_fz.add_argument("--trials", type=int, default=1000)
    p_fz.add_argument("--seed", type=int, default=0)
    p_fz.add_argument("--nodes", type=int, default=8, help="nodes per generated graph")
    p_fz.add_argument("--budget", type=int, default=5, help="rules per generated schema")
    p_fz.add_argument("--max-count", type=int, default=3, help="largest counting bound")
    p_fz.add_argument("--cap", type=int, default=None, help="ShEx row cap (none by default)")
    p_fz.add_argument("--pretty", action="store_true")
    p_fz.set_defaults(func=cmd_fuzz)

    p_or = sub.add_parser("oracle")  # undocumented debugging entry
    p_or.add_argument("kind", choices=["path", "match"])
    p_or.add_argument("graph")
    p_or.add_argument("query", help="JSON file with focus plus path or expr/openness")
    p_or.add_argument("--pretty", action="store_true")
    p_or.set_defaults(func=cmd_oracle)

    return parser


# the least value of each numeric option; a smaller one is a usage error
_LEAST = {"cap": 0, "trials": 0, "nodes": 0, "budget": 1, "max_count": 0}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)  # a --cap left unset is None
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise TriformError(f"{flag} must be {'non-negative' if least == 0 else f'at least {least}'}")
        return args.func(args)
    except (FormatError, NotInFragment, SortError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NeighborhoodTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except TriformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
