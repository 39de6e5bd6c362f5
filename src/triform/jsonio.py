"""JSON wire formats: graphs, schemas in all dialects, reports.

One self-describing tagged-AST convention covers every dialect; parsers
are strict (unknown fields are rejected) and errors name the JSON path
of the offending field.  Serialization is deterministic: equal inputs
give byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import shacl as sh
from . import shex as sx
from . import sshex as ssx
from .model import (
    FWD,
    INV,
    INT64_MAX,
    INT64_MIN,
    CommonGraph,
    EdgeTriple,
    Focus,
    FormatError,
    Node,
    PropTriple,
    TriformError,
    Val,
    Value,
    build_graph,
)
from . import pgschema as pg
from .report import ValidationReport

DIALECTS = ("shacl", "shex", "pg", "cogsl", "sshex")


def _err(path: str, message: str) -> FormatError:
    return FormatError(f"at {path}: {message}")


def _obj(x: Any, path: str, required: Sequence[str], optional: Sequence[str] = ()) -> Dict:
    if not isinstance(x, dict):
        raise _err(path, f"expected an object, got {type(x).__name__}")
    allowed = set(required) | set(optional)
    for key in x:
        if key not in allowed:
            raise _err(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in x:
            raise _err(path, f"missing field {key!r}")
    return x


def _str(x: Any, path: str) -> str:
    if not isinstance(x, str) or not x:
        raise _err(path, "expected a non-empty string")
    return x


def _nat(x: Any, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise _err(path, "expected a non-negative integer")
    return x


def _list(x: Any, path: str) -> List:
    if not isinstance(x, list):
        raise _err(path, f"expected an array, got {type(x).__name__}")
    return x


def _args(o: Dict, path: str, parse: Callable[[Any, str], Any]) -> List:
    """The parsed ``args`` of an n-ary operator; there must be two or more."""
    args = [parse(a, f"{path}.args[{i}]") for i, a in enumerate(_list(o.get("args"), f"{path}.args"))]
    if len(args) < 2:
        raise _err(f"{path}.args", f"{o['op']} needs at least two arguments")
    return args


def _names(x: Any, path: str) -> frozenset:
    return frozenset(_str(v, f"{path}[{i}]") for i, v in enumerate(_list(x, path)))


# ---------------------------------------------------------------------------
# Values, foci, graphs


def parse_value(x: Any, path: str) -> Value:
    o = _obj(x, path, ["t", "val"])
    tag = o["t"]
    val = o["val"]
    if tag == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            raise _err(f"{path}.val", "expected an integer")
        if not (INT64_MIN <= val <= INT64_MAX):
            raise _err(f"{path}.val", "integer outside the 64-bit signed range")
        return Value("int", val)
    if tag == "str":
        if not isinstance(val, str):
            raise _err(f"{path}.val", "expected a string")
        return Value("str", val)
    if tag == "bool":
        if not isinstance(val, bool):
            raise _err(f"{path}.val", "expected a boolean")
        return Value("bool", val)
    raise _err(f"{path}.t", f"unknown value tag {tag!r}")


def value_to_json(w: Value) -> Dict:
    return {"t": w.tag, "val": w.payload}


def parse_focus(x: Any, path: str) -> Focus:
    o = _obj(x, path, ["kind"], ["id", "value"])
    kind = o["kind"]
    if kind == "node":
        if "id" not in o:
            raise _err(path, "node focus needs an id")
        return Node(_str(o["id"], f"{path}.id"))
    if kind == "value":
        if "value" not in o:
            raise _err(path, "value focus needs a value")
        return Val(parse_value(o["value"], f"{path}.value"))
    raise _err(f"{path}.kind", f"unknown focus kind {kind!r}")


def focus_to_json(f: Focus) -> Dict:
    if isinstance(f, Node):
        return {"kind": "node", "id": f.id}
    return {"kind": "value", "value": value_to_json(f.value)}


def _edge(e: Any, i: int) -> EdgeTriple:
    if type(e) is dict and len(e) == 3:
        s, p, o = e.get("s"), e.get("p"), e.get("o")
        if type(s) is str and type(p) is str and type(o) is str and s and p and o:
            return EdgeTriple(s, p, o)
    path = f"$.edges[{i}]"  # a check fails below: name the offending field
    eo = _obj(e, path, ["s", "p", "o"])
    return EdgeTriple(*(_str(eo[f], f"{path}.{f}") for f in "spo"))


_PAYLOAD_TYPE = {"int": int, "str": str, "bool": bool}


def _prop(t: Any, i: int) -> PropTriple:
    if type(t) is dict and len(t) == 3:
        n, k, v = t.get("n"), t.get("k"), t.get("v")
        if type(n) is str and type(k) is str and n and k and type(v) is dict and len(v) == 2:
            tag, val = v.get("t"), v.get("val")
            if type(tag) is str and type(val) is _PAYLOAD_TYPE.get(tag):
                if tag != "int" or INT64_MIN <= val <= INT64_MAX:
                    return PropTriple(n, k, Value(tag, val))
    path = f"$.props[{i}]"  # a check fails below: name the offending field
    to = _obj(t, path, ["n", "k", "v"])
    return PropTriple(
        _str(to["n"], f"{path}.n"), _str(to["k"], f"{path}.k"), parse_value(to["v"], f"{path}.v")
    )


def parse_graph(doc: Any) -> CommonGraph:
    """Error paths are built only once a check fails, so well-formed
    triples cost no string formatting."""
    o = _obj(doc, "$", ["edges", "props"])
    edges = [_edge(e, i) for i, e in enumerate(_list(o["edges"], "$.edges"))]
    props = [_prop(t, i) for i, t in enumerate(_list(o["props"], "$.props"))]
    try:
        return build_graph(edges, props)
    except TriformError as exc:
        raise FormatError(f"at $: {exc}") from exc


def graph_to_json(g: CommonGraph) -> Dict:
    edges = sorted(g.edges, key=lambda e: (e.s, e.p, e.o))
    props = sorted(g.props.items())
    return {
        "edges": [{"s": e.s, "p": e.p, "o": e.o} for e in edges],
        "props": [{"n": n, "k": k, "v": value_to_json(w)} for (n, k), w in props],
    }


# ---------------------------------------------------------------------------
# SHACL


def parse_shacl_path(x: Any, path: str) -> sh.PathExpr:
    o = _obj(x, path, ["op"], ["q", "arg", "args"])
    op = o["op"]
    if op == "id":
        return sh.Id()
    if op == "step":
        return sh.Step(_str(o.get("q"), f"{path}.q"))
    if op == "inv":
        return sh.Inverse(parse_shacl_path(o.get("arg"), f"{path}.arg"))
    if op == "star":
        return sh.Star(parse_shacl_path(o.get("arg"), f"{path}.arg"))
    if op in ("concat", "union"):
        args = _args(o, path, parse_shacl_path)
        ctor = sh.Concat if op == "concat" else sh.PathUnion
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    raise _err(f"{path}.op", f"unknown path operator {op!r}")


def shacl_path_to_json(p: sh.PathExpr) -> Dict:
    if isinstance(p, sh.Id):
        return {"op": "id"}
    if isinstance(p, sh.Step):
        return {"op": "step", "q": p.q}
    if isinstance(p, sh.Inverse):
        return {"op": "inv", "arg": shacl_path_to_json(p.inner)}
    if isinstance(p, sh.Star):
        return {"op": "star", "arg": shacl_path_to_json(p.inner)}
    if isinstance(p, sh.Concat):
        return {"op": "concat", "args": [shacl_path_to_json(p.left), shacl_path_to_json(p.right)]}
    if isinstance(p, sh.PathUnion):
        return {"op": "union", "args": [shacl_path_to_json(p.left), shacl_path_to_json(p.right)]}
    raise TriformError(f"unknown path {p!r}")


def parse_shacl_shape(x: Any, path: str) -> sh.ShaclShape:
    o = _obj(x, path, ["op"], ["value", "vt", "allowed", "path", "p", "arg", "args", "n", "shape"])
    op = o["op"]
    if op == "top":
        return sh.Top()
    if op == "test_const":
        return sh.TestConst(parse_value(o.get("value"), f"{path}.value"))
    if op == "test_type":
        return sh.TestType(_str(o.get("vt"), f"{path}.vt"))
    if op == "closed":
        return sh.Closed(_names(o.get("allowed"), f"{path}.allowed"))
    if op in ("eq", "disj"):
        pexpr = parse_shacl_path(o.get("path"), f"{path}.path")
        pred = _str(o.get("p"), f"{path}.p")
        return sh.Eq(pexpr, pred) if op == "eq" else sh.Disj(pexpr, pred)
    if op == "not":
        return sh.Not(parse_shacl_shape(o.get("arg"), f"{path}.arg"))
    if op in ("and", "or"):
        args = _args(o, path, parse_shacl_shape)
        return sh.and_all(args) if op == "and" else sh.or_all(args)
    if op in ("geq", "leq"):
        n = _nat(o.get("n"), f"{path}.n")
        pexpr = parse_shacl_path(o.get("path"), f"{path}.path")
        body = parse_shacl_shape(o.get("shape"), f"{path}.shape") if "shape" in o else sh.Top()
        return sh.GeqCount(n, pexpr, body) if op == "geq" else sh.LeqCount(n, pexpr, body)
    # sugar accepted on input only
    if op == "exists":
        pexpr = parse_shacl_path(o.get("path"), f"{path}.path")
        body = parse_shacl_shape(o.get("shape"), f"{path}.shape") if "shape" in o else sh.Top()
        return sh.exists(pexpr, body)
    if op == "forall":
        pexpr = parse_shacl_path(o.get("path"), f"{path}.path")
        body = parse_shacl_shape(o.get("shape"), f"{path}.shape")
        return sh.forall(pexpr, body)
    if op == "count_eq":
        n = _nat(o.get("n"), f"{path}.n")
        pexpr = parse_shacl_path(o.get("path"), f"{path}.path")
        body = parse_shacl_shape(o.get("shape"), f"{path}.shape") if "shape" in o else sh.Top()
        return sh.count_eq(n, pexpr, body)
    raise _err(f"{path}.op", f"unknown shape operator {op!r}")


def shacl_shape_to_json(s: sh.ShaclShape) -> Dict:
    if isinstance(s, sh.Top):
        return {"op": "top"}
    if isinstance(s, sh.TestConst):
        return {"op": "test_const", "value": value_to_json(s.c)}
    if isinstance(s, sh.TestType):
        return {"op": "test_type", "vt": s.t}
    if isinstance(s, sh.Closed):
        return {"op": "closed", "allowed": sorted(s.allowed)}
    if isinstance(s, sh.Eq):
        return {"op": "eq", "path": shacl_path_to_json(s.path), "p": s.p}
    if isinstance(s, sh.Disj):
        return {"op": "disj", "path": shacl_path_to_json(s.path), "p": s.p}
    if isinstance(s, sh.Not):
        return {"op": "not", "arg": shacl_shape_to_json(s.inner)}
    if isinstance(s, sh.And):
        return {"op": "and", "args": [shacl_shape_to_json(s.left), shacl_shape_to_json(s.right)]}
    if isinstance(s, sh.Or):
        return {"op": "or", "args": [shacl_shape_to_json(s.left), shacl_shape_to_json(s.right)]}
    if isinstance(s, (sh.GeqCount, sh.LeqCount)):
        op = "geq" if isinstance(s, sh.GeqCount) else "leq"
        return {"op": op, "n": s.n, "path": shacl_path_to_json(s.path), "shape": shacl_shape_to_json(s.body)}
    raise TriformError(f"unknown shape {s!r}")


def parse_shacl_selector(x: Any, path: str) -> sh.ShaclSelector:
    o = _obj(x, path, ["op"], ["q", "value"])
    op = o["op"]
    if op == "exists_out":
        return sh.ExistsOut(_str(o.get("q"), f"{path}.q"))
    if op == "exists_in":
        return sh.ExistsIn(_str(o.get("q"), f"{path}.q"))
    if op == "test_const":
        return sh.SelConst(parse_value(o.get("value"), f"{path}.value"))
    raise _err(f"{path}.op", f"unknown selector operator {op!r}")


def shacl_selector_to_json(sel: sh.ShaclSelector) -> Dict:
    if isinstance(sel, sh.ExistsOut):
        return {"op": "exists_out", "q": sel.q}
    if isinstance(sel, sh.ExistsIn):
        return {"op": "exists_in", "q": sel.q}
    return {"op": "test_const", "value": value_to_json(sel.c)}


# ---------------------------------------------------------------------------
# ShEx


def parse_shex_expr(x: Any, path: str) -> sx.TripleExpr:
    o = _obj(x, path, ["op"], ["q", "dir", "shape", "arg", "args", "kind", "n"])
    op = o["op"]
    if op == "eps":
        return sx.Eps()
    if op == "tc":
        direction = o.get("dir")
        if direction not in (FWD, INV):
            raise _err(f"{path}.dir", 'expected "fwd" or "inv"')
        return sx.TC(
            _str(o.get("q"), f"{path}.q"),
            direction,
            parse_shex_shape(o.get("shape"), f"{path}.shape"),
        )
    if op in ("seq", "alt"):
        args = _args(o, path, parse_shex_expr)
        return sx.seq_all(args) if op == "seq" else sx.alt_all(args)
    if op == "star":
        return sx.StarE(parse_shex_expr(o.get("arg"), f"{path}.arg"))
    if op == "repeat":
        kind = o.get("kind")
        if kind not in ("exactly", "at-most", "at-least"):
            raise _err(f"{path}.kind", "expected exactly, at-most, or at-least")
        return sx.desugar_repetition(
            parse_shex_expr(o.get("arg"), f"{path}.arg"), kind, _nat(o.get("n"), f"{path}.n")
        )
    raise _err(f"{path}.op", f"unknown triple-expression operator {op!r}")


def shex_expr_to_json(e: sx.TripleExpr) -> Dict:
    if isinstance(e, sx.Eps):
        return {"op": "eps"}
    if isinstance(e, sx.TC):
        return {
            "op": "tc",
            "q": e.q,
            "dir": e.direction,
            "shape": shex_shape_to_json(e.shape),
        }
    if isinstance(e, sx.Seq):
        return {"op": "seq", "args": [shex_expr_to_json(e.left), shex_expr_to_json(e.right)]}
    if isinstance(e, sx.Alt):
        return {"op": "alt", "args": [shex_expr_to_json(e.left), shex_expr_to_json(e.right)]}
    if isinstance(e, sx.StarE):
        return {"op": "star", "arg": shex_expr_to_json(e.inner)}
    raise TriformError(f"wildcards are internal and have no wire form: {e!r}")


def parse_shex_shape(x: Any, path: str) -> sx.ShexShape:
    o = _obj(x, path, ["op"], ["value", "vt", "expr", "half_open", "open", "arg", "args"])
    op = o["op"]
    if op == "test_const":
        return sx.STestConst(parse_value(o.get("value"), f"{path}.value"))
    if op == "test_type":
        return sx.STestType(_str(o.get("vt"), f"{path}.vt"))
    if op == "neigh":
        expr = parse_shex_expr(o.get("expr"), f"{path}.expr")
        if ("half_open" in o) == ("open" in o):
            raise _err(path, "neigh needs exactly one of half_open or open")
        if "half_open" in o:
            ho = _obj(o["half_open"], f"{path}.half_open", ["r"])
            openness: sx.Openness = sx.HalfOpen(_names(ho["r"], f"{path}.half_open.r"))
        else:
            op_ = _obj(o["open"], f"{path}.open", ["r", "q"])
            openness = sx.Open(
                _names(op_["r"], f"{path}.open.r"), _names(op_["q"], f"{path}.open.q")
            )
        try:
            return sx.SNeigh(expr, openness)
        except TriformError as exc:
            raise _err(path, str(exc)) from exc
    if op == "not":
        return sx.SNot(parse_shex_shape(o.get("arg"), f"{path}.arg"))
    if op in ("and", "or"):
        args = _args(o, path, parse_shex_shape)
        return sx.sand_all(args) if op == "and" else sx.sor_all(args)
    raise _err(f"{path}.op", f"unknown shape operator {op!r}")


def shex_shape_to_json(s: sx.ShexShape) -> Dict:
    if isinstance(s, sx.STestConst):
        return {"op": "test_const", "value": value_to_json(s.c)}
    if isinstance(s, sx.STestType):
        return {"op": "test_type", "vt": s.t}
    if isinstance(s, sx.SNeigh):
        out: Dict[str, Any] = {"op": "neigh", "expr": shex_expr_to_json(s.expr)}
        if isinstance(s.openness, sx.HalfOpen):
            out["half_open"] = {"r": sorted(s.openness.r)}
        else:
            out["open"] = {"r": sorted(s.openness.r), "q": sorted(s.openness.q)}
        return out
    if isinstance(s, sx.SAnd):
        return {"op": "and", "args": [shex_shape_to_json(s.left), shex_shape_to_json(s.right)]}
    if isinstance(s, sx.SOr):
        return {"op": "or", "args": [shex_shape_to_json(s.left), shex_shape_to_json(s.right)]}
    if isinstance(s, sx.SNot):
        return {"op": "not", "arg": shex_shape_to_json(s.inner)}
    raise TriformError(f"unknown shape {s!r}")


def parse_shex_selector(x: Any, path: str) -> sx.ShexSelector:
    o = _obj(x, path, ["op"], ["q", "value"])
    op = o["op"]
    if op == "test_const":
        return sx.SelTestConst(parse_value(o.get("value"), f"{path}.value"))
    if op == "out_const":
        return sx.SelOutConst(
            _str(o.get("q"), f"{path}.q"), parse_value(o.get("value"), f"{path}.value")
        )
    if op == "out":
        return sx.SelOut(_str(o.get("q"), f"{path}.q"))
    if op == "in":
        return sx.SelIn(_str(o.get("q"), f"{path}.q"))
    raise _err(f"{path}.op", f"unknown selector operator {op!r}")


def shex_selector_to_json(sel: sx.ShexSelector) -> Dict:
    if isinstance(sel, sx.SelTestConst):
        return {"op": "test_const", "value": value_to_json(sel.c)}
    if isinstance(sel, sx.SelOutConst):
        return {"op": "out_const", "q": sel.q, "value": value_to_json(sel.c)}
    if isinstance(sel, sx.SelOut):
        return {"op": "out", "q": sel.q}
    return {"op": "in", "q": sel.q}


# ---------------------------------------------------------------------------
# Standard ShEx (sshex dialect)


def parse_sshex_expr(x: Any, path: str) -> ssx.STripleExpr:
    o = _obj(x, path, ["op"], ["q", "dir", "shape", "arg", "args", "interval"])
    op = o["op"]
    if op == "tc":
        direction = o.get("dir")
        if direction not in (FWD, INV):
            raise _err(f"{path}.dir", 'expected "fwd" or "inv"')
        shape = o.get("shape")
        return ssx.XTC(
            _str(o.get("q"), f"{path}.q"),
            direction,
            None if shape is None else parse_sshex_shape(shape, f"{path}.shape"),
        )
    if op in ("seq", "alt"):
        args = _args(o, path, parse_sshex_expr)
        ctor = ssx.XSeq if op == "seq" else ssx.XAlt
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    if op == "repeat":
        iv = _list(o.get("interval"), f"{path}.interval")
        if len(iv) != 2:
            raise _err(f"{path}.interval", "expected [min, max]")
        lo = _nat(iv[0], f"{path}.interval[0]")
        hi: Optional[int]
        if iv[1] == "*":
            hi = None
        else:
            hi = _nat(iv[1], f"{path}.interval[1]")
            if hi < lo:
                raise _err(f"{path}.interval", "max must be at least min")
        return ssx.XRepeat(parse_sshex_expr(o.get("arg"), f"{path}.arg"), lo, hi)
    raise _err(f"{path}.op", f"unknown standard triple-expression operator {op!r}")


def sshex_expr_to_json(e: ssx.STripleExpr) -> Dict:
    if isinstance(e, ssx.XTC):
        return {
            "op": "tc",
            "q": e.q,
            "dir": e.direction,
            "shape": None if e.shape is None else sshex_shape_to_json(e.shape),
        }
    if isinstance(e, ssx.XSeq):
        return {"op": "seq", "args": [sshex_expr_to_json(e.left), sshex_expr_to_json(e.right)]}
    if isinstance(e, ssx.XAlt):
        return {"op": "alt", "args": [sshex_expr_to_json(e.left), sshex_expr_to_json(e.right)]}
    if isinstance(e, ssx.XRepeat):
        return {
            "op": "repeat",
            "arg": sshex_expr_to_json(e.inner),
            "interval": [e.min, "*" if e.max is None else e.max],
        }
    raise TriformError(f"unknown standard triple expression {e!r}")


def parse_sshex_shape(x: Any, path: str) -> ssx.SShapeExpr:
    o = _obj(x, path, ["op"], ["value", "vt", "closed", "extra", "expr", "arg", "args"])
    op = o["op"]
    if op == "test_const":
        return ssx.XTestConst(parse_value(o.get("value"), f"{path}.value"))
    if op == "test_type":
        return ssx.XTestType(_str(o.get("vt"), f"{path}.vt"))
    if op == "shape":
        closed = o.get("closed", False)
        if not isinstance(closed, bool):
            raise _err(f"{path}.closed", "expected a boolean")
        extra = set()
        for i, item in enumerate(_list(o.get("extra", []), f"{path}.extra")):
            io = _obj(item, f"{path}.extra[{i}]", ["q", "dir"])
            if io["dir"] not in (FWD, INV):
                raise _err(f"{path}.extra[{i}].dir", 'expected "fwd" or "inv"')
            extra.add((_str(io["q"], f"{path}.extra[{i}].q"), io["dir"]))
        expr = o.get("expr")
        return ssx.XShape(
            closed,
            frozenset(extra),
            None if expr is None else parse_sshex_expr(expr, f"{path}.expr"),
        )
    if op == "not":
        return ssx.XNot(parse_sshex_shape(o.get("arg"), f"{path}.arg"))
    if op in ("and", "or"):
        args = _args(o, path, parse_sshex_shape)
        ctor = ssx.XAnd if op == "and" else ssx.XOr
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    raise _err(f"{path}.op", f"unknown standard shape operator {op!r}")


def sshex_shape_to_json(s: ssx.SShapeExpr) -> Dict:
    if isinstance(s, ssx.XTestConst):
        return {"op": "test_const", "value": value_to_json(s.c)}
    if isinstance(s, ssx.XTestType):
        return {"op": "test_type", "vt": s.t}
    if isinstance(s, ssx.XShape):
        return {
            "op": "shape",
            "closed": s.closed,
            "extra": [{"q": q, "dir": d} for q, d in sorted(s.extra)],
            "expr": None if s.expr is None else sshex_expr_to_json(s.expr),
        }
    if isinstance(s, ssx.XAnd):
        return {"op": "and", "args": [sshex_shape_to_json(s.left), sshex_shape_to_json(s.right)]}
    if isinstance(s, ssx.XOr):
        return {"op": "or", "args": [sshex_shape_to_json(s.left), sshex_shape_to_json(s.right)]}
    if isinstance(s, ssx.XNot):
        return {"op": "not", "arg": sshex_shape_to_json(s.inner)}
    raise TriformError(f"unknown standard shape {s!r}")


# ---------------------------------------------------------------------------
# PG-Schema


def parse_content(x: Any, path: str) -> pg.ContentType:
    o = _obj(x, path, ["op"], ["k", "type", "args"])
    op = o["op"]
    if op == "any":
        return pg.CAny()
    if op == "empty":
        return pg.CEmpty()
    if op == "field":
        return pg.CField(_str(o.get("k"), f"{path}.k"), _str(o.get("type"), f"{path}.type"))
    if op in ("both", "either"):
        args = _args(o, path, parse_content)
        ctor = pg.CBoth if op == "both" else pg.CEither
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    raise _err(f"{path}.op", f"unknown content operator {op!r}")


def content_to_json(t: pg.ContentType) -> Dict:
    if isinstance(t, pg.CAny):
        return {"op": "any"}
    if isinstance(t, pg.CEmpty):
        return {"op": "empty"}
    if isinstance(t, pg.CField):
        return {"op": "field", "k": t.k, "type": t.t}
    if isinstance(t, pg.CBoth):
        return {"op": "both", "args": [content_to_json(t.left), content_to_json(t.right)]}
    if isinstance(t, pg.CEither):
        return {"op": "either", "args": [content_to_json(t.left), content_to_json(t.right)]}
    raise TriformError(f"unknown content type {t!r}")


def _parse_filter(x: Any, path: str) -> pg.FilterKind:
    o = _obj(x, path, ["op"], ["k", "value", "type"])
    op = o["op"]
    if op == "key_is":
        return pg.FKeyIs(_str(o.get("k"), f"{path}.k"), parse_value(o.get("value"), f"{path}.value"))
    if op == "key_is_not":
        return pg.FNotKeyIs(
            _str(o.get("k"), f"{path}.k"), parse_value(o.get("value"), f"{path}.value")
        )
    if op == "of_type":
        return pg.FOfType(parse_content(o.get("type"), f"{path}.type"))
    if op == "not_of_type":
        return pg.FNotOfType(parse_content(o.get("type"), f"{path}.type"))
    raise _err(f"{path}.op", f"unknown filter operator {op!r}")


def _filter_to_json(kind: pg.FilterKind) -> Dict:
    if isinstance(kind, pg.FKeyIs):
        return {"op": "key_is", "k": kind.k, "value": value_to_json(kind.c)}
    if isinstance(kind, pg.FNotKeyIs):
        return {"op": "key_is_not", "k": kind.k, "value": value_to_json(kind.c)}
    if isinstance(kind, pg.FOfType):
        return {"op": "of_type", "type": content_to_json(kind.t)}
    if isinstance(kind, pg.FNotOfType):
        return {"op": "not_of_type", "type": content_to_json(kind.t)}
    raise TriformError(f"unknown filter {kind!r}")


def _parse_body(x: Any, path: str) -> pg.NodePath:
    """Node-to-node sub-grammar: key steps are rejected here."""
    o = _obj(x, path, ["op"], ["kind", "p", "preds", "arg", "args", "k"])
    op = o["op"]
    if op == "filter":
        return pg.PFilter(_parse_filter(o.get("kind"), f"{path}.kind"))
    if op == "pred":
        return pg.PPred(_str(o.get("p"), f"{path}.p"))
    if op == "not_preds":
        return pg.PNotPreds(_names(o.get("preds"), f"{path}.preds"))
    if op == "inv":
        return pg.PInv(_parse_body(o.get("arg"), f"{path}.arg"))
    if op == "star":
        return pg.PStar(_parse_body(o.get("arg"), f"{path}.arg"))
    if op in ("concat", "union"):
        args = _args(o, path, _parse_body)
        ctor = pg.PConcat if op == "concat" else pg.PUnion
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    if op in ("key_step", "inv_key_step"):
        raise _err(path, "key steps may only appear at the ends of a path")
    raise _err(f"{path}.op", f"unknown path operator {op!r}")


def parse_pg_path(x: Any, path: str) -> pg.PgPath:
    """Key steps are recognized at the extreme ends of the top-level
    concatenation; anywhere else they are rejected."""
    o = _obj(x, path, ["op"], ["kind", "p", "preds", "arg", "args", "k"])
    parts: List[Tuple[Any, str]] = [(x, path)]
    if o["op"] == "concat":
        parts = _args(o, path, lambda a, p: (a, p))
    src_key = None
    dst_key = None
    first_op = parts[0][0].get("op") if isinstance(parts[0][0], dict) else None
    if first_op == "inv_key_step":
        io = _obj(parts[0][0], parts[0][1], ["op", "k"])
        src_key = _str(io["k"], f"{parts[0][1]}.k")
        parts = parts[1:]
    last_op = parts[-1][0].get("op") if parts and isinstance(parts[-1][0], dict) else None
    if parts and last_op == "key_step":
        ko = _obj(parts[-1][0], parts[-1][1], ["op", "k"])
        dst_key = _str(ko["k"], f"{parts[-1][1]}.k")
        parts = parts[:-1]
    body: Optional[pg.NodePath] = None
    if parts:
        folded = [_parse_body(a, p) for a, p in parts]
        out = folded[0]
        for b in folded[1:]:
            out = pg.PConcat(out, b)
        body = out
    if src_key is None and body is None and dst_key is None:
        raise _err(path, "empty path")
    return pg.PgPath(src_key, body, dst_key)


def _body_to_json(p: pg.NodePath) -> Dict:
    if isinstance(p, pg.PFilter):
        return {"op": "filter", "kind": _filter_to_json(p.kind)}
    if isinstance(p, pg.PPred):
        return {"op": "pred", "p": p.p}
    if isinstance(p, pg.PNotPreds):
        return {"op": "not_preds", "preds": sorted(p.excluded)}
    if isinstance(p, pg.PInv):
        return {"op": "inv", "arg": _body_to_json(p.inner)}
    if isinstance(p, pg.PStar):
        return {"op": "star", "arg": _body_to_json(p.inner)}
    if isinstance(p, pg.PConcat):
        return {"op": "concat", "args": [_body_to_json(p.left), _body_to_json(p.right)]}
    if isinstance(p, pg.PUnion):
        return {"op": "union", "args": [_body_to_json(p.left), _body_to_json(p.right)]}
    raise TriformError(f"unknown path {p!r}")


def pg_path_to_json(p: pg.PgPath) -> Dict:
    parts: List[Dict] = []
    if p.src_key is not None:
        parts.append({"op": "inv_key_step", "k": p.src_key})
    if p.body is not None:
        parts.append(_body_to_json(p.body))
    if p.dst_key is not None:
        parts.append({"op": "key_step", "k": p.dst_key})
    if len(parts) == 1:
        return parts[0]
    return {"op": "concat", "args": parts}


def parse_pg_shape(x: Any, path: str) -> pg.PgShape:
    o = _obj(x, path, ["op"], ["n", "path", "args"])
    op = o["op"]
    if op in ("geq", "leq"):
        n = _nat(o.get("n"), f"{path}.n")
        pexpr = parse_pg_path(o.get("path"), f"{path}.path")
        return pg.PgGeq(n, pexpr) if op == "geq" else pg.PgLeq(n, pexpr)
    if op == "and":
        args = _args(o, path, parse_pg_shape)
        return pg.pg_and_all(args)
    raise _err(f"{path}.op", f"unknown PG-shape operator {op!r}")


def pg_shape_to_json(s: pg.PgShape) -> Dict:
    if isinstance(s, pg.PgGeq):
        return {"op": "geq", "n": s.n, "path": pg_path_to_json(s.path)}
    if isinstance(s, pg.PgLeq):
        return {"op": "leq", "n": s.n, "path": pg_path_to_json(s.path)}
    if isinstance(s, pg.PgAnd):
        return {"op": "and", "args": [pg_shape_to_json(s.left), pg_shape_to_json(s.right)]}
    raise TriformError(f"unknown PG-shape {s!r}")


def parse_pg_selector(x: Any, path: str) -> pg.PgGeq:
    shape = parse_pg_shape(x, path)
    if not isinstance(shape, pg.PgGeq) or shape.n != 1:
        raise _err(path, "PG-selectors are existential shapes (geq with n=1)")
    return shape


def parse_edge_type(x: Any, path: str) -> pg.EdgeType:
    o = _obj(x, path, ["op"], ["src", "labels", "dst", "args"])
    op = o["op"]
    if op == "et":
        labels_raw = o.get("labels")
        if labels_raw == "*":
            labels = None
        else:
            labels = _names(labels_raw, f"{path}.labels")
        return pg.ET(
            parse_content(o.get("src"), f"{path}.src"),
            labels,
            parse_content(o.get("dst"), f"{path}.dst"),
        )
    if op in ("both", "either"):
        args = _args(o, path, parse_edge_type)
        ctor = pg.EBoth if op == "both" else pg.EEither
        out = args[0]
        for a in args[1:]:
            out = ctor(out, a)
        return out
    raise _err(f"{path}.op", f"unknown edge-type operator {op!r}")


def edge_type_to_json(t: pg.EdgeType) -> Dict:
    if isinstance(t, pg.ET):
        return {
            "op": "et",
            "src": content_to_json(t.src),
            "labels": "*" if t.labels is None else sorted(t.labels),
            "dst": content_to_json(t.dst),
        }
    if isinstance(t, pg.EBoth):
        return {"op": "both", "args": [edge_type_to_json(t.left), edge_type_to_json(t.right)]}
    if isinstance(t, pg.EEither):
        return {"op": "either", "args": [edge_type_to_json(t.left), edge_type_to_json(t.right)]}
    raise TriformError(f"unknown edge type {t!r}")


def parse_graph_type(x: Any, path: str) -> pg.GraphType:
    o = _obj(x, path, ["node_types", "edge_types", "constraints"])
    node_types = tuple(
        parse_content(a, f"{path}.node_types[{i}]")
        for i, a in enumerate(_list(o["node_types"], f"{path}.node_types"))
    )
    edge_types = tuple(
        parse_edge_type(a, f"{path}.edge_types[{i}]")
        for i, a in enumerate(_list(o["edge_types"], f"{path}.edge_types"))
    )
    constraints = []
    for i, r in enumerate(_list(o["constraints"], f"{path}.constraints")):
        ro = _obj(r, f"{path}.constraints[{i}]", ["sel", "shape"])
        constraints.append(
            (
                parse_pg_selector(ro["sel"], f"{path}.constraints[{i}].sel"),
                parse_pg_shape(ro["shape"], f"{path}.constraints[{i}].shape"),
            )
        )
    return pg.GraphType(node_types, edge_types, tuple(constraints))


def graph_type_to_json(gt: pg.GraphType) -> Dict:
    return {
        "node_types": [content_to_json(t) for t in gt.node_types],
        "edge_types": [edge_type_to_json(t) for t in gt.edge_types],
        "constraints": [
            {"sel": pg_shape_to_json(sel), "shape": pg_shape_to_json(shape)}
            for sel, shape in gt.constraints
        ],
    }


# ---------------------------------------------------------------------------
# Schemas (dialect-tagged rule lists)


def parse_schema(doc: Any):
    """Returns (dialect, rules-or-graph-type)."""
    o = _obj(doc, "$", ["dialect"], ["rules", "graph_type"])
    dialect = o.get("dialect")
    if dialect not in DIALECTS:
        raise _err("$.dialect", f"unknown dialect {dialect!r}")
    if "graph_type" in o:
        if dialect not in ("pg", "cogsl"):
            raise _err("$.graph_type", "graph types belong to the pg dialect")
        if "rules" in o:
            raise _err("$", "give either rules or graph_type, not both")
        return dialect, parse_graph_type(o["graph_type"], "$.graph_type")
    rules_raw = _list(o.get("rules"), "$.rules")
    rules = []
    for i, r in enumerate(rules_raw):
        ro = _obj(r, f"$.rules[{i}]", ["sel", "shape"])
        sel_path, shape_path = f"$.rules[{i}].sel", f"$.rules[{i}].shape"
        if dialect == "shacl":
            rules.append(
                (parse_shacl_selector(ro["sel"], sel_path), parse_shacl_shape(ro["shape"], shape_path))
            )
        elif dialect == "shex":
            rules.append(
                (parse_shex_selector(ro["sel"], sel_path), parse_shex_shape(ro["shape"], shape_path))
            )
        elif dialect == "sshex":
            rules.append(
                (parse_shex_selector(ro["sel"], sel_path), parse_sshex_shape(ro["shape"], shape_path))
            )
        else:  # pg, cogsl
            rules.append(
                (parse_pg_selector(ro["sel"], sel_path), parse_pg_shape(ro["shape"], shape_path))
            )
    return dialect, rules


def schema_to_json(dialect: str, rules) -> Dict:
    out = []
    for sel, shape in rules:
        if dialect == "shacl":
            out.append({"sel": shacl_selector_to_json(sel), "shape": shacl_shape_to_json(shape)})
        elif dialect == "shex":
            out.append({"sel": shex_selector_to_json(sel), "shape": shex_shape_to_json(shape)})
        elif dialect == "sshex":
            out.append({"sel": shex_selector_to_json(sel), "shape": sshex_shape_to_json(shape)})
        elif dialect in ("pg", "cogsl"):
            out.append({"sel": pg_shape_to_json(sel), "shape": pg_shape_to_json(shape)})
        else:
            raise TriformError(f"unknown dialect {dialect!r}")
    return {"dialect": dialect, "rules": out}


# ---------------------------------------------------------------------------
# Reports


def _rule_json(dialect: str, sel, shape) -> Tuple[Dict, Dict]:
    doc = schema_to_json(dialect, [(sel, shape)])
    rule = doc["rules"][0]
    return rule["sel"], rule["shape"]


def report_to_json(report: ValidationReport, dialect: str, rules) -> Dict:
    violations = []
    for v in report.violations:
        sel, shape = rules[v.rule_index]
        sel_json, shape_json = _rule_json(dialect, sel, shape)
        violations.append(
            {
                "rule_index": v.rule_index,
                "focus": focus_to_json(v.focus),
                "selector": sel_json,
                "shape": shape_json,
            }
        )
    return {
        "valid": report.valid,
        "violations": violations,
        "stats": [
            {"rule_index": s.rule_index, "selected": s.selected, "violations": s.violations}
            for s in report.stats
        ],
    }


def diagnostics_to_json(diags) -> Dict:
    return {
        "in_fragment": diags.in_fragment,
        "violations": [
            {"loc": v.loc, "rule": v.rule, "message": v.message} for v in diags.violations
        ],
    }


def dumps(doc: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
