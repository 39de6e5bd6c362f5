"""JSON wire formats: graphs, schemas in all dialects, reports.

Every dialect's abstract syntax uses one tagged-AST convention: a node
is an object whose ``op`` names its operator and whose other fields are
the operator's arguments.  Each AST family (SHACL path, ShEx triple
expression, PG content type, ...) states its operators once, in one
:class:`_Grammar` table, and one generic parser and one generic
serializer are driven by the table's rows.  A row maps an ``op`` to its
AST class (or, for sugar accepted on input only, to a constructor) and
lists its fields in the order the parser checks them, each with a codec.
N-ary operators take two or more ``args``, folded to the left on input
and written as binary nodes on output.  The encodings that do not fit a
field per attribute are small named codecs in their rows: ShEx openness,
the standard-ShEx interval and ``extra``, and the key steps at the ends
of a PG path (:func:`parse_pg_path`).

Parsers are strict: a field its operator lacks is rejected, even one a
sibling operator of the same family has, and errors name the JSON path
of the offending field.  Serialization is deterministic: equal inputs
give byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from . import shacl as sh
from . import shex as sx
from .model import (
    DEFAULT_TYPES,
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


def _bool(x: Any, path: str) -> bool:
    if not isinstance(x, bool):
        raise _err(path, "expected a boolean")
    return x


def _dir(x: Any, path: str) -> str:
    if x not in (FWD, INV):
        raise _err(path, 'expected "fwd" or "inv"')
    return x


def _list(x: Any, path: str) -> List:
    if not isinstance(x, list):
        raise _err(path, f"expected an array, got {type(x).__name__}")
    return x


def _value_type(x: Any, path: str) -> str:
    """A value-type name, which must be registered in ``DEFAULT_TYPES``:
    an unknown type is a parse error, whatever the data holds."""
    if not DEFAULT_TYPES.known(_str(x, path)):
        raise _err(path, f"unknown value type {x!r}")
    return x


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
        focus: Focus = Node(_str(o["id"], f"{path}.id"))
        stray = "value"
    elif kind == "value":
        if "value" not in o:
            raise _err(path, "value focus needs a value")
        focus = Val(parse_value(o["value"], f"{path}.value"))
        stray = "id"
    else:
        raise _err(f"{path}.kind", f"unknown focus kind {kind!r}")
    if stray in o:
        raise _err(f"{path}.{stray}", "unknown field")
    return focus


def focus_to_json(f: Focus) -> Dict:
    if isinstance(f, Node):
        return {"kind": "node", "id": f.id}
    return {"kind": "value", "value": value_to_json(f.value)}


_PAYLOAD_TYPE = {"int": int, "str": str, "bool": bool}


def parse_graph(doc: Any) -> CommonGraph:
    """A triple that passes the fast type tests is built with
    ``tuple.__new__``, skipping the checks just made; error paths are
    built only once a test fails, so well-formed triples cost no string
    formatting."""
    o = _obj(doc, "$", ["edges", "props"])
    new = tuple.__new__
    edges: List[EdgeTriple] = []
    for e in _list(o["edges"], "$.edges"):
        if type(e) is dict and len(e) == 3:
            s, p, q = e.get("s"), e.get("p"), e.get("o")
            if type(s) is str and type(p) is str and type(q) is str and s and p and q:
                edges.append(new(EdgeTriple, (s, p, q)))
                continue
        path = f"$.edges[{len(edges)}]"  # a check fails below: name the offending field
        eo = _obj(e, path, ["s", "p", "o"])
        edges.append(EdgeTriple(*(_str(eo[f], f"{path}.{f}") for f in "spo")))
    props: List[PropTriple] = []
    for t in _list(o["props"], "$.props"):
        if type(t) is dict and len(t) == 3:
            n, k, v = t.get("n"), t.get("k"), t.get("v")
            if type(n) is str and type(k) is str and n and k and type(v) is dict and len(v) == 2:
                tag, val = v.get("t"), v.get("val")
                if type(tag) is str and type(val) is _PAYLOAD_TYPE.get(tag):
                    if tag != "int" or INT64_MIN <= val <= INT64_MAX:
                        props.append(new(PropTriple, (n, k, new(Value, (tag, val)))))
                        continue
        path = f"$.props[{len(props)}]"  # a check fails below: name the offending field
        to = _obj(t, path, ["n", "k", "v"])
        n, k = _str(to["n"], f"{path}.n"), _str(to["k"], f"{path}.k")
        props.append(PropTriple(n, k, parse_value(to["v"], f"{path}.v")))
    try:
        return build_graph(edges, props)
    except TriformError as exc:
        raise FormatError(f"at $: {exc}") from exc


def graph_to_json(g: CommonGraph) -> Dict:
    edges = sorted(g.edges)
    props = sorted(g.props.items())
    return {
        "edges": [{"s": e.s, "p": e.p, "o": e.o} for e in edges],
        "props": [{"n": n, "k": k, "v": value_to_json(w)} for (n, k), w in props],
    }


# ---------------------------------------------------------------------------
# The grammar tables


class _Codec(NamedTuple):
    """How a field's value is read from JSON and written back (``dump``
    None: as it is); a nullable field reads JSON null as None and
    writes None as null."""

    parse: Callable[[Any, str], Any]
    dump: Optional[Callable[[Any], Any]]
    nullable: bool = False


class _Row:
    """One operator: its ``op``, the AST class it builds (a function for
    sugar accepted on input only, which has no wire form of its own),
    and its fields in the order the parser checks them.

    A field is given as ``(key, codec, attr=key, default=None)``: the
    codec reads ``o.get(key, default)`` into the constructor keyword
    ``attr`` and writes the node's ``attr`` back under ``key``.  A field
    whose key is a tuple spans those keys: its codec reads the whole
    object into a dict of keywords and writes the whole node into a dict
    of fields.  An n-ary row has the one field ``args``; ``build`` is
    its binary class."""

    __slots__ = ("op", "build", "fields", "keys", "nary")

    def __init__(self, op: str, build: Callable, *fields: tuple, nary: bool = False) -> None:
        self.op = op
        self.build = build
        self.nary = nary
        # (key, attr, parse, dump, default, nullable)
        self.fields = [_field(*f) for f in fields]
        keys = {"op", "args"} if nary else {"op"}
        for key, *_ in self.fields:
            keys.update(key if isinstance(key, tuple) else (key,))
        self.keys = frozenset(keys)


def _field(key, codec, attr: Optional[str] = None, default: Any = None) -> tuple:
    attr = None if isinstance(key, tuple) else attr or key
    return key, attr, codec.parse, codec.dump, default, codec.nullable


class _Grammar:
    """The operators of one AST family, and the generic parser and
    serializer they drive."""

    nullable = False  # as a field's codec

    def __init__(self, noun: str) -> None:
        self.noun = noun  # names the family in errors
        self.rows: Dict[str, _Row] = {}
        self.classes: Dict[type, _Row] = {}
        self.keys: frozenset = frozenset()  # the fields of all operators

    def define(self, *rows: _Row) -> None:
        for row in rows:
            self.rows[row.op] = row
            if isinstance(row.build, type):
                self.classes[row.build] = row
            self.keys |= row.keys

    def parse(self, x: Any, path: str) -> Any:
        op = x.get("op") if isinstance(x, dict) else None
        row = self.rows.get(op) if type(op) is str else None
        odd = row is None or not x.keys() <= row.keys
        if odd:  # the checks of the whole family come first
            _obj(x, path, ("op",), self.keys)
            if row is None:
                raise _err(f"{path}.op", f"unknown {self.noun} operator {x['op']!r}")
        if row.nary:
            args = _list(x.get("args"), f"{path}.args")
            for i, a in enumerate(args):
                arg = self.parse(a, f"{path}.args[{i}]")
                node = row.build(node, arg) if i else arg
            if len(args) < 2:
                raise _err(f"{path}.args", f"{row.op} needs at least two arguments")
        else:
            kw = {}
            for key, attr, parse, _, default, nullable in row.fields:
                if attr is None:
                    kw.update(parse(x, path))
                else:
                    value = x.get(key, default)
                    kw[attr] = None if value is None and nullable else parse(value, f"{path}.{key}")
            try:
                node = row.build(**kw)
            except TriformError as exc:
                raise _err(path, str(exc)) from exc
        if odd:  # a field only a sibling operator has, once the operator's own are read
            _obj(x, path, (), row.keys)
        return node

    def dump(self, node: Any) -> Dict:
        row = self.classes.get(type(node))
        if row is None:
            raise TriformError(f"{self.noun} {node!r} has no wire form")
        if row.nary:
            return {"op": row.op, "args": [self.dump(node.left), self.dump(node.right)]}
        out = {"op": row.op}
        for key, attr, _, dump, _, nullable in row.fields:
            if attr is None:
                out.update(dump(node))
            else:
                value = getattr(node, attr)
                out[key] = value if dump is None or value is None and nullable else dump(value)
        return out


class _LazyGrammar(_Grammar):
    """A grammar whose rows ``rows_of()`` returns the first time anything
    reads its ``rows``, ``classes`` or ``keys``, so that the AST module
    they name loads only then."""

    def __init__(self, noun: str, rows_of: Callable[[], Sequence[_Row]]) -> None:
        self.noun = noun
        self.rows_of = rows_of

    def __getattr__(self, name: str) -> Any:  # called only while the tables are missing
        if name not in ("rows", "classes", "keys"):
            raise AttributeError(name)
        rows = self.rows_of()
        super().__init__(self.noun)
        self.define(*rows)
        return getattr(self, name)


_SHACL_PATH = _Grammar("path")
_SHACL_SHAPE = _Grammar("shape")
_SHACL_SELECTOR = _Grammar("selector")
_SHEX_EXPR = _Grammar("triple-expression")
_SHEX_SHAPE = _Grammar("shape")
_SHEX_SELECTOR = _Grammar("selector")
_CONTENT = _Grammar("content")
_FILTER = _Grammar("filter")
_PG_BODY = _Grammar("path")
_PG_SHAPE = _Grammar("PG-shape")
_EDGE_TYPE = _Grammar("edge-type")

_STR = _Codec(_str, None)
_NAT = _Codec(_nat, None)
_DIR = _Codec(_dir, None)
_NAMES = _Codec(_names, sorted)
_VALUE = _Codec(parse_value, value_to_json)
_TYPE = _Codec(_value_type, None)
_TOP = {"op": "top"}  # the body of a count whose shape is left out

# SHACL: paths, shapes (with count sugar on input) and selectors

_SHACL_PATH.define(
    _Row("id", sh.Id),
    _Row("step", sh.Step, ("q", _STR)),
    _Row("inv", sh.Inverse, ("arg", _SHACL_PATH, "inner")),
    _Row("star", sh.Star, ("arg", _SHACL_PATH, "inner")),
    _Row("concat", sh.Concat, nary=True),
    _Row("union", sh.PathUnion, nary=True),
)
_SHACL_SHAPE.define(
    _Row("top", sh.Top),
    _Row("test_const", sh.TestConst, ("value", _VALUE, "c")),
    _Row("test_type", sh.TestType, ("vt", _TYPE, "t")),
    _Row("closed", sh.Closed, ("allowed", _NAMES)),
    _Row("eq", sh.Eq, ("path", _SHACL_PATH), ("p", _STR)),
    _Row("disj", sh.Disj, ("path", _SHACL_PATH), ("p", _STR)),
    _Row("not", sh.Not, ("arg", _SHACL_SHAPE, "inner")),
    _Row("and", sh.And, nary=True),
    _Row("or", sh.Or, nary=True),
    _Row("geq", sh.GeqCount, ("n", _NAT), ("path", _SHACL_PATH), ("shape", _SHACL_SHAPE, "body", _TOP)),
    _Row("leq", sh.LeqCount, ("n", _NAT), ("path", _SHACL_PATH), ("shape", _SHACL_SHAPE, "body", _TOP)),
    _Row("exists", sh.exists, ("path", _SHACL_PATH), ("shape", _SHACL_SHAPE, "body", _TOP)),
    _Row("forall", sh.forall, ("path", _SHACL_PATH), ("shape", _SHACL_SHAPE, "body")),
    _Row("count_eq", sh.count_eq, ("n", _NAT), ("path", _SHACL_PATH), ("shape", _SHACL_SHAPE, "body", _TOP)),
)
_SHACL_SELECTOR.define(
    _Row("exists_out", sh.ExistsOut, ("q", _STR)),
    _Row("exists_in", sh.ExistsIn, ("q", _STR)),
    _Row("test_const", sh.SelConst, ("value", _VALUE, "c")),
)

# ShEx: triple expressions (with repetition sugar on input), shapes, selectors


def _kind(x: Any, path: str) -> str:
    if x not in ("exactly", "at-most", "at-least"):
        raise _err(path, "expected exactly, at-most, or at-least")
    return x


def _parse_openness(o: Dict, path: str) -> Dict:
    if ("half_open" in o) == ("open" in o):
        raise _err(path, "neigh needs exactly one of half_open or open")
    if "half_open" in o:
        ho = _obj(o["half_open"], f"{path}.half_open", ["r"])
        return {"openness": sx.HalfOpen(_names(ho["r"], f"{path}.half_open.r"))}
    op = _obj(o["open"], f"{path}.open", ["r", "q"])
    return {"openness": sx.Open(_names(op["r"], f"{path}.open.r"), _names(op["q"], f"{path}.open.q"))}


def _openness_to_json(s: sx.SNeigh) -> Dict:
    w = s.openness
    if isinstance(w, sx.HalfOpen):
        return {"half_open": {"r": sorted(w.r)}}
    return {"open": {"r": sorted(w.r), "q": sorted(w.q)}}


_SHEX_EXPR.define(
    _Row("eps", sx.Eps),
    _Row("tc", sx.TC, ("dir", _DIR, "direction"), ("q", _STR), ("shape", _SHEX_SHAPE)),
    _Row("seq", sx.Seq, nary=True),
    _Row("alt", sx.Alt, nary=True),
    _Row("star", sx.StarE, ("arg", _SHEX_EXPR, "inner")),
    _Row(
        "repeat",
        sx.desugar_repetition,
        ("kind", _Codec(_kind, None)),
        ("arg", _SHEX_EXPR, "e"),
        ("n", _NAT),
    ),
)
_SHEX_SHAPE.define(
    _Row("test_const", sx.STestConst, ("value", _VALUE, "c")),
    _Row("test_type", sx.STestType, ("vt", _TYPE, "t")),
    _Row(
        "neigh",
        sx.SNeigh,
        ("expr", _SHEX_EXPR),
        (("half_open", "open"), _Codec(_parse_openness, _openness_to_json)),
    ),
    _Row("not", sx.SNot, ("arg", _SHEX_SHAPE, "inner")),
    _Row("and", sx.SAnd, nary=True),
    _Row("or", sx.SOr, nary=True),
)
_SHEX_SELECTOR.define(
    _Row("test_const", sx.SelTestConst, ("value", _VALUE, "c")),
    _Row("out_const", sx.SelOutConst, ("q", _STR), ("value", _VALUE, "c")),
    _Row("out", sx.SelOut, ("q", _STR)),
    _Row("in", sx.SelIn, ("q", _STR)),
)

# Standard ShEx (sshex dialect): intervals, EXTRA, optional shapes; only
# that dialect reads these grammars, so their rows are lazy


def _parse_interval(o: Dict, path: str) -> Dict:
    iv = _list(o.get("interval"), f"{path}.interval")
    if len(iv) != 2:
        raise _err(f"{path}.interval", "expected [min, max]")
    lo = _nat(iv[0], f"{path}.interval[0]")
    if iv[1] == "*":
        return {"min": lo, "max": None}
    hi = _nat(iv[1], f"{path}.interval[1]")
    if hi < lo:
        raise _err(f"{path}.interval", "max must be at least min")
    return {"min": lo, "max": hi}


def _interval_to_json(e) -> Dict:
    return {"interval": [e.min, "*" if e.max is None else e.max]}


def _parse_extra(x: Any, path: str) -> frozenset:
    extra = set()
    for i, item in enumerate(_list(x, path)):
        o = _obj(item, f"{path}[{i}]", ["q", "dir"])
        direction = _dir(o["dir"], f"{path}[{i}].dir")
        extra.add((_str(o["q"], f"{path}[{i}].q"), direction))
    return frozenset(extra)


def _or_none(g: _Grammar) -> _Codec:
    """``g`` as the codec of a field whose node may be left out."""
    return _Codec(g.parse, g.dump, nullable=True)


def _sshex_expr_rows():
    from . import sshex as ssx

    return (
        _Row("tc", ssx.XTC, ("dir", _DIR, "direction"), ("q", _STR), ("shape", _or_none(_SSHEX_SHAPE))),
        _Row("seq", ssx.XSeq, nary=True),
        _Row("alt", ssx.XAlt, nary=True),
        _Row(
            "repeat",
            ssx.XRepeat,
            (("interval",), _Codec(_parse_interval, _interval_to_json)),
            ("arg", _SSHEX_EXPR, "inner"),
        ),
    )


def _sshex_shape_rows():
    from . import sshex as ssx

    return (
        _Row("test_const", ssx.XTestConst, ("value", _VALUE, "c")),
        _Row("test_type", ssx.XTestType, ("vt", _TYPE, "t")),
        _Row(
            "shape",
            ssx.XShape,
            ("closed", _Codec(_bool, None), "closed", False),
            ("extra", _Codec(_parse_extra, lambda e: [{"q": q, "dir": d} for q, d in sorted(e)]), "extra", []),
            ("expr", _or_none(_SSHEX_EXPR)),
        ),
        _Row("not", ssx.XNot, ("arg", _SSHEX_SHAPE, "inner")),
        _Row("and", ssx.XAnd, nary=True),
        _Row("or", ssx.XOr, nary=True),
    )


_SSHEX_EXPR = _LazyGrammar("standard triple-expression", _sshex_expr_rows)
_SSHEX_SHAPE = _LazyGrammar("standard shape", _sshex_shape_rows)

# PG-Schema: content types, filters, path bodies, PG-shapes, edge types


def _inner_key_step(k: Any) -> None:
    raise TriformError("key steps may only appear at the ends of a path")


_UNREAD = _Codec(lambda x, path: x, None)


def _parse_labels(x: Any, path: str) -> Optional[frozenset]:
    return None if x == "*" else _names(x, path)


_CONTENT.define(
    _Row("any", pg.CAny),
    _Row("empty", pg.CEmpty),
    _Row("field", pg.CField, ("k", _STR), ("type", _TYPE, "t")),
    _Row("both", pg.CBoth, nary=True),
    _Row("either", pg.CEither, nary=True),
)
_FILTER.define(
    _Row("key_is", pg.FKeyIs, ("k", _STR), ("value", _VALUE, "c")),
    _Row("key_is_not", pg.FNotKeyIs, ("k", _STR), ("value", _VALUE, "c")),
    _Row("of_type", pg.FOfType, ("type", _CONTENT, "t")),
    _Row("not_of_type", pg.FNotOfType, ("type", _CONTENT, "t")),
)
_PG_BODY.define(
    _Row("filter", pg.PFilter, ("kind", _FILTER)),
    _Row("pred", pg.PPred, ("p", _STR)),
    _Row("not_preds", pg.PNotPreds, ("preds", _NAMES, "excluded")),
    _Row("inv", pg.PInv, ("arg", _PG_BODY, "inner")),
    _Row("star", pg.PStar, ("arg", _PG_BODY, "inner")),
    _Row("concat", pg.PConcat, nary=True),
    _Row("union", pg.PUnion, nary=True),
    # key steps are read by parse_pg_path at a path's ends only
    _Row("key_step", _inner_key_step, ("k", _UNREAD)),
    _Row("inv_key_step", _inner_key_step, ("k", _UNREAD)),
)
_EDGE_TYPE.define(
    _Row(
        "et",
        pg.ET,
        ("labels", _Codec(_parse_labels, lambda ls: "*" if ls is None else sorted(ls))),
        ("src", _CONTENT),
        ("dst", _CONTENT),
    ),
    _Row("both", pg.EBoth, nary=True),
    _Row("either", pg.EEither, nary=True),
)


def _key_step(x: Any, path: str) -> str:
    return _str(_obj(x, path, ["op", "k"])["k"], f"{path}.k")


def _op_of(x: Any) -> Any:
    return x.get("op") if isinstance(x, dict) else None


def parse_pg_path(x: Any, path: str) -> pg.PgPath:
    """Key steps are recognized at the extreme ends of the top-level
    concatenation; anywhere else they are rejected."""
    o = _obj(x, path, ["op"], _PG_BODY.keys)
    concat = o["op"] == "concat"
    parts = [(x, path)]
    if concat:
        parts = [(a, f"{path}.args[{i}]") for i, a in enumerate(_list(o.get("args"), f"{path}.args"))]
        if len(parts) < 2:
            raise _err(f"{path}.args", "concat needs at least two arguments")
    src_key = _key_step(*parts.pop(0)) if _op_of(parts[0][0]) == "inv_key_step" else None
    dst_key = _key_step(*parts.pop()) if parts and _op_of(parts[-1][0]) == "key_step" else None
    body = pg.concat_all([_PG_BODY.parse(a, p) for a, p in parts])
    if concat:
        _obj(o, path, ["op", "args"])
    return pg.PgPath(src_key, body, dst_key)


def pg_path_to_json(p: pg.PgPath) -> Dict:
    parts: List[Dict] = []
    if p.src_key is not None:
        parts.append({"op": "inv_key_step", "k": p.src_key})
    if p.body is not None:
        parts.append(_PG_BODY.dump(p.body))
    if p.dst_key is not None:
        parts.append({"op": "key_step", "k": p.dst_key})
    if len(parts) == 1:
        return parts[0]
    return {"op": "concat", "args": parts}


_PG_PATH = _Codec(parse_pg_path, pg_path_to_json)
_PG_SHAPE.define(
    _Row("geq", pg.PgGeq, ("n", _NAT), ("path", _PG_PATH)),
    _Row("leq", pg.PgLeq, ("n", _NAT), ("path", _PG_PATH)),
    _Row("and", pg.PgAnd, nary=True),
)


def parse_pg_selector(x: Any, path: str) -> pg.PgGeq:
    shape = _PG_SHAPE.parse(x, path)
    if not isinstance(shape, pg.PgGeq) or shape.n != 1:
        raise _err(path, "PG-selectors are existential shapes (geq with n=1)")
    return shape


parse_shacl_path = _SHACL_PATH.parse
parse_shex_shape = _SHEX_SHAPE.parse
parse_shex_expr = _SHEX_EXPR.parse


def parse_shex_openness(x: Any, path: str) -> sx.Openness:
    """An openness on its own: an object with exactly one of half_open or open."""
    return _parse_openness(_obj(x, path, [], ["half_open", "open"]), path)["openness"]


# (selector, shape) codecs of each dialect's rules
_PG_SELECTOR = _Codec(parse_pg_selector, _PG_SHAPE.dump)
_RULE_FORMS = {
    "shacl": (_SHACL_SELECTOR, _SHACL_SHAPE),
    "shex": (_SHEX_SELECTOR, _SHEX_SHAPE),
    "pg": (_PG_SELECTOR, _PG_SHAPE),
    "cogsl": (_PG_SELECTOR, _PG_SHAPE),
    "sshex": (_SHEX_SELECTOR, _SSHEX_SHAPE),
}
DIALECTS = tuple(_RULE_FORMS)


# ---------------------------------------------------------------------------
# Schemas (dialect-tagged rule lists) and graph types


def _parse_rules(x: Any, path: str, dialect: str) -> List:
    sel_form, shape_form = _RULE_FORMS[dialect]
    rules = []
    for i, r in enumerate(_list(x, path)):
        ro = _obj(r, f"{path}[{i}]", ["sel", "shape"])
        rules.append(
            (sel_form.parse(ro["sel"], f"{path}[{i}].sel"), shape_form.parse(ro["shape"], f"{path}[{i}].shape"))
        )
    return rules


def _rules_to_json(dialect: str, rules) -> List[Dict]:
    forms = _RULE_FORMS.get(dialect)
    out = []
    for sel, shape in rules:
        if forms is None:
            raise TriformError(f"unknown dialect {dialect!r}")
        out.append({"sel": forms[0].dump(sel), "shape": forms[1].dump(shape)})
    return out


def parse_graph_type(x: Any, path: str) -> pg.GraphType:
    o = _obj(x, path, ["node_types", "edge_types", "constraints"])
    node_types = tuple(
        _CONTENT.parse(a, f"{path}.node_types[{i}]")
        for i, a in enumerate(_list(o["node_types"], f"{path}.node_types"))
    )
    edge_types = tuple(
        _EDGE_TYPE.parse(a, f"{path}.edge_types[{i}]")
        for i, a in enumerate(_list(o["edge_types"], f"{path}.edge_types"))
    )
    constraints = _parse_rules(o["constraints"], f"{path}.constraints", "pg")
    return pg.GraphType(node_types, edge_types, tuple(constraints))


def graph_type_to_json(gt: pg.GraphType) -> Dict:
    return {
        "node_types": [_CONTENT.dump(t) for t in gt.node_types],
        "edge_types": [_EDGE_TYPE.dump(t) for t in gt.edge_types],
        "constraints": _rules_to_json("pg", gt.constraints),
    }


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
    return dialect, _parse_rules(o.get("rules"), "$.rules", dialect)


def schema_to_json(dialect: str, rules) -> Dict:
    return {"dialect": dialect, "rules": _rules_to_json(dialect, rules)}


# ---------------------------------------------------------------------------
# Reports


def report_to_json(report: ValidationReport, dialect: str, rules) -> Dict:
    indices = sorted({v.rule_index for v in report.violations})
    violated = dict(zip(indices, _rules_to_json(dialect, [rules[i] for i in indices])))  # each rule once
    return {
        "valid": report.valid,
        "violations": [
            {
                "rule_index": v.rule_index,
                "focus": focus_to_json(v.focus),
                "selector": violated[v.rule_index]["sel"],
                "shape": violated[v.rule_index]["shape"],
            }
            for v in report.violations
        ],
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
