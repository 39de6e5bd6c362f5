"""SHACL core: path expressions, shapes, selectors, and validation.

Path expressions denote binary relations over nodes and values; shapes
are unary formulas evaluated at a focus.  The denoted relation of a path
can be infinite (``id`` relates every element of the universe to itself)
but its image at a focus is always contained in the graph's elements
plus the focus itself, because edge and property steps only ever relate
graph elements.  Evaluation therefore works on that finite domain; this
restriction is the load-bearing fact of this module and is exercised
against a full relational oracle in the test harness.

Everything is pure: a shared (graph, schema) pair may be validated by
concurrent workers partitioned by rule index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Optional, Set, Tuple, Union

from .model import (
    FWD,
    INV,
    CommonGraph,
    Focus,
    Node,
    TriformError,
    Val,
    Value,
    ValueTypeRegistry,
    sorted_foci,
    triple_ends,
    value_type_member,
)
from .pgschema import NodePath, PConcat, PId, PInv, PName, PStar, PUnion, path_image, push_inv
from .report import ValidationReport, make_report

# ---------------------------------------------------------------------------
# ASTs


class _Path:
    """Base of the path nodes: holds the lowering into PG's path algebra."""

    @cached_property
    def lowered(self) -> NodePath:
        """The path as a PG path with inverses pushed to the steps, computed
        once per path object."""
        return push_inv(_as_pg_path(self))


@dataclass(frozen=True)
class Id(_Path):
    pass


@dataclass(frozen=True)
class Step(_Path):
    q: str


@dataclass(frozen=True)
class Inverse(_Path):
    inner: "PathExpr"


@dataclass(frozen=True)
class Concat(_Path):
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class PathUnion(_Path):
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class Star(_Path):
    inner: "PathExpr"


PathExpr = Union[Id, Step, Inverse, Concat, PathUnion, Star]


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class TestConst:
    __test__ = False  # AST node named after the grammar, not a test case

    c: Value


@dataclass(frozen=True)
class TestType:
    __test__ = False

    t: str


@dataclass(frozen=True)
class Closed:
    allowed: FrozenSet[str]


@dataclass(frozen=True)
class Eq:
    path: PathExpr
    p: str


@dataclass(frozen=True)
class Disj:
    path: PathExpr
    p: str


@dataclass(frozen=True)
class Not:
    inner: "ShaclShape"


@dataclass(frozen=True)
class And:
    left: "ShaclShape"
    right: "ShaclShape"


@dataclass(frozen=True)
class Or:
    left: "ShaclShape"
    right: "ShaclShape"


@dataclass(frozen=True)
class GeqCount:
    n: int
    path: PathExpr
    body: "ShaclShape"


@dataclass(frozen=True)
class LeqCount:
    n: int
    path: PathExpr
    body: "ShaclShape"


ShaclShape = Union[Top, TestConst, TestType, Closed, Eq, Disj, Not, And, Or, GeqCount, LeqCount]


@dataclass(frozen=True)
class ExistsOut:
    q: str


@dataclass(frozen=True)
class ExistsIn:
    q: str


@dataclass(frozen=True)
class SelConst:
    c: Value


ShaclSelector = Union[ExistsOut, ExistsIn, SelConst]

ShaclRule = Tuple[ShaclSelector, ShaclShape]


def exists(path: PathExpr, body: Optional[ShaclShape] = None) -> ShaclShape:
    """Sugar: at least one path successor satisfying the body."""
    return GeqCount(1, path, body if body is not None else Top())


def forall(path: PathExpr, body: ShaclShape) -> ShaclShape:
    """Sugar: every path successor satisfies the body."""
    return LeqCount(0, path, Not(body))


def count_eq(n: int, path: PathExpr, body: Optional[ShaclShape] = None) -> ShaclShape:
    """Sugar: exactly ``n`` path successors satisfying the body."""
    b = body if body is not None else Top()
    return And(LeqCount(n, path, b), GeqCount(n, path, b))


def and_all(shapes: List[ShaclShape]) -> ShaclShape:
    if not shapes:
        return Top()
    out = shapes[0]
    for s in shapes[1:]:
        out = And(out, s)
    return out


def or_all(shapes: List[ShaclShape]) -> ShaclShape:
    if not shapes:
        raise TriformError("empty disjunction")
    out = shapes[0]
    for s in shapes[1:]:
        out = Or(out, s)
    return out


# ---------------------------------------------------------------------------
# Path evaluation

def _as_pg_path(path: PathExpr) -> NodePath:
    if isinstance(path, Step):
        return PName(path.q)
    if isinstance(path, Concat):
        return PConcat(_as_pg_path(path.left), _as_pg_path(path.right))
    if isinstance(path, Inverse):
        return PInv(_as_pg_path(path.inner))
    if isinstance(path, PathUnion):
        return PUnion(_as_pg_path(path.left), _as_pg_path(path.right))
    if isinstance(path, Star):
        return PStar(_as_pg_path(path.inner))
    if isinstance(path, Id):
        return PId()
    raise TriformError(f"unknown path node {path!r}")


def eval_path(g: CommonGraph, v: Focus, path: PathExpr) -> Set[Focus]:
    """The image of ``v`` under the path's relation.

    Always a subset of the graph's nodes and values plus ``v`` itself
    (the focus enters only through ``id``).  Evaluated by
    :func:`pgschema.path_image` on the lowered path.
    """
    start = v.id if isinstance(v, Node) else v.value
    out: Set[Focus] = set()
    for u in path_image(g, path.lowered, {start}):
        out.add(Node(u) if type(u) is str else Val(u))
    return out


# ---------------------------------------------------------------------------
# Shape satisfaction


def shacl_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: ShaclShape,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    if isinstance(shape, Top):
        return True
    if isinstance(shape, TestConst):
        return isinstance(v, Val) and v.value == shape.c
    if isinstance(shape, TestType):
        return isinstance(v, Val) and value_type_member(v.value, shape.t, registry)
    if isinstance(shape, Closed):
        # only outgoing triples are constrained; values have none
        if not isinstance(v, Node):
            return True
        for e in g.out_edges(v.id):
            if e.p not in shape.allowed:
                return False
        for k in g.node_props(v.id):
            if k not in shape.allowed:
                return False
        return True
    if isinstance(shape, Eq):
        return eval_path(g, v, shape.path) == eval_path(g, v, Step(shape.p))
    if isinstance(shape, Disj):
        return not (eval_path(g, v, shape.path) & eval_path(g, v, Step(shape.p)))
    if isinstance(shape, Not):
        return not shacl_satisfies(g, v, shape.inner, registry)
    if isinstance(shape, And):
        return shacl_satisfies(g, v, shape.left, registry) and shacl_satisfies(
            g, v, shape.right, registry
        )
    if isinstance(shape, Or):
        return shacl_satisfies(g, v, shape.left, registry) or shacl_satisfies(
            g, v, shape.right, registry
        )
    if isinstance(shape, GeqCount):
        image = eval_path(g, v, shape.path)
        hits = 0
        for u in image:
            if shacl_satisfies(g, u, shape.body, registry):
                hits += 1
                if hits >= shape.n:
                    return True
        return hits >= shape.n
    if isinstance(shape, LeqCount):
        image = eval_path(g, v, shape.path)
        hits = 0
        for u in image:
            if shacl_satisfies(g, u, shape.body, registry):
                hits += 1
                if hits > shape.n:
                    return False
        return True
    raise TriformError(f"unknown SHACL shape {shape!r}")


def shacl_select(g: CommonGraph, sel: ShaclSelector) -> List[Focus]:
    """The finite set of foci picked by a selector, in deterministic order.

    ``SelConst`` contributes its constant even when it does not occur in
    the graph; the other forms ground to the graph's triples.
    """
    if isinstance(sel, ExistsOut):
        out = triple_ends(g, sel.q, FWD)
    elif isinstance(sel, ExistsIn):
        out = triple_ends(g, sel.q, INV)
    elif isinstance(sel, SelConst):
        out = {Val(sel.c)}
    else:
        raise TriformError(f"unknown SHACL selector {sel!r}")
    return sorted_foci(out)


def shacl_validate(
    g: CommonGraph,
    rules: List[ShaclRule],
    registry: Optional[ValueTypeRegistry] = None,
) -> ValidationReport:
    """Check every selected focus against its shape; valid iff no failures."""
    per_rule = []
    for sel, shape in rules:
        selected = shacl_select(g, sel)
        failing = [v for v in selected if not shacl_satisfies(g, v, shape, registry)]
        per_rule.append((selected, failing))
    return make_report(per_rule)
