"""SHACL core: shapes, selectors, and validation.

A SHACL path is a PG node path (:data:`pgschema.NodePath`) built from
the six classes SHACL names ``Id``, ``Step``, ``Inverse``, ``Concat``,
``PathUnion`` and ``Star`` (``PId``, ``PName``, ``PInv``, ``PConcat``,
``PUnion`` and ``PStar``): the two dialects share one path AST.  Paths
denote binary relations over nodes and values; shapes are unary
formulas, and the meaning of a shape is its extension, the
set of elements that satisfy it.  The denoted relation of a path can be
infinite (``id`` relates every element of the universe to itself) but
its image at a focus is always contained in the graph's elements plus
the focus itself, because edge and property steps only ever relate
graph elements.  So every extension the validator needs is cut to a
finite domain, the selected foci plus the images reached from them,
and is computed set-at-a-time on raw elements (node ids and values):
boolean connectives are set operations, and a count atom takes all its
foci's images from one call of the relation evaluator
(:func:`pgschema.path_relation`) and evaluates its body once, on the
union of those images (see :func:`_sat`).  This
restriction is the load-bearing fact of this module and is exercised
against a full relational oracle in the test harness.

Everything is pure: a shared (graph, schema) pair may be validated by
concurrent workers partitioned by rule index.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple, Union

from .model import (
    FWD,
    INV,
    CommonGraph,
    Elem,
    Focus,
    TriformError,
    Value,
    ValueTypeRegistry,
    elem_focus,
    elems_to_foci,
    focus_elem,
    frozen,
    triple_ends,
    value_type_member,
)
from .pgschema import (
    NodePath,
    PConcat,
    PId,
    PInv,
    PName,
    PStar,
    PUnion,
    path_relation,
    push_inv,
)
from .report import ValidationReport, make_report

# ---------------------------------------------------------------------------
# ASTs

# The SHACL names of the path classes, used by the Python API and the JSON grammar
Id, Step, Inverse, Concat, PathUnion, Star = PId, PName, PInv, PConcat, PUnion, PStar

PathExpr = NodePath


@frozen
class Top:
    pass


@frozen
class TestConst:
    __test__ = False  # AST node named after the grammar, not a test case

    c: Value


@frozen
class TestType:
    __test__ = False

    t: str


@frozen
class Closed:
    allowed: FrozenSet[str]


@frozen
class Eq:
    path: PathExpr
    p: str


@frozen
class Disj:
    path: PathExpr
    p: str


@frozen
class Not:
    inner: "ShaclShape"


@frozen
class And:
    left: "ShaclShape"
    right: "ShaclShape"


@frozen
class Or:
    left: "ShaclShape"
    right: "ShaclShape"


@frozen
class GeqCount:
    n: int
    path: PathExpr
    body: "ShaclShape"


@frozen
class LeqCount:
    n: int
    path: PathExpr
    body: "ShaclShape"


ShaclShape = Union[Top, TestConst, TestType, Closed, Eq, Disj, Not, And, Or, GeqCount, LeqCount]


@frozen
class ExistsOut:
    q: str


@frozen
class ExistsIn:
    q: str


@frozen
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

def eval_path(g: CommonGraph, v: Focus, path: PathExpr) -> Set[Focus]:
    """The image of ``v`` under the path's relation.

    Always a subset of the graph's nodes and values plus ``v`` itself
    (the focus enters only through ``id``).  Evaluated by the relation
    evaluator (:func:`pgschema.path_relation`) at one focus.
    """
    x = focus_elem(v)
    return {elem_focus(u) for u in path_relation(g, push_inv(path), {x}).get(x, ())}


# ---------------------------------------------------------------------------
# Shape satisfaction


def _sat(g: CommonGraph, shape: ShaclShape, elems: Set[Elem], registry) -> Set[Elem]:
    """The elements of ``elems`` that satisfy ``shape``: the shape's
    extension cut to ``elems``.  Elements are raw (node ids and values).

    A count atom takes every element's image from one relation call,
    evaluates its body once on the union of those images, and compares
    the size of each image (or of its intersection with the body's
    extension) against the bound; the images may be the graph's own
    index, so they are only read.  ``Eq`` and ``Disj`` compare each
    element's image with its far ends of the name.  The result is a set
    the caller must not mutate.
    """
    kind = type(shape)
    if kind is Top:
        return elems
    if kind is And:
        return _sat(g, shape.right, _sat(g, shape.left, elems, registry), registry)
    if kind is Or:
        left = _sat(g, shape.left, elems, registry)
        rest = elems - left
        return left | _sat(g, shape.right, rest, registry) if rest else left
    if kind is Not:
        return elems - _sat(g, shape.inner, elems, registry)
    if kind is GeqCount or kind is LeqCount:
        n, geq = shape.n, kind is GeqCount
        if geq and n == 0:
            return elems
        images = path_relation(g, push_inv(shape.path), elems, registry)
        if type(shape.body) is Top:
            counts = zip(images, map(len, images.values()))
        else:
            body = _sat(g, shape.body, set().union(*images.values()), registry)
            counts = zip(images, map(len, map(body.intersection, images.values())))
        if geq:
            return {x for x, c in counts if c >= n}
        return elems - {x for x, c in counts if c > n}  # an element without image counts 0
    if kind is TestConst:
        return {shape.c} & elems
    if kind is TestType:
        t = shape.t
        return {x for x in elems if type(x) is Value and value_type_member(x, t, registry)}
    if kind is Closed:
        # only outgoing triples are constrained; values have none
        allowed = shape.allowed
        return {
            x
            for x in elems
            if type(x) is not str
            or (
                all(e.p in allowed for e in g.out_edges(x))
                and all(k in allowed for k in g.node_props(x))
            )
        }
    if kind is Eq or kind is Disj:
        images = path_relation(g, push_inv(shape.path), elems, registry)
        steps = path_relation(g, PName(shape.p), elems)
        if kind is Eq:
            return {x for x in elems if set(images.get(x, ())) == set(steps.get(x, ()))}
        return elems - {x for x, img in images.items() if x in steps and not set(steps[x]).isdisjoint(img)}
    raise TriformError(f"unknown SHACL shape {shape!r}")


def shacl_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: ShaclShape,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """Whether ``v`` satisfies ``shape``: the set evaluator at one focus."""
    x = focus_elem(v)
    return x in _sat(g, shape, {x}, registry)


def _select(g: CommonGraph, sel: ShaclSelector) -> Set[Elem]:
    if isinstance(sel, ExistsOut):
        return triple_ends(g, sel.q, FWD)
    if isinstance(sel, ExistsIn):
        return triple_ends(g, sel.q, INV)
    if isinstance(sel, SelConst):
        return {sel.c}
    raise TriformError(f"unknown SHACL selector {sel!r}")


def shacl_select(g: CommonGraph, sel: ShaclSelector) -> List[Focus]:
    """The finite set of foci picked by a selector, in deterministic order.

    ``SelConst`` contributes its constant even when it does not occur in
    the graph; the other forms ground to the graph's triples.
    """
    return elems_to_foci(_select(g, sel))


def shacl_validate(
    g: CommonGraph,
    rules: List[ShaclRule],
    registry: Optional[ValueTypeRegistry] = None,
) -> ValidationReport:
    """Check every selected focus against its shape; valid iff no failures.

    Each rule is decided for all its selected elements at once; foci are
    built for the failing elements only."""
    per_rule = []
    for sel, shape in rules:
        selected = _select(g, sel)
        failing = elems_to_foci(selected - _sat(g, shape, selected, registry))
        per_rule.append((selected, failing))
    return make_report(per_rule)
