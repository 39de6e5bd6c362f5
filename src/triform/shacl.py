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
union of those images.  This restriction is the load-bearing fact of
this module and is exercised against a full relational oracle in the
test harness.  The Boolean and test classes, the count atoms and the
set evaluator are the shape core's (``core``), and so is ``Closed``,
decided set-at-a-time by ``core.closed``; a :class:`ShaclContext` reads
SHACL's paths and decides its atoms ``Closed``, ``Eq`` and ``Disj``.

Everything is pure: a shared (graph, schema) pair may be validated by
concurrent workers partitioned by rule index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from .core import And, Closed, Context, GeqCount, LeqCount, Not, Or, TestConst, TestType, Top, _sat, closed
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
)
from .pgschema import (
    Images,
    NodePath,
    PConcat,
    PId,
    PInv,
    PName,
    PStar,
    PUnion,
    path_counts,
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
class Eq:
    path: PathExpr
    p: str


@frozen
class Disj:
    path: PathExpr
    p: str


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


class ShaclContext(Context):
    """A SHACL run: a count atom reads its node path through the relation
    evaluator, and ``Closed`` (by ``core.closed``), ``Eq`` and ``Disj`` are
    decided here; ``Eq`` and ``Disj`` compare each element's image with its
    far ends of the name.  Each path is normalised once per run (``normal``,
    by the path's id, keeping the path so that its id is not reused while
    the context lives)."""

    def __init__(self, g: CommonGraph, registry: Optional[ValueTypeRegistry] = None) -> None:
        super().__init__(g, registry)
        self.normal: Dict[int, Tuple[PathExpr, NodePath]] = {}

    def _normal(self, path: PathExpr) -> NodePath:
        return (self.normal.get(id(path)) or self.normal.setdefault(id(path), (path, push_inv(path))))[1]

    def images(self, path: PathExpr, elems: Set[Elem]) -> Images:
        return path_relation(self.g, self._normal(path), elems, self.registry)

    def counts(self, path: PathExpr, elems: Set[Elem]) -> Mapping[Elem, int]:
        return path_counts(self.g, self._normal(path), elems, self.registry)

    def atom(self, shape: ShaclShape, elems: Set[Elem]) -> Set[Elem]:
        kind, g = type(shape), self.g
        if kind is Closed:
            return closed(g, shape.allowed, elems)
        if kind is Eq or kind is Disj:
            images = self.images(shape.path, elems)
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
    return x in _sat(ShaclContext(g, registry), shape, {x})


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
    built when the report's violations are first read."""
    ctx, per_rule = ShaclContext(g, registry), []
    for sel, shape in rules:
        selected = _select(g, sel)
        per_rule.append((selected, selected - _sat(ctx, shape, selected)))
    return make_report(per_rule)
