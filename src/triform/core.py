"""The shape core of the three dialects: Boolean combinations (``Top``,
``Not``, ``And``, ``Or``) of value tests (``TestConst``, ``TestType``)
and count atoms (``GeqCount``, ``LeqCount``), and one set evaluator,
:func:`_sat`, for all of them; and the ``Closed`` atom, decided by
:func:`closed` for SHACL's contexts and ShEx's half-open shapes.

SHACL and PG-Schema count over paths: a SHACL atom over a node path, a
PG atom over a PG-path with the top body (``pgschema.lower_shape``).
ShEx counts over neighbourhoods, with an atom of its own
(``shex.SNeigh``); ``SAnd``, ``SOr``, ``SNot``, ``STestConst`` and
``STestType`` are its names for the classes here.  A dialect's
:class:`Context` reads its count atoms' paths (:meth:`Context.images`)
and decides its own atoms (:meth:`Context.atom`), so this module imports
no dialect.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import sub
from typing import Any, Collection, Dict, FrozenSet, List, Mapping, Optional, Set

from .model import DEFAULT_TYPES, FWD, CommonGraph, Elem, TriformError, Value, ValueTypeRegistry, frozen


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
class Not:
    inner: Any


@frozen
class And:
    left: Any
    right: Any


@frozen
class Or:
    left: Any
    right: Any


@frozen
class GeqCount:
    n: int
    path: Any
    body: Any


@frozen
class LeqCount:
    n: int
    path: Any
    body: Any


@frozen
class Closed:
    """Every forward row (out-edge or key) has a name in ``allowed``."""

    allowed: FrozenSet[str]


TOP = Top()


def and_all(shapes: List, top: Any = TOP) -> Any:
    """The conjunction of ``shapes``, folded left; ``top`` (the dialect's
    top shape) when there are none."""
    return reduce(And, shapes) if shapes else top


def or_all(shapes: List) -> Any:
    if not shapes:
        raise TriformError("empty disjunction")
    return reduce(Or, shapes)


def restrict(index: Dict[Elem, Any], elems: Set[Elem]) -> Dict[Elem, Any]:
    """``index`` cut to the keys in ``elems``, read from the smaller of
    the two: the map itself when ``elems`` holds all its keys."""
    if len(index) <= len(elems):
        if elems.issuperset(index):
            return index
        return {x: y for x, y in index.items() if x in elems}
    get = index.get
    return {x: y for x in elems if (y := get(x))}


def closed(g: CommonGraph, allowed: FrozenSet[str], elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` that satisfy ``Closed(allowed)``: those
    whose forward rows (``CommonGraph.degrees``) are all rows of the
    allowed names (``CommonGraph.counts``); values have none."""
    rows = restrict(g.degrees(FWD), elems)
    xs, left = list(rows), list(rows.values())
    for name in allowed:
        left = list(map(sub, left, map(g.counts(name, FWD).get, xs, repeat(0))))
    return elems - set(compress(xs, left))


class Context:
    """One run over one graph; a dialect's subclass reads its count atoms'
    paths and decides its own atoms."""

    def __init__(self, g: CommonGraph, registry: Optional[ValueTypeRegistry] = None) -> None:
        self.g = g
        self.registry = registry

    def images(self, path: Any, elems: Set[Elem]) -> Dict[Elem, Collection[Elem]]:
        """Each element of ``elems`` mapped to its image under ``path``, if not empty."""
        raise TriformError(f"no count atom over {path!r} in this dialect")

    def counts(self, path: Any, elems: Set[Elem]) -> Mapping[Elem, int]:
        """The size of each nonempty :meth:`images` image; it may hold other elements too."""
        raise TriformError(f"no count atom over {path!r} in this dialect")

    def atom(self, shape: Any, elems: Set[Elem]) -> Set[Elem]:
        """The elements of ``elems`` that satisfy an atom of the dialect's own."""
        raise TriformError(f"unknown shape {shape!r}")


def _sat(ctx: Context, shape: Any, elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` that satisfy ``shape``: the shape's
    extension cut to ``elems``.  Elements are raw (node ids and values).

    ``And`` hands its right branch only the elements its left branch
    kept, and ``Or`` only those its left branch rejected.  A count atom
    compares each element's :meth:`Context.counts` entry (top body) or
    image, from one :meth:`Context.images` call, cut to its body's
    extension, evaluated once on their union, with the bound; both may be
    the graph's own index, so they are only read.  ShEx neighbourhood
    shapes whose Parikh image is a box come here too (``shex._lower``).
    The result is a set the caller must not mutate.
    """
    kind = type(shape)
    if kind is Top:
        return elems
    if kind is And:
        return _sat(ctx, shape.right, _sat(ctx, shape.left, elems))
    if kind is Or:
        left = _sat(ctx, shape.left, elems)
        rest = elems - left
        return left | _sat(ctx, shape.right, rest) if rest else left
    if kind is Not:
        return elems - _sat(ctx, shape.inner, elems)
    if kind is GeqCount or kind is LeqCount:
        n, geq = shape.n, kind is GeqCount
        if type(shape.body) is Top:  # read before a vacuous bound too: PG checks sorts there
            counts = ctx.counts(shape.path, elems)
            if geq and n <= 1:
                return elems if n == 0 else elems & counts.keys()
            pairs = restrict(counts, elems).items()
        else:
            images = ctx.images(shape.path, elems)
            if geq and n == 0:
                return elems
            body = _sat(ctx, shape.body, set().union(*images.values()))
            pairs = zip(images, map(len, map(body.intersection, images.values())))
        if geq:
            return {x for x, c in pairs if c >= n}
        return elems - {x for x, c in pairs if c > n}  # an element without image counts 0
    if kind is TestConst:
        return {shape.c} & elems
    if kind is TestType:
        test = (ctx.registry or DEFAULT_TYPES).test(shape.t)
        return {x for x in elems if type(x) is Value and test(x)}
    return ctx.atom(shape, elems)
