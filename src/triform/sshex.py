"""Bridge between the core ShEx dialect and standard-ShEx abstract syntax.

Standard ShEx differs from the core dialect in four ways: triple
constraints may use a bare dot (endpoint unconstrained), repetition is
written with intervals [min;max] instead of star, shapes carry optional
``closed`` and ``extra Q`` modifiers, and there is no epsilon.  This
module normalizes both syntaxes and translates in both directions.

The interval [0;0] is admitted as a third normal form alongside [0;1]
and [0;*]: it consumes nothing but still mentions its name, which is
exactly what the reverse translation needs to forbid unmatched triples.
It cannot be rewritten away because standard ShEx has no epsilon.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple, Union

from .model import FWD, INV, NotNormalized, TriformError, Value, frozen
from .shex import (
    TC,
    Alt,
    Eps,
    HalfOpen,
    Open,
    SAnd,
    Seq,
    ShexShape,
    SNeigh,
    SNot,
    SOr,
    StarE,
    STestConst,
    STestType,
    TripleExpr,
    preds_triple_expr,
    top_shape,
)

# ---------------------------------------------------------------------------
# Abstract syntax

STAR_MAX = None  # max = * in intervals


@frozen
class XTC:
    """Standard triple constraint; ``shape`` None is the dot form."""

    q: str
    direction: str
    shape: Optional["SShapeExpr"]


@frozen
class XSeq:
    left: "STripleExpr"
    right: "STripleExpr"


@frozen
class XAlt:
    left: "STripleExpr"
    right: "STripleExpr"


@frozen
class XRepeat:
    inner: "STripleExpr"
    min: int
    max: Optional[int]  # None means *

    def __post_init__(self):
        if self.min < 0:
            raise TriformError("interval minimum must be non-negative")
        if self.max is not None and self.max < self.min:
            raise TriformError("interval maximum must be at least the minimum")


STripleExpr = Union[XTC, XSeq, XAlt, XRepeat]


@frozen
class XTestConst:
    c: Value


@frozen
class XTestType:
    t: str


@frozen
class XShape:
    """Neighborhood shape: ``closed`` forbids unmatched outgoing triples,
    ``extra`` lists (name, direction) pairs whose surplus triples are
    tolerated when they satisfy none of the constraints attached to that
    name, and ``expr`` None is the empty triple expression."""

    closed: bool
    extra: FrozenSet[Tuple[str, str]]
    expr: Optional[STripleExpr]


@frozen
class XAnd:
    left: "SShapeExpr"
    right: "SShapeExpr"


@frozen
class XOr:
    left: "SShapeExpr"
    right: "SShapeExpr"


@frozen
class XNot:
    inner: "SShapeExpr"


SShapeExpr = Union[XTestConst, XTestType, XShape, XAnd, XOr, XNot]

NO_EXTRA: FrozenSet[Tuple[str, str]] = frozenset()


def x_top() -> SShapeExpr:
    """The standard shape satisfied everywhere (empty, not closed)."""
    return XShape(False, NO_EXTRA, None)


def xseq_all(exprs: List[STripleExpr]) -> Optional[STripleExpr]:
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = XSeq(out, e)
    return out


def xand_all(shapes: List[SShapeExpr]) -> SShapeExpr:
    if not shapes:
        return x_top()
    out = shapes[0]
    for s in shapes[1:]:
        out = XAnd(out, s)
    return out


# ---------------------------------------------------------------------------
# Direct predicates


def _direct_tcs(te: Optional[STripleExpr]) -> List[XTC]:
    if te is None:
        return []
    if isinstance(te, XTC):
        return [te]
    if isinstance(te, (XSeq, XAlt)):
        return _direct_tcs(te.left) + _direct_tcs(te.right)
    if isinstance(te, XRepeat):
        return _direct_tcs(te.inner)
    raise TriformError(f"unknown standard triple expression {te!r}")


def preds_sshex(te: Optional[STripleExpr]) -> Set[Tuple[str, str]]:
    """Names appearing directly in a standard triple expression."""
    return {(t.q, t.direction) for t in _direct_tcs(te)}


# ---------------------------------------------------------------------------
# Interval normalization

_NORMAL_INTERVALS = {(0, 1), (0, STAR_MAX), (0, 0)}


def _norm_shape_deep(se: Optional[SShapeExpr]) -> Optional[SShapeExpr]:
    if se is None or isinstance(se, (XTestConst, XTestType)):
        return se
    if isinstance(se, XShape):
        return XShape(se.closed, se.extra, normalize_intervals(se.expr))
    if isinstance(se, XAnd):
        return XAnd(_norm_shape_deep(se.left), _norm_shape_deep(se.right))
    if isinstance(se, XOr):
        return XOr(_norm_shape_deep(se.left), _norm_shape_deep(se.right))
    if isinstance(se, XNot):
        return XNot(_norm_shape_deep(se.inner))
    raise TriformError(f"unknown standard shape {se!r}")


def normalize_intervals(te: Optional[STripleExpr]) -> Optional[STripleExpr]:
    """Rewrite intervals to the normal forms [0;1], [0;*] (and [0;0]).

    te[min;*] becomes te[0;*] followed by min copies of te; a bounded
    te[min;max] becomes min copies followed by max-min optional copies.
    Nested shapes are normalized too.
    """
    if te is None:
        return None
    if isinstance(te, XTC):
        return XTC(te.q, te.direction, _norm_shape_deep(te.shape))
    if isinstance(te, XSeq):
        return XSeq(normalize_intervals(te.left), normalize_intervals(te.right))
    if isinstance(te, XAlt):
        return XAlt(normalize_intervals(te.left), normalize_intervals(te.right))
    if isinstance(te, XRepeat):
        inner = normalize_intervals(te.inner)
        lo, hi = te.min, te.max
        if (lo, hi) in _NORMAL_INTERVALS:
            return XRepeat(inner, lo, hi)
        if hi is STAR_MAX:
            out: STripleExpr = XRepeat(inner, 0, STAR_MAX)
            for _ in range(lo):
                out = XSeq(out, inner)
            return out
        parts: List[STripleExpr] = [inner] * lo + [XRepeat(inner, 0, 1)] * (hi - lo)
        folded = xseq_all(parts)
        assert folded is not None  # (0, 0) is a normal form, so parts is non-empty
        return folded
    raise TriformError(f"unknown standard triple expression {te!r}")


def normalize_shape_intervals(se: SShapeExpr) -> SShapeExpr:
    out = _norm_shape_deep(se)
    assert out is not None
    return out


def intervals_normalized(te: Optional[STripleExpr]) -> bool:
    if te is None:
        return True
    if isinstance(te, XTC):
        return te.shape is None or _shape_intervals_normalized(te.shape)
    if isinstance(te, (XSeq, XAlt)):
        return intervals_normalized(te.left) and intervals_normalized(te.right)
    if isinstance(te, XRepeat):
        return (te.min, te.max) in _NORMAL_INTERVALS and intervals_normalized(te.inner)
    raise TriformError(f"unknown standard triple expression {te!r}")


def _shape_intervals_normalized(se: SShapeExpr) -> bool:
    if isinstance(se, (XTestConst, XTestType)):
        return True
    if isinstance(se, XShape):
        return intervals_normalized(se.expr)
    if isinstance(se, (XAnd, XOr)):
        return _shape_intervals_normalized(se.left) and _shape_intervals_normalized(se.right)
    if isinstance(se, XNot):
        return _shape_intervals_normalized(se.inner)
    raise TriformError(f"unknown standard shape {se!r}")


# ---------------------------------------------------------------------------
# Extra elimination


def _eliminate_extra_te(te: Optional[STripleExpr]) -> Optional[STripleExpr]:
    if te is None:
        return None
    if isinstance(te, XTC):
        return XTC(te.q, te.direction, None if te.shape is None else eliminate_extra(te.shape))
    if isinstance(te, XSeq):
        return XSeq(_eliminate_extra_te(te.left), _eliminate_extra_te(te.right))
    if isinstance(te, XAlt):
        return XAlt(_eliminate_extra_te(te.left), _eliminate_extra_te(te.right))
    if isinstance(te, XRepeat):
        return XRepeat(_eliminate_extra_te(te.inner), te.min, te.max)
    raise TriformError(f"unknown standard triple expression {te!r}")


def eliminate_extra(se: SShapeExpr) -> SShapeExpr:
    """Rewrite away every ``extra`` modifier.

    For each extra name q the triple expression gets a starred suffix
    consuming q-triples whose endpoint satisfies none of the shapes
    attached to q directly in the expression (with no attached
    constraints, a bare dot).
    """
    if isinstance(se, (XTestConst, XTestType)):
        return se
    if isinstance(se, XAnd):
        return XAnd(eliminate_extra(se.left), eliminate_extra(se.right))
    if isinstance(se, XOr):
        return XOr(eliminate_extra(se.left), eliminate_extra(se.right))
    if isinstance(se, XNot):
        return XNot(eliminate_extra(se.inner))
    if isinstance(se, XShape):
        te = _eliminate_extra_te(se.expr)
        if not se.extra:
            return XShape(se.closed, NO_EXTRA, te)
        suffixes: List[STripleExpr] = []
        direct = _direct_tcs(te)
        for name, direction in sorted(se.extra):
            attached = [t.shape for t in direct if (t.q, t.direction) == (name, direction)]
            if attached:
                negated = [XNot(s if s is not None else x_top()) for s in attached]
                body: Optional[SShapeExpr] = xand_all(negated)
            else:
                body = None  # unconstrained: plain dot
            suffixes.append(XRepeat(XTC(name, direction, body), 0, STAR_MAX))
        parts = ([te] if te is not None else []) + suffixes
        return XShape(se.closed, NO_EXTRA, xseq_all(parts))
    raise TriformError(f"unknown standard shape {se!r}")


# ---------------------------------------------------------------------------
# Standard ShEx -> core ShEx


def _tr_te(te: STripleExpr) -> TripleExpr:
    if isinstance(te, XTC):
        shape = top_shape() if te.shape is None else sshex_to_shex(te.shape)
        return TC(te.q, te.direction, shape)
    if isinstance(te, XSeq):
        return Seq(_tr_te(te.left), _tr_te(te.right))
    if isinstance(te, XAlt):
        return Alt(_tr_te(te.left), _tr_te(te.right))
    if isinstance(te, XRepeat):
        if (te.min, te.max) == (0, STAR_MAX):
            return StarE(_tr_te(te.inner))
        if (te.min, te.max) == (0, 1):
            return Alt(_tr_te(te.inner), Eps())
        if (te.min, te.max) == (0, 0):
            return Eps()
        raise NotNormalized(f"interval [{te.min};{'*' if te.max is None else te.max}] is not normal")
    raise TriformError(f"unknown standard triple expression {te!r}")


def sshex_to_shex(se: SShapeExpr) -> ShexShape:
    """Translate a normalized, extra-free standard shape to the core dialect.

    Closed shapes map to a half-open expression whose forbidden incoming
    set is the directly mentioned inverse names; non-closed shapes also
    exclude the directly mentioned forward names from the outgoing
    wildcard.
    """
    if isinstance(se, XTestConst):
        return STestConst(se.c)
    if isinstance(se, XTestType):
        return STestType(se.t)
    if isinstance(se, XAnd):
        return SAnd(sshex_to_shex(se.left), sshex_to_shex(se.right))
    if isinstance(se, XOr):
        return SOr(sshex_to_shex(se.left), sshex_to_shex(se.right))
    if isinstance(se, XNot):
        return SNot(sshex_to_shex(se.inner))
    if isinstance(se, XShape):
        if se.extra:
            raise NotNormalized("eliminate extra before translating")
        if not intervals_normalized(se.expr):
            raise NotNormalized("normalize intervals before translating")
        direct = preds_sshex(se.expr)
        r = frozenset(name for name, d in direct if d == INV)
        body = Eps() if se.expr is None else _tr_te(se.expr)
        if se.closed:
            return SNeigh(body, HalfOpen(r))
        q = frozenset(name for name, d in direct if d == FWD)
        return SNeigh(body, Open(r, q))
    raise TriformError(f"unknown standard shape {se!r}")


# ---------------------------------------------------------------------------
# Core ShEx -> standard ShEx


def normalize_eps(e: TripleExpr) -> TripleExpr:
    """Epsilon-normalize: the result is Eps itself or uses epsilon only
    as the optional-marker ``Alt(x, Eps)``."""
    if isinstance(e, (TC,)):
        return e
    if isinstance(e, Eps):
        return e
    if isinstance(e, Seq):
        left = normalize_eps(e.left)
        right = normalize_eps(e.right)
        if isinstance(left, Eps):
            return right
        if isinstance(right, Eps):
            return left
        return Seq(left, right)
    if isinstance(e, Alt):
        left = normalize_eps(e.left)
        right = normalize_eps(e.right)
        if isinstance(left, Eps) and isinstance(right, Eps):
            return Eps()
        if isinstance(left, Eps):
            return _opt(right)
        if isinstance(right, Eps):
            return _opt(left)
        return Alt(left, right)
    if isinstance(e, StarE):
        inner = normalize_eps(e.inner)
        if isinstance(inner, Eps):
            return Eps()
        return StarE(inner)
    raise TriformError(f"wildcards cannot appear in user triple expressions: {e!r}")


def _opt(e: TripleExpr) -> TripleExpr:
    if isinstance(e, Alt) and isinstance(e.right, Eps):
        return e
    return Alt(e, Eps())


def _st_te(e: TripleExpr) -> STripleExpr:
    if isinstance(e, TC):
        return XTC(e.q, e.direction, shex_to_sshex(e.shape))
    if isinstance(e, Alt):
        if isinstance(e.right, Eps):
            return XRepeat(_st_te(e.left), 0, 1)
        if isinstance(e.left, Eps):
            return XRepeat(_st_te(e.right), 0, 1)
        return XAlt(_st_te(e.left), _st_te(e.right))
    if isinstance(e, Seq):
        return XSeq(_st_te(e.left), _st_te(e.right))
    if isinstance(e, StarE):
        return XRepeat(_st_te(e.inner), 0, STAR_MAX)
    if isinstance(e, Eps):
        raise NotNormalized("epsilon may only appear standalone or as an optional marker")
    raise TriformError(f"wildcards cannot appear in user triple expressions: {e!r}")


def shex_to_sshex(shape: ShexShape) -> SShapeExpr:
    """Translate a core shape to standard abstract syntax.

    The wildcard tolerances have no direct standard counterpart, so the
    result mentions names explicitly: directly used names missing from
    the wildcard exclusions get an absorbing dot constraint [0;*], and
    excluded names that are not directly used get a forbidding dot
    constraint [0;0].  Closedness carries over to the ``closed`` flag.
    """
    if isinstance(shape, STestConst):
        return XTestConst(shape.c)
    if isinstance(shape, STestType):
        return XTestType(shape.t)
    if isinstance(shape, SAnd):
        return XAnd(shex_to_sshex(shape.left), shex_to_sshex(shape.right))
    if isinstance(shape, SOr):
        return XOr(shex_to_sshex(shape.left), shex_to_sshex(shape.right))
    if isinstance(shape, SNot):
        return XNot(shex_to_sshex(shape.inner))
    if isinstance(shape, SNeigh):
        e = normalize_eps(shape.expr)
        direct = preds_triple_expr(e)
        fwd_used = {name for name, d in direct if d == FWD}
        inv_used = {name for name, d in direct if d == INV}
        openness = shape.openness
        parts: List[STripleExpr] = [] if isinstance(e, Eps) else [_st_te(e)]
        for name in sorted(inv_used - openness.r):
            parts.append(XRepeat(XTC(name, INV, None), 0, STAR_MAX))
        for name in sorted(openness.r - inv_used):
            parts.append(XRepeat(XTC(name, INV, None), 0, 0))
        if isinstance(openness, Open):
            for name in sorted(fwd_used - openness.q):
                parts.append(XRepeat(XTC(name, FWD, None), 0, STAR_MAX))
            for name in sorted(openness.q - fwd_used):
                parts.append(XRepeat(XTC(name, FWD, None), 0, 0))
        return XShape(isinstance(openness, HalfOpen), NO_EXTRA, xseq_all(parts))
    raise TriformError(f"unknown ShEx shape {shape!r}")
