"""ShEx core: triple expressions, shapes, selectors, and validation.

A triple expression generates the allowed signed neighborhoods of a
focus: each triple constraint consumes exactly one signed triple whose
far endpoint satisfies the nested shape, sequence parts must consume
disjoint triple sets, and the openness suffix says which unmatched
triples are tolerated (any incoming with name outside R; for open
shapes also any outgoing with name outside Q).

Shapes are decided set-at-a-time on raw elements (node ids and values)
by the shape core's evaluator (``core._sat``), which also decides SHACL
and PG shapes: ``SAnd``, ``SOr``, ``SNot``, ``STestConst`` and
``STestType`` are ShEx's names for its classes, and a
:class:`ShexContext` decides the neighborhood shapes (``SNeigh``).

A neighborhood shape whose Parikh image (the count vectors, per (name,
direction) pair, of the row bags its expression consumes) is a box, each
pair's count ranging over one interval [lo, hi], and whose pairs each
carry one nested shape S, is lowered once per run to core atoms
(:func:`_lower`).  :func:`_image` tells a box bottom-up: ``Eps`` is the
empty box, ``TC`` [1, 1] on its pair, ``Seq`` adds intervals, ``Alt`` is
a box when one side holds the other or they differ on one pair with
contiguous intervals, and ``StarE`` is [0, inf) on each pair exactly when
its inner image holds each pair's one-row bag (so the compiler's closed
guard, a star of alternatives, is one).  In a box the pairs are
independent.  A closed pair, whose rows the openness does not tolerate,
must have every row consumed, so every far end satisfies S and the number
of rows lies in [lo, hi]: ``LeqCount(0, pair, Not(S))`` and the interval
on the total.  An open pair's surplus rows go to the wildcard, so only lo
binds: ``GeqCount(lo, pair, S)``.  A closed name the expression does not
mention has no rows, ``LeqCount(0, pair, TOP)``, and a half-open shape's
forward rows are ``Closed`` over the mentioned forward names.  A count
form, n equal triple constraints under ``Open(∅, ∅)``, is the [n, n] case
on an open pair.  Every shape the compiler writes is a box.

Any other neighborhood shape (an alternative of two pairs, a star of a
sequence, a pair under two nested shapes, a nested shape two pairs share)
becomes a program template when an element first reaches it.  Each row
gets a signature, the set of leaf and wildcard nodes that may consume it,
and the verdict depends only on the bag of signatures.  An element is
read through its key (:class:`_Template`): the count of each untested
pair the template mentions, the count of each signature of a tested
pair's rows, and per direction the rows of the other names, dropped,
keyed by presence or by count, as the ``_bagmatch_py`` docstring proves.
A template keeps a verdict per key per run, and shapes that flatten alike
share one program and one verdict memo; on a miss the memo runs the
kernel of ``_bagmatch_py``, a DP over the count of rows of each
signature, which loads with the first template.  Both ways read the
counts for all elements of a call at once, and evaluate each nested shape
once per call, on the union of the far ends it tests, in the run's order
(:func:`_sid`).

There is no row cap by default; ``--cap``/``TRIFORM_CAP`` sets one,
checked for every element of a call before any bag of the call is
decided or any count atom's rows are read.  Exceeding it raises
``NeighborhoodTooLarge``, never approximating, and so does a bag the
kernel cannot decide within ``_bagmatch_py.MAX_WORK`` or the recursion
limit; the error names the least such element of the call.

Counting is by triples, not by endpoints: a node with two parallel
p-edges to the same target offers two distinct signed triples.  This is
the semantic split with SHACL and PG-Schema exercised by the harness's
counting-divergence suite.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import reduce
from itertools import compress, repeat
from math import inf
from operator import add, is_, or_, sub
from typing import Collection, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from . import core
from .core import And, Context, GeqCount, LeqCount, Not, Or, TestConst, TestType
from .model import (
    FWD,
    INV,
    CommonGraph,
    Elem,
    Focus,
    NeighborhoodTooLarge,
    TriformError,
    Value,
    ValueTypeRegistry,
    elems_to_foci,
    focus_elem,
    frozen,
    neigh_signed,  # noqa: F401  unused here, but the benchmark's tracer patches it on this module
    triple_ends,
)
from .report import ValidationReport, make_report

_bagmatch_py = None  # the kernel's module, loaded by the first template (:func:`_template`)

def default_cap() -> Optional[int]:
    """The row cap ``TRIFORM_CAP`` sets, or None: no cap by default."""
    raw = os.environ.get("TRIFORM_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise TriformError(f"TRIFORM_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise TriformError("TRIFORM_CAP must be non-negative")
    return cap


# ---------------------------------------------------------------------------
# ASTs


@frozen
class Eps:
    pass


@frozen
class TC:
    """Triple constraint: consumes one signed triple named ``q`` in the
    given direction whose far endpoint satisfies ``shape``."""

    q: str
    direction: str
    shape: "ShexShape"


@frozen
class Seq:
    left: "TripleExpr"
    right: "TripleExpr"


@frozen
class Alt:
    left: "TripleExpr"
    right: "TripleExpr"


@frozen
class StarE:
    inner: "TripleExpr"


@frozen
class WildOut:
    """Wildcard: one unmatched outgoing triple with name outside ``excluded``.

    Only appears in openness suffixes; user-built closed expressions may
    not contain it.
    """

    excluded: FrozenSet[str]


@frozen
class WildIn:
    excluded: FrozenSet[str]


TripleExpr = Union[Eps, TC, Seq, Alt, StarE, WildOut, WildIn]


@frozen
class HalfOpen:
    """Tolerate unmatched incoming triples with name outside ``r``; no
    unmatched outgoing triples."""

    r: FrozenSet[str]


@frozen
class Open:
    """Additionally tolerate unmatched outgoing triples with name outside ``q``."""

    r: FrozenSet[str]
    q: FrozenSet[str]


Openness = Union[HalfOpen, Open]


def is_closed_expr(e: TripleExpr) -> bool:
    if isinstance(e, (Seq, Alt)):
        return is_closed_expr(e.left) and is_closed_expr(e.right)
    if isinstance(e, StarE):
        return is_closed_expr(e.inner)
    return isinstance(e, (Eps, TC))  # nested shapes carry their own closed expressions


@frozen
class SNeigh:
    expr: TripleExpr
    openness: Openness

    def __post_init__(self):
        if not is_closed_expr(self.expr):
            raise TriformError("SNeigh requires a closed triple expression (no wildcards)")


# The ShEx names of the shape core's classes, used by the Python API and the JSON grammar
SAnd, SOr, SNot, STestConst, STestType = And, Or, Not, TestConst, TestType

ShexShape = Union[TestConst, TestType, SNeigh, And, Or, Not]


@frozen
class SelTestConst:
    c: Value


@frozen
class SelOutConst:
    q: str
    c: Value


@frozen
class SelOut:
    q: str


@frozen
class SelIn:
    q: str


ShexSelector = Union[SelTestConst, SelOutConst, SelOut, SelIn]

ShexRule = Tuple[ShexSelector, ShexShape]

NO_NAMES: FrozenSet[str] = frozenset()


def top_shape() -> ShexShape:
    """The shape satisfied by every node and every value."""
    return SNeigh(Eps(), Open(NO_NAMES, NO_NAMES))


def seq_all(exprs: List[TripleExpr]) -> TripleExpr:
    return reduce(Seq, exprs) if exprs else Eps()


def alt_all(exprs: List[TripleExpr]) -> TripleExpr:
    if not exprs:
        raise TriformError("empty alternation")
    return reduce(Alt, exprs)


# ---------------------------------------------------------------------------
# Derived syntax


def desugar_repetition(e: TripleExpr, kind: str, n: int) -> TripleExpr:
    """Expand e^n, e^{<=n}, e^{>=n} into the core combinators."""
    if n < 0:
        raise TriformError("repetition bound must be non-negative")
    if kind == "exactly":
        return reduce(Seq, [e] * n) if n else Eps()
    if kind == "at-most":
        return reduce(Alt, (desugar_repetition(e, "exactly", i) for i in range(1, n + 1)), Eps())
    if kind == "at-least":
        return Seq(desugar_repetition(e, "exactly", n), StarE(e)) if n else StarE(e)
    raise TriformError(f"unknown repetition kind {kind!r}")


def preds_triple_expr(e: TripleExpr) -> Set[Tuple[str, str]]:
    """Names appearing directly in the expression, with their direction.

    Names inside nested shapes of triple constraints do not count.
    """
    if isinstance(e, (Eps, WildOut, WildIn)):
        return set()
    if isinstance(e, TC):
        return {(e.q, e.direction)}
    if isinstance(e, (Seq, Alt)):
        return preds_triple_expr(e.left) | preds_triple_expr(e.right)
    if isinstance(e, StarE):
        return preds_triple_expr(e.inner)
    raise TriformError(f"unknown triple expression {e!r}")


def open_closure(e: TripleExpr) -> ShexShape:
    """The floor-bracket notation: wrap ``e`` with wildcards excluding the
    names that appear directly in it."""
    direct = preds_triple_expr(e)
    q = frozenset(name for name, d in direct if d == FWD)
    r = frozenset(name for name, d in direct if d == INV)
    return SNeigh(e, Open(r, q))


# ---------------------------------------------------------------------------
# Evaluation


class _Program:
    """A flattened program, interned per run by its structure (ops,
    lefts, rights): shapes that flatten alike share it, whatever names
    their leaves test, since a signature bit stands for a node.

    ``kernel`` is the kernel program (``_bagmatch_py.Program``), ``wild``
    the mask of its WILDSTAR nodes, and ``verdicts`` the run's memo for
    every template of this structure: it maps sorted (signature, count)
    pairs, each free class's count clamped to 1 (:func:`_decide`), to the
    verdict.
    """

    __slots__ = ("kernel", "wild", "verdicts")

    def __init__(self, ops: tuple, lefts: tuple, rights: tuple) -> None:
        lo: List[int] = []
        hi: List[int] = []
        for op, a, b in zip(ops, lefts, rights):
            bounds = _bagmatch_py.count_bounds(op, lo, hi, a, b)
            lo.append(bounds[0])
            hi.append(bounds[1])
        self.kernel = (ops, lefts, rights, _bagmatch_py.under_masks(ops, lefts, rights), lo, hi, len(ops) - 1)
        self.wild = sum(1 << i for i, op in enumerate(ops) if op == _bagmatch_py.OP_WILDSTAR)
        self.verdicts: Dict[Tuple[Tuple[int, int], ...], object] = {}


class _Template:
    """A neighborhood shape that is not a box (:func:`_lower`) flattened
    into the kernel program format, with the run's entries.

    A row's signature is the set of leaf and wildcard nodes that may
    consume it, one bit per node.  ``leaves`` buckets the bits of the
    triple-constraint nodes by the (name, direction) of the triples they
    can consume, each with the run's id of its nested shape (:func:`_sid`),
    or None for the top shape, which tests nothing; ``wilds`` lists, by
    direction, (bit, excluded names) for the wildcard nodes, the
    openness suffix included.  ``program`` is the run's interned
    :class:`_Program` of the shape's structure, with the verdict memo.

    An element is read through its key, one column per entry of
    ``layout`` (:func:`_neigh`).  ``pairs`` lists the (name, direction)
    pairs the template mentions, in sorted order, each with its plan
    (:meth:`plan`); ``rest`` maps each direction whose rows of unmentioned
    names are keyed to whether only their presence counts.  ``layout``
    gives per column the signature its count adds to, or None for the
    column of a tested pair, which holds (signature, count) pairs
    (:func:`_bag`).  ``entries`` maps a key to its verdict, per run.
    """

    def __init__(self) -> None:
        self.leaves: Dict[Tuple[str, str], List[Tuple[int, Optional[int]]]] = {}
        self.wilds: Dict[str, List[Tuple[int, FrozenSet[str]]]] = {FWD: [], INV: []}
        self.program: Optional[_Program] = None
        self.pairs: List[Tuple[str, str, int, List[Tuple[int, int]]]] = []
        self.rest: Dict[str, bool] = {}
        self.layout: List[Optional[int]] = []
        self.entries: Dict[object, object] = {}  # per run

    def plan(self, name: str, direction: str) -> Tuple[int, List[Tuple[int, int]]]:
        """A (name, direction) row's untested signature bits and the (bit,
        nested shape id) pairs of the leaves testing its far end."""
        sig, tested = 0, []
        for bit, sid in self.leaves.get((name, direction), ()):
            if sid is None:
                sig |= bit
            else:
                tested.append((bit, sid))
        for bit, excl in self.wilds[direction]:
            if name not in excl:
                sig |= bit
        return sig, tested


class ShexContext(Context):
    """A ShEx run over one graph: the row cap (None for none), the shapes
    met so far by their run's id (:func:`_sid`), which keeps their ``id``
    from being reused while the context lives, the templates (or atoms,
    :func:`_lower`) by their shape's run id, the interned programs by structure,
    with their verdict memos.  Nothing is cached in module globals, so
    separate contexts may run in separate threads."""

    def __init__(self, g: CommonGraph, cap: Optional[int], registry: Optional[ValueTypeRegistry] = None) -> None:
        super().__init__(g, registry)
        self.cap = cap
        self.sids: Dict[int, int] = {}
        self.shapes: List[ShexShape] = []
        self.templates: Dict[int, Union[_Template, tuple]] = {}
        self.programs: Dict[Tuple[tuple, tuple, tuple], _Program] = {}

    def images(self, path: Tuple[str, str], elems: Set[Elem]) -> Dict[Elem, List[Elem]]:
        if type(path) is not tuple:  # another dialect's path
            return super().images(path, elems)
        return core.restrict(self.g.ends(*path), elems)

    def counts(self, path: Tuple[str, str], elems: Set[Elem]) -> Dict[Elem, int]:
        if type(path) is not tuple:
            return super().counts(path, elems)
        return self.g.counts(*path)

    def atom(self, shape: ShexShape, elems: Set[Elem]) -> Set[Elem]:
        """The elements of ``elems`` whose neighborhood matches ``shape``.
        An empty set is returned at once, so a shape is lowered or its
        template built only when an element reaches it, and the top shape
        does neither.  Atoms are decided after the cap check, as in
        :func:`_neigh`."""
        if type(shape) is not SNeigh:
            raise TriformError(f"unknown ShEx shape {shape!r}")
        if not elems or _is_top(shape.expr, shape.openness):
            return elems
        sid = _sid(self, shape)
        t = self.templates.get(sid)
        if t is None:
            t = self.templates[sid] = _lower(self, shape) or _template(self, shape.expr, shape.openness)
        if type(t) is _Template:
            return _neigh(self, t, elems)
        _check(self, elems)
        tested, rest, allowed = t
        kept = elems
        for a in tested:  # each on every element, so its nested shape meets every far end, as in _neigh
            kept = core._sat(self, a, elems) if kept is elems else kept & core._sat(self, a, elems)
        kept = kept if rest is core.TOP else core._sat(self, rest, kept)
        return kept if allowed is None else core.closed(self.g, allowed, kept)


def _is_top(expr: TripleExpr, openness: Openness) -> bool:
    return isinstance(expr, Eps) and isinstance(openness, Open) and not openness.r and not openness.q


def _sid(ctx: ShexContext, shape: ShexShape) -> int:
    """The run's id of ``shape``: its place in the order in which the run
    meets shapes (a rule's shape before the rule is decided, a triple
    constraint's when its template is built, then its Boolean parts, left
    first), in which a template's nested shapes are evaluated."""
    sid = ctx.sids.get(id(shape))
    if sid is None:
        sid = ctx.sids[id(shape)] = len(ctx.shapes)
        ctx.shapes.append(shape)
        kind = type(shape)
        if kind is And or kind is Or:
            _sid(ctx, shape.left)
            _sid(ctx, shape.right)
        elif kind is Not:
            _sid(ctx, shape.inner)
    return sid


def _image(e: TripleExpr, leaves: List[TC]) -> Tuple[Dict[Tuple[str, str], Tuple[int, float]], bool, Set]:
    """The bounding box of the Parikh image of ``e``, each (name, direction)
    of ``e`` mapped to [lo, hi]; whether the image is that whole box; and its
    bags of at most one row, by the row's pair, None for the empty bag; a
    pair it does not mention has [0, 0].  Appends the leaves to ``leaves``,
    left to right."""
    kind = type(e)
    if kind is TC:
        leaves.append(e)
        return {(e.q, e.direction): (1, 1)}, True, {(e.q, e.direction)}
    if kind is Eps:
        return {}, True, {None}
    if kind is StarE:  # [0, inf) on each pair iff the inner image holds each pair's one-row bag
        box, _, small = _image(e.inner, leaves)
        return dict.fromkeys(box, (0, inf)), small.issuperset(box), small | {None}
    rights = []
    while type(e) is kind:  # a left-folded chain, as desugar_repetition and jsonio give it
        rights.append(e.right)
        e = e.left
    box, exact, small = _image(e, leaves)
    for right in reversed(rights):
        if kind is Seq and type(right) is TC:  # the common case, without a call
            leaves.append(right)
            x = box.get(k := (right.q, right.direction), (0, 0))
            box[k], small = (x[0] + 1, x[1] + 1), {k} if None in small else set()
            continue
        other, exact_other, small_other = _image(right, leaves)
        exact = exact and exact_other
        if kind is Seq:  # box is this call's own dict
            for k, (lo, hi) in other.items():
                x = box.get(k, (0, 0))
                box[k] = (x[0] + lo, x[1] + hi)
            small = (small if None in small_other else set()) | (small_other if None in small else set())
            continue
        pairs = [(k, box.get(k, (0, 0)), other.get(k, (0, 0))) for k in box.keys() | other.keys()]
        hull = {k: (min(x[0], y[0]), max(x[1], y[1])) for k, x, y in pairs}
        (x, y), *more = [(x, y) for _, x, y in pairs if x != y] or [((0, 0), (0, 0))]
        # a union of boxes is a box iff one holds the other, or they differ on one pair, contiguously
        exact = exact and (hull == box or hull == other or not more and max(x[0], y[0]) <= min(x[1], y[1]) + 1)
        box, small = hull, small | small_other
    return box, exact, small


def _lower(ctx: ShexContext, shape: SNeigh) -> Optional[tuple]:
    """``shape`` as (tested, rest, allowed) if its Parikh image is a box whose
    pairs each carry a nested shape of their own, else None (module
    docstring): the count atoms with a nested shape, in the run's order of
    their shapes; the conjunction of the others; a half-open shape's forward
    names for ``Closed``, else None.  Nested shapes get run ids as in :func:`_template`."""
    leaves: List[TC] = []
    box, exact, _ = _image(shape.expr, leaves)
    if not exact:
        return None
    bodies: Dict[Tuple[str, str], Tuple[Optional[int], ShexShape]] = {}  # each pair's least run id and shape
    owners: Dict[int, Tuple[str, str]] = {}  # the pair of each nested shape's run id
    prev = None
    for tc in leaves:
        if tc is prev:  # a repeated constraint, as desugar_repetition gives it
            continue
        prev, pair, nested, sid = tc, (tc.q, tc.direction), tc.shape, None
        if type(nested) is SNeigh and _is_top(nested.expr, nested.openness):
            nested = core.TOP
        elif owners.setdefault(sid := _sid(ctx, nested), pair) != pair:
            return None
        got = bodies.setdefault(pair, (sid, nested))
        if got[1] is not nested and got[1] != nested:
            return None
        if sid is not None and sid < got[0]:
            bodies[pair] = (sid, nested)
    o, tested, rest = shape.openness, [], []
    for pair, (lo, hi) in box.items():
        sid, body = bodies[pair]
        if pair[0] not in (o.r if pair[1] == INV else o.q if type(o) is Open else pair):
            if lo and sid is None:  # an open pair: its surplus rows go to the wildcard
                rest.append(GeqCount(lo, pair, body))
            elif lo:
                tested.append((sid, GeqCount(lo, pair, body)))
            continue
        if sid is not None:  # a closed pair: every row is consumed, so satisfies the body
            tested.append((sid, LeqCount(0, pair, Not(body))))
        if lo:
            rest.append(GeqCount(lo, pair, core.TOP))
        if hi < inf:
            rest.append(LeqCount(hi, pair, core.TOP))
    if o.r or type(o) is Open and o.q:  # closed names the expression does not mention
        for d, names in ((INV, o.r), (FWD, o.q if type(o) is Open else ())):
            rest += [LeqCount(0, (name, d), core.TOP) for name in names if (name, d) not in box]
    allowed = None if type(o) is Open else frozenset(name for name, d in box if d == FWD)
    return [a for _, a in sorted(tested)] if tested else tested, core.and_all(rest), allowed


def _template(ctx: ShexContext, expr: TripleExpr, openness: Openness) -> _Template:
    """Flatten ``expr ; wildcards`` into a program template, its program
    interned in ``ctx``."""
    global _bagmatch_py
    if _bagmatch_py is None:  # a run that decides no neighborhood never loads the kernel
        from . import _bagmatch_py

    t = _Template()
    ops: List[int] = []  # the program's parallel lists
    lefts: List[int] = []
    rights: List[int] = []

    def emit(op: int, a: int = -1, b: int = -1) -> int:
        ops.append(op)
        lefts.append(a)
        rights.append(b)
        return len(ops) - 1

    def walk(e: TripleExpr) -> int:
        if isinstance(e, Eps):
            return emit(_bagmatch_py.OP_EPS)
        if isinstance(e, TC):
            i = emit(_bagmatch_py.OP_LEAF)
            nested = e.shape
            top = type(nested) is SNeigh and _is_top(nested.expr, nested.openness)
            t.leaves.setdefault((e.q, e.direction), []).append((1 << i, None if top else _sid(ctx, nested)))
            return i
        if isinstance(e, (WildOut, WildIn)):
            i = emit(_bagmatch_py.OP_LEAF)
            t.wilds[FWD if isinstance(e, WildOut) else INV].append((1 << i, e.excluded))
            return i
        if isinstance(e, Seq):
            return emit(_bagmatch_py.OP_SEQ, walk(e.left), walk(e.right))
        if isinstance(e, Alt):
            return emit(_bagmatch_py.OP_ALT, walk(e.left), walk(e.right))
        if isinstance(e, StarE):
            a = walk(e.inner)
            if ops[a] == _bagmatch_py.OP_LEAF:
                # star of a single constraint consumes any number of its rows
                ops[a] = _bagmatch_py.OP_WILDSTAR
                return a
            return emit(_bagmatch_py.OP_STAR, a)
        raise TriformError(f"unknown triple expression {e!r}")

    body = walk(expr)
    # walk calls itself through its closure, a cycle that would keep the
    # template and its per-run entries alive until a collection
    del walk
    wild = emit(_bagmatch_py.OP_WILDSTAR)
    t.wilds[INV].append((1 << wild, openness.r))
    if isinstance(openness, Open):
        t.wilds[FWD].append((1 << wild, openness.q))
    emit(_bagmatch_py.OP_SEQ, body, wild)  # the root
    key = (tuple(ops), tuple(lefts), tuple(rights))
    prog = ctx.programs.get(key)
    if prog is None:  # the bounds and masks are computed once per structure per run
        prog = ctx.programs[key] = _Program(*key)
    t.program = prog
    mentioned, layout, rest = set(t.leaves), t.layout, []
    for d, wilds in t.wilds.items():
        sig = 0  # the signature of the rows of unmentioned names in this direction
        for bit, excl in wilds:
            sig |= bit
            if excl:
                mentioned.update(zip(excl, repeat(d)))
        free = not sig & ~prog.wild
        if not (free and sig >> wild & 1):  # else dropped, whatever its count
            t.rest[d] = free
            rest.append(sig)
    for name, d in sorted(mentioned):
        sig, tested = t.plan(name, d)
        t.pairs.append((name, d, sig, tested))
        layout.append(None if tested else sig)
    layout += rest
    return t


# the verdict on a bag with more star parts than the recursing kernel can peel: the error's reason
_TOO_DEEP = ", too many star parts for the matcher's recursion depth"


def _decide(prog: _Program, rows: Dict[int, int]):
    """The verdict of ``prog`` on the bag of ``rows[s]`` rows of each
    signature ``s``: the memo's, else the kernel's, kept.  It is True,
    False, or, for a bag the kernel cannot decide (:data:`_TOO_DEEP`,
    or more work than ``_bagmatch_py.MAX_WORK``), the reason, a string.
    Every free class, whose signature holds WILDSTAR nodes only, or no
    node, counts as 1 row, which keeps the verdict (the ``_bagmatch_py``
    docstring gives the proof) and lets bags that differ only there share
    one entry."""
    wild = prog.wild
    bag = tuple(sorted([(s, n) if s & ~wild else (s, 1) for s, n in rows.items()]))
    verdict = prog.verdicts.get(bag)
    if verdict is None:
        sigs, counts = zip(*bag) if bag else ((), ())
        try:
            verdict = _bagmatch_py.count_match(prog.kernel, sigs, counts)
        except RecursionError:
            verdict = _TOO_DEEP
        except _bagmatch_py.WorkExhausted:
            verdict = f", more than {_bagmatch_py.MAX_WORK} matcher states and split steps"
        prog.verdicts[bag] = verdict
    return verdict


def _bag(layout: list, key: tuple) -> Dict[int, int]:
    """The count of each signature in the bag of the key ``key``
    (:class:`_Template`), without empty classes."""
    rows: Dict[int, int] = {}
    for column, n in zip(layout, key):
        if column is None:  # a tested pair's (signature, count) pairs
            for sig, k in n:
                rows[sig] = rows.get(sig, 0) + k
        else:
            rows[column] = rows.get(column, 0) + n
    return {sig: n for sig, n in rows.items() if n}


def _size(g: CommonGraph, x: Elem) -> int:
    return g.degrees(FWD).get(x, 0) + g.degrees(INV).get(x, 0)


def _too_large(g: CommonGraph, xs: Collection[Elem], why: str) -> NeighborhoodTooLarge:
    """The capability error naming the least of ``xs`` in focus order."""
    v = elems_to_foci(xs)[0]
    return NeighborhoodTooLarge(f"signed neighborhood of {v!r} has {_size(g, focus_elem(v))} triples{why}")


def _check(ctx: ShexContext, elems: Collection[Elem]) -> None:
    """Raises the capability error naming the least element of ``elems`` over the cap, if any."""
    if ctx.cap is not None and (over := [x for x in elems if _size(ctx.g, x) > ctx.cap]):
        raise _too_large(ctx.g, over, f" (cap {ctx.cap})")


def _neigh(ctx: ShexContext, t: _Template, elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` whose rows the template's program matches.

    A cap is checked first, for every element of the call, so a cap error
    comes before any bag is decided, whatever the set order.  Then each
    nested shape is evaluated once, on the union of the far ends it tests,
    in the run's order (:func:`_sid`), so the first cap error it raises is
    fixed.  The keys are read column by column, and each key new to the run
    is decided.  Capability errors name the least element over the cap or,
    once all are decided, with a bag the kernel could not decide."""
    _check(ctx, elems)
    g, xs = ctx.g, list(elems)
    asked: Dict[int, Set[Elem]] = {}  # the far ends each nested shape tests, by its run's id
    counts: Dict[str, list] = {}  # the rows of the mentioned names by direction, for the rest
    reads = []  # per pair: its counts and, if tested and met, each element's far ends
    for name, d, _, tested in t.pairs:
        n = list(map(g.counts(name, d).get, xs, repeat(0)))
        if d in t.rest:
            counts[d] = list(map(add, counts[d], n)) if d in counts else n
        fars = None
        if tested and any(n):
            fars = list(map(g.ends(name, d).get, xs, repeat(())))
            far = set().union(*fars)
            for _, sid in tested:
                asked.setdefault(sid, set()).update(far)
        reads.append((n, fars))
    sat = {}
    for sid in sorted(asked):
        sat[sid] = core._sat(ctx, ctx.shapes[sid], asked[sid])
    cols: List[list] = []
    for (_, _, sig, tested), (n, fars) in zip(t.pairs, reads):
        if not tested:
            cols.append(n)
        elif fars is None:
            cols.append([()] * len(xs))
        else:
            fsig: Dict[Elem, int] = {}  # each far end's signature
            for y in set().union(*fars):
                fsig[y] = reduce(or_, [bit for bit, sid in tested if y in sat[sid]], sig)
            cols.append([tuple(sorted(Counter(map(fsig.__getitem__, f)).items())) for f in fars])
    for d, presence in t.rest.items():
        n = list(map(g.degrees(d).get, xs, repeat(0)))
        if d in counts:
            n = list(map(sub, n, counts[d]))
        cols.append(list(map(bool, n)) if presence else n)
    keys = cols[0] if len(cols) == 1 else list(zip(*cols)) if cols else [()] * len(xs)
    entries, prog, layout = t.entries, t.program, t.layout
    distinct = set(keys)
    for key in distinct.difference(entries):
        entries[key] = _decide(prog, _bag(layout, (key,) if len(cols) == 1 else key))
    kept, failed = 0, set()
    for key in distinct:
        verdict = entries[key]
        if verdict is True:
            kept += 1
        elif verdict is not False:
            failed.add(key)
    if failed:
        bad = {x: entries[key] for x, key in zip(xs, keys) if key in failed}
        least = focus_elem(elems_to_foci(bad)[0])
        raise _too_large(g, [least], bad[least])
    if kept == len(distinct):
        return elems
    return set(compress(xs, map(is_, map(entries.__getitem__, keys), repeat(True)))) if kept else set()


def match_triple_expr(
    g: CommonGraph,
    v: Focus,
    expr: TripleExpr,
    openness: Openness,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """True iff the signed neighborhood of ``v`` is generated by
    ``expr`` followed by the openness wildcards: ``v`` satisfies their
    neighborhood shape."""
    return shex_satisfies(g, v, SNeigh(expr, openness), cap, registry)


def shex_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: ShexShape,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """Whether ``v`` satisfies ``shape``: the set evaluator at one focus."""
    ctx = ShexContext(g, cap if cap is not None else default_cap(), registry)
    x = focus_elem(v)
    _sid(ctx, shape)
    return x in core._sat(ctx, shape, {x})


def selector_shape(sel: ShexSelector) -> ShexShape:
    """The selector as an ordinary shape (its defining form)."""
    if isinstance(sel, SelTestConst):
        return TestConst(sel.c)
    if isinstance(sel, SelOutConst):
        return SNeigh(TC(sel.q, FWD, TestConst(sel.c)), Open(NO_NAMES, NO_NAMES))
    if isinstance(sel, SelOut):
        return SNeigh(TC(sel.q, FWD, top_shape()), Open(NO_NAMES, NO_NAMES))
    if isinstance(sel, SelIn):
        return SNeigh(TC(sel.q, INV, top_shape()), Open(NO_NAMES, NO_NAMES))
    raise TriformError(f"unknown ShEx selector {sel!r}")


def _select(g: CommonGraph, sel: ShexSelector) -> Set[Elem]:
    if isinstance(sel, SelTestConst):
        return {sel.c}
    if isinstance(sel, SelOutConst):
        # the constant's owners under key q; predicate endpoints are nodes, never a value
        return set(g.ends(sel.q, INV).get(sel.c, ()))
    if isinstance(sel, SelOut):
        return triple_ends(g, sel.q, FWD)
    if isinstance(sel, SelIn):
        return triple_ends(g, sel.q, INV)
    raise TriformError(f"unknown ShEx selector {sel!r}")


def shex_select(g: CommonGraph, sel: ShexSelector) -> List[Focus]:
    """Foci picked by a selector, computed directly from the graph.

    Equivalent to evaluating :func:`selector_shape` at every graph
    element (the openness wildcards absorb everything beyond the one
    required triple), but never hits the neighborhood cap.
    """
    return elems_to_foci(_select(g, sel))


def shex_validate(
    g: CommonGraph,
    rules: List[ShexRule],
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> ValidationReport:
    """Validate with one evaluation context per run, deciding each rule
    for all its selected elements at once; foci are built for violations."""
    ctx = ShexContext(g, cap if cap is not None else default_cap(), registry)
    per_rule = []
    for sel, shape in rules:
        selected = _select(g, sel)
        _sid(ctx, shape)
        failing = elems_to_foci(selected - core._sat(ctx, shape, selected))
        per_rule.append((selected, failing))
    return make_report(per_rule)
