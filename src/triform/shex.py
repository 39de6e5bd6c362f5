"""ShEx core: triple expressions, shapes, selectors, and validation.

A triple expression generates the allowed signed neighborhoods of a
focus: each triple constraint consumes exactly one signed triple whose
far endpoint satisfies the nested shape, sequence parts must consume
disjoint triple sets, and the openness suffix says which unmatched
triples are tolerated (any incoming with name outside R; for open
shapes also any outgoing with name outside Q).

Shapes are decided set-at-a-time on raw elements (node ids and values),
as in ``shacl`` and ``pgschema``: :func:`_sat` maps a shape and a set of
elements to those that satisfy it.  Each neighborhood shape is
flattened once per run into a program template.  An element's signed
triples are its rows; each row gets a signature, the set of leaf and
wildcard nodes that may consume it.  Wildcards and top-shape leaves
take a row untested, so its signature depends on its (direction, name)
alone; each other nested shape is evaluated once, on the union of the
far ends it tests.  As in the bag semantics of ShEx, the verdict
depends only on the bag of row signatures (the Parikh image over the
constraints).  So an element is read through its row profile
(``model.RowProfile``), its row count per (direction, name), whose
total is checked against a hard cap before any nested shape is
evaluated.  The template keeps a per-run entry per profile: its
verdict when it has no tested group, which the element then gets
without reading a row; otherwise the count of each signature among its
untested rows and its tested groups, whose far ends alone are read
(``CommonGraph.ends``).  A per-run verdict memo is keyed by the sorted
(signature, count) pairs, and only a miss runs the kernel of
``_bagmatch_py``: a DP over the count of rows of each distinct
signature, pruned by each program node's static interval of triple
counts.  Its cost is polynomial in the rows for a fixed number of
distinct signatures; exceeding the cap raises ``NeighborhoodTooLarge``,
never approximating, and so does a bag whose star parts nest deeper
than the interpreter's recursion limit.

Counting is by triples, not by endpoints: a node with two parallel
p-edges to the same target offers two distinct signed triples.  This is
the semantic split with SHACL and PG-Schema exercised by the harness's
counting-divergence suite.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from . import _bagmatch_py
from ._bagmatch_py import OP_ALT, OP_EPS, OP_LEAF, OP_SEQ, OP_STAR, OP_WILDSTAR, count_bounds
from .model import (
    FWD,
    INV,
    CommonGraph,
    Elem,
    Focus,
    NeighborhoodTooLarge,
    RowProfile,
    TriformError,
    Value,
    ValueTypeRegistry,
    neigh_signed,  # noqa: F401  unused here, but the benchmark's tracer patches it on this module
    elem_focus,
    elems_to_foci,
    focus_elem,
    frozen,
    triple_ends,
    value_type_member,
)
from .report import ValidationReport, make_report

DEFAULT_CAP = 24


def default_cap() -> int:
    raw = os.environ.get("TRIFORM_CAP")
    if raw is None:
        return DEFAULT_CAP
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
    if isinstance(e, (WildOut, WildIn)):
        return False
    if isinstance(e, (Seq, Alt)):
        return is_closed_expr(e.left) and is_closed_expr(e.right)
    if isinstance(e, StarE):
        return is_closed_expr(e.inner)
    if isinstance(e, TC):
        return True  # nested shapes carry their own closed expressions
    return isinstance(e, Eps)


@frozen
class STestConst:
    c: Value


@frozen
class STestType:
    t: str


@frozen
class SNeigh:
    expr: TripleExpr
    openness: Openness

    def __post_init__(self):
        if not is_closed_expr(self.expr):
            raise TriformError("SNeigh requires a closed triple expression (no wildcards)")


@frozen
class SAnd:
    left: "ShexShape"
    right: "ShexShape"


@frozen
class SOr:
    left: "ShexShape"
    right: "ShexShape"


@frozen
class SNot:
    inner: "ShexShape"


ShexShape = Union[STestConst, STestType, SNeigh, SAnd, SOr, SNot]


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
    if not exprs:
        return Eps()
    out = exprs[0]
    for e in exprs[1:]:
        out = Seq(out, e)
    return out


def alt_all(exprs: List[TripleExpr]) -> TripleExpr:
    if not exprs:
        raise TriformError("empty alternation")
    out = exprs[0]
    for e in exprs[1:]:
        out = Alt(out, e)
    return out


def sand_all(shapes: List[ShexShape]) -> ShexShape:
    if not shapes:
        return top_shape()
    out = shapes[0]
    for s in shapes[1:]:
        out = SAnd(out, s)
    return out


def sor_all(shapes: List[ShexShape]) -> ShexShape:
    if not shapes:
        raise TriformError("empty disjunction")
    out = shapes[0]
    for s in shapes[1:]:
        out = SOr(out, s)
    return out


# ---------------------------------------------------------------------------
# Derived syntax


def desugar_repetition(e: TripleExpr, kind: str, n: int) -> TripleExpr:
    """Expand e^n, e^{<=n}, e^{>=n} into the core combinators."""
    if n < 0:
        raise TriformError("repetition bound must be non-negative")
    if kind == "exactly":
        if n == 0:
            return Eps()
        out = e
        for _ in range(n - 1):
            out = Seq(out, e)
        return out
    if kind == "at-most":
        if n == 0:
            return Eps()
        out: TripleExpr = Eps()
        for i in range(1, n + 1):
            out = Alt(out, desugar_repetition(e, "exactly", i))
        return out
    if kind == "at-least":
        if n == 0:
            return StarE(e)
        return Seq(desugar_repetition(e, "exactly", n), StarE(e))
    raise TriformError(f"unknown repetition kind {kind!r}")


def preds_triple_expr(e: TripleExpr) -> Set[Tuple[str, str]]:
    """Names appearing directly in the expression, with their direction.

    Names inside nested shapes of triple constraints do not count.
    """
    if isinstance(e, Eps):
        return set()
    if isinstance(e, TC):
        return {(e.q, e.direction)}
    if isinstance(e, (Seq, Alt)):
        return preds_triple_expr(e.left) | preds_triple_expr(e.right)
    if isinstance(e, StarE):
        return preds_triple_expr(e.inner)
    if isinstance(e, WildOut) or isinstance(e, WildIn):
        return set()
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


class _Template:
    """A neighborhood shape flattened once per run into the kernel
    program format, with the run's profile entries and verdict memo.

    A row's signature is the set of leaf and wildcard nodes that may
    consume it, one bit per node.  ``leaves`` buckets the bits of the
    triple-constraint nodes by the (name, direction) of the triples they
    can consume, each with its compiled nested shape; ``wilds`` lists, by
    direction, (bit, excluded names) for the wildcard nodes, the
    openness suffix included.  ``program`` is the kernel program
    (``_bagmatch_py.Program``); it depends on the shape only.

    ``entries`` maps a row profile (``model.RowProfile``) whose row
    total is within the cap to its entry: its verdict when it has no
    tested group, and otherwise the count of each signature among its
    untested rows and its tested (direction, name) groups (see
    :meth:`groups`).
    ``verdicts`` maps the sorted (signature, count) pairs of an
    element's rows to its verdict; only a miss runs the kernel, on those
    signatures and counts.
    """

    def __init__(self) -> None:
        self.leaves: Dict[Tuple[str, str], List[Tuple[int, "_Compiled"]]] = {}
        self.wilds: Dict[str, List[Tuple[int, FrozenSet[str]]]] = {FWD: [], INV: []}
        self.program: tuple = ()
        # :meth:`plan` per run, by direction and then by name
        self.plans: Dict[str, Dict[str, Tuple[int, list]]] = {FWD: {}, INV: {}}
        self.entries: Dict[RowProfile, tuple] = {}  # per run
        self.verdicts: Dict[Tuple[Tuple[int, int], ...], bool] = {}  # per run

    def plan(self, name: str, direction: str):
        """The signature bits a (name, direction) row gets untested, and
        the (bit, nested shape) pairs of the leaves that test its far end."""
        sig, tested = 0, []
        for bit, c in self.leaves.get((name, direction), ()):
            if c.kind is SNeigh and c.template is None:  # the top shape
                sig |= bit
            else:
                tested.append((bit, c))
        for bit, excl in self.wilds[direction]:
            if name not in excl:
                sig |= bit
        return self.plans[direction].setdefault(name, (sig, tested))

    def groups(self, p: RowProfile):
        """The count of each signature among the rows of the profile ``p``
        that no nested shape tests, and the (direction, name, signature
        bits, tested leaves) of its other groups."""
        counts: Dict[int, int] = {}
        tested, plan = [], self.plan
        for d, names in ((FWD, p.fwd), (INV, p.inv)):
            dplans, last = self.plans[d], None
            for name in names:
                sig, leaves = dplans.get(name) or plan(name, d)
                if not leaves:
                    counts[sig] = counts.get(sig, 0) + 1
                elif name != last:  # names are sorted, so a group's rows are adjacent
                    last = name
                    tested.append((d, name, sig, leaves))
        return counts, tested


class _Compiled:
    """A shape compiled for one evaluation context.

    ``sid`` is the shape's interned id in that context, and the strong
    reference to ``shape`` keeps its ``id`` from being reused while the
    context lives.
    """

    __slots__ = ("sid", "shape", "kind", "left", "right", "template")

    def __init__(self, sid: int, shape: ShexShape):
        self.sid = sid
        self.shape = shape
        self.kind = type(shape)
        self.left: Optional[_Compiled] = None
        self.right: Optional[_Compiled] = None
        self.template: Optional[_Template] = None  # None for the top shape


class EvalContext:
    """Per-run state: the compiled shapes, keyed by ``id`` of the source
    shape, each template with its verdict memo.  Nothing is cached in
    module globals, so separate contexts may run in separate threads."""

    def __init__(self, cap: int, registry: Optional[ValueTypeRegistry] = None) -> None:
        self.cap = cap
        self.registry = registry
        self.compiled: Dict[int, _Compiled] = {}


def _is_top(expr: TripleExpr, openness: Openness) -> bool:
    return isinstance(expr, Eps) and isinstance(openness, Open) and not openness.r and not openness.q


def _compile(ctx: EvalContext, shape: ShexShape) -> _Compiled:
    """The compiled form of ``shape``, built once per context."""
    c = ctx.compiled.get(id(shape))
    if c is not None:
        return c
    c = ctx.compiled[id(shape)] = _Compiled(len(ctx.compiled), shape)
    if isinstance(shape, SNeigh):
        if not _is_top(shape.expr, shape.openness):
            c.template = _template(ctx, shape.expr, shape.openness)
    elif isinstance(shape, (SAnd, SOr)):
        c.left = _compile(ctx, shape.left)
        c.right = _compile(ctx, shape.right)
    elif isinstance(shape, SNot):
        c.left = _compile(ctx, shape.inner)
    elif not isinstance(shape, (STestConst, STestType)):
        raise TriformError(f"unknown ShEx shape {shape!r}")
    return c


def _template(ctx: EvalContext, expr: TripleExpr, openness: Openness) -> _Template:
    """Flatten ``expr ; wildcards`` into a program template."""
    t = _Template()
    ops, lefts, rights, lo, hi = [], [], [], [], []  # the program's parallel lists

    def emit(op: int, a: int = -1, b: int = -1) -> int:
        ops.append(op)
        lefts.append(a)
        rights.append(b)
        bounds = count_bounds(op, lo, hi, a, b)
        lo.append(bounds[0])
        hi.append(bounds[1])
        return len(ops) - 1

    def walk(e: TripleExpr) -> int:
        if isinstance(e, Eps):
            return emit(OP_EPS)
        if isinstance(e, TC):
            i = emit(OP_LEAF)
            t.leaves.setdefault((e.q, e.direction), []).append((1 << i, _compile(ctx, e.shape)))
            return i
        if isinstance(e, (WildOut, WildIn)):
            i = emit(OP_LEAF)
            t.wilds[FWD if isinstance(e, WildOut) else INV].append((1 << i, e.excluded))
            return i
        if isinstance(e, Seq):
            return emit(OP_SEQ, walk(e.left), walk(e.right))
        if isinstance(e, Alt):
            return emit(OP_ALT, walk(e.left), walk(e.right))
        if isinstance(e, StarE):
            a = walk(e.inner)
            if ops[a] == OP_LEAF:
                # star of a single constraint consumes any number of its rows
                ops[a] = OP_WILDSTAR
                lo[a], hi[a] = count_bounds(OP_WILDSTAR, lo, hi)
                return a
            return emit(OP_STAR, a)
        raise TriformError(f"unknown triple expression {e!r}")

    body = walk(expr)
    # walk calls itself through its closure, a cycle that would keep the
    # template and its per-run entries alive until a collection
    del walk
    wild = emit(OP_WILDSTAR)
    t.wilds[INV].append((1 << wild, openness.r))
    if isinstance(openness, Open):
        t.wilds[FWD].append((1 << wild, openness.q))
    root = emit(OP_SEQ, body, wild)
    t.program = (ops, lefts, rights, _bagmatch_py.under_masks(ops, lefts, rights), lo, hi, root)
    return t


def _decide(t: _Template, bag: Tuple[Tuple[int, int], ...], x: Elem) -> bool:
    """The verdict on the sorted (signature, count) pairs ``bag`` of the
    element ``x``, which the memo does not hold yet: run the kernel."""
    sigs, counts = zip(*bag) if bag else ((), ())
    try:
        verdict = t.verdicts[bag] = _bagmatch_py.count_match(t.program, sigs, counts)
    except RecursionError:  # the kernel recurses once per peeled star part
        raise NeighborhoodTooLarge(
            f"signed neighborhood of {elem_focus(x)!r} has {sum(counts)} triples,"
            " too many star parts for the matcher's recursion depth"
        ) from None
    return verdict


def _neigh(ctx: EvalContext, g: CommonGraph, t: _Template, elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` whose rows the template's program matches.

    Each element is looked up by its row profile.  The first element of
    a profile checks the profile's row total against the cap and makes its
    entry; an element whose profile has no tested group is then decided
    by the entry alone.  The others read the far ends of their tested
    groups (``CommonGraph.ends``); once all elements are counted, each
    tested nested shape is evaluated once, on the union of the far ends
    it tests, and each such element is decided by its bag of row
    signatures."""
    profiles, entries, verdicts, cap, out = g.row_profiles, t.entries, t.verdicts, ctx.cap, set()
    pending = []  # (element, untested counts, [(far ends, signature, tested leaves)])
    asked: Dict[_Compiled, Set[Elem]] = defaultdict(set)
    for x in elems:
        p = profiles[x]
        entry = entries.get(p)
        if entry is None:
            if p.size > cap:  # name the least one over the cap
                v = elems_to_foci([y for y in elems if profiles[y].size > cap])[0]
                n = profiles[focus_elem(v)].size
                raise NeighborhoodTooLarge(f"signed neighborhood of {v!r} has {n} triples (cap {cap})")
            counts, tested = t.groups(p)
            if tested:
                entry = entries[p] = (counts, tested)
            else:  # the entry is the verdict
                bag = tuple(sorted(counts.items()))
                entry = verdicts.get(bag)
                if entry is None:
                    entry = _decide(t, bag, x)
                entries[p] = entry
        if entry is True:
            out.add(x)
        elif entry is not False:
            counts, tested = entry
            deferred = []
            for d, name, sig, leaves in tested:
                far = g.ends(name, d).get(x, ())
                for _, nested in leaves:
                    asked[nested].update(far)
                deferred.append((far, sig, leaves))
            pending.append((x, counts, deferred))
    if not pending:
        return out
    # in compilation order, so which cap error is raised first is fixed
    sat = {nested: _sat(ctx, g, nested, asked[nested]) for nested in sorted(asked, key=lambda c: c.sid)}
    for x, counts, deferred in pending:
        rows = dict(counts)
        for far, sig, leaves in deferred:
            for y in far:
                row = sig
                for bit, nested in leaves:
                    if y in sat[nested]:
                        row |= bit
                rows[row] = rows.get(row, 0) + 1
        bag = tuple(sorted(rows.items()))
        verdict = verdicts.get(bag)
        if verdict is None:
            verdict = _decide(t, bag, x)
        if verdict:
            out.add(x)
    return out


def _sat(ctx: EvalContext, g: CommonGraph, c: _Compiled, elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` that satisfy the compiled shape ``c``:
    the shape's extension cut to ``elems``.  Elements are raw (node ids
    and values); the result is a set the caller must not mutate."""
    kind = c.kind
    if kind is SNeigh:
        # no template: the top shape, which matches every neighborhood
        return elems if c.template is None else _neigh(ctx, g, c.template, elems)
    if kind is SAnd:
        return _sat(ctx, g, c.right, _sat(ctx, g, c.left, elems))
    if kind is SOr:
        left = _sat(ctx, g, c.left, elems)
        rest = elems - left
        return left | _sat(ctx, g, c.right, rest) if rest else left
    if kind is SNot:
        return elems - _sat(ctx, g, c.left, elems)
    if kind is STestConst:
        return {c.shape.c} & elems
    t = c.shape.t
    return {x for x in elems if type(x) is Value and value_type_member(x, t, ctx.registry)}


def match_triple_expr(
    g: CommonGraph,
    v: Focus,
    expr: TripleExpr,
    openness: Openness,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """True iff the signed neighborhood of ``v`` is generated by
    ``expr`` followed by the openness wildcards."""
    if _is_top(expr, openness):
        return True  # the top shape matches every neighborhood
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    x = focus_elem(v)
    return x in _neigh(ctx, g, _template(ctx, expr, openness), {x})


def shex_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: ShexShape,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """Whether ``v`` satisfies ``shape``: the set evaluator at one focus."""
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    x = focus_elem(v)
    return x in _sat(ctx, g, _compile(ctx, shape), {x})


def selector_shape(sel: ShexSelector) -> ShexShape:
    """The selector as an ordinary shape (its defining form)."""
    if isinstance(sel, SelTestConst):
        return STestConst(sel.c)
    if isinstance(sel, SelOutConst):
        return SNeigh(TC(sel.q, FWD, STestConst(sel.c)), Open(NO_NAMES, NO_NAMES))
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
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    per_rule = []
    for sel, shape in rules:
        selected = _select(g, sel)
        failing = elems_to_foci(selected - _sat(ctx, g, _compile(ctx, shape), selected))
        per_rule.append((selected, failing))
    return make_report(per_rule)
