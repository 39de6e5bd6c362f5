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
:class:`ShexContext` decides the neighborhood shapes (``SNeigh``).  A
neighborhood shape becomes a program template when an element first
reaches it.  An element's rows
(signed triples) each get a signature, the set of leaf and wildcard
nodes that may consume them, and the verdict depends only on the bag of
signatures (the Parikh image over the constraints).  An untested row's
signature depends on its (direction, name) alone, so an element is read
through its row profile (``model.RowProfile``: (name, count) pairs, one
step per distinct name), whose total is checked against a hard cap
first.  Each template keeps a per-run entry per profile: the verdict
when no row is tested, else the untested counts and the tested groups.
The elements with tested groups are bucketed by profile; only their far
ends are read, each nested shape is evaluated once on the union of the
far ends it tests, and a bucket whose far ends get one signature per
group is decided by one bag, the others element by element by their
far-end signatures.  A template's program is interned per run by its
structure, so shapes that flatten alike share one program and one
verdict memo per run.  The memo is keyed by the sorted (signature,
count) pairs, a free class (one that no node but a WILDSTAR node may
consume) counted once, and runs the kernel of ``_bagmatch_py`` on a
miss only: a DP over the count of rows of each signature, pruned by
static intervals.  That module loads with the first template, so a
process that decides no neighborhood never compiles it.
Exceeding the cap raises ``NeighborhoodTooLarge``, never approximating,
and so does a bag whose star parts nest deeper than the interpreter's
recursion limit; the error names the least such element, and no profile
of the call is decided before every element's total is checked.

Counting is by triples, not by endpoints: a node with two parallel
p-edges to the same target offers two distinct signed triples.  This is
the semantic split with SHACL and PG-Schema exercised by the harness's
counting-divergence suite.
"""

from __future__ import annotations

import os
from functools import reduce
from typing import Collection, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from . import core
from .core import And, Context, Not, Or, TestConst, TestType
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
    elems_to_foci,
    focus_elem,
    frozen,
    neigh_signed,  # noqa: F401  unused here, but the benchmark's tracer patches it on this module
    triple_ends,
)
from .report import ValidationReport, make_report

DEFAULT_CAP = 24

_bagmatch_py = None  # the kernel's module, loaded by the first template (:func:`_template`)


def default_cap() -> int:
    raw = os.environ.get("TRIFORM_CAP")
    try:
        cap = DEFAULT_CAP if raw is None else int(raw)
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
    """A neighborhood shape flattened into the kernel program format, with
    the run's profile entries.

    A row's signature is the set of leaf and wildcard nodes that may
    consume it, one bit per node.  ``leaves`` buckets the bits of the
    triple-constraint nodes by the (name, direction) of the triples they
    can consume, each with the run's id of its nested shape (:func:`_sid`),
    or None for the top shape, which tests nothing; ``wilds`` lists, by
    direction, (bit, excluded names) for the wildcard nodes, the
    openness suffix included.  ``program`` is the run's interned
    :class:`_Program` of the shape's structure, with the verdict memo.

    ``entries`` maps a row profile (``model.RowProfile``) within the cap
    to its verdict when it has no tested group, else to the count of each
    signature among its untested rows and its tested groups (:meth:`groups`).
    """

    def __init__(self) -> None:
        self.leaves: Dict[Tuple[str, str], List[Tuple[int, Optional[int]]]] = {}
        self.wilds: Dict[str, List[Tuple[int, FrozenSet[str]]]] = {FWD: [], INV: []}
        self.program: Optional[_Program] = None
        # :meth:`plan` per run, by direction and then by name
        self.plans: Dict[str, Dict[str, Tuple[int, list, dict]]] = {FWD: {}, INV: {}}
        self.entries: Dict[RowProfile, object] = {}  # per run

    def plan(self, name: str, direction: str):
        """A (name, direction) row's untested signature bits, the (bit, nested
        shape id) pairs of the leaves testing its far end, and the run's far-end signatures."""
        sig, tested = 0, []
        for bit, sid in self.leaves.get((name, direction), ()):
            if sid is None:
                sig |= bit
            else:
                tested.append((bit, sid))
        for bit, excl in self.wilds[direction]:
            if name not in excl:
                sig |= bit
        return self.plans[direction].setdefault(name, (sig, tested, {}))

    def groups(self, g: CommonGraph, p: RowProfile):
        """The count of each signature among the untested rows of the profile
        ``p``, and per tested (direction, name) its far ends by near end and its plan."""
        counts: Dict[int, int] = {}
        tested, plan = [], self.plan
        for d, named in ((FWD, p.fwd), (INV, p.inv)):
            dplans = self.plans[d]
            for name, n in named:
                sig, leaves, sigs = dplans.get(name) or plan(name, d)
                if leaves:
                    tested.append((g.ends(name, d), sig, leaves, sigs))
                else:
                    counts[sig] = counts.get(sig, 0) + n
        return counts, tested


class ShexContext(Context):
    """A ShEx run over one graph: the cap, the shapes met so far by their
    run's id (:func:`_sid`), which keeps their ``id`` from being reused
    while the context lives, the templates by their shape's run id, and the
    interned programs by structure, with their verdict memos.  Nothing is
    cached in module globals, so separate contexts may run in separate
    threads."""

    def __init__(self, g: CommonGraph, cap: int, registry: Optional[ValueTypeRegistry] = None) -> None:
        super().__init__(g, registry)
        self.cap = cap
        self.sids: Dict[int, int] = {}
        self.shapes: List[ShexShape] = []
        self.templates: Dict[int, _Template] = {}
        self.programs: Dict[Tuple[tuple, tuple, tuple], _Program] = {}

    def atom(self, shape: ShexShape, elems: Set[Elem]) -> Set[Elem]:
        """The elements of ``elems`` whose neighborhood matches ``shape``.
        An empty set is returned at once, so a template is built only when
        an element reaches its shape, and the top shape builds none."""
        if type(shape) is not SNeigh:
            raise TriformError(f"unknown ShEx shape {shape!r}")
        if not elems or _is_top(shape.expr, shape.openness):
            return elems
        sid = _sid(self, shape)
        t = self.templates.get(sid)
        if t is None:
            t = self.templates[sid] = _template(self, shape.expr, shape.openness)
        return _neigh(self, t, elems)


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
    return t


_TOO_DEEP = object()  # the verdict on a bag with more star parts than the recursing kernel can peel


def _decide(prog: _Program, rows: Dict[int, int]):
    """The verdict of ``prog`` on the bag of ``rows[s]`` rows of each
    signature ``s``: the memo's, else the kernel's, kept (True, False or
    ``_TOO_DEEP``).  Every free class, whose signature holds WILDSTAR
    nodes only, or no node, counts as 1 row, which keeps the verdict
    (the ``_bagmatch_py`` docstring gives the proof) and lets bags that
    differ only there share one entry."""
    wild = prog.wild
    bag = tuple(sorted([(s, n) if s & ~wild else (s, 1) for s, n in rows.items()]))
    verdict = prog.verdicts.get(bag)
    if verdict is None:
        sigs, counts = zip(*bag) if bag else ((), ())
        try:
            verdict = _bagmatch_py.count_match(prog.kernel, sigs, counts)
        except RecursionError:
            verdict = _TOO_DEEP
        prog.verdicts[bag] = verdict
    return verdict


def _too_large(xs: Collection[Elem], profiles, why: str) -> NeighborhoodTooLarge:
    """The capability error naming the least of ``xs`` in focus order."""
    v = elems_to_foci(xs)[0]
    return NeighborhoodTooLarge(f"signed neighborhood of {v!r} has {profiles[focus_elem(v)].size} triples{why}")


def _neigh(ctx: ShexContext, t: _Template, elems: Set[Elem]) -> Set[Elem]:
    """The elements of ``elems`` whose rows the template's program matches.

    The cap is checked first, for every element of the call at once, so a
    cap error comes before any profile is decided, whatever the set order.
    Each element is then looked up by its row profile, whose first element
    makes its entry, the verdict when no row is tested.  Other elements are
    bucketed by profile and decided as the module docstring says.
    Capability errors name the least element over the cap or, once all are
    decided, with a bag too deep for the kernel."""
    g, entries, prog, cap, out = ctx.g, t.entries, t.program, ctx.cap, set()
    profiles = g.row_profiles
    of = profiles.of
    over = profiles.over(cap)
    if over and not over.isdisjoint(elems):
        raise _too_large(over.intersection(elems), profiles, f" (cap {cap})")
    buckets: Dict[RowProfile, List[Elem]] = {}  # the elements of each profile with tested groups
    deep: List[Elem] = []  # the elements whose bag is too deep for the kernel
    for x in elems:
        try:
            p = of[x]
        except KeyError:  # outside the graph
            p = profiles[x]
        entry = entries.get(p)
        if entry is None:
            counts, tested = t.groups(g, p)
            entry = entries[p] = (counts, tested) if tested else _decide(prog, counts)
        if entry is True:
            out.add(x)
        elif entry.__class__ is tuple:
            if p in buckets:
                buckets[p].append(x)
            else:
                buckets[p] = [x]
        elif entry is _TOO_DEEP:
            deep.append(x)
    asked: Dict[int, Set[Elem]] = {}  # the far ends each nested shape tests, by its run's id
    reads = []  # per bucket: its elements, its entry and each tested group's far ends by element
    for p, xs in buckets.items():
        entry, fars = entries[p], []
        for ends, _, leaves, _ in entry[1]:
            far = list(map(ends.__getitem__, xs))
            for _, sid in leaves:
                asked.setdefault(sid, set()).update(*far)
            fars.append(far)
        reads.append((xs, entry, fars))
    if reads:  # nested shapes in the run's order (:func:`_sid`), so the first cap error raised is fixed
        sat = {sid: core._sat(ctx, ctx.shapes[sid], asked[sid]) for sid in sorted(asked)}
    for xs, (counts, tested), fars in reads:
        rows, mixed = dict(counts), []
        for (_, sig, leaves, sigs), far in zip(tested, fars):
            first = None  # the group's one far-end signature in the bucket, or False
            for f in far:
                for y in f:
                    row = sigs.get(y)
                    if row is None:  # each far end gets its signature once per run
                        row = sig
                        for bit, sid in leaves:
                            if y in sat[sid]:
                                row |= bit
                        sigs[y] = row
                    if first is None:
                        first = row
                    elif row != first:
                        first = False
            if first is False:
                mixed.append((far, sigs))
            else:  # every element has the profile's count of rows with that signature
                rows[first] = rows.get(first, 0) + len(far[0])
        if not mixed:
            verdict = _decide(prog, rows)
            if verdict is True:
                out.update(xs)
            elif verdict is _TOO_DEEP:
                deep += xs
            continue
        memo: Dict[tuple, object] = {}  # the verdicts by the signatures of the far ends that differ
        for i, x in enumerate(xs):
            key = []
            for far, sigs in mixed:
                key.extend(map(sigs.__getitem__, far[i]))
            key = tuple(key)
            verdict = memo.get(key)
            if verdict is None:
                bag = dict(rows)
                for row in key:
                    bag[row] = bag.get(row, 0) + 1
                verdict = memo[key] = _decide(prog, bag)
            if verdict is True:
                out.add(x)
            elif verdict is _TOO_DEEP:
                deep.append(x)
    if deep:
        raise _too_large(deep, profiles, ", too many star parts for the matcher's recursion depth")
    return out


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
