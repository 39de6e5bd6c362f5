"""ShEx core: triple expressions, shapes, selectors, and validation.

A triple expression generates the allowed signed neighborhoods of a
focus: each triple constraint consumes exactly one signed triple whose
far endpoint satisfies the nested shape, sequence parts must consume
disjoint triple sets, and the openness suffix says which unmatched
triples are tolerated (any incoming with name outside R; for open
shapes also any outgoing with name outside Q).

Each neighborhood shape is flattened once per evaluation context into
a program template.  A focus reads its signed triples (its rows) from
the graph's adjacency lists and gives each row a signature: the bitset
of the template's leaf and wildcard nodes that may consume it.
Wildcards and top-shape leaves take a row untested, the other leaves
when its far end satisfies their nested shape.  As in the bag
semantics of ShEx, the verdict depends only on how many rows there are
of each signature (the neighborhood's Parikh image over the
constraints), not on their order, so the template keeps a per-run
verdict memo keyed by the sorted tuple of row signatures.  Only a memo
miss fills the template's leaf masks and runs the memoized subset DP
of ``_bagmatch_py`` over neighborhood bitmasks; the kernel thus runs
once per distinct signature bag per shape per run.
Since each triple constraint consumes exactly one triple, every
program node can consume only a static interval of triple counts (a
sequence the sum of its parts, an alternation the hull of its
branches); the template records these count bounds once per shape,
and the DP rejects any mask or split whose popcount falls outside
them.  Cost is exponential only in the neighborhood size, which is
bounded by a hard cap counted before any nested shape is evaluated:
exceeding the cap raises ``NeighborhoodTooLarge``, never approximating.

Counting is by triples, not by endpoints: a node with two parallel
p-edges to the same target offers two distinct signed triples.  This is
the semantic split with SHACL and PG-Schema exercised by the harness's
counting-divergence suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
    Node,
    SignedTriple,
    TriformError,
    Val,
    Value,
    ValueTypeRegistry,
    neigh_signed,  # noqa: F401  unused here, but the benchmark's tracer patches it on this module
    elem_focus,
    elems_to_foci,
    focus_elem,
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


@dataclass(frozen=True)
class Eps:
    pass


@dataclass(frozen=True)
class TC:
    """Triple constraint: consumes one signed triple named ``q`` in the
    given direction whose far endpoint satisfies ``shape``."""

    q: str
    direction: str
    shape: "ShexShape"


@dataclass(frozen=True)
class Seq:
    left: "TripleExpr"
    right: "TripleExpr"


@dataclass(frozen=True)
class Alt:
    left: "TripleExpr"
    right: "TripleExpr"


@dataclass(frozen=True)
class StarE:
    inner: "TripleExpr"


@dataclass(frozen=True)
class WildOut:
    """Wildcard: one unmatched outgoing triple with name outside ``excluded``.

    Only appears in openness suffixes; user-built closed expressions may
    not contain it.
    """

    excluded: FrozenSet[str]


@dataclass(frozen=True)
class WildIn:
    excluded: FrozenSet[str]


TripleExpr = Union[Eps, TC, Seq, Alt, StarE, WildOut, WildIn]


@dataclass(frozen=True)
class HalfOpen:
    """Tolerate unmatched incoming triples with name outside ``r``; no
    unmatched outgoing triples."""

    r: FrozenSet[str]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class STestConst:
    c: Value


@dataclass(frozen=True)
class STestType:
    t: str


@dataclass(frozen=True)
class SNeigh:
    expr: TripleExpr
    openness: Openness

    def __post_init__(self):
        if not is_closed_expr(self.expr):
            raise TriformError("SNeigh requires a closed triple expression (no wildcards)")


@dataclass(frozen=True)
class SAnd:
    left: "ShexShape"
    right: "ShexShape"


@dataclass(frozen=True)
class SOr:
    left: "ShexShape"
    right: "ShexShape"


@dataclass(frozen=True)
class SNot:
    inner: "ShexShape"


ShexShape = Union[STestConst, STestType, SNeigh, SAnd, SOr, SNot]


@dataclass(frozen=True)
class SelTestConst:
    c: Value


@dataclass(frozen=True)
class SelOutConst:
    q: str
    c: Value


@dataclass(frozen=True)
class SelOut:
    q: str


@dataclass(frozen=True)
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


@dataclass
class _Template:
    """A neighborhood shape flattened once per run into the kernel
    program format, with the run's verdict memo.

    ``leaves`` buckets the triple-constraint nodes by the (name,
    direction) of the triples they can consume, each with its compiled
    nested shape; ``wilds`` lists (node, direction, excluded names) for
    the wildcard nodes, the openness suffix included; ``joins`` lists
    (node, left, right) for the inner nodes in bottom-up order, a star
    naming its child twice.  ``lo``/``hi`` are the nodes' count bounds,
    which depend on the shape only.

    A focus's signed triples are its rows.  A row's signature is the
    bitset of the leaf and wildcard nodes whose mask would hold the
    row's bit: wildcards and top-shape leaves take it untested, the
    other leaves when the far end satisfies their nested shape.  The
    program cannot tell apart two rows of one signature, so the verdict
    depends only on the bag of signatures: ``verdicts`` maps the sorted
    tuple of a focus's row signatures to its verdict, and only a miss
    fills the leaf masks (:func:`_program`, one bit per row in the order
    of :func:`_layout`) and runs the kernel.
    """

    ops: List[int] = field(default_factory=list)
    lefts: List[int] = field(default_factory=list)
    rights: List[int] = field(default_factory=list)
    lo: List[int] = field(default_factory=list)
    hi: List[int] = field(default_factory=list)
    leaves: Dict[Tuple[str, str], List[Tuple[int, "_Compiled"]]] = field(default_factory=dict)
    wilds: List[Tuple[int, str, FrozenSet[str]]] = field(default_factory=list)
    joins: List[Tuple[int, int, int]] = field(default_factory=list)
    root: int = -1
    ranks: Dict[int, int] = field(default_factory=dict)  # leaf node -> rank of its (name, direction)
    leaf_bits: int = 0  # the triple-constraint nodes, as a signature
    plans: Dict[Tuple[str, str], Tuple[int, list]] = field(default_factory=dict)  # :meth:`plan`, per run
    verdicts: Dict[Tuple[int, ...], bool] = field(default_factory=dict)  # per run

    def plan(self, name: str, direction: str):
        """The signature bits a (name, direction) row gets untested, and
        the (bit, nested shape) pairs of the leaves that test its far end."""
        sig, tested = 0, []
        for node, c in self.leaves.get((name, direction), ()):
            if c.kind is SNeigh and c.template is None:  # the top shape
                sig |= 1 << node
            else:
                tested.append((1 << node, c))
        for node, d, excl in self.wilds:
            if d == direction and name not in excl:
                sig |= 1 << node
        return self.plans.setdefault((name, direction), (sig, tested))


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


@dataclass
class EvalContext:
    """Per-run state: the compiled shapes (keyed by ``id`` of the source
    shape, each template with its verdict memo) and the (element, shape
    id) verdict cache, keyed by raw elements (node ids and values), not
    by foci.  Nothing is cached in module globals, so separate contexts
    may run in separate threads."""

    cap: int
    registry: Optional[ValueTypeRegistry] = None
    cache: Dict[Tuple[Elem, int], bool] = field(default_factory=dict)
    compiled: Dict[int, _Compiled] = field(default_factory=dict)


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

    def emit(op: int, a: int = -1, b: int = -1) -> int:
        t.ops.append(op)
        t.lefts.append(a)
        t.rights.append(b)
        lo, hi = count_bounds(op, t.lo, t.hi, a, b)
        t.lo.append(lo)
        t.hi.append(hi)
        return len(t.ops) - 1

    def join(op: int, a: int, b: int) -> int:
        i = emit(op, a, b)
        t.joins.append((i, a, b))
        return i

    def walk(e: TripleExpr) -> int:
        if isinstance(e, Eps):
            return emit(OP_EPS)
        if isinstance(e, TC):
            i = emit(OP_LEAF)
            t.leaves.setdefault((e.q, e.direction), []).append((i, _compile(ctx, e.shape)))
            t.leaf_bits |= 1 << i
            return i
        if isinstance(e, (WildOut, WildIn)):
            i = emit(OP_LEAF)
            t.wilds.append((i, FWD if isinstance(e, WildOut) else INV, e.excluded))
            return i
        if isinstance(e, Seq):
            return join(OP_SEQ, walk(e.left), walk(e.right))
        if isinstance(e, Alt):
            return join(OP_ALT, walk(e.left), walk(e.right))
        if isinstance(e, StarE):
            a = walk(e.inner)
            if t.ops[a] == OP_LEAF:
                # star of a single constraint consumes any subset of its mask
                t.ops[a] = OP_WILDSTAR
                t.lo[a], t.hi[a] = count_bounds(OP_WILDSTAR, t.lo, t.hi)
                return a
            i = emit(OP_STAR, a)
            t.joins.append((i, a, a))
            return i
        raise TriformError(f"unknown triple expression {e!r}")

    body = walk(expr)
    wild = emit(OP_WILDSTAR)
    t.wilds.append((wild, INV, openness.r))
    if isinstance(openness, Open):
        t.wilds.append((wild, FWD, openness.q))
    t.root = join(OP_SEQ, body, wild)
    t.ranks = {node: r for r, key in enumerate(sorted(t.leaves)) for node, _ in t.leaves[key]}
    return t


def _signatures(ctx: EvalContext, g: CommonGraph, x: Elem, t: _Template) -> List[int]:
    """The signatures of the signed triples of the raw element ``x``,
    read straight from the adjacency lists: out-edges, properties, then
    in-edges.  The triples are counted against the cap before any nested
    shape is evaluated."""
    plans, plan = t.plans, t.plan
    sigs = []
    if type(x) is str:
        out, props, inc = g.out_edges(x), g.node_props(x), g.in_edges(x)
        _check_cap(ctx, x, len(out) + len(props) + len(inc))
        for e in out:
            sig, tested = plans.get((e.p, FWD)) or plan(e.p, FWD)
            sigs.append(_tested(ctx, g, sig, tested, e.o) if tested else sig)
        for k, w in props.items():
            sig, tested = plans.get((k, FWD)) or plan(k, FWD)
            sigs.append(_tested(ctx, g, sig, tested, w) if tested else sig)
        for e in inc:
            sig, tested = plans.get((e.p, INV)) or plan(e.p, INV)
            sigs.append(_tested(ctx, g, sig, tested, e.s) if tested else sig)
    else:
        owners = g.value_owners(x)
        _check_cap(ctx, x, len(owners))
        for n, k in owners:
            sig, tested = plans.get((k, INV)) or plan(k, INV)
            sigs.append(_tested(ctx, g, sig, tested, n) if tested else sig)
    return sigs


def _tested(ctx: EvalContext, g: CommonGraph, sig: int, tested: list, far: Elem) -> int:
    """``sig`` with the bits of the tested leaves whose nested shape ``far`` satisfies."""
    for bit, nested in tested:
        if _holds(ctx, g, far, nested):
            sig |= bit
    return sig


def _check_cap(ctx: EvalContext, x: Elem, size: int) -> None:
    if size > ctx.cap:
        raise NeighborhoodTooLarge(
            f"signed neighborhood of {elem_focus(x)!r} has {size} triples (cap {ctx.cap})"
        )


def _layout(t: _Template, sigs: List[int]) -> List[int]:
    """The indices of the rows in program order: the rows of each leaf
    key together, in adjacency order, and the keys in sorted order (a
    star's DP state count depends on that layout: fix it per shape).  A
    row's key is that of any leaf in its signature.  The rows no leaf
    takes go first; only the openness wildcard can take them, so where
    they go changes nothing the DP enumerates."""
    if len(t.leaves) < 2:  # at most one key: adjacency order is the layout
        return list(range(len(sigs)))
    ranks: Dict[int, int] = {}
    for sig in sigs:
        if sig not in ranks:
            low = sig & t.leaf_bits
            ranks[sig] = t.ranks[(low & -low).bit_length() - 1] if low else -1
    return sorted(range(len(sigs)), key=[ranks[sig] for sig in sigs].__getitem__)


def _program(t: _Template, sigs: List[int]):
    """The template's kernel program for rows of signatures ``sigs``,
    with bit i for the i-th row of :func:`_layout`."""
    support = [0] * len(t.ops)  # the leaf masks first, then their unions
    for i, r in enumerate(_layout(t, sigs)):
        bit, sig = 1 << i, sigs[r]
        while sig:
            low = sig & -sig
            support[low.bit_length() - 1] |= bit
            sig ^= low
    for i, a, b in t.joins:
        support[i] = support[a] | support[b]
    return t.ops, t.lefts, t.rights, support, t.lo, t.hi, t.root, (1 << len(sigs)) - 1


def _match(ctx: EvalContext, g: CommonGraph, x: Elem, t: _Template) -> bool:
    sigs = _signatures(ctx, g, x, t)
    key = tuple(sorted(sigs))
    verdict = t.verdicts.get(key)
    if verdict is None:
        verdict = t.verdicts[key] = _bagmatch_py.bag_match(*_program(t, sigs))
    return verdict


def _satisfies(ctx: EvalContext, g: CommonGraph, v: Focus, c: _Compiled) -> bool:
    """Whether the focus ``v`` satisfies the compiled shape."""
    return _holds(ctx, g, focus_elem(v), c)


def _holds(ctx: EvalContext, g: CommonGraph, x: Elem, c: _Compiled) -> bool:
    """Whether the raw element ``x`` satisfies the compiled shape; the
    verdict cache is keyed by (element, shape id)."""
    key = (x, c.sid)
    cached = ctx.cache.get(key)
    if cached is not None:
        return cached
    kind = c.kind
    if kind is SNeigh:
        # no template: the top shape, which matches every neighborhood
        result = c.template is None or _match(ctx, g, x, c.template)
    elif kind is SAnd:
        result = _holds(ctx, g, x, c.left) and _holds(ctx, g, x, c.right)
    elif kind is SOr:
        result = _holds(ctx, g, x, c.left) or _holds(ctx, g, x, c.right)
    elif kind is SNot:
        result = not _holds(ctx, g, x, c.left)
    elif kind is STestConst:
        result = type(x) is Value and x == c.shape.c
    else:
        result = type(x) is Value and value_type_member(x, c.shape.t, ctx.registry)
    ctx.cache[key] = result
    return result


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
    return _match(ctx, g, focus_elem(v), _template(ctx, expr, openness))


def match_witness(
    g: CommonGraph,
    v: Focus,
    expr: TripleExpr,
    openness: Openness,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> Optional[List[Tuple[int, List[SignedTriple]]]]:
    """Reconstruct one consumption witness.

    Returns (program node, consumed triples) pairs or None; used to
    check the sequence-disjointness invariant.
    """
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    t = _template(ctx, expr, openness)
    sigs = _signatures(ctx, g, focus_elem(v), t)
    raw = _bagmatch_py.bag_match_witness(*_program(t, sigs))
    if raw is None:
        return None
    if isinstance(v, Node):  # the rows in the order of _signatures
        rows = [SignedTriple(e.p, False, FWD, Node(e.o)) for e in g.out_edges(v.id)]
        rows += [SignedTriple(k, True, FWD, Val(w)) for k, w in g.node_props(v.id).items()]
        rows += [SignedTriple(e.p, False, INV, Node(e.s)) for e in g.in_edges(v.id)]
    else:
        rows = [SignedTriple(k, True, INV, Node(n)) for n, k in g.value_owners(v.value)]
    triples = [rows[r] for r in _layout(t, sigs)]
    return [(node, [tr for i, tr in enumerate(triples) if mask >> i & 1]) for node, mask in raw]


def shex_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: ShexShape,
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    return _satisfies(ctx, g, v, _compile(ctx, shape))


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


def shex_select(g: CommonGraph, sel: ShexSelector) -> List[Focus]:
    """Foci picked by a selector, computed directly from the graph.

    Equivalent to evaluating :func:`selector_shape` at every graph
    element (the openness wildcards absorb everything beyond the one
    required triple), but never hits the neighborhood cap.
    """
    out: Set[Elem]
    if isinstance(sel, SelTestConst):
        out = {sel.c}
    elif isinstance(sel, SelOutConst):
        # predicate endpoints are nodes and never equal a value constant
        out = {n for (n, k), w in g.props.items() if k == sel.q and w == sel.c}
    elif isinstance(sel, SelOut):
        out = triple_ends(g, sel.q, FWD)
    elif isinstance(sel, SelIn):
        out = triple_ends(g, sel.q, INV)
    else:
        raise TriformError(f"unknown ShEx selector {sel!r}")
    return elems_to_foci(out)


def shex_validate(
    g: CommonGraph,
    rules: List[ShexRule],
    cap: Optional[int] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> ValidationReport:
    """Validate; one evaluation context (and shape cache) per run."""
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    per_rule = []
    for sel, shape in rules:
        selected = shex_select(g, sel)
        c = _compile(ctx, shape)
        failing = [v for v in selected if not _satisfies(ctx, g, v, c)]
        per_rule.append((selected, failing))
    return make_report(per_rule)
