"""Random generators, brute-force oracles, metamorphic graph surgery,
and the three-way differential runner.

Everything random is a pure function of (parameters, seed): replaying a
seed reproduces the instance exactly.  The oracles re-derive the
semantics by exhaustive enumeration over hard-bounded instances; they
share no evaluation code with the engines they check.

Trials are independent; the campaign's only shared state is the
append-only result list.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from . import shacl as sh
from . import shex as sx
from . import sshex as ssx
from .cogsl import CheckedSchema, cogsl_to_shacl, cogsl_to_shex, cogsl_validate
from .core import And, and_all
from .jsonio import focus_to_json
from .model import (
    FWD,
    INV,
    CommonGraph,
    EdgeNotInGraph,
    EdgeTriple,
    Focus,
    InstanceTooLarge,
    NeighborhoodTooLarge,
    Node,
    PropTriple,
    Record,
    SignedTriple,
    TriformError,
    Val,
    Value,
    bool_v,
    build_graph,
    content,
    int_v,
    neigh_signed,
    signed_triple_sort_key,
    str_v,
)
from .pgschema import (
    CAny,
    CBoth,
    CEither,
    CEmpty,
    CField,
    ContentType,
    EBoth,
    EdgeType,
    EEither,
    ET,
    FilterKind,
    FKeyIs,
    FNotKeyIs,
    FNotOfType,
    FOfType,
    NodePath,
    PConcat,
    PFilter,
    PgGeq,
    PgLeq,
    PgPath,
    PgRule,
    PgShape,
    PId,
    PInv,
    PName,
    PNotPreds,
    PPred,
    PStar,
    PUnion,
    concat_all,
    content_member,
)
from .report import first_divergence
from .shacl import shacl_validate
from .shex import shex_validate

DEFAULT_VALUE_POOL: Tuple[Value, ...] = (
    int_v(0),
    int_v(7),
    int_v(1234),
    str_v("x"),
    str_v("d@d.d"),
    bool_v(True),
    bool_v(False),
)

VALUE_TYPE_POOL: Tuple[str, ...] = ("int", "str", "bool", "any")


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    node_count: int = 6
    edge_density: float = 0.18
    prop_density: float = 0.35
    value_pool: Tuple[Value, ...] = DEFAULT_VALUE_POOL
    pred_pool: Tuple[str, ...] = ("p", "q", "r")
    key_pool: Tuple[str, ...] = ("k1", "k2", "k3")
    schema_size_budget: int = 4
    max_count_n: int = 3

    def with_seed(self, seed: int) -> "GenParams":
        return replace(self, seed=seed)


# ---------------------------------------------------------------------------
# Graph generation


def gen_graph(p: GenParams) -> CommonGraph:
    """A random common graph, deterministic per (params, seed)."""
    rng = random.Random(f"graph-{p.seed}")
    nodes = [f"n{i}" for i in range(p.node_count)]
    edges = []
    for s in nodes:
        for o in nodes:
            if rng.random() < p.edge_density:
                edges.append(EdgeTriple(s, rng.choice(p.pred_pool), o))
    props = []
    for n in nodes:
        for k in p.key_pool:
            if rng.random() < p.prop_density:
                props.append(PropTriple(n, k, rng.choice(p.value_pool)))
    return build_graph(edges, props)


# ---------------------------------------------------------------------------
# Common-schema generation (fragment-conformant by construction)


def _gen_open_content(rng: random.Random, p: GenParams) -> ContentType:
    kernel = _gen_closed_content(rng, p, depth=1)
    return CBoth(kernel, CAny())


def _gen_closed_content(rng: random.Random, p: GenParams, depth: int = 2) -> ContentType:
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        if roll < 0.1:
            return CEmpty()
        return CField(rng.choice(p.key_pool), rng.choice(VALUE_TYPE_POOL))
    ctor = CBoth if rng.random() < 0.5 else CEither
    return ctor(
        _gen_closed_content(rng, p, depth - 1), _gen_closed_content(rng, p, depth - 1)
    )


def _gen_filter(rng: random.Random, p: GenParams) -> FilterKind:
    roll = rng.randrange(4)
    if roll == 0:
        return FKeyIs(rng.choice(p.key_pool), rng.choice(p.value_pool))
    if roll == 1:
        return FNotKeyIs(rng.choice(p.key_pool), rng.choice(p.value_pool))
    if roll == 2:
        return FOfType(_gen_open_content(rng, p))
    return FNotOfType(_gen_open_content(rng, p))


def _gen_step(rng: random.Random, p: GenParams) -> NodePath:
    step: NodePath = PPred(rng.choice(p.pred_pool))
    if rng.random() < 0.4:
        step = PInv(step)
    return step


def _gen_body(rng: random.Random, p: GenParams, depth: int = 2) -> NodePath:
    """A fragment-legal node-to-node path (star-free, open contents)."""
    if depth == 0 or rng.random() < 0.4:
        return PFilter(_gen_filter(rng, p)) if rng.random() < 0.5 else _gen_step(rng, p)
    roll = rng.randrange(3)
    if roll == 0:
        return PConcat(_gen_body(rng, p, depth - 1), _gen_body(rng, p, depth - 1))
    if roll == 1:
        return PUnion(_gen_body(rng, p, depth - 1), _gen_body(rng, p, depth - 1))
    return PInv(_gen_body(rng, p, depth - 1))


def _gen_exists_path(rng: random.Random, p: GenParams, value_sorted: bool) -> PgPath:
    src_key = rng.choice(p.key_pool) if value_sorted else None
    body = _gen_body(rng, p) if rng.random() < 0.9 else None
    dst_key = rng.choice(p.key_pool) if rng.random() < 0.3 else None
    if src_key is None and body is None and dst_key is None:
        dst_key = rng.choice(p.key_pool)
    return PgPath(src_key, body, dst_key)


def _gen_count_atom(rng: random.Random, p: GenParams, value_sorted: bool) -> PgShape:
    n = rng.randrange(0, p.max_count_n + 1)
    ctor = PgGeq if rng.random() < 0.5 else PgLeq
    if ctor is PgGeq and n == 1:
        n = 2  # keep geq-1 for exists atoms
    filters = lambda: [PFilter(_gen_filter(rng, p)) for _ in range(rng.randrange(0, 2))]
    if value_sorted:
        body = concat_all(filters())
        return ctor(n, PgPath(rng.choice(p.key_pool), body, None))
    kind = rng.randrange(3)
    if kind == 0:  # key step
        body = concat_all(filters())
        return ctor(n, PgPath(None, body, rng.choice(p.key_pool)))
    step: NodePath = PPred(rng.choice(p.pred_pool))
    if kind == 2:
        step = PInv(step)
    parts = filters() + [step] + filters()
    return ctor(n, PgPath(None, concat_all(parts), None))


def _gen_guard(rng: random.Random, p: GenParams) -> PgShape:
    tau = _gen_closed_content(rng, p, depth=1)
    preds = tuple(sorted(rng.sample(p.pred_pool, rng.randrange(0, len(p.pred_pool) + 1))))
    return And(
        PgGeq(1, PgPath(None, PFilter(FOfType(tau)), None)),
        PgLeq(0, PgPath(None, PNotPreds(frozenset(preds)), None)),
    )


def _gen_selector(rng: random.Random, p: GenParams) -> Tuple[PgGeq, bool]:
    """Returns (selector, value_sorted)."""
    form = rng.randrange(6)
    if form == 0:
        return PgGeq(1, PgPath(None, None, rng.choice(p.key_pool))), False
    if form == 5:
        body = _gen_body(rng, p, 1) if rng.random() < 0.5 else None
        return PgGeq(1, PgPath(rng.choice(p.key_pool), body, None)), True
    tail = _gen_body(rng, p, 1) if rng.random() < 0.6 else None
    dst = rng.choice(p.key_pool) if rng.random() < 0.2 else None
    if form == 1:
        head: NodePath = PPred(rng.choice(p.pred_pool))
    elif form == 2:
        head = PInv(PPred(rng.choice(p.pred_pool)))
    elif form == 3:
        head = PFilter(FKeyIs(rng.choice(p.key_pool), rng.choice(p.value_pool)))
    else:
        head = PFilter(
            FOfType(CBoth(CField(rng.choice(p.key_pool), rng.choice(VALUE_TYPE_POOL)), CAny()))
        )
    body = PConcat(head, tail) if tail is not None else head
    return PgGeq(1, PgPath(None, body, dst)), False


def gen_cogsl_schema(p: GenParams) -> List[PgRule]:
    """A random common schema; passes the fragment check by construction."""
    rng = random.Random(f"schema-{p.seed}")
    rules: List[PgRule] = []
    for _ in range(max(1, rng.randrange(1, p.schema_size_budget + 1))):
        sel, value_sorted = _gen_selector(rng, p)
        atoms: List[PgShape] = []
        for _ in range(rng.randrange(1, 3)):
            roll = rng.random()
            if value_sorted:
                if roll < 0.5:
                    atoms.append(PgGeq(1, _gen_exists_path(rng, p, True)))
                else:
                    atoms.append(_gen_count_atom(rng, p, True))
            elif roll < 0.4:
                atoms.append(PgGeq(1, _gen_exists_path(rng, p, False)))
            elif roll < 0.8:
                atoms.append(_gen_count_atom(rng, p, False))
            else:
                atoms.append(_gen_guard(rng, p))
        rules.append((sel, and_all(atoms)))
    return rules


# ---------------------------------------------------------------------------
# SHACL and ShEx schema generators (for the expressiveness suites)


def gen_shacl_path(rng: random.Random, p: GenParams, depth: int = 2) -> sh.PathExpr:
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.15:
            return sh.Id()
        return sh.Step(rng.choice(p.pred_pool + p.key_pool))
    roll = rng.randrange(4)
    if roll == 0:
        return sh.Inverse(gen_shacl_path(rng, p, depth - 1))
    if roll == 1:
        return sh.Concat(gen_shacl_path(rng, p, depth - 1), gen_shacl_path(rng, p, depth - 1))
    if roll == 2:
        return sh.PathUnion(gen_shacl_path(rng, p, depth - 1), gen_shacl_path(rng, p, depth - 1))
    return sh.Star(gen_shacl_path(rng, p, depth - 1))


def gen_shacl_shape(rng: random.Random, p: GenParams, depth: int = 2) -> sh.ShaclShape:
    if depth == 0 or rng.random() < 0.25:
        roll = rng.randrange(4)
        if roll == 0:
            return sh.Top()
        if roll == 1:
            return sh.TestConst(rng.choice(p.value_pool))
        if roll == 2:
            return sh.TestType(rng.choice(VALUE_TYPE_POOL))
        pool = p.pred_pool + p.key_pool
        return sh.Closed(frozenset(rng.sample(pool, rng.randrange(0, len(pool) + 1))))
    roll = rng.randrange(7)
    if roll == 0:
        return sh.Eq(gen_shacl_path(rng, p, depth - 1), rng.choice(p.pred_pool))
    if roll == 1:
        return sh.Disj(gen_shacl_path(rng, p, depth - 1), rng.choice(p.pred_pool))
    if roll == 2:
        return sh.Not(gen_shacl_shape(rng, p, depth - 1))
    if roll == 3:
        return sh.And(gen_shacl_shape(rng, p, depth - 1), gen_shacl_shape(rng, p, depth - 1))
    if roll == 4:
        return sh.Or(gen_shacl_shape(rng, p, depth - 1), gen_shacl_shape(rng, p, depth - 1))
    n = rng.randrange(0, p.max_count_n + 1)
    ctor = sh.GeqCount if roll == 5 else sh.LeqCount
    return ctor(n, gen_shacl_path(rng, p, depth - 1), gen_shacl_shape(rng, p, depth - 1))


def gen_shacl_schema(p: GenParams) -> List[sh.ShaclRule]:
    rng = random.Random(f"shacl-{p.seed}")
    rules = []
    for _ in range(max(1, rng.randrange(1, p.schema_size_budget + 1))):
        roll = rng.randrange(3)
        q = rng.choice(p.pred_pool + p.key_pool)
        sel: sh.ShaclSelector
        if roll == 0:
            sel = sh.ExistsOut(q)
        elif roll == 1:
            sel = sh.ExistsIn(q)
        else:
            sel = sh.SelConst(rng.choice(p.value_pool))
        rules.append((sel, gen_shacl_shape(rng, p)))
    return rules


def shacl_max_bound(rules: Sequence[sh.ShaclRule]) -> int:
    """The largest n in any counting quantifier of the schema."""

    def walk(shape: sh.ShaclShape) -> int:
        if isinstance(shape, (sh.GeqCount, sh.LeqCount)):
            return max(shape.n, walk(shape.body))
        if isinstance(shape, sh.Not):
            return walk(shape.inner)
        if isinstance(shape, (sh.And, sh.Or)):
            return max(walk(shape.left), walk(shape.right))
        return 0

    return max([walk(shape) for _, shape in rules], default=0)


def gen_triple_expr(rng: random.Random, p: GenParams, depth: int = 2) -> sx.TripleExpr:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return sx.Eps()
        name = rng.choice(p.pred_pool + p.key_pool)
        direction = INV if rng.random() < 0.35 else FWD
        return sx.TC(name, direction, gen_shex_shape(rng, p, 0))
    roll = rng.randrange(3)
    if roll == 0:
        return sx.Seq(gen_triple_expr(rng, p, depth - 1), gen_triple_expr(rng, p, depth - 1))
    if roll == 1:
        return sx.Alt(gen_triple_expr(rng, p, depth - 1), gen_triple_expr(rng, p, depth - 1))
    return sx.StarE(gen_triple_expr(rng, p, depth - 1))


def gen_openness(rng: random.Random, p: GenParams) -> sx.Openness:
    pool = p.pred_pool + p.key_pool
    r = frozenset(rng.sample(pool, rng.randrange(0, 3)))
    if rng.random() < 0.4:
        return sx.HalfOpen(r)
    return sx.Open(r, frozenset(rng.sample(pool, rng.randrange(0, 3))))


def gen_shex_shape(rng: random.Random, p: GenParams, depth: int = 2) -> sx.ShexShape:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.randrange(3)
        if roll == 0:
            return sx.STestConst(rng.choice(p.value_pool))
        if roll == 1:
            return sx.STestType(rng.choice(VALUE_TYPE_POOL))
        return sx.top_shape()
    roll = rng.randrange(4)
    if roll == 0:
        return sx.SNeigh(gen_triple_expr(rng, p, depth - 1), gen_openness(rng, p))
    if roll == 1:
        return sx.SAnd(gen_shex_shape(rng, p, depth - 1), gen_shex_shape(rng, p, depth - 1))
    if roll == 2:
        return sx.SOr(gen_shex_shape(rng, p, depth - 1), gen_shex_shape(rng, p, depth - 1))
    return sx.SNot(gen_shex_shape(rng, p, depth - 1))


def gen_pg_body(rng: random.Random, p: GenParams, depth: int = 2) -> NodePath:
    """A node-to-node PG-path over the full grammar (star and negated
    predicate sets included), for oracle comparison."""
    if depth == 0 or rng.random() < 0.35:
        roll = rng.randrange(3)
        if roll == 0:
            return PFilter(_gen_filter(rng, p))
        if roll == 1:
            return PPred(rng.choice(p.pred_pool))
        return PNotPreds(frozenset(rng.sample(p.pred_pool, rng.randrange(0, 3))))
    roll = rng.randrange(4)
    if roll == 0:
        return PConcat(gen_pg_body(rng, p, depth - 1), gen_pg_body(rng, p, depth - 1))
    if roll == 1:
        return PUnion(gen_pg_body(rng, p, depth - 1), gen_pg_body(rng, p, depth - 1))
    if roll == 2:
        return PInv(gen_pg_body(rng, p, depth - 1))
    return PStar(gen_pg_body(rng, p, depth - 1))


def gen_pg_path(rng: random.Random, p: GenParams, depth: int = 2) -> PgPath:
    src = rng.choice(p.key_pool) if rng.random() < 0.25 else None
    dst = rng.choice(p.key_pool) if rng.random() < 0.25 else None
    body = gen_pg_body(rng, p, depth) if (rng.random() < 0.9 or (src is None and dst is None)) else None
    if src is None and body is None and dst is None:
        dst = rng.choice(p.key_pool)
    return PgPath(src, body, dst)


def gen_sshex_te(rng: random.Random, p: GenParams, depth: int = 2) -> ssx.STripleExpr:
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(p.pred_pool + p.key_pool)
        direction = INV if rng.random() < 0.3 else FWD
        shape = None if rng.random() < 0.4 else gen_sshex_shape(rng, p, 0)
        return ssx.XTC(name, direction, shape)
    roll = rng.randrange(3)
    if roll == 0:
        return ssx.XSeq(gen_sshex_te(rng, p, depth - 1), gen_sshex_te(rng, p, depth - 1))
    if roll == 1:
        return ssx.XAlt(gen_sshex_te(rng, p, depth - 1), gen_sshex_te(rng, p, depth - 1))
    lo = rng.randrange(0, 3)
    hi = rng.choice([None, lo, lo + 1, lo + 2])
    return ssx.XRepeat(gen_sshex_te(rng, p, depth - 1), lo, hi)


def gen_sshex_shape(
    rng: random.Random, p: GenParams, depth: int = 2, allow_extra: bool = True
) -> ssx.SShapeExpr:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.randrange(3)
        if roll == 0:
            return ssx.XTestConst(rng.choice(p.value_pool))
        if roll == 1:
            return ssx.XTestType(rng.choice(VALUE_TYPE_POOL))
        return ssx.x_top()
    roll = rng.randrange(4)
    if roll == 0:
        te = gen_sshex_te(rng, p, depth - 1) if rng.random() < 0.9 else None
        pool = [(n, d) for n in p.pred_pool + p.key_pool for d in (FWD, INV)]
        extra = frozenset(rng.sample(pool, rng.randrange(0, 3))) if allow_extra else ssx.NO_EXTRA
        return ssx.XShape(rng.random() < 0.4, extra, te)
    if roll == 1:
        return ssx.XAnd(
            gen_sshex_shape(rng, p, depth - 1, allow_extra),
            gen_sshex_shape(rng, p, depth - 1, allow_extra),
        )
    if roll == 2:
        return ssx.XOr(
            gen_sshex_shape(rng, p, depth - 1, allow_extra),
            gen_sshex_shape(rng, p, depth - 1, allow_extra),
        )
    return ssx.XNot(gen_sshex_shape(rng, p, depth - 1, allow_extra))


def gen_shex_schema(p: GenParams) -> List[sx.ShexRule]:
    rng = random.Random(f"shex-{p.seed}")
    rules = []
    for _ in range(max(1, rng.randrange(1, p.schema_size_budget + 1))):
        roll = rng.randrange(4)
        q = rng.choice(p.pred_pool + p.key_pool)
        sel: sx.ShexSelector
        if roll == 0:
            sel = sx.SelOut(q)
        elif roll == 1:
            sel = sx.SelIn(q)
        elif roll == 2:
            sel = sx.SelOutConst(q, rng.choice(p.value_pool))
        else:
            sel = sx.SelTestConst(rng.choice(p.value_pool))
        rules.append((sel, gen_shex_shape(rng, p)))
    return rules


# ---------------------------------------------------------------------------
# Brute-force oracles

MAX_ORACLE_DOMAIN = 64  # the path oracles are polynomial in the domain
MAX_ORACLE_NEIGH = 8

Pair = Tuple[Focus, Focus]


def _oracle_domain(g: CommonGraph, v: Optional[Focus]) -> List[Focus]:
    domain: Set[Focus] = {Node(u) for u in g.nodes} | {Val(w) for w in g.values}
    if v is not None:
        domain.add(v)
    if len(domain) > MAX_ORACLE_DOMAIN:
        raise InstanceTooLarge(f"oracle domain of {len(domain)} elements exceeds the bound")
    return sorted(domain, key=lambda f: repr(f))


def _oracle_neigh(g: CommonGraph, v: Focus) -> List[SignedTriple]:
    triples = sorted(neigh_signed(g, v), key=signed_triple_sort_key)
    if len(triples) > MAX_ORACLE_NEIGH:
        raise InstanceTooLarge(f"{len(triples)} signed triples exceed the oracle bound")
    return triples


def _compose(a: Set[Pair], b: Set[Pair]) -> Set[Pair]:
    by_src: Dict[Focus, Set[Focus]] = {}
    for (x, y) in b:
        by_src.setdefault(x, set()).add(y)
    return {(x, z) for (x, y) in a for z in by_src.get(y, ())}


def _closure(base: Set[Pair], ident: Set[Pair]) -> Set[Pair]:
    rel = set(ident) | set(base)
    while True:
        nxt = rel | _compose(rel, base)
        if nxt == rel:
            return rel
        rel = nxt


def _path_pairs(g: CommonGraph, path: NodePath, ident: Set[Pair], registry=None) -> Set[Pair]:
    """A node path's relation as pairs of foci, built bottom-up from the
    graph's triples.  ``ident`` is the relation of ``id`` and of a star's
    zero steps: the whole oracle domain for SHACL, the graph nodes for
    PG.  Filters hold on graph nodes only."""

    def filter_holds(u: str, kind: FilterKind) -> bool:
        if isinstance(kind, FKeyIs):
            return g.prop(u, kind.k) == kind.c
        if isinstance(kind, FNotKeyIs):
            return g.prop(u, kind.k) != kind.c
        if isinstance(kind, FOfType):
            return content_member(content(g, u), kind.t, registry)
        if isinstance(kind, FNotOfType):
            return not content_member(content(g, u), kind.t, registry)
        raise TriformError(f"unknown filter {kind!r}")

    def rel(p: NodePath) -> Set[Pair]:
        if isinstance(p, PId):
            return set(ident)
        if isinstance(p, PName):
            keyed = {(Node(n), Val(w)) for (n, k), w in g.props.items() if k == p.q}
            return keyed | {(Node(e.s), Node(e.o)) for e in g.edges if e.p == p.q}
        if isinstance(p, PPred):
            return {(Node(e.s), Node(e.o)) for e in g.edges if e.p == p.p}
        if isinstance(p, PNotPreds):
            return {(Node(e.s), Node(e.o)) for e in g.edges if e.p not in p.excluded}
        if isinstance(p, PFilter):
            return {(Node(u), Node(u)) for u in g.nodes if filter_holds(u, p.kind)}
        if isinstance(p, PInv):
            return {(y, x) for (x, y) in rel(p.inner)}
        if isinstance(p, PConcat):
            return _compose(rel(p.left), rel(p.right))
        if isinstance(p, PUnion):
            return rel(p.left) | rel(p.right)
        if isinstance(p, PStar):
            return _closure(rel(p.inner), ident)
        raise TriformError(f"unknown path {p!r}")

    return rel(path)


def brute_path_oracle(g: CommonGraph, v: Focus, path: sh.PathExpr) -> Set[Focus]:
    """Relational evaluation of a SHACL path over the full finite domain."""
    return {u for (x, u) in brute_path_relation(g, path, v) if x == v}


def brute_path_relation(g: CommonGraph, path: sh.PathExpr, v: Focus) -> Set[Pair]:
    """The SHACL path's relation over the graph's elements plus ``v``, as
    pairs of foci: the image of every element at once."""
    return _path_pairs(g, path, {(d, d) for d in _oracle_domain(g, v)})


def brute_pg_path_oracle(g: CommonGraph, v: Focus, path: PgPath, registry=None) -> Set[Focus]:
    """Relational evaluation of a PG-path over the full finite domain."""
    _oracle_domain(g, v)  # the bound
    return {u for (x, u) in brute_pg_relation(g, path, registry) if x == v}


def brute_pg_relation(g: CommonGraph, path: PgPath, registry=None) -> Set[Pair]:
    """The PG-path's relation as pairs of foci: the image of every element
    at once (no element outside the graph has one)."""
    _oracle_domain(g, None)  # the bound
    node_ident = {(Node(u), Node(u)) for u in g.nodes}
    full = node_ident if path.body is None else _path_pairs(g, path.body, node_ident, registry)
    if path.src_key is not None:
        kin = {(Val(w), Node(n)) for (n, k), w in g.props.items() if k == path.src_key}
        full = _compose(kin, full)
    if path.dst_key is not None:
        kout = {(Node(n), Val(w)) for (n, k), w in g.props.items() if k == path.dst_key}
        full = _compose(full, kout)
    return full


def brute_edge_type_member(g: CommonGraph, e: EdgeTriple, t: EdgeType, registry=None) -> bool:
    """Edge-type membership by enumerating, at every EBoth, all
    3^|src| * 3^|dst| splits of the endpoint records into two parts whose
    union is the record (shared keys allowed)."""

    def splits(r: Record) -> Iterator[Tuple[Record, Record]]:
        keys = sorted(r)
        for sides in itertools.product((0, 1, 2), repeat=len(keys)):
            yield (
                {k: r[k] for k, side in zip(keys, sides) if side != 1},
                {k: r[k] for k, side in zip(keys, sides) if side != 0},
            )

    def member(src: Record, dst: Record, t: EdgeType) -> bool:
        if isinstance(t, ET):
            return (
                (t.labels is None or e.p in t.labels)
                and content_member(src, t.src, registry)
                and content_member(dst, t.dst, registry)
            )
        if isinstance(t, EEither):
            return member(src, dst, t.left) or member(src, dst, t.right)
        if isinstance(t, EBoth):
            return any(
                member(s1, d1, t.left) and member(s2, d2, t.right)
                for s1, s2 in splits(src)
                for d1, d2 in splits(dst)
            )
        raise TriformError(f"unknown edge type {t!r}")

    return member(content(g, e.s), content(g, e.o), t)


def _expr_language(
    g: CommonGraph,
    expr: sx.TripleExpr,
    triples: Sequence[SignedTriple],
    registry=None,
) -> Set[FrozenSet[SignedTriple]]:
    """The subsets of the neighborhood generated by the expression,
    computed by direct enumeration of the denotational semantics."""
    if isinstance(expr, sx.Eps):
        return {frozenset()}
    if isinstance(expr, sx.TC):
        # the top shape takes every far end, whatever its neighbourhood size
        top = expr.shape == sx.top_shape()
        out = set()
        for t in triples:
            if t.name == expr.q and t.direction == expr.direction:
                if top or brute_shex_satisfies(g, t.endpoint, expr.shape, registry):
                    out.add(frozenset({t}))
        return out
    if isinstance(expr, sx.WildOut):
        return {
            frozenset({t})
            for t in triples
            if t.direction == FWD and t.name not in expr.excluded
        }
    if isinstance(expr, sx.WildIn):
        return {
            frozenset({t})
            for t in triples
            if t.direction == INV and t.name not in expr.excluded
        }
    if isinstance(expr, sx.Seq):
        left = _expr_language(g, expr.left, triples, registry)
        right = _expr_language(g, expr.right, triples, registry)
        return {a | b for a in left for b in right if not (a & b)}
    if isinstance(expr, sx.Alt):
        return _expr_language(g, expr.left, triples, registry) | _expr_language(
            g, expr.right, triples, registry
        )
    if isinstance(expr, sx.StarE):
        base = _expr_language(g, expr.inner, triples, registry)
        acc: Set[FrozenSet[SignedTriple]] = {frozenset()}
        while True:
            grown = acc | {a | b for a in acc for b in base if not (a & b)}
            if grown == acc:
                return acc
            acc = grown
    raise TriformError(f"unknown triple expression {expr!r}")


def brute_match_oracle(
    g: CommonGraph,
    v: Focus,
    expr: sx.TripleExpr,
    openness: sx.Openness,
    registry=None,
) -> bool:
    """Reference matcher: enumerate the full language of the expression
    plus wildcards and test neighborhood membership."""
    triples = _oracle_neigh(g, v)
    suffix: sx.TripleExpr = sx.StarE(sx.WildIn(openness.r))
    if isinstance(openness, sx.Open):
        suffix = sx.Seq(suffix, sx.StarE(sx.WildOut(openness.q)))
    language = _expr_language(g, sx.Seq(expr, suffix), triples, registry)
    return frozenset(triples) in language


def brute_shex_satisfies(g: CommonGraph, v: Focus, shape: sx.ShexShape, registry=None) -> bool:
    if isinstance(shape, sx.STestConst):
        return isinstance(v, Val) and v.value == shape.c
    if isinstance(shape, sx.STestType):
        from .model import value_type_member

        return isinstance(v, Val) and value_type_member(v.value, shape.t, registry)
    if isinstance(shape, sx.SNeigh):
        return brute_match_oracle(g, v, shape.expr, shape.openness, registry)
    if isinstance(shape, sx.SAnd):
        return brute_shex_satisfies(g, v, shape.left, registry) and brute_shex_satisfies(
            g, v, shape.right, registry
        )
    if isinstance(shape, sx.SOr):
        return brute_shex_satisfies(g, v, shape.left, registry) or brute_shex_satisfies(
            g, v, shape.right, registry
        )
    if isinstance(shape, sx.SNot):
        return not brute_shex_satisfies(g, v, shape.inner, registry)
    raise TriformError(f"unknown ShEx shape {shape!r}")


# ---------------------------------------------------------------------------
# Direct standard-ShEx semantics (reference for the bridge rewrites)


def _x_language(
    g: CommonGraph,
    te: Optional[ssx.STripleExpr],
    triples: Sequence[SignedTriple],
    registry=None,
) -> Set[FrozenSet[SignedTriple]]:
    if te is None:
        return {frozenset()}
    if isinstance(te, ssx.XTC):
        out = set()
        for t in triples:
            if t.name == te.q and t.direction == te.direction:
                if te.shape is None or sshex_satisfies_oracle(g, t.endpoint, te.shape, registry):
                    out.add(frozenset({t}))
        return out
    if isinstance(te, ssx.XSeq):
        left = _x_language(g, te.left, triples, registry)
        right = _x_language(g, te.right, triples, registry)
        return {a | b for a in left for b in right if not (a & b)}
    if isinstance(te, ssx.XAlt):
        return _x_language(g, te.left, triples, registry) | _x_language(
            g, te.right, triples, registry
        )
    if isinstance(te, ssx.XRepeat):
        base = _x_language(g, te.inner, triples, registry)
        # any union of >= min parts is reachable with at most
        # min + |triples| parts (nonempty parts are disjoint)
        limit = te.max if te.max is not None else te.min + len(triples) + 1
        layer: Set[FrozenSet[SignedTriple]] = {frozenset()}
        out: Set[FrozenSet[SignedTriple]] = set()
        for j in range(limit + 1):
            if j >= te.min:
                out |= layer
            layer = {a | b for a in layer for b in base if not (a & b)}
            if not layer:
                break
        return out
    raise TriformError(f"unknown standard triple expression {te!r}")


def sshex_satisfies_oracle(g: CommonGraph, v: Focus, se: ssx.SShapeExpr, registry=None) -> bool:
    """Direct standard-ShEx satisfaction, including closed and extra.

    A neighborhood matches when some subset is generated by the triple
    expression and every leftover triple is tolerated: names mentioned
    directly in the expression require the extra modifier and failure of
    all attached constraints; unmentioned extras pass; otherwise
    incoming triples pass and outgoing ones need a non-closed shape.
    """
    if isinstance(se, ssx.XTestConst):
        return isinstance(v, Val) and v.value == se.c
    if isinstance(se, ssx.XTestType):
        from .model import value_type_member

        return isinstance(v, Val) and value_type_member(v.value, se.t, registry)
    if isinstance(se, ssx.XAnd):
        return sshex_satisfies_oracle(g, v, se.left, registry) and sshex_satisfies_oracle(
            g, v, se.right, registry
        )
    if isinstance(se, ssx.XOr):
        return sshex_satisfies_oracle(g, v, se.left, registry) or sshex_satisfies_oracle(
            g, v, se.right, registry
        )
    if isinstance(se, ssx.XNot):
        return not sshex_satisfies_oracle(g, v, se.inner, registry)
    if isinstance(se, ssx.XShape):
        triples = _oracle_neigh(g, v)
        mentioned = ssx.preds_sshex(se.expr)
        attached: Dict[Tuple[str, str], List[Optional[ssx.SShapeExpr]]] = {}
        for tc in ssx._direct_tcs(se.expr):
            attached.setdefault((tc.q, tc.direction), []).append(tc.shape)
        language = _x_language(g, se.expr, triples, registry)
        for matched in language:
            ok = True
            for t in triples:
                if t in matched:
                    continue
                key = (t.name, t.direction)
                if key in mentioned:
                    if key not in se.extra:
                        ok = False
                        break
                    fails_all = all(
                        s is not None
                        and not sshex_satisfies_oracle(g, t.endpoint, s, registry)
                        for s in attached.get(key, [])
                    )
                    if not fails_all:
                        ok = False
                        break
                elif key in se.extra:
                    continue
                elif t.direction == INV:
                    continue
                elif se.closed:
                    ok = False
                    break
            if ok:
                return True
        return False
    raise TriformError(f"unknown standard shape {se!r}")


# ---------------------------------------------------------------------------
# Metamorphic graph surgery


def double(g: CommonGraph) -> Tuple[CommonGraph, Dict[str, str]]:
    """A disjoint copy glued alongside the original, with the bijection."""
    suffix = "_d"
    nodes = sorted(g.nodes)
    while any((u + suffix) in g.nodes for u in nodes):
        suffix += "_"
    mapping = {u: u + suffix for u in nodes}
    edges = list(g.edges) + [EdgeTriple(mapping[e.s], e.p, mapping[e.o]) for e in g.edges]
    props = [PropTriple(n, k, w) for (n, k), w in g.props.items()]
    props += [PropTriple(mapping[n], k, w) for (n, k), w in g.props.items()]
    return build_graph(edges, props), mapping


def copyswap(g: CommonGraph, e: EdgeTriple) -> CommonGraph:
    """Remove the edge and its copy from the double, then cross them over."""
    if e not in g.edges:
        raise EdgeNotInGraph(f"{e!r} does not occur in the graph")
    doubled, d = double(g)
    e_copy = EdgeTriple(d[e.s], e.p, d[e.o])
    edges = (set(doubled.edges) - {e, e_copy}) | {
        EdgeTriple(e.s, e.p, d[e.o]),
        EdgeTriple(d[e.s], e.p, e.o),
    }
    props = [PropTriple(n, k, w) for (n, k), w in doubled.props.items()]
    return build_graph(sorted(edges), props)


def gen_cn_neighbourhood(
    c: str, n: int, preds: Sequence[str], p: GenParams
) -> CommonGraph:
    """A star around ``c`` on fresh targets where every used predicate
    occurs at least ``n`` times."""
    if n < 1:
        raise TriformError("neighbourhood multiplicity must be at least 1")
    if not preds:
        raise TriformError("at least one predicate is required")
    rng = random.Random(f"cn-{p.seed}-{c}-{n}")
    edges = []
    i = 0
    for q in sorted(set(preds)):
        for _ in range(n + rng.randrange(0, 3)):
            edges.append(EdgeTriple(c, q, f"{c}_t{i}"))
            i += 1
    return build_graph(edges, [])


def similar(g1: CommonGraph, g2: CommonGraph) -> bool:
    """Same occurring-predicate sets."""
    return {e.p for e in g1.edges} == {e.p for e in g2.edges}


# ---------------------------------------------------------------------------
# Differential runner


@dataclass
class AgreementReport:
    verdict_pg: Optional[bool]
    verdict_shacl: Optional[bool]
    verdict_shex: Optional[bool]
    capped: bool = False
    witness: Optional[Tuple[int, Focus, str]] = None

    @property
    def agree(self) -> bool:
        if self.capped:
            return True
        return self.verdict_pg == self.verdict_shacl == self.verdict_shex and self.witness is None


def differential_check(g: CommonGraph, rules: Sequence[PgRule], cap: Optional[int] = None) -> AgreementReport:
    """Validate under PG semantics and under both translations.

    The translations are rule-for-rule, so agreement is checked per
    (rule, focus) violation, which is stronger than comparing violated
    rules or the overall booleans: the witness is the first pair, in
    report order, that not all three dialects violate
    (:func:`first_divergence`).
    ShEx capability errors (an explicit row cap, or the matcher's state
    bound or recursion depth) are reported as capped, never as divergence.
    The rules are classified once, for all three dialects.
    """
    rules = CheckedSchema(rules)
    pg_report = cogsl_validate(g, rules)
    shacl_report = shacl_validate(g, cogsl_to_shacl(rules))
    try:
        shex_report = shex_validate(g, cogsl_to_shex(rules), cap=cap)
    except NeighborhoodTooLarge:
        return AgreementReport(pg_report.valid, shacl_report.valid, None, capped=True)
    witness = first_divergence({"pg": pg_report, "shacl": shacl_report, "shex": shex_report})
    return AgreementReport(pg_report.valid, shacl_report.valid, shex_report.valid, witness=witness)


@dataclass
class CampaignSummary:
    trials: int = 0
    agreed: int = 0
    capped: int = 0
    divergences: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def shrink_divergence(
    g: CommonGraph,
    rules: Sequence[PgRule],
    cap: Optional[int] = None,
    keep=None,
) -> CommonGraph:
    """Greedy triple deletion preserving the disagreement.

    ``keep`` overrides the predicate being preserved (used by tests);
    by default it is "the three dialects disagree on this graph".
    """

    def disagrees(graph: CommonGraph) -> bool:
        report = differential_check(graph, rules, cap=cap)
        return not report.capped and not report.agree

    if keep is None:
        keep = disagrees
    current = g
    changed = True
    while changed:
        changed = False
        for e in sorted(current.edges):
            smaller = build_graph(
                [x for x in current.edges if x != e],
                [PropTriple(n, k, w) for (n, k), w in current.props.items()],
            )
            if keep(smaller):
                current = smaller
                changed = True
                break
        if changed:
            continue
        for (n, k) in sorted(current.props):
            smaller = build_graph(
                list(current.edges),
                [
                    PropTriple(m, kk, w)
                    for (m, kk), w in current.props.items()
                    if (m, kk) != (n, k)
                ],
            )
            if keep(smaller):
                current = smaller
                changed = True
                break
    return current


def run_campaign(
    trials: int,
    base: Optional[GenParams] = None,
    seed: int = 0,
    cap: Optional[int] = None,
) -> CampaignSummary:
    """Seeded three-way agreement campaign over random (graph, schema) pairs."""
    base = base or GenParams(node_count=8, schema_size_budget=5)
    summary = CampaignSummary()
    for i in range(trials):
        params = base.with_seed(seed + i)
        g = gen_graph(params)
        rules = gen_cogsl_schema(params)
        report = differential_check(g, rules, cap=cap)
        summary.trials += 1
        if report.capped:
            summary.capped += 1
        elif report.agree:
            summary.agreed += 1
        else:
            small = shrink_divergence(g, rules, cap=cap)
            summary.divergences.append(
                {
                    "seed": seed + i,
                    "rule": report.witness[0] if report.witness else None,
                    "focus": focus_to_json(report.witness[1]) if report.witness else None,
                    "witness": report.witness[2] if report.witness else None,
                    "graph_size": (len(small.edges), len(small.props)),
                }
            )
    return summary
