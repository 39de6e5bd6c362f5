"""Constructions that only the tests use, kept out of ``triform``.

``edge_type_to_path`` states an edge type, or its negation, as a
node-to-node PG path, the reading that the edge-type tests check
``pgschema.edge_type_member`` against; ``normalize_edge_type`` splits an
edge type into primitives for it.  ``loose_graph_type`` is the
permissive graph type of a rule list, ``filter_path`` the one-filter PG
path and ``sorted_foci`` foci in report order.
"""

import itertools
from typing import Iterable, List, Sequence, Set

from triform.model import Focus, InstanceTooLarge, TriformError, focus_sort_key
from triform.pgschema import (
    ET,
    CAny,
    CBoth,
    CEmpty,
    CField,
    ContentDisjunct,
    ContentType,
    EdgeType,
    FilterKind,
    FNotOfType,
    FOfType,
    GraphType,
    NodePath,
    PConcat,
    PFilter,
    PgPath,
    PgRule,
    PNotPreds,
    PPred,
    PUnion,
    concat_all,
)


def sorted_foci(foci: Iterable[Focus]) -> List[Focus]:
    return sorted(foci, key=focus_sort_key)


def filter_path(kind: FilterKind) -> PgPath:
    return PgPath(None, PFilter(kind), None)


def loose_graph_type(constraints: Sequence[PgRule]) -> GraphType:
    """The permissive reading: trivial node and edge type sets, so only
    the constraints bite."""
    return GraphType((CAny(),), (ET(CAny(), None, CAny()),), tuple(constraints))


def union_all(parts: Sequence[NodePath]) -> NodePath:
    """Union folded as a balanced tree (large unions stay shallow)."""
    if not parts:
        raise TriformError("empty path union")
    layer = list(parts)
    while len(layer) > 1:
        nxt = [PUnion(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def disjunct_to_content(d: ContentDisjunct) -> ContentType:
    """A union-free content type with the disjunct's semantics."""
    fields: List[ContentType] = [CField(k, vt) for k, vt in d.reqs]
    if d.open:
        fields.append(CAny())
    elif not fields:
        return CEmpty()
    out = fields[0]
    for f in fields[1:]:
        out = CBoth(out, f)
    return out


def normalize_edge_type(t: EdgeType) -> List[ET]:
    """Rewrite to a union of primitives: union-free contents and a label
    part that is the wildcard, a singleton, or empty."""
    out: List[ET] = []
    for ds, labels, dd in t.dnf:
        src, dst = disjunct_to_content(ds), disjunct_to_content(dd)
        if labels is None or len(labels) <= 1:
            out.append(ET(src, labels, dst))
        else:
            out.extend(ET(src, frozenset({p}), dst) for p in sorted(labels))
    return out


_EMPTY_REL = PFilter(FNotOfType(CAny()))  # empty relation: the negated trivial filter


def edge_type_to_path(t: EdgeType, negated: bool = False) -> NodePath:
    """Express an edge type (or its negation) as a node-to-node path.

    Positive: one filter-step-filter concatenation per primitive, joined
    by union.  Negated: one term per way of refuting every primitive
    (source filter fails, label misses, or target filter fails), with
    label misses merged into a single negated label set.  The negated
    grid has 3^k terms for k primitives and is refused beyond 9.
    """
    prims = normalize_edge_type(t)
    if negated and len(prims) > 9:
        raise InstanceTooLarge(f"negated expansion of {len(prims)} primitives would need 3^{len(prims)} terms")
    if not negated:
        parts: List[NodePath] = []
        for prim in prims:
            if prim.labels is not None and not prim.labels:
                parts.append(_EMPTY_REL)
                continue
            step: NodePath
            if prim.labels is None:
                step = PNotPreds(frozenset())
            else:
                step = PPred(next(iter(prim.labels)))
            parts.append(PConcat(PFilter(FOfType(prim.src)), PConcat(step, PFilter(FOfType(prim.dst)))))
        return union_all(parts)
    terms: List[NodePath] = []
    for choice in itertools.product(("src", "label", "dst"), repeat=len(prims)):
        src_filters: List[NodePath] = []
        dst_filters: List[NodePath] = []
        excluded: Set[str] = set()
        impossible = False
        for prim, why in zip(prims, choice):
            if why == "src":
                src_filters.append(PFilter(FNotOfType(prim.src)))
            elif why == "dst":
                dst_filters.append(PFilter(FNotOfType(prim.dst)))
            else:
                if prim.labels is None:
                    impossible = True  # wildcard labels cannot miss
                    break
                excluded |= prim.labels
        if impossible:
            continue
        step = PNotPreds(frozenset(excluded))
        terms.append(concat_all(src_filters + [step] + dst_filters))
    if not terms:
        return _EMPTY_REL
    return union_all(terms)
