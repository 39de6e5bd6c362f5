"""ShEx neighborhood matching read row by row, for the tests.

The evaluator decides an element from the counts of the names a
template mentions and reads only the far ends of its tested groups.
These helpers count an element's rows per name from
the element's own adjacency lists, give each row of an element its own
signature, from the template's plan and the set evaluator, so the
kernel can be checked on the rows themselves, and decide a shape at one
element with every neighborhood read row by row (:func:`row_sat`).
"""

from collections import Counter

from triform import _bagmatch_py
from triform.model import FWD, INV, Node, SignedTriple, Val, Value, focus_elem, value_type_member
from triform.core import And, Not, Or, TestConst, TestType, Top, _sat
from triform.shex import SNeigh, ShexContext, _is_top, _template, default_cap


def row_profile(g, x):
    """The (name, count) pairs of the forward and of the inverse rows of
    the raw element ``x``, each sorted by name, counted from its
    adjacency lists: the per-element oracle of ``CommonGraph.counts``."""
    if type(x) is not str:
        return (), tuple(sorted(Counter(k for _, k in g.value_owners(x)).items()))
    fwd = Counter([e.p for e in g.out_edges(x)] + list(g.node_props(x)))
    return tuple(sorted(fwd.items())), tuple(sorted(Counter(e.p for e in g.in_edges(x)).items()))


def signed_rows(g, x):
    """The rows of the raw element ``x`` in row order, each as a signed
    triple with its raw far end: a node's out-edges, (key, value) pairs
    and in-edges, or a value's owners."""
    if type(x) is not str:
        return [(SignedTriple(k, True, INV, Node(n)), n) for n, k in g.value_owners(x)]
    rows = [(SignedTriple(e.p, False, FWD, Node(e.o)), e.o) for e in g.out_edges(x)]
    rows += [(SignedTriple(k, True, FWD, Val(w)), w) for k, w in g.node_props(x).items()]
    rows += [(SignedTriple(e.p, False, INV, Node(e.s)), e.s) for e in g.in_edges(x)]
    return rows


def row_signatures(ctx, t, x):
    """Each row of ``x`` with its signature under the template ``t``, in
    row order; each tested far end is decided on its own."""
    out = []
    for row, far in signed_rows(ctx.g, x):
        sig, tested = t.plan(row.name, row.direction)
        for bit, sid in tested:
            if far in _sat(ctx, ctx.shapes[sid], {far}):
                sig |= bit
        out.append((row, sig))
    return out


def match_witness(g, v, expr, openness, cap=None, registry=None):
    """One consumption witness of ``expr`` followed by the openness
    wildcards at ``v``: (program node, consumed signed triples) pairs,
    or None when the neighborhood does not match."""
    ctx = ShexContext(g, cap if cap is not None else default_cap(), registry)
    t = _template(ctx, expr, openness)
    rows = row_signatures(ctx, t, focus_elem(v))
    classes = sorted({sig for _, sig in rows})
    pools = [[row for row, sig in rows if sig == c] for c in classes]
    return _bagmatch_py.count_witness(t.kernel, classes, pools)


def row_sat(ctx, shape, x, templates):
    """Whether the raw element ``x`` satisfies ``shape``, decided at ``x``
    alone: a neighborhood shape reads every row of ``x`` (no key, no
    memo), gives each row its own signature, deciding each tested far end
    by this function, and runs the kernel on the bag.  ``templates`` holds
    the templates built so far, by ``id`` of their shape."""
    kind = type(shape)
    if kind is SNeigh:
        if _is_top(shape.expr, shape.openness):
            return True
        t = templates.get(id(shape))
        if t is None:
            t = templates[id(shape)] = _template(ctx, shape.expr, shape.openness)
        sigs = []
        for row, far in signed_rows(ctx.g, x):
            sig, tested = t.plan(row.name, row.direction)
            for bit, sid in tested:
                if row_sat(ctx, ctx.shapes[sid], far, templates):
                    sig |= bit
            sigs.append(sig)
        classes = sorted(set(sigs))
        return _bagmatch_py.count_match(t.kernel, classes, [sigs.count(sig) for sig in classes])
    if kind is Top:
        return True
    if kind is And:
        return row_sat(ctx, shape.left, x, templates) and row_sat(ctx, shape.right, x, templates)
    if kind is Or:
        return row_sat(ctx, shape.left, x, templates) or row_sat(ctx, shape.right, x, templates)
    if kind is Not:
        return not row_sat(ctx, shape.inner, x, templates)
    if kind is TestConst:
        return x == shape.c
    assert kind is TestType, shape
    return type(x) is Value and value_type_member(x, shape.t, ctx.registry)
