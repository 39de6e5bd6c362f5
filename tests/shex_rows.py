"""ShEx neighborhood matching read row by row, for the tests.

The evaluator decides an element from its row profile and reads only
the far ends of its tested groups.  These helpers count a profile from
the element's own adjacency lists, give each row of an element its own
signature, from the template's plan and the set evaluator, so the
kernel can be checked on the rows themselves, and decide a shape at one
element with every neighborhood read row by row (:func:`row_sat`).
"""

from collections import Counter

from triform import _bagmatch_py
from triform.model import FWD, INV, Node, SignedTriple, Val, Value, focus_elem, value_type_member
from triform.shex import SAnd, SNeigh, SNot, SOr, STestConst, EvalContext, _sat, _template, _Top, default_cap


def row_profile(g, x):
    """The (name, count) pairs of the forward and of the inverse rows of
    the raw element ``x``, each sorted by name, counted from its
    adjacency lists: the per-element oracle of ``CommonGraph.row_profiles``."""
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


def row_signatures(ctx, g, t, x):
    """Each row of ``x`` with its signature under the template ``t``, in
    row order; each tested far end is decided on its own."""
    out = []
    for row, far in signed_rows(g, x):
        sig, tested, _ = t.plan(row.name, row.direction)
        for bit, nested in tested:
            if far in _sat(ctx, g, nested, {far}):
                sig |= bit
        out.append((row, sig))
    return out


def match_witness(g, v, expr, openness, cap=None, registry=None):
    """One consumption witness of ``expr`` followed by the openness
    wildcards at ``v``: (program node, consumed signed triples) pairs,
    or None when the neighborhood does not match."""
    ctx = EvalContext(cap if cap is not None else default_cap(), registry)
    t = _template(ctx, expr, openness)
    rows = row_signatures(ctx, g, t, focus_elem(v))
    classes = sorted({sig for _, sig in rows})
    pools = [[row for row, sig in rows if sig == c] for c in classes]
    return _bagmatch_py.count_witness(t.program.kernel, classes, pools)


def row_sat(ctx, g, c, x, templates):
    """Whether the raw element ``x`` satisfies the compiled shape ``c``,
    decided at ``x`` alone: a neighborhood shape reads every row of ``x``
    (no profile, no memo), gives each row its own signature, deciding
    each tested far end by this function, and runs the kernel on the bag.
    ``templates`` holds the templates built so far, by compiled shape."""
    kind = c.kind
    if kind is SNeigh:
        t = templates.get(c)
        if t is None:
            t = templates[c] = _template(ctx, c.shape.expr, c.shape.openness)
        sigs = []
        for row, far in signed_rows(g, x):
            sig, tested, _ = t.plan(row.name, row.direction)
            for bit, nested in tested:
                if row_sat(ctx, g, nested, far, templates):
                    sig |= bit
            sigs.append(sig)
        classes = sorted(set(sigs))
        return _bagmatch_py.count_match(t.program.kernel, classes, [sigs.count(sig) for sig in classes])
    if kind is _Top:
        return True
    if kind is SAnd:
        return row_sat(ctx, g, c.left, x, templates) and row_sat(ctx, g, c.right, x, templates)
    if kind is SOr:
        return row_sat(ctx, g, c.left, x, templates) or row_sat(ctx, g, c.right, x, templates)
    if kind is SNot:
        return not row_sat(ctx, g, c.left, x, templates)
    if kind is STestConst:
        return x == c.shape.c
    return type(x) is Value and value_type_member(x, c.shape.t, ctx.registry)
