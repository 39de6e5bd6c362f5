"""ShEx neighborhood matching read row by row, for the tests.

The evaluator decides an element from its row profile and reads only
the far ends of its tested groups.  These helpers count a profile from
the element's own adjacency lists, and give each row of an element its
own signature, from the template's plan and the set evaluator, so the
kernel can be checked on the rows themselves.
"""

from triform import _bagmatch_py
from triform.model import FWD, INV, Node, SignedTriple, Val, focus_elem
from triform.shex import EvalContext, _sat, _template, default_cap


def row_profile(g, x):
    """The names of the forward and of the inverse rows of the raw
    element ``x``, each sorted, counted from its adjacency lists: the
    per-element oracle of ``CommonGraph.row_profiles``."""
    if type(x) is not str:
        return (), tuple(sorted(k for _, k in g.value_owners(x)))
    fwd = sorted([e.p for e in g.out_edges(x)] + list(g.node_props(x)))
    return tuple(fwd), tuple(sorted(e.p for e in g.in_edges(x)))


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
        sig, tested = t.plan(row.name, row.direction)
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
    return _bagmatch_py.count_witness(t.program, classes, pools)
