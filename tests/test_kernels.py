"""The matcher kernel decides the language of its program.

The kernel is checked against a brute-force program decider that
builds, bottom-up, the set of masks each node can consume; the decider
ignores the count bounds the kernel prunes with.  A bag of rows is given
to the decider one bit per row, each consumer's mask the rows whose
signature names it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from triform import _bagmatch_py
from triform._bagmatch_py import (
    OP_ALT,
    OP_EPS,
    OP_LEAF,
    OP_SEQ,
    OP_STAR,
    OP_WILDSTAR,
    _can,
    _start,
    count_bounds,
    under_masks,
)
from triform.model import EdgeTriple, Node, build_graph
from triform.shex import (
    Alt,
    EvalContext,
    HalfOpen,
    Seq,
    StarE,
    TC,
    _template,
    desugar_repetition,
    match_triple_expr,
    open_closure,
    top_shape,
)

from shex_rows import row_signatures


class ProgramBuilder:
    """Appends nodes to the kernel's parallel lists, children first."""

    def __init__(self):
        self.ops, self.lefts, self.rights, self.support = [], [], [], []
        self.lo, self.hi = [], []

    def emit(self, op, a=-1, b=-1, mask=0):
        sup = mask
        if a >= 0:
            sup |= self.support[a]
        if b >= 0:
            sup |= self.support[b]
        self.ops.append(op)
        self.lefts.append(a)
        self.rights.append(b)
        self.support.append(sup)
        lo, hi = count_bounds(op, self.lo, self.hi, a, b)
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.ops) - 1

    def program(self, root):
        return self.ops, self.lefts, self.rights, self.support, self.lo, self.hi, root


def gen_program(rng, n_bits, size):
    p = ProgramBuilder()

    def build(depth):
        if depth == 0 or rng.random() < 0.35:
            roll = rng.random()
            if roll < 0.2:
                return p.emit(OP_EPS)
            mask = rng.getrandbits(n_bits)
            op = OP_LEAF if roll < 0.8 else OP_WILDSTAR
            return p.emit(op, mask=mask)
        roll = rng.randrange(3)
        if roll == 0:
            return p.emit(OP_SEQ, build(depth - 1), build(depth - 1))
        if roll == 1:
            return p.emit(OP_ALT, build(depth - 1), build(depth - 1))
        return p.emit(OP_STAR, build(depth - 1))

    return p.program(build(size))


def _combine(xs, ys):
    return {x | y for x in xs for y in ys if not x & y}


def brute_languages(program):
    """For each node, the set of masks it consumes exactly (bottom-up;
    children always precede their parents).  A leaf's or wildcard's own
    mask is its support."""
    ops, lefts, rights, support = program[:4]
    langs = []
    for i, op in enumerate(ops):
        if op == OP_EPS:
            lang = {0}
        elif op == OP_LEAF:
            lang = {1 << b for b in range(support[i].bit_length()) if support[i] >> b & 1}
        elif op == OP_WILDSTAR:
            lang = {s for s in range(support[i] + 1) if s & support[i] == s}
        elif op == OP_SEQ:
            lang = _combine(langs[lefts[i]], langs[rights[i]])
        elif op == OP_ALT:
            lang = langs[lefts[i]] | langs[rights[i]]
        else:
            lang = {0}
            while True:
                grown = lang | _combine(langs[lefts[i]], lang)
                if grown == lang:
                    break
                lang = grown
        langs.append(lang)
    return langs


def test_kernels_agree_on_random_programs():
    rng = random.Random(97)
    for _ in range(300):
        n_bits = rng.randrange(0, 9)
        program = gen_program(rng, max(n_bits, 1), 3)
        langs = brute_languages(program)
        lo, hi = program[4], program[5]
        for i, lang in enumerate(langs):
            # the count bounds are sound: no consumed mask falls outside them
            assert all(lo[i] <= m.bit_count() <= hi[i] for m in lang), (program, i)
        accepted = langs[program[-1]]
        for mask in range(1 << n_bits):
            assert _bagmatch_py.bag_match(*program, mask) == (mask in accepted), (program, mask)


_BITS = 6

_trees = st.recursive(
    st.one_of(
        st.just(("eps",)),
        st.tuples(st.sampled_from(["leaf", "wildstar"]), st.integers(0, (1 << _BITS) - 1)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["seq", "alt"]), kids, kids),
        st.tuples(st.just("star"), kids),
    ),
    max_leaves=8,
)

_OPS = {"eps": OP_EPS, "leaf": OP_LEAF, "wildstar": OP_WILDSTAR, "seq": OP_SEQ, "alt": OP_ALT, "star": OP_STAR}


def flatten(tree):
    """A program tree as the kernel's parallel lists."""
    p = ProgramBuilder()

    def walk(t):
        if t[0] in ("leaf", "wildstar"):
            return p.emit(_OPS[t[0]], mask=t[1])
        return p.emit(_OPS[t[0]], *[walk(c) for c in t[1:]])

    return p.program(walk(tree))


@settings(max_examples=300, deadline=None, database=None)
@given(_trees, st.integers(0, (1 << _BITS) - 1))
def test_kernel_matches_brute_decider_property(tree, mask):
    program = flatten(tree)
    accepted = brute_languages(program)[program[-1]]
    assert _bagmatch_py.bag_match(*program, mask) == (mask in accepted)
    witness = _bagmatch_py.bag_match_witness(*program, mask)
    assert (witness is not None) == (mask in accepted)
    if witness is not None:
        check_witness(program, witness, mask)


# programs as ShEx flattens them: a star's child is never a lone leaf
# (the star of one constraint is a WILDSTAR node)
_shex_trees = st.recursive(
    st.sampled_from([("eps",), ("leaf",), ("wildstar",)]),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["seq", "alt"]), kids, kids),
        st.tuples(st.just("star"), st.tuples(st.sampled_from(["seq", "alt"]), kids, kids)),
    ),
    max_leaves=7,
)


def flatten_unlabelled(tree):
    """A program tree without masks as the kernel's ``Program``: ops, lefts, rights, under, lo, hi, root."""
    p = ProgramBuilder()

    def walk(t):
        return p.emit(_OPS[t[0]], *[walk(c) for c in t[1:]])

    root = walk(tree)
    return p.ops, p.lefts, p.rights, under_masks(p.ops, p.lefts, p.rights), p.lo, p.hi, root


def brute_count_match(program, sigs, counts):
    """The brute decider on the bag of ``counts[c]`` rows of signature ``sigs[c]``, one bit per row."""
    ops, lefts, rights = program[:3]
    support, bit = [0] * len(ops), 0
    for sig, n in zip(sigs, counts):
        rows = ((1 << n) - 1) << bit
        for i in range(len(ops)):
            if sig >> i & 1:
                support[i] |= rows
        bit += n
    return (1 << bit) - 1 in brute_languages((ops, lefts, rights, support))[program[-1]]


@settings(max_examples=300, deadline=None, database=None)
@given(_shex_trees, st.data())
def test_free_classes_count_once_property(tree, data):
    # a free class, whose signature holds WILDSTAR nodes only (or none),
    # gets the verdict of one row for any count of at least one
    program = flatten_unlabelled(tree)
    ops = program[0]
    consumers = sum(1 << i for i, op in enumerate(ops) if op in (OP_LEAF, OP_WILDSTAR))
    wild = sum(1 << i for i, op in enumerate(ops) if op == OP_WILDSTAR)
    bag = {}
    for _ in range(data.draw(st.integers(1, 3))):
        within = data.draw(st.sampled_from([consumers, wild]))
        sig = data.draw(st.integers(0, within)) & within
        bag[sig] = bag.get(sig, 0) + data.draw(st.integers(1, 3))
    sigs, counts = list(bag), list(bag.values())
    clamped = [n if sig & ~wild else 1 for sig, n in bag.items()]
    verdict = _bagmatch_py.count_match(program, sigs, clamped)
    assert _bagmatch_py.count_match(program, sigs, counts) == verdict
    assert brute_count_match(program, sigs, counts) == verdict


def test_wide_seq_of_leaf_and_wildcard_is_decided():
    # SEQ(LEAF, WILDSTAR) over 48 triples: the leaf takes one shared or
    # forced bit, the wildcard the rest; an unpruned DP enumerates 2^48
    # submasks at the root
    full = (1 << 48) - 1
    bit = 1 << 17

    def program(leaf, wild):
        p = ProgramBuilder()
        return p.program(p.emit(OP_SEQ, p.emit(OP_LEAF, mask=leaf), p.emit(OP_WILDSTAR, mask=wild)))

    assert _bagmatch_py.bag_match(*program(bit, full), full)
    assert _bagmatch_py.bag_match(*program(bit, full ^ bit), full)
    assert not _bagmatch_py.bag_match(*program(0, full), full)
    assert not _bagmatch_py.bag_match(*program(bit, full ^ bit ^ 1), full)
    witness = _bagmatch_py.bag_match_witness(*program(bit, full), full)
    assert sorted(witness) == [(0, bit), (1, full ^ bit)]


def check_witness(program, witness, full):
    """Each consumer takes what it may, and the parts tile ``full``."""
    ops, _, _, support = program[:4]
    covered = 0
    for node, mask in witness:
        assert mask & ~support[node] == 0
        assert ops[node] == OP_WILDSTAR or (ops[node] == OP_LEAF and mask & (mask - 1) == 0)
        assert covered & mask == 0  # pairwise disjoint
        covered |= mask
    assert covered == full


def test_witness_matches_decision():
    rng = random.Random(101)
    for _ in range(200):
        n_bits = rng.randrange(1, 7)
        program = gen_program(rng, n_bits, 3)
        full = (1 << n_bits) - 1
        decided = _bagmatch_py.bag_match(*program, full)
        witness = _bagmatch_py.bag_match_witness(*program, full)
        assert (witness is not None) == decided
        if witness is not None:
            check_witness(program, witness, full)


def test_wide_neighborhoods_route_to_pure():
    g = build_graph([EdgeTriple("c", "p", f"t{i}") for i in range(35)], [])
    expr = StarE(TC("p", "fwd", top_shape()))
    assert match_triple_expr(g, Node("c"), expr, HalfOpen(frozenset()), cap=40)
    drop_one = StarE(TC("q", "fwd", top_shape()))
    assert not match_triple_expr(g, Node("c"), drop_one, HalfOpen(frozenset()), cap=40)


def star_graph(n_p, n_q):
    edges = [EdgeTriple("c", "p", f"a{i}") for i in range(n_p)]
    edges += [EdgeTriple("c", "q", f"b{i}") for i in range(n_q)]
    return build_graph(edges, [])


def decide_with_memo(g, expr, openness):
    """The verdict at focus ``c`` and the number of (node, counts) states
    the kernel memoized deciding it."""
    ctx = EvalContext(cap=128)
    template = _template(ctx, expr, openness)
    sigs = [sig for _, sig in row_signatures(ctx, g, template, "c")]
    classes = sorted(set(sigs))
    run, full, total = _start(template.program.kernel, classes, [sigs.count(sig) for sig in classes])
    verdict = _can(run, template.program.kernel[-1], full, total)
    return verdict, len(run[-1])  # the run's memo


def test_at_most_k_over_24_triples_is_decided_by_counts():
    # 12 p-triples the body must take, 12 q-triples the openness
    # wildcard takes; without count bounds every exactly-i branch of
    # the at-most-k alternation enumerates the subsets of the p-triples
    g = star_graph(12, 12)
    tc = TC("p", "fwd", top_shape())
    for k, want, states in ((12, True, 24), (11, False, 1)):
        shape = open_closure(desugar_repetition(tc, "at-most", k))
        verdict, memoized = decide_with_memo(g, shape.expr, shape.openness)
        assert verdict is want
        assert memoized <= states, (k, memoized)


def test_pairs_at_20_triples_is_decided_by_counts():
    # a star of two-triple sequences: a peeled part has exactly two
    # triples; over two classes (p and q) the states grow linearly in
    # the number of triples
    top = top_shape()
    expr = StarE(
        Alt(
            Seq(TC("p", "fwd", top), TC("q", "fwd", top)),
            Seq(TC("q", "fwd", top), TC("p", "fwd", top)),
        )
    )
    openness = HalfOpen(frozenset({"p", "q"}))
    for n in (20, 64):
        for n_p, want in ((n // 2, True), (n // 2 + 1, False)):
            verdict, memoized = decide_with_memo(star_graph(n_p, n - n_p), expr, openness)
            assert verdict is want
            assert memoized <= 2 * n, (n, n_p, memoized)
