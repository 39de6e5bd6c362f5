"""The bag-matching kernel.

Decides whether a flattened triple-expression program can consume a bag
of rows exactly.  The program cannot tell apart two rows that the same
LEAF and WILDSTAR nodes may consume, so the rows come grouped into
signature classes (a class's signature is the set of those nodes), and
a bag is its count vector, one count per class: its Parikh image over
the constraints.  Memoized dynamic programming keyed by (program node,
count vector), pruned by two static facts per node:

- ``under[i]``, the LEAF and WILDSTAR nodes at or below it: a node
  takes no row of a class whose signature misses ``under[i]``;
- its count bounds ``[lo, hi]`` (:func:`count_bounds`): a leaf takes
  exactly one row, so a sequence takes the sum of its parts and an
  alternation the hull of its branches.

A node first checks that a bag lies within its support and bounds,
which decides the empty bag and the nodes without children outright;
the splits of sequences and stars are built to fit, so they call no
leaf child.  A sequence gives the classes only one child can take to
that child and enumerates the splits of the classes both can take,
largest left share first, within both children's bounds.  A star peels
one part per step, holding a row of the first nonempty class (the parts
of a bag are unordered), within its child's bounds.  For a fixed number
of classes the states are polynomial in the rows, but they grow as the
product of (count + 1) over the classes, so a decision raises
:class:`WorkExhausted` past :data:`MAX_WORK` memoized states and split steps.

A class is free when its signature holds WILDSTAR nodes only, or no
node at all.  The verdict is the same for every count of at least 1 of
a free class, so a caller may clamp those counts to 1 (the normal form
``shex`` keys its memo by).  Proof: a class with no node is taken by
nothing, so no bag holding it matches.  Otherwise, in a match of a bag
with n >= 1 rows of the class, every one of those rows is taken by an
instance of one of its WILDSTAR nodes, and some instance I holds one.
A WILDSTAR instance takes any bag of rows its node may take, the empty
bag included, so the other instances may give up their rows of the
class and I may hold any m >= 1 of them; every other node keeps what it
took, which gives a match of the bag with m rows of the class.

A free class whose signature also holds a WILDSTAR node W whose
ancestors are all sequences (the openness wildcard ``shex`` puts right
of the root) gets the same verdict for every count, 0 included, so a
caller may leave the class out of the bag.  Proof: every match has
exactly one instance of W, since a sequence has an instance of each
child.  In a match of a bag with n >= 1 rows of the class, every
WILDSTAR instance holding some of them may give them up, as it takes
the empty bag too (a star part left empty is no part), which gives a
match of the bag with 0 rows of the class; in a match with 0 rows, the
instance of W may take any n of them, as its node is in their
signature.

A count vector is packed into one integer, class ``c`` in bits
``[c * width, (c + 1) * width)`` with ``width`` wide enough for the
total, so vector sums, differences and class masks are integer
operations and a vector's total is one multiplication.  A class of one
row is a bit: :func:`bag_match` decides a program over a bitmask with
the same DP, its bits grouped by signature.

A :data:`Program` is (ops, lefts, rights, under, lo, hi, root), parallel
lists with children before their parents: ``ops[i]`` one of the OP_*
codes, ``lefts[i]``/``rights[i]`` child indices (-1 when unused),
``under[i]`` as above (:func:`under_masks`), ``lo[i]``/``hi[i]`` the
count bounds (``UNBOUNDED`` for no upper bound).  The bitmask entries
take ``support`` in place of ``under``, read only at a LEAF or WILDSTAR
node: the mask of the bits it may consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

OP_EPS = 0
OP_LEAF = 1
OP_SEQ = 2
OP_ALT = 3
OP_STAR = 4
OP_WILDSTAR = 5

# the upper count bound of a node that can consume any number of rows
UNBOUNDED = 1 << 62

# memo value of a decided (node, counts) pair without a match
_NO = -1

# the memoized states plus split steps one decision may take
MAX_WORK = 1 << 20


class WorkExhausted(Exception):
    """A decision took more than :data:`MAX_WORK` states and split steps."""


# the nodes without children, decided by their support and count bounds
_LEAVES = (OP_EPS, OP_LEAF, OP_WILDSTAR)

Program = Tuple[List[int], List[int], List[int], List[int], List[int], List[int], int]


def count_bounds(op: int, lo: List[int], hi: List[int], a: int = -1, b: int = -1) -> Tuple[int, int]:
    """The interval of row counts a node with children ``a`` and ``b``
    (indices into ``lo``/``hi``) can consume."""
    if op == OP_EPS:
        return 0, 0
    if op == OP_LEAF:
        return 1, 1
    if op == OP_WILDSTAR:
        return 0, UNBOUNDED
    if op == OP_SEQ:
        return lo[a] + lo[b], min(hi[a] + hi[b], UNBOUNDED)
    if op == OP_ALT:
        return min(lo[a], lo[b]), max(hi[a], hi[b])
    if op == OP_STAR:
        return 0, (0 if hi[a] == 0 else UNBOUNDED)
    raise ValueError(f"bad opcode {op}")


def under_masks(ops: List[int], lefts: List[int], rights: List[int]) -> List[int]:
    """For each node, the LEAF and WILDSTAR nodes at or below it."""
    under: List[int] = []
    for i, op in enumerate(ops):
        m = 1 << i if op == OP_LEAF or op == OP_WILDSTAR else 0
        for child in (lefts[i], rights[i]):
            if child >= 0:
                m |= under[child]
        under.append(m)
    return under


def _fields(sigs: Sequence[int], u: int, width: int) -> int:
    """The fields, in a packed count vector, of the classes whose
    signature meets the node set ``u``."""
    f, field, shift = 0, (1 << width) - 1, 0
    for sig in sigs:
        if sig & u:
            f |= field << shift
        shift += width
    return f


def _start(program: Program, sigs: Sequence[int], counts: Sequence[int]):
    """The state of one decision of ``program`` over the bag of
    ``counts[c]`` rows of each class ``c`` of signature ``sigs[c]``, the
    packed bag and its total.  The state is (ops, lefts, rights, under,
    lo, hi, sigs, width, ones, high, work, memo): a packed vector times
    ``ones`` holds its total at bit ``high``, and ``work`` holds the
    states and split steps left (:data:`MAX_WORK`).  The memo holds, for
    a matched sequence, the vector given to the left child, for a matched
    star the peeled part, for a matched alternation 0 (left branch) or 1
    (right branch); otherwise ``_NO``."""
    total = sum(counts)
    width = total.bit_length() or 1  # no sum of counts carries into the next class
    full = ones = high = 0
    for x in counts:
        full |= x << high
        ones |= 1 << high
        high += width
    return (*program[:6], sigs, width, ones, max(high - width, 0), [MAX_WORK], {}), full, total


def _can(run: tuple, i: int, v: int, n: int) -> bool:
    """Whether node i consumes exactly the bag ``v`` of total ``n``."""
    ops, lefts, rights, under, lo, hi, sigs, width, _, _, work, memo = run
    if not lo[i] <= n <= hi[i] or v & ~_fields(sigs, under[i], width):
        return False
    op, a, b = ops[i], lefts[i], rights[i]
    if op in _LEAVES or not n:  # a node whose lower bound is 0 takes the empty bag
        return True
    key = (i, v)
    won = memo.get(key)
    if won is not None:
        return won != _NO
    work[0] -= 1
    if work[0] < 0:
        raise WorkExhausted
    if op == OP_ALT:
        won = 0 if _can(run, a, v, n) else 1 if _can(run, b, v, n) else _NO
    elif op == OP_SEQ:
        fa, fb = _fields(sigs, under[a], width), _fields(sigs, under[b], width)
        # the classes only the left child can take go left, those both
        # can take are split
        won = _split(run, a, b, v, n, v & ~fb, v & fa & fb, max(lo[a], n - hi[b]), min(hi[a], n - lo[b]))
    elif op == OP_STAR:
        # the peeled part holds one row of the first nonempty class; what
        # is left of the star is the star again
        first = 1 << ((v & -v).bit_length() - 1) // width * width
        won = _split(run, a, i, v, n, first, v - first, lo[a], hi[a])
    else:
        raise ValueError(f"bad opcode {op}")
    memo[key] = won
    return won != _NO


def _split(run: tuple, a: int, b: int, v: int, n: int, p: int, extra: int, least: int, most: int) -> int:
    """The first part ``p + x`` of ``v``, x within ``extra`` class by
    class, that node a consumes while node b consumes the rest, or
    ``_NO``.  Only parts whose total lies in [least, most] are tried,
    larger shares of lower classes first."""
    ops, width, ones, high, work = run[0], run[7], run[8], run[9], run[10]
    work[0] -= 1
    if work[0] < 0:
        raise WorkExhausted
    field = (1 << width) - 1
    s = p * ones >> high & field
    if not extra:
        if least <= s <= most and (ops[a] in _LEAVES or _can(run, a, p, s)) and (
            ops[b] in _LEAVES or _can(run, b, v - p, n - s)
        ):
            return p
        return _NO
    shift = ((extra & -extra).bit_length() - 1) // width * width
    count = extra >> shift & field
    rest = extra ^ count << shift
    room = rest * ones >> high & field
    for add in range(min(count, most - s), max(0, least - s - room) - 1, -1):
        got = _split(run, a, b, v, n, p + (add << shift), rest, least, most)
        if got != _NO:
            return got
    return _NO


def count_match(program: Program, sigs: Sequence[int], counts: Sequence[int]) -> bool:
    """Whether ``program`` consumes exactly ``counts[c]`` rows of each
    class ``c`` of signature ``sigs[c]``."""
    run, full, total = _start(program, sigs, counts)
    return _can(run, program[-1], full, total)


def count_witness(program: Program, sigs: Sequence[int], pools: Sequence[list]) -> Optional[list]:
    """Like :func:`count_match` over the rows ``pools[c]`` of each class
    ``c``, but returns one consumption witness: (consumer node, consumed
    rows) pairs that deal out every row once, the consumers being LEAF
    or WILDSTAR nodes, or None when there is no match.  The memo's count
    vectors are expanded class by class, each consumer taking the next
    rows of a pool."""
    ops, lefts, rights = program[:3]
    run, v, total = _start(program, sigs, [len(pool) for pool in pools])
    if not _can(run, program[-1], v, total):
        return None
    width, memo = run[7], run[-1]
    rest = [iter(pool) for pool in pools]
    out: List[Tuple[int, list]] = []
    todo = [(program[-1], v)]
    while todo:
        i, v = todo.pop()
        op = ops[i]
        if not v:
            continue  # the empty bag, decided without the memo
        if op == OP_LEAF or op == OP_WILDSTAR:
            taken = [v >> (c * width) & ((1 << width) - 1) for c in range(len(pools))]
            out.append((i, [next(rest[c]) for c, k in enumerate(taken) for _ in range(k)]))
        elif op == OP_SEQ:
            left = memo[(i, v)]
            todo.append((rights[i], v - left))
            todo.append((lefts[i], left))
        elif op == OP_ALT:
            todo.append((rights[i] if memo[(i, v)] else lefts[i], v))
        elif op == OP_STAR:
            part = memo[(i, v)]
            todo.append((i, v - part))
            todo.append((lefts[i], part))
    return out


def bag_match(
    ops: List[int],
    lefts: List[int],
    rights: List[int],
    support: List[int],
    lo: List[int],
    hi: List[int],
    root: int,
    full: int,
) -> bool:
    """Whether the program rooted at ``root`` consumes exactly ``full``."""
    return bag_match_witness(ops, lefts, rights, support, lo, hi, root, full) is not None


def bag_match_witness(
    ops: List[int],
    lefts: List[int],
    rights: List[int],
    support: List[int],
    lo: List[int],
    hi: List[int],
    root: int,
    full: int,
) -> Optional[List[Tuple[int, int]]]:
    """Like :func:`bag_match` but returns one consumption witness:
    (consumer node, consumed mask) pairs covering ``full`` with pairwise
    disjoint masks, the consumers being LEAF or WILDSTAR nodes, or None
    when there is no match.  The bits are grouped by signature, the
    consumers that may take them, and decided by :func:`count_witness`."""
    consumers = [i for i, op in enumerate(ops) if op == OP_LEAF or op == OP_WILDSTAR]
    groups: Dict[int, List[int]] = {}
    for bit in (1 << k for k in range(full.bit_length()) if full >> k & 1):
        groups.setdefault(sum(1 << i for i in consumers if support[i] & bit), []).append(bit)
    sigs = sorted(groups)
    program = (ops, lefts, rights, under_masks(ops, lefts, rights), lo, hi, root)
    raw = count_witness(program, sigs, [groups[sig] for sig in sigs])
    return None if raw is None else [(node, sum(bits)) for node, bits in raw]
