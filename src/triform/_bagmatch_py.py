"""The bag-matching kernel.

Decides whether a flattened triple-expression program can consume a
neighborhood bitmask exactly.  Memoized dynamic programming keyed by
(program node, subset mask), pruned by two static facts per node:

- its support, the union of the masks at and below it: a node never
  takes a bit outside its support;
- its count bounds ``[lo, hi]``, the interval of how many triples it
  can consume (:func:`count_bounds`): a leaf takes exactly one triple,
  so a sequence takes the sum of its parts and an alternation the hull
  of its branches.  A mask whose popcount falls outside the interval
  is rejected before the memo is consulted.

Support and count bounds together decide the nodes without children
exactly (an epsilon has support 0 and bounds [0, 0], a leaf its mask
and [1, 1], a wildcard star its mask and [0, inf]), so only sequences,
alternations and stars reach the memo.  A sequence node gives the bits
only its left child can take to the left, the bits only its right
child can take to the right, and enumerates the submasks of the bits
both can take, skipping a split before recursing when either share
falls outside its child's interval.  A star node peels one nonempty
part per step; that part holds the lowest set bit of the mask (the
parts of a bag are unordered) and its size must fit the child's
interval.  An alternation tries only the branches whose interval
holds the mask's popcount.

Program encoding (parallel lists):
  ops[i]   one of the OP_* codes
  lefts[i]/rights[i]  child indices (-1 when unused)
  support[i]  union of the allowed-triple bitmasks of the LEAF and
      WILDSTAR nodes at and below node i (at such a node, its own mask)
  lo[i]/hi[i]  count bounds of node i (``UNBOUNDED`` for no upper bound)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

OP_EPS = 0
OP_LEAF = 1
OP_SEQ = 2
OP_ALT = 3
OP_STAR = 4
OP_WILDSTAR = 5

# the upper count bound of a node that can consume any number of triples
UNBOUNDED = 1 << 62

# memo value of a decided (node, mask) pair without a match
_NO = -1

# the nodes without children, decided by their support and count bounds
_LEAVES = (OP_EPS, OP_LEAF, OP_WILDSTAR)


def count_bounds(op: int, lo: List[int], hi: List[int], a: int = -1, b: int = -1) -> Tuple[int, int]:
    """The interval of triple counts a node with children ``a`` and
    ``b`` (indices into ``lo``/``hi``) can consume."""
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


def _decider(
    ops: List[int],
    lefts: List[int],
    rights: List[int],
    support: List[int],
    lo: List[int],
    hi: List[int],
) -> Tuple[Callable[[int, int], bool], Dict[Tuple[int, int], int]]:
    """The memoized decision procedure ``can(node, mask)`` and its memo.

    For a matched sequence or star the memo holds the mask given to the
    left child (the peeled part); for a matched alternation it holds 0
    (left branch) or 1 (right branch); otherwise ``_NO``.
    """
    memo: Dict[Tuple[int, int], int] = {}

    def can(i: int, m: int) -> bool:
        if m & ~support[i]:
            return False
        n = m.bit_count()
        if n < lo[i] or n > hi[i]:
            return False
        op = ops[i]
        if op in _LEAVES:
            return True
        key = (i, m)
        cached = memo.get(key)
        if cached is not None:
            return cached != _NO
        won = _NO
        if op == OP_SEQ:
            a, b = lefts[i], rights[i]
            shared = m & support[a] & support[b]
            forced = m & ~support[b]  # bits the right child cannot take
            # the number of shared bits the left child may take
            nf = forced.bit_count()
            least = (lo[a] if lo[a] > n - hi[b] else n - hi[b]) - nf
            most = (hi[a] if hi[a] < n - lo[b] else n - lo[b]) - nf
            # a share within a child's support and bounds fits a leaf child
            s = shared
            while least <= most:
                if least <= s.bit_count() <= most:
                    left = forced | s
                    if (ops[a] in _LEAVES or can(a, left)) and (ops[b] in _LEAVES or can(b, m ^ left)):
                        won = left
                        break
                if s == 0:
                    break
                s = (s - 1) & shared
        elif op == OP_ALT:
            a, b = lefts[i], rights[i]
            if lo[a] <= n <= hi[a] and can(a, m):
                won = 0
            elif lo[b] <= n <= hi[b] and can(b, m):
                won = 1
        elif op == OP_STAR:
            if m == 0:
                won = 0
            else:
                a = lefts[i]
                low = m & -m
                rest = m ^ low
                # the number of bits besides ``low`` in the peeled part
                least, most = lo[a] - 1, hi[a] - 1
                s = rest
                while True:
                    if least <= s.bit_count() <= most:
                        part = low | s
                        if (ops[a] in _LEAVES or can(a, part)) and can(i, m ^ part):
                            won = part
                            break
                    if s == 0:
                        break
                    s = (s - 1) & rest
        else:
            raise ValueError(f"bad opcode {op}")
        memo[key] = won
        return won != _NO

    return can, memo


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
    can, _ = _decider(ops, lefts, rights, support, lo, hi)
    return can(root, full)


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
    """Like :func:`bag_match` but reconstructs one consumption witness.

    Returns a list of (consumer node index, consumed mask) pairs covering
    ``full`` with pairwise-disjoint masks, where consumers are LEAF or
    WILDSTAR nodes, or None when there is no match.  The witness is read
    from the memo of the decision run.  Used by tests to check that no
    triple is consumed twice.
    """
    can, memo = _decider(ops, lefts, rights, support, lo, hi)
    if not can(root, full):
        return None
    out: List[Tuple[int, int]] = []
    todo = [(root, full)]
    while todo:
        i, m = todo.pop()
        op = ops[i]
        if op == OP_LEAF or op == OP_WILDSTAR:
            if m:
                out.append((i, m))
        elif op == OP_SEQ:
            left = memo[(i, m)]
            todo.append((rights[i], m ^ left))
            todo.append((lefts[i], left))
        elif op == OP_ALT:
            todo.append((rights[i] if memo[(i, m)] else lefts[i], m))
        elif op == OP_STAR and m:
            part = memo[(i, m)]
            todo.append((i, m ^ part))
            todo.append((lefts[i], part))
    return out
