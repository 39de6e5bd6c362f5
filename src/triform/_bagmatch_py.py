"""Pure-Python bag-matching kernel.

Decides whether a flattened triple-expression program can consume a
neighborhood bitmask exactly.  Memoized dynamic programming keyed by
(program node, subset mask), pruned by each node's support:

- a sequence node gives the bits only its left child can take to the
  left, the bits only its right child can take to the right, and
  enumerates the submasks of the bits both can take;
- a star node peels one nonempty part per step, and that part holds
  the lowest set bit of the mask (the parts of a bag are unordered).

The compiled Cython kernel in ``_bagmatch`` runs the older unpruned
DP (every submask at a sequence, every nonempty part at a star); it
decides the same verdicts, and either can serve as the matcher
backend.

Program encoding (parallel lists):
  ops[i]   one of the OP_* codes
  lefts[i]/rights[i]  child indices (-1 when unused)
  masks[i]  allowed-triple bitmask for LEAF and WILDSTAR nodes
  support[i]  union of leaf masks below node i (pruning bound)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

OP_EPS = 0
OP_LEAF = 1
OP_SEQ = 2
OP_ALT = 3
OP_STAR = 4
OP_WILDSTAR = 5

KERNEL_NAME = "pure"

# memo value of a decided (node, mask) pair without a match
_NO = -1


def _decider(
    ops: List[int],
    lefts: List[int],
    rights: List[int],
    masks: List[int],
    support: List[int],
) -> Tuple[Callable[[int, int], bool], Dict[Tuple[int, int], int]]:
    """The memoized decision procedure ``can(node, mask)`` and its memo.

    For a matched sequence or star the memo holds the mask given to the
    left child (the peeled part); for a matched alternation it holds 0
    (left branch) or 1 (right branch); otherwise ``_NO``.
    """
    memo: Dict[Tuple[int, int], int] = {}

    def can(i: int, m: int) -> bool:
        op = ops[i]
        if op == OP_LEAF:
            return m != 0 and (m & (m - 1)) == 0 and (m & masks[i]) == m
        if op == OP_WILDSTAR:
            return (m & ~masks[i]) == 0
        if op == OP_EPS:
            return m == 0
        if m & ~support[i]:
            return False
        key = (i, m)
        cached = memo.get(key)
        if cached is not None:
            return cached != _NO
        won = _NO
        if op == OP_SEQ:
            a, b = lefts[i], rights[i]
            shared = m & support[a] & support[b]
            forced = m & ~support[b]  # bits the right child cannot take
            s = shared
            while True:
                left = forced | s
                if can(a, left) and can(b, m ^ left):
                    won = left
                    break
                if s == 0:
                    break
                s = (s - 1) & shared
        elif op == OP_ALT:
            if can(lefts[i], m):
                won = 0
            elif can(rights[i], m):
                won = 1
        elif op == OP_STAR:
            if m == 0:
                won = 0
            else:
                a = lefts[i]
                low = m & -m
                rest = m ^ low
                s = rest
                while True:
                    part = low | s
                    if can(a, part) and can(i, m ^ part):
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
    masks: List[int],
    support: List[int],
    root: int,
    full: int,
) -> bool:
    can, _ = _decider(ops, lefts, rights, masks, support)
    return can(root, full)


def bag_match_witness(
    ops: List[int],
    lefts: List[int],
    rights: List[int],
    masks: List[int],
    support: List[int],
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
    can, memo = _decider(ops, lefts, rights, masks, support)
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
