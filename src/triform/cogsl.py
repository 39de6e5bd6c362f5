"""The common fragment shared by all three dialects, and its compilers.

A common schema is a PG-Schema whose shapes are conjunctions of three
atom kinds: a star-free existential path, a counting atom (upper or
lower bound) over a path traversing exactly one edge or key step
flanked by filters, and a closed-content/closed-predicate guard pairing
an exact record type with a ban on unlisted outgoing predicates.  Selectors must pin the focus to
a triple with a named predicate or key (six head forms); in particular
the all-nodes selector is not expressible here, which is precisely what
SHACL and ShEx cannot say either.

One rewrite turns each rule into a SHACL or ShEx rule with the same
graph-level verdict: the output selector is the head's plain
exists-form, and the shape becomes (not sel-as-shape) or
(translated shape), so the extra foci the widened selector picks up
pass vacuously.  The rewrite is written once against a ``Target``, a
table of constructors; ``SHACL`` and ``SHEX`` are the two tables.
Output is emitted unsimplified so each clause can be traced back to one
rewrite step.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from .model import FWD, INV, NotInFragment, TriformError, frozen
from . import shacl as sh
from . import shex as sx
from .pgschema import (
    CAny,
    CBoth,
    CEmpty,
    CField,
    ContentType,
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
    PInv,
    PNotPreds,
    PPred,
    PStar,
    PUnion,
    content_dnf,
    is_closed_type,
    pg_validate,
    push_inv,
    shape_atoms,
)
from .report import ValidationReport

CommonSchema = Sequence[PgRule]

TRIVIAL_CONTENT: ContentType = CBoth(CEmpty(), CAny())
TRIVIAL_FILTER: FilterKind = FOfType(TRIVIAL_CONTENT)


@frozen
class CogslViolation:
    loc: str
    rule: str
    message: str


@frozen
class Diagnostics:
    violations: List[CogslViolation]

    @property
    def in_fragment(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Path atom normalization


def _to_disjuncts(path: NodePath) -> List[List[NodePath]]:
    """Union normal form of an inverse-normalized body: a list of
    concatenations of atoms, each a ``PFilter``, a ``PPred`` or the
    ``PInv`` of one.

    Requires a fragment-legal body (no star, no negated predicate sets);
    run the checker first.
    """
    if isinstance(path, (PFilter, PPred)):
        return [[path]]
    if isinstance(path, PInv):
        if isinstance(path.inner, PPred):
            return [[path]]
        raise NotInFragment(f"unexpected inverse of {path.inner!r}")
    if isinstance(path, PConcat):
        return [
            l + r for l in _to_disjuncts(path.left) for r in _to_disjuncts(path.right)
        ]
    if isinstance(path, PUnion):
        return _to_disjuncts(path.left) + _to_disjuncts(path.right)
    raise NotInFragment(f"path node {path!r} is outside the fragment")


def _step_of(atom: NodePath) -> Tuple[str, str]:
    """The predicate and direction of a ``PPred`` atom or its inverse."""
    return (atom.inner.p, INV) if isinstance(atom, PInv) else (atom.p, FWD)


def _peel_head(path: NodePath) -> Tuple[Optional[NodePath], Optional[NodePath]]:
    """Split a body into its leftmost atom and the remainder, if the
    leftmost position is an atom."""
    if isinstance(path, (PFilter, PPred)) or (
        isinstance(path, PInv) and isinstance(path.inner, PPred)
    ):
        return path, None
    if isinstance(path, PConcat):
        head, rest = _peel_head(path.left)
        if head is None:
            return None, None
        if rest is None:
            return head, path.right
        return head, PConcat(rest, path.right)
    return None, None


# ---------------------------------------------------------------------------
# Classified rules (built by the checker, consumed by the compilers)


@frozen
class CountAtom:
    kind: str  # "leq" | "geq"
    n: int
    step: str  # "pred" | "inv_pred" | "key" | "inv_key"
    name: str
    left: Tuple[FilterKind, ...]  # filters before the step (node side)
    right: Tuple[FilterKind, ...]  # filters after the step


@frozen
class GuardAtom:
    tau: ContentType  # closed content type
    preds: Tuple[str, ...]  # allowed outgoing predicates


@frozen
class ExistsAtom:
    path: PgPath


ClassifiedAtom = Union[CountAtom, GuardAtom, ExistsAtom]


@frozen
class ClassifiedSel:
    form: str  # "key" | "pred" | "inv_pred" | "key_is" | "key_type" | "inv_key"
    name: str
    path: PgPath


@frozen
class ClassifiedRule:
    sel: ClassifiedSel
    atoms: Tuple[ClassifiedAtom, ...]


class _Check:
    def __init__(self):
        self.violations: List[CogslViolation] = []

    def add(self, loc: str, rule: str, message: str) -> None:
        self.violations.append(CogslViolation(loc, rule, message))


def _is_open_content(t: ContentType) -> bool:
    """Accept the guarded forms tau & top (and the bare top shorthand)."""
    if isinstance(t, CAny):
        return True
    if isinstance(t, CBoth):
        if isinstance(t.right, CAny) and is_closed_type(t.left):
            return True
        if isinstance(t.left, CAny) and is_closed_type(t.right):
            return True
    return False


def _check_filter(ck: _Check, loc: str, kind: FilterKind) -> None:
    if isinstance(kind, (FKeyIs, FNotKeyIs)):
        return
    if isinstance(kind, (FOfType, FNotOfType)):
        if not _is_open_content(kind.t):
            ck.add(loc, "open-content-only", "content types in paths must have the form tau & top")
        return
    ck.add(loc, "path-shape", f"unknown filter {kind!r}")


def _check_body(ck: _Check, loc: str, path: NodePath) -> None:
    if isinstance(path, PStar):
        ck.add(loc, "star-free", "Kleene star is not allowed in common schemas")
        _check_body(ck, loc, path.inner)
        return
    if isinstance(path, PNotPreds):
        ck.add(loc, "no-not-preds", "negated predicate sets may only appear in the closure guard")
        return
    if isinstance(path, PFilter):
        _check_filter(ck, loc, path.kind)
        return
    if isinstance(path, PPred):
        return
    if isinstance(path, PInv):
        _check_body(ck, loc, path.inner)
        return
    if isinstance(path, (PConcat, PUnion)):
        _check_body(ck, loc, path.left)
        _check_body(ck, loc, path.right)
        return
    ck.add(loc, "path-shape", f"unknown path node {path!r}")


def _is_trivial_body(body: Optional[NodePath]) -> bool:
    if body is None:
        return True
    return isinstance(body, PFilter) and isinstance(body.kind, FOfType) and (
        isinstance(body.kind.t, CAny) or body.kind.t == TRIVIAL_CONTENT
    )


def _filters_only(path: Optional[NodePath]) -> Optional[List[FilterKind]]:
    """The filter list of a pure filter concatenation, else None."""
    if path is None:
        return []
    if isinstance(path, PFilter):
        return [path.kind]
    if isinstance(path, PConcat):
        left = _filters_only(path.left)
        right = _filters_only(path.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _classify_count(
    ck: _Check, loc: str, kind: str, n: int, path: PgPath
) -> Optional[CountAtom]:
    """Counting atoms traverse exactly one edge or key step flanked by filters."""
    if path.src_key is not None:
        filters = _filters_only(path.body and push_inv(path.body))
        if path.dst_key is not None or filters is None:
            ck.add(loc, "count-path", "counting paths traverse exactly one edge or key step")
            return None
        for f in filters:
            _check_filter(ck, loc, f)
        return CountAtom(kind, n, "inv_key", path.src_key, (), tuple(filters))
    if path.dst_key is not None:
        filters = _filters_only(path.body and push_inv(path.body))
        if filters is None:
            ck.add(loc, "count-path", "counting paths traverse exactly one edge or key step")
            return None
        for f in filters:
            _check_filter(ck, loc, f)
        return CountAtom(kind, n, "key", path.dst_key, tuple(filters), ())
    if path.body is None:
        ck.add(loc, "count-path", "counting paths traverse exactly one edge or key step")
        return None
    body = push_inv(path.body)
    disjuncts_ok = True
    try:
        disjuncts = _to_disjuncts(body)
    except (NotInFragment, TriformError):
        disjuncts_ok = False
        disjuncts = []
    if not disjuncts_ok or len(disjuncts) != 1:
        _check_body(ck, loc, body)
        ck.add(loc, "count-path", "counting paths must be a single filtered step")
        return None
    atoms = disjuncts[0]
    steps = [a for a in atoms if not isinstance(a, PFilter)]
    if len(steps) != 1:
        ck.add(loc, "count-path", "counting paths traverse exactly one edge or key step")
        return None
    idx = atoms.index(steps[0])
    left = [a.kind for a in atoms[:idx]]  # type: ignore[union-attr]
    right = [a.kind for a in atoms[idx + 1 :]]  # type: ignore[union-attr]
    for f in left + right:
        _check_filter(ck, loc, f)
    name, direction = _step_of(steps[0])
    return CountAtom(
        kind, n, "inv_pred" if direction == INV else "pred", name, tuple(left), tuple(right)
    )


def _classify_shape(ck: _Check, loc: str, shape: PgShape) -> Tuple[ClassifiedAtom, ...]:
    atoms = shape_atoms(shape)
    guards_tau: List[Tuple[int, ContentType]] = []
    guards_preds: List[Tuple[int, Tuple[str, ...]]] = []
    out: List[Tuple[int, ClassifiedAtom]] = []
    for j, atom in enumerate(atoms):
        aloc = f"{loc}.atoms[{j}]"
        path = atom.path
        body = path.body
        if (
            isinstance(atom, PgGeq)
            and atom.n == 1
            and path.src_key is None
            and path.dst_key is None
            and isinstance(body, PFilter)
            and isinstance(body.kind, FOfType)
            and is_closed_type(body.kind.t)
        ):
            guards_tau.append((j, body.kind.t))
            continue
        if (
            isinstance(atom, PgLeq)
            and atom.n == 0
            and path.src_key is None
            and path.dst_key is None
            and isinstance(body, PNotPreds)
        ):
            guards_preds.append((j, tuple(sorted(body.excluded))))
            continue
        if isinstance(atom, PgGeq) and atom.n == 1:
            if body is not None:
                _check_body(ck, aloc, push_inv(body))
            out.append((j, ExistsAtom(path)))
            continue
        kind = "geq" if isinstance(atom, PgGeq) else "leq"
        counted = _classify_count(ck, aloc, kind, atom.n, path)
        if counted is not None:
            out.append((j, counted))
    if len(guards_tau) != len(guards_preds):
        if len(guards_tau) > len(guards_preds):
            ck.add(
                loc,
                "guard-pairing",
                "closed content types must pair with a negated-predicate-set ban",
            )
        else:
            ck.add(
                loc,
                "guard-pairing",
                "negated predicate sets must pair with a closed content type",
            )
    for (j1, tau), (_, preds) in zip(guards_tau, guards_preds):
        out.append((j1, GuardAtom(tau, preds)))
    out.sort(key=lambda pair: pair[0])
    return tuple(atom for _, atom in out)


def _classify_selector(ck: _Check, loc: str, sel: PgShape) -> Optional[ClassifiedSel]:
    if not isinstance(sel, PgGeq) or sel.n != 1:
        ck.add(loc, "selector-form", "common selectors are existential path shapes")
        return None
    path = sel.path
    if path.src_key is not None:
        if path.body is not None:
            _check_body(ck, loc, push_inv(path.body))
        return ClassifiedSel("inv_key", path.src_key, path)
    body = path.body
    if _is_trivial_body(body) and path.dst_key is not None:
        return ClassifiedSel("key", path.dst_key, path)
    if body is None:
        ck.add(loc, "selector-form", "selector must name a predicate or key")
        return None
    body = push_inv(body)
    head, rest = _peel_head(body)
    if rest is not None:
        _check_body(ck, loc, rest)
    if isinstance(head, PPred):
        return ClassifiedSel("pred", head.p, path)
    if isinstance(head, PInv) and isinstance(head.inner, PPred):
        return ClassifiedSel("inv_pred", head.inner.p, path)
    if isinstance(head, PFilter):
        kind = head.kind
        if isinstance(kind, FKeyIs):
            return ClassifiedSel("key_is", kind.k, path)
        if (
            isinstance(kind, FOfType)
            and isinstance(kind.t, CBoth)
            and isinstance(kind.t.right, CAny)
            and isinstance(kind.t.left, CField)
        ):
            return ClassifiedSel("key_type", kind.t.left.k, path)
    ck.add(
        loc,
        "selector-form",
        "selector head must be a key, predicate, inverse step, or single-key filter "
        "(the universal selector is not expressible in SHACL or ShEx)",
    )
    return None


def _classify(rules: CommonSchema) -> Tuple[Diagnostics, List[ClassifiedRule]]:
    ck = _Check()
    classified: List[ClassifiedRule] = []
    for i, (sel, shape) in enumerate(rules):
        sel_c = _classify_selector(ck, f"rules[{i}].selector", sel)
        atoms = _classify_shape(ck, f"rules[{i}].shape", shape)
        if sel_c is not None:
            sel_sort = "value" if sel_c.form == "inv_key" else "node"
            for atom in atoms:
                atom_sort = "node"
                if isinstance(atom, ExistsAtom):
                    atom_sort = atom.path.src_sort
                elif isinstance(atom, CountAtom) and atom.step == "inv_key":
                    atom_sort = "value"
                if atom_sort != sel_sort:
                    ck.add(
                        f"rules[{i}]",
                        "sort-match",
                        "selector and shape must agree on the focus sort",
                    )
                    break
            classified.append(ClassifiedRule(sel_c, atoms))
    return Diagnostics(ck.violations), classified


def check_common(rules: CommonSchema) -> Diagnostics:
    """Structural fragment check; empty diagnostics iff in the fragment."""
    diags, _ = _classify(rules)
    return diags


def _require_common(rules: CommonSchema) -> List[ClassifiedRule]:
    if type(rules) is CheckedSchema:
        return rules.classified
    diags, classified = _classify(rules)
    if not diags.in_fragment:
        first = diags.violations[0]
        raise NotInFragment(f"{first.loc}: {first.message} ({len(diags.violations)} violations)")
    return classified


class CheckedSchema(tuple):
    """A common schema that passed the fragment check, kept with its
    classification (``classified``): ``cogsl_validate`` and both
    compilers take it without classifying the rules again.  Raises
    :class:`NotInFragment` for a schema outside the fragment."""

    def __new__(cls, rules: CommonSchema) -> "CheckedSchema":
        self = super().__new__(cls, rules)
        self.classified = _require_common(rules)
        return self


def cogsl_validate(g, rules: CommonSchema, registry=None) -> ValidationReport:
    """Common schemas inherit PG-Schema semantics."""
    _require_common(rules)
    return pg_validate(g, list(rules), registry)


# ---------------------------------------------------------------------------
# Translation: one rewrite, two tables of target constructors


class Target(NamedTuple):
    """The constructors a compiled rule is built from.  ``and_all`` and
    ``or_all`` fold left, and ``and_all([])`` is the dialect's top."""

    not_: Callable[[Any], Any]
    and_all: Callable[[List[Any]], Any]
    or_all: Callable[[List[Any]], Any]
    test_type: Callable[[str], Any]
    test_const: Callable[[Any], Any]
    count: Callable[[bool, int, str, str, Any], Any]  # (geq, n, name, direction, body)
    closed: Callable[[FrozenSet[str], Tuple[str, ...]], Any]  # (record keys, predicates)
    select: Callable[[str, str], Any]  # (direction, name)


def _shacl_step(name: str, direction: str) -> sh.PathExpr:
    return sh.Step(name) if direction == FWD else sh.Inverse(sh.Step(name))


SHACL = Target(
    not_=sh.Not,
    and_all=sh.and_all,
    or_all=sh.or_all,
    test_type=sh.TestType,
    test_const=sh.TestConst,
    count=lambda geq, n, name, direction, body: (sh.GeqCount if geq else sh.LeqCount)(
        n, _shacl_step(name, direction), body
    ),
    closed=lambda keys, preds: sh.Closed(keys | frozenset(preds)),
    select=lambda direction, name: (sh.ExistsOut if direction == FWD else sh.ExistsIn)(name),
)


def _shex_count(geq: bool, n: int, name: str, direction: str, body) -> sx.ShexShape:
    """At least n: n repetitions in an open neighbourhood; at most n: not n + 1."""
    reps = sx.desugar_repetition(sx.TC(name, direction, body), "exactly", n if geq else n + 1)
    counted = sx.SNeigh(reps, sx.Open(sx.NO_NAMES, sx.NO_NAMES))
    return counted if geq else sx.SNot(counted)


def _names_star(names) -> Optional[sx.TripleExpr]:
    ordered = sorted(set(names))
    if not ordered:
        return None
    return sx.StarE(sx.alt_all([sx.TC(nm, FWD, sx.top_shape()) for nm in ordered]))


def _shex_closed(keys: FrozenSet[str], preds: Tuple[str, ...]) -> sx.ShexShape:
    parts = [e for e in (_names_star(keys), _names_star(preds)) if e]
    return sx.SNeigh(sx.seq_all(parts), sx.HalfOpen(sx.NO_NAMES))


SHEX = Target(
    not_=sx.SNot,
    and_all=sx.sand_all,
    or_all=sx.sor_all,
    test_type=sx.STestType,
    test_const=sx.STestConst,
    count=_shex_count,
    closed=_shex_closed,
    select=lambda direction, name: (sx.SelOut if direction == FWD else sx.SelIn)(name),
)


def _content(t: Target, tau: ContentType):
    shapes = []
    for d in content_dnf(tau):
        assert d.open, "path content types must be open"
        shapes.append(t.and_all([t.count(True, 1, k, FWD, t.test_type(vt)) for k, vt in d.reqs]))
    return t.or_all(shapes)


def _filter(t: Target, kind: FilterKind):
    if isinstance(kind, FKeyIs):
        return t.count(True, 1, kind.k, FWD, t.test_const(kind.c))
    if isinstance(kind, FNotKeyIs):
        return t.not_(t.count(True, 1, kind.k, FWD, t.test_const(kind.c)))
    if isinstance(kind, FOfType):
        return _content(t, kind.t)
    if isinstance(kind, FNotOfType):
        return t.not_(_content(t, kind.t))
    raise TriformError(f"unknown filter {kind!r}")


def _filters(t: Target, filters: Sequence[FilterKind]):
    return t.and_all([_filter(t, f) for f in filters])


def _atoms(t: Target, atoms: List[NodePath], dst_key: Optional[str]):
    """Existential concatenation, rightmost first (Lemma-style recursion)."""
    if not atoms:
        top = t.and_all([])
        return top if dst_key is None else t.count(True, 1, dst_key, FWD, top)
    head, rest = atoms[0], atoms[1:]
    if isinstance(head, PFilter):
        if not rest and dst_key is None:
            return _filter(t, head.kind)
        return t.and_all([_filter(t, head.kind), _atoms(t, rest, dst_key)])
    return t.count(True, 1, *_step_of(head), _atoms(t, rest, dst_key))


def _exists(t: Target, path: PgPath):
    disjuncts = _to_disjuncts(push_inv(path.body)) if path.body is not None else [[]]
    shapes = []
    for concat in disjuncts:
        atoms = list(concat)
        if path.dst_key is None and atoms and not isinstance(atoms[-1], PFilter):
            atoms.append(PFilter(TRIVIAL_FILTER))
        shapes.append(_atoms(t, atoms, path.dst_key))
    out = t.or_all(shapes)
    if path.src_key is not None:
        out = t.count(True, 1, path.src_key, INV, out)
    return out


def _count(t: Target, atom: CountAtom):
    geq = atom.kind == "geq"
    if geq and atom.n == 0:
        return t.and_all([])
    direction = FWD if atom.step in ("pred", "key") else INV
    counted = t.count(geq, atom.n, atom.name, direction, _filters(t, atom.right))
    if not atom.left:
        return counted
    left = _filters(t, atom.left)
    return t.and_all([left, counted]) if geq else t.or_all([t.not_(left), counted])


def _guard(t: Target, atom: GuardAtom):
    shapes = []
    for d in content_dnf(atom.tau):
        assert not d.open
        conj = [t.count(True, 1, k, FWD, t.test_type(vt)) for k, vt in d.reqs]
        shapes.append(t.and_all(conj + [t.closed(d.keys, atom.preds)]))
    return t.or_all(shapes)


# direction of the triple a selector form asks for at the focus
_SEL_DIRECTION = {
    "key": FWD,
    "pred": FWD,
    "inv_pred": INV,
    "key_is": FWD,
    "key_type": FWD,
    "inv_key": INV,
}


def _compile(t: Target, rules: CommonSchema) -> list:
    out = []
    for rule in _require_common(rules):
        parts = []
        for atom in rule.atoms:
            if isinstance(atom, ExistsAtom):
                parts.append(_exists(t, atom.path))
            elif isinstance(atom, CountAtom):
                parts.append(_count(t, atom))
            else:
                parts.append(_guard(t, atom))
        select = t.select(_SEL_DIRECTION[rule.sel.form], rule.sel.name)
        vacuous = t.not_(_exists(t, rule.sel.path))
        out.append((select, t.or_all([vacuous, t.and_all(parts)])))
    return out


def cogsl_to_shacl(rules: CommonSchema) -> List[sh.ShaclRule]:
    """Compile a common schema to an equivalent SHACL schema, rule by rule."""
    return _compile(SHACL, rules)


def cogsl_to_shex(rules: CommonSchema) -> List[sx.ShexRule]:
    """Compile a common schema to an equivalent ShEx schema, rule by rule."""
    return _compile(SHEX, rules)
