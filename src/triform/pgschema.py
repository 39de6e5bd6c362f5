"""PG-Schema core: content types, PG-path expressions, shapes, and the
graph-type layer.

Content types describe node records; membership is decided through a
disjunctive normal form where each disjunct lists required keys (a key
required twice must satisfy all its value types at once, forced by the
functional record union) and is either closed (exact key set) or open
(superset).  PG-paths are sorted: the node-to-node sub-grammar may be
starred, while key steps appear only at the two ends, turning a path
into one of four sorts (node/value to node/value).  Filters are
sub-identities on graph nodes only; a focus outside the graph never
passes a filter.  The same path algebra, with two extra atoms for
SHACL's name step and identity, is SHACL's path AST too (``shacl``
gives six of its classes their SHACL names), so one relation
evaluator (:func:`path_relation`) gives the count atoms of both
dialects every focus's image at once, and :func:`path_image` the image
of a source set, for selection.  Images may alias the graph's
indexes and must not be mutated.

The graph-type layer mirrors the database view: node types, edge types
with a compatible-union value semantics, and constraint pairs, all
three checked.  The permissive reading that only enforces constraints
is the special case with trivial type sets.

Normal forms are computed once per type object (the ``dnf`` memo of
content and edge types, like :attr:`PgPath.normal_body`), never in a
module-level cache; an ``EBoth`` meets each distinct pair of disjuncts
once.  Content types are decided set-at-a-time from the
name index (:func:`content_members`): a disjunct's members are the
intersection of the owners of its required (key, value type) pairs,
each pair read once per call, cut to the records of the right size
when it is closed.  A graph-type check compiles each disjunct of its
types to such an extension once per run, and type filters go through
the same function; a selector is decided for every candidate at once,
by one image under its inverted body, and a shape for all selected foci
at once, on raw elements (node ids and values): it is lowered to the
shape core (:func:`lower_shape`), whose set evaluator (``core._sat``)
narrows the foci atom by atom, each atom counting the images of one
:func:`_pg_relation` call.

Evaluation is pure over immutable inputs, same sharing contract as the
other dialect modules; no state outlives a call.  Ill-sorted schemas are
rejected at load time, before any focus is evaluated.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .core import TOP, And, Context, GeqCount, LeqCount, Top, _sat, and_all, restrict
from .model import (
    DEFAULT_TYPES,
    FWD,
    INV,
    CommonGraph,
    EdgeTriple,
    Elem,
    Focus,
    Record,
    SortError,
    TriformError,
    Value,
    ValueTypeRegistry,
    elem_focus,
    elems_to_foci,
    focus_elem,
    frozen,
    memo,
    triple_ends,
)
from .report import ValidationReport, make_report

NODE_SORT = "node"
VALUE_SORT = "value"

# ---------------------------------------------------------------------------
# Content types


class _Content:
    @memo
    def dnf(self) -> Tuple["ContentDisjunct", ...]:
        """The disjunctive normal form, computed once per type object."""
        return _content_dnf(self)


@frozen
class CAny(_Content):
    pass


@frozen
class CEmpty(_Content):
    pass


@frozen
class CField(_Content):
    k: str
    t: str


@frozen
class CBoth(_Content):
    left: "ContentType"
    right: "ContentType"


@frozen
class CEither(_Content):
    left: "ContentType"
    right: "ContentType"


ContentType = Union[CAny, CEmpty, CField, CBoth, CEither]


@frozen
class ContentDisjunct:
    """One disjunct of a content-type DNF.

    ``reqs`` is a multimap of required key/value-type pairs; a record
    matches when every required key is present with a value in all of
    its listed types, and, for closed disjuncts, carries no other keys.
    A disjunct is the flat table that membership tests run on.
    """

    reqs: Tuple[Tuple[str, str], ...]
    open: bool

    @memo
    def keys(self) -> FrozenSet[str]:
        return frozenset(k for k, _ in self.reqs)

    def meet(self, other: "ContentDisjunct") -> "ContentDisjunct":
        """The disjunct of the functional record union of both."""
        return ContentDisjunct(tuple(sorted(self.reqs + other.reqs)), self.open or other.open)


def _content_dnf(t: ContentType) -> Tuple[ContentDisjunct, ...]:
    kind = type(t)
    if kind is CField:
        return (ContentDisjunct(((t.k, t.t),), False),)
    if kind is CEither:
        return t.left.dnf + t.right.dnf
    if kind is CBoth:
        return tuple([d1.meet(d2) for d1 in t.left.dnf for d2 in t.right.dnf])
    if kind is CAny:
        return (ContentDisjunct((), True),)
    if kind is CEmpty:
        return (ContentDisjunct((), False),)
    raise TriformError(f"unknown content type {t!r}")


def content_dnf(t: ContentType) -> List[ContentDisjunct]:
    """Distribute & over |; the union of disjunct semantics equals the
    semantics of ``t``."""
    return list(t.dnf)


def disjunct_member(r: Record, d: ContentDisjunct, registry: Optional[ValueTypeRegistry] = None) -> bool:
    types = registry or DEFAULT_TYPES
    for k, vt in d.reqs:
        w = r.get(k)
        if w is None or not types.test(vt)(w):
            return False
    return d.open or r.keys() == d.keys


def content_member(r: Record, t: ContentType, registry: Optional[ValueTypeRegistry] = None) -> bool:
    """Record membership in a content type, via the DNF."""
    return any(disjunct_member(r, d, registry) for d in t.dnf)


# the owners of each (key, value type) pair read so far in one call
PairOwners = Dict[Tuple[str, str], Set[str]]


def _pair_owners(g: CommonGraph, k: str, vt: str, registry, owners: PairOwners) -> Set[str]:
    """The nodes whose key ``k`` holds a value of type ``vt``, read from
    the name index once per ``owners`` (one call of the caller)."""
    got = owners.get((k, vt))
    if got is None:
        test = (registry or DEFAULT_TYPES).test(vt)
        got = owners[k, vt] = {t[0] for t in g.triples_named(k) if test(t[2])}
    return got


def _disjunct_members(g: CommonGraph, d: ContentDisjunct, sources: Set, registry, owners: PairOwners) -> Set[str]:
    """The graph nodes in ``sources`` whose record belongs to ``d``, read
    from the name index: the owners of each required pair
    (:func:`_pair_owners`), intersected, and for a closed disjunct those
    whose record has no other key.  Without requirements, an open
    disjunct takes every graph node in ``sources`` and a closed one
    those without properties."""
    if not d.reqs:
        nodes = sources & g.nodes
        return nodes if d.open else nodes & g.nodes_of_size(0)
    pairs = sorted((_pair_owners(g, k, vt, registry, owners) for k, vt in d.reqs), key=len)
    out = pairs[0].intersection(*pairs[1:], sources)  # smallest first
    return out if d.open else out & g.nodes_of_size(len(d.keys))


def content_members(
    g: CommonGraph,
    t: ContentType,
    sources: Set,
    registry: Optional[ValueTypeRegistry] = None,
) -> Set[str]:
    """The graph nodes in ``sources`` whose record belongs to ``t``.

    Like :func:`_name_image`, reads the name index only when no key of
    the type has more triples than there are sources: the members are
    then the union of its disjuncts' members (:func:`_disjunct_members`),
    each (key, value type) pair read once.  Otherwise each source's
    record is tested.  ``sources`` may hold values and nodes outside the
    graph; neither is a member."""
    n = len(sources)
    if any(len(g.triples_named(k)) > n for d in t.dnf for k in d.keys):
        return {u for u in sources if u in g.nodes and content_member(g.node_props(u), t, registry)}
    owners: PairOwners = {}
    return set().union(*(_disjunct_members(g, d, sources, registry, owners) for d in t.dnf))


def is_closed_type(t: ContentType) -> bool:
    """True when top does not occur anywhere in the type."""
    if isinstance(t, CAny):
        return False
    if isinstance(t, (CEmpty, CField)):
        return True
    if isinstance(t, (CBoth, CEither)):
        return is_closed_type(t.left) and is_closed_type(t.right)
    raise TriformError(f"unknown content type {t!r}")


# ---------------------------------------------------------------------------
# PG-path expressions


@frozen
class FKeyIs:
    k: str
    c: Value


@frozen
class FNotKeyIs:
    k: str
    c: Value


@frozen
class FOfType:
    t: ContentType


@frozen
class FNotOfType:
    t: ContentType


FilterKind = Union[FKeyIs, FNotKeyIs, FOfType, FNotOfType]


@frozen
class PFilter:
    kind: FilterKind


@frozen
class PPred:
    p: str


@frozen
class PNotPreds:
    excluded: FrozenSet[str]


@frozen
class PName:
    """SHACL's name step: the edges labelled ``q`` plus the key ``q`` (node
    to value; inverted, value to owner).  ``build_graph`` keeps predicate
    and key names disjoint, so at most one half matches in a graph."""

    q: str


@frozen
class PId:
    """Identity on every element, in the graph or not (SHACL's ``id``)."""


@frozen
class PInv:
    inner: "NodePath"


@frozen
class PConcat:
    left: "NodePath"
    right: "NodePath"


@frozen
class PUnion:
    left: "NodePath"
    right: "NodePath"


@frozen
class PStar:
    inner: "NodePath"


NodePath = Union[PFilter, PPred, PNotPreds, PName, PId, PInv, PConcat, PUnion, PStar]


@frozen
class PgPath:
    """A sorted PG-path: optional inverse key step in, node-to-node body,
    optional key step out.  ``body`` None stands for the trivial filter."""

    src_key: Optional[str]
    body: Optional[NodePath]
    dst_key: Optional[str]

    def __post_init__(self):
        if self.src_key is None and self.body is None and self.dst_key is None:
            raise TriformError("empty PG-path")

    @memo
    def normal_body(self) -> Optional[NodePath]:
        """The body with inverses pushed to the steps, computed once per
        path object."""
        return None if self.body is None else push_inv(self.body)

    @memo
    def normal_path(self) -> NodePath:
        """The whole path as one inverse-normalized node path: the inverse
        name step of ``src_key``, the body, the name step of ``dst_key``.
        It reads the keys alone in a graph where both are keys."""
        src = None if self.src_key is None else PInv(PName(self.src_key))
        dst = None if self.dst_key is None else PName(self.dst_key)
        path = concat_all([p for p in (src, self.normal_body, dst) if p is not None])
        assert path is not None  # a PG-path has a body or a key
        return path

    @property
    def src_sort(self) -> str:
        return VALUE_SORT if self.src_key is not None else NODE_SORT


def key_path(k: str) -> PgPath:
    return PgPath(None, None, k)


def inv_key_path(k: str) -> PgPath:
    return PgPath(k, None, None)


def pred_path(p: str) -> PgPath:
    return PgPath(None, PPred(p), None)


def concat_all(parts: Sequence[NodePath]) -> Optional[NodePath]:
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = PConcat(out, p)
    return out


def push_inv(path: NodePath, flipped: bool = False) -> NodePath:
    """Normalize so PInv only wraps the step atoms PPred, PNotPreds and PName.

    The one inverse-pushing routine, for PG bodies, SHACL paths and the
    common-fragment checker.
    """
    if isinstance(path, (PFilter, PId)):
        return path  # sub-identities are self-inverse
    if isinstance(path, (PPred, PNotPreds, PName)):
        return PInv(path) if flipped else path
    if isinstance(path, PInv):
        return push_inv(path.inner, not flipped)
    if isinstance(path, PConcat):
        l = push_inv(path.left, flipped)
        r = push_inv(path.right, flipped)
        return PConcat(r, l) if flipped else PConcat(l, r)
    if isinstance(path, PUnion):
        return PUnion(push_inv(path.left, flipped), push_inv(path.right, flipped))
    if isinstance(path, PStar):
        return PStar(push_inv(path.inner, flipped))
    raise TriformError(f"unknown PG-path node {path!r}")


def _filter_holds(g: CommonGraph, u: str, kind: FilterKind) -> bool:
    if isinstance(kind, FKeyIs):
        return g.prop(u, kind.k) == kind.c
    if isinstance(kind, FNotKeyIs):
        return g.prop(u, kind.k) != kind.c
    raise TriformError(f"unknown filter {kind!r}")


def path_image(g: CommonGraph, path: NodePath, sources: Set, registry=None) -> Set:
    """The image of ``sources`` under an inverse-normalized path.

    The set evaluator for PG bodies and SHACL paths, for callers
    that need the union of the sources' images (selection); counting
    callers use :func:`path_relation`.  Elements are raw: node ids (``str``)
    and ``Value`` objects.  No step needs to test an element's kind,
    because the graph's indexes hold nothing for an element of the wrong
    kind, and a filter passes graph nodes only.  The star is reflexive on
    every source.  A name step reads the name's rows (:func:`_name_image`),
    and a filter is decided for all sources at once (:func:`_filter_image`).
    """
    step = path.inner if type(path) is PInv else path
    if type(step) is PName:
        return _name_image(g, step.q, step is not path, sources)
    if type(step) is PPred:
        return _name_image(g, step.p, step is not path, sources, edges_only=True)
    if isinstance(path, PInv):
        if isinstance(step, PNotPreds):
            excluded = step.excluded
            return {e.s for u in sources for e in g.in_edges(u) if e.p not in excluded}
        raise TriformError("inverse not normalized")
    if isinstance(path, PConcat):
        return path_image(g, path.right, path_image(g, path.left, sources, registry), registry)
    if isinstance(path, PFilter):
        return _filter_image(g, path.kind, sources, registry)
    if isinstance(path, PUnion):
        return path_image(g, path.left, sources, registry) | path_image(
            g, path.right, sources, registry
        )
    if isinstance(path, PStar):
        reached = set(sources)
        frontier = set(sources)
        while frontier:
            nxt = path_image(g, path.inner, frontier, registry) - reached
            reached |= nxt
            frontier = nxt
        return reached
    if isinstance(path, PNotPreds):
        excluded = path.excluded
        return {e.o for u in sources for e in g.out_edges(u) if e.p not in excluded}
    if isinstance(path, PId):
        return set(sources)
    raise TriformError(f"unknown PG-path node {path!r}")


def _filter_image(g: CommonGraph, kind: FilterKind, sources: Set, registry) -> Set:
    """The graph nodes of ``sources`` that pass the filter.  A type filter
    goes through :func:`content_members`; a key-is filter reads the
    value's owners under the key when there are no more of them than
    sources, and each source's record otherwise."""
    if type(kind) is FOfType:
        return content_members(g, kind.t, sources, registry)
    if type(kind) is FNotOfType:
        return (sources & g.nodes) - content_members(g, kind.t, sources, registry)
    if type(kind) is FKeyIs and len(owners := g.ends(kind.k, INV).get(kind.c, ())) <= len(sources):
        return sources.intersection(owners)
    return {u for u in sources if u in g.nodes and _filter_holds(g, u, kind)}


def _name_image(g: CommonGraph, q: str, inverse: bool, sources: Set, edges_only: bool = False) -> Set:
    """The image of ``sources`` under the name step ``q`` or its inverse:
    the edges labelled ``q`` and, unless ``edges_only`` (a PG predicate
    step), the key ``q``.  Reads the name's near ends once when there are
    no more of them than sources, and each source's far ends otherwise:
    from the rows of ``triples_named`` while the name's ``ends`` map is
    not grouped yet and the rows are no more than the sources (so a
    single scan allocates no map), from the map otherwise."""
    if edges_only and q in g.keys:
        return set()
    direction = INV if inverse else FWD
    ends = g.grouped_ends(q, direction)
    if ends is None:
        rows = g.triples_named(q)
        if len(rows) <= len(sources):
            near, far = (2, 0) if inverse else (0, 2)
            return {t[far] for t in rows if t[near] in sources}
        ends = g.ends(q, direction)
    if len(ends) <= len(sources):
        return {y for x, far in ends.items() if x in sources for y in far}
    return {y for x in sources if x in ends for y in ends[x]}


# Each source of a relation mapped to its image: a collection of distinct
# raw elements (a set, or a list or tuple read from the graph's indexes).
# A source with an empty image is absent.  Neither the mapping nor an
# image may be mutated: either may be the graph's own index.
Images = Dict[Elem, Collection[Elem]]


def path_relation(g: CommonGraph, path: NodePath, elems: Set[Elem], registry=None) -> Images:
    """Each element of ``elems`` mapped to its image under an
    inverse-normalized path, computed for all elements at once (the
    keys are a subset of ``elems``).

    A name step or its inverse maps each element to its far ends in
    ``CommonGraph.ends``, as they are.  A concatenation evaluates its
    right side once, on the union of the left images, so each
    intermediate element is expanded once, not once per source; a filter
    on its left narrows the sources, and one on its right the images.
    Filters are decided for all elements at once (:func:`_filter_image`),
    a union merges the two sides' images per source, and a star runs one
    layered search for all sources, reading each newly reached element's
    inner image once.  Counting callers use each image's ``len``, so no
    image holds an element twice.
    """
    if not elems:
        return {}
    kind = type(path)
    step = path.inner if kind is PInv else path
    if type(step) is PName:
        return restrict(g.ends(step.q, FWD if step is path else INV), elems)
    if type(step) is PPred:
        if step.p in g.keys:
            return {}
        return restrict(g.ends(step.p, FWD if step is path else INV), elems)
    if kind is PConcat:
        left, right = path.left, path.right
        if type(left) is PFilter:
            return path_relation(g, right, _filter_image(g, left.kind, elems, registry), registry)
        first = path_relation(g, left, elems, registry)
        mids = set().union(*first.values())
        if type(right) is PFilter:
            passed = _filter_image(g, right.kind, mids, registry)
            return {x: img for x, ys in first.items() if (img := passed.intersection(ys))}
        return _compose(first, path_relation(g, right, mids, registry))
    if kind is PFilter:
        return {x: (x,) for x in _filter_image(g, path.kind, elems, registry)}
    if kind is PUnion:
        left = path_relation(g, path.left, elems, registry)
        right = path_relation(g, path.right, elems, registry)
        if not left or not right:
            return left or right
        out = dict(left)
        for x, img in right.items():
            mine = out.get(x)
            out[x] = img if mine is None else {*mine, *img}
        return out
    if kind is PStar:
        inner = path.inner
        reached = {x: {x} for x in elems}
        frontiers: Dict[Elem, Collection[Elem]] = {x: (x,) for x in elems}
        steps: Images = {}  # the inner image of each element read so far
        read: Set[Elem] = set()
        while frontiers:
            todo = set().union(*frontiers.values()) - read
            steps.update(path_relation(g, inner, todo, registry))
            read |= todo
            nxt = {}
            for x, frontier in frontiers.items():
                new = set().union(*[steps[y] for y in frontier if y in steps])
                new -= reached[x]
                if new:
                    reached[x] |= new
                    nxt[x] = new
            frontiers = nxt
        return reached
    if kind is PInv:
        if type(step) is PNotPreds:
            excluded = step.excluded
            return {
                x: img for x in elems if (img := {e.s for e in g.in_edges(x) if e.p not in excluded})
            }
        raise TriformError("inverse not normalized")
    if kind is PNotPreds:
        excluded = path.excluded
        return {x: img for x in elems if (img := {e.o for e in g.out_edges(x) if e.p not in excluded})}
    if kind is PId:
        return {x: (x,) for x in elems}
    raise TriformError(f"unknown PG-path node {path!r}")


def _compose(first: Images, second: Images) -> Images:
    """The images of ``first`` followed by ``second``: an image of one
    intermediate element is taken as it is, those of several merged."""
    out = {}
    get = second.get
    for x, ys in first.items():
        if len(ys) == 1:
            (y,) = ys
            img = get(y)
        else:
            img = set().union(*[get(y, ()) for y in ys])
        if img:
            out[x] = img
    return out


def path_counts(g: CommonGraph, path: NodePath, elems: Set[Elem], registry=None) -> Mapping[Elem, int]:
    """The size of each nonempty :func:`path_relation` image: ``CommonGraph.counts`` for
    a name step (far ends of a name are distinct), else the image lengths."""
    step, direction = (path.inner, INV) if type(path) is PInv else (path, FWD)
    name = step.q if type(step) is PName else step.p if type(step) is PPred and step.p not in g.keys else None
    if name is not None:
        return g.counts(name, direction)
    images = path_relation(g, path, elems, registry)
    return dict(zip(images, map(len, images.values())))


def _pg_relation(g: CommonGraph, path: PgPath, elems: Set[Elem], registry, read=path_relation) -> Images:
    """Each element of ``elems`` mapped to its image under the PG-path:
    :func:`path_relation` of the whole path (:attr:`PgPath.normal_path`)
    from the graph nodes of ``elems`` or, for a ``src_key``, from its
    values (their sizes, with ``read`` :func:`path_counts`).  Raises
    :class:`SortError` when an element has the wrong sort; a node outside
    the graph has no image, and no element has one when a key of the path
    is not a key of the graph."""
    if path.src_key is None:
        sources = elems & g.nodes
        if len(sources) < len(elems):
            _check_sort(elems - sources, str, "node-sorted path evaluated at value focus")
    else:
        sources = elems
        if not g.values.issuperset(elems):
            _check_sort(elems - g.values, Value, "value-sorted path evaluated at node focus")
    if any(k is not None and k not in g.keys for k in (path.src_key, path.dst_key)):
        return {}
    return read(g, path.normal_path, sources, registry)


def _check_sort(elems: Set[Elem], sort: type, message: str) -> None:
    wrong = next((x for x in elems if type(x) is not sort), None)
    if wrong is not None:
        raise SortError(f"{message} {elem_focus(wrong)!r}")


def eval_pg_path(
    g: CommonGraph,
    v: Focus,
    path: PgPath,
    registry: Optional[ValueTypeRegistry] = None,
) -> Set[Focus]:
    """The image of ``v`` under the path's relation: the relation
    evaluator (:func:`_pg_relation`) at one focus.

    Raises :class:`SortError` when the focus kind does not match the
    path's source sort.  A node focus outside the graph has the empty
    image: no step leaves it, no filter passes it, and the star's
    reflexive part covers graph nodes only.
    """
    x = focus_elem(v)
    return {elem_focus(u) for u in _pg_relation(g, path, {x}, registry).get(x, ())}


# ---------------------------------------------------------------------------
# PG-shapes


@frozen
class PgLeq:
    n: int
    path: PgPath


@frozen
class PgGeq:
    n: int
    path: PgPath


PgShape = Union[PgLeq, PgGeq, And]

PgSelector = PgGeq  # restricted at load time to the form exists(path)

PgRule = Tuple[PgSelector, PgShape]


def shape_atoms(shape: PgShape) -> List[Union[PgLeq, PgGeq]]:
    """Flatten a conjunction into its counting atoms, left to right.  A PG
    shape has at least one: the empty conjunction (the top shape) is rejected."""
    if isinstance(shape, And):
        return shape_atoms(shape.left) + shape_atoms(shape.right)
    if isinstance(shape, (PgLeq, PgGeq)):
        return [shape]
    raise TriformError("empty PG conjunction" if isinstance(shape, Top) else f"unknown PG-shape {shape!r}")


def lower_shape(shape: PgShape):
    """The shape in the shape core: the conjunction of its atoms, each a
    count atom with the top body, since a PG atom counts every distinct
    element of each image, end-key values included."""
    return and_all([(GeqCount if type(a) is PgGeq else LeqCount)(a.n, a.path, TOP) for a in shape_atoms(shape)])


class PgContext(Context):
    """A PG run: a count atom reads its PG-path through :func:`_pg_relation`,
    with its sort check."""

    def images(self, path: PgPath, elems: Set[Elem]) -> Images:
        return _pg_relation(self.g, path, elems, self.registry)

    def counts(self, path: PgPath, elems: Set[Elem]) -> Mapping[Elem, int]:
        return _pg_relation(self.g, path, elems, self.registry, path_counts)


def pg_satisfies(
    g: CommonGraph,
    v: Focus,
    shape: PgShape,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """Whether ``v`` satisfies ``shape``: the set evaluator at one focus."""
    x = focus_elem(v)
    return x in _sat(PgContext(g, registry), lower_shape(shape), {x})


def check_rule_sorts(rules: Sequence[PgRule]) -> None:
    """Load-time sort check: selectors are existentials and every shape
    evaluates at the sort its selector selects."""
    for i, (sel, shape) in enumerate(rules):
        if not isinstance(sel, PgGeq) or sel.n != 1:
            raise TriformError(f"rule {i}: PG-selector must be an existential shape")
        sorts = {a.path.src_sort for a in shape_atoms(shape)}
        if len(sorts) > 1:
            raise SortError("conjunction mixes node-sorted and value-sorted paths")
        if sorts != {sel.path.src_sort}:
            raise SortError(f"rule {i}: selector and shape disagree on focus sort")


def _select(g: CommonGraph, sel: PgSelector, registry) -> Set[Elem]:
    path = sel.path
    if path.dst_key is None:
        starts: Set[str] = set(g.nodes)
    elif path.dst_key in g.keys:
        starts = triple_ends(g, path.dst_key, FWD)
    else:
        starts = set()
    if path.body is not None:
        starts = path_image(g, push_inv(path.body, flipped=True), starts, registry) & g.nodes
    if path.src_key is None:
        return starts
    if path.src_key not in g.keys:
        return set()
    return _name_image(g, path.src_key, False, starts)  # the src_key values of the starts


def pg_select(
    g: CommonGraph,
    sel: PgSelector,
    registry: Optional[ValueTypeRegistry] = None,
) -> List[Focus]:
    """Graph elements of the selector's sort with a nonempty path image,
    decided for all at once: the nodes whose body image meets the range
    (all nodes, or the owners of ``dst_key``) are the range's image under
    the inverted body; a value is selected when a ``src_key`` owner is."""
    return elems_to_foci(_select(g, sel, registry))


def pg_validate(
    g: CommonGraph,
    rules: Sequence[PgRule],
    registry: Optional[ValueTypeRegistry] = None,
) -> ValidationReport:
    """Check every selected focus against its shape.

    Each rule's shape is lowered to the shape core and decided for all its
    selected elements at once, by the set evaluator; foci are built for
    the failing elements only."""
    check_rule_sorts(rules)
    ctx, per_rule = PgContext(g, registry), []
    for sel, shape in rules:
        selected = _select(g, sel, registry)
        failing = elems_to_foci(selected - _sat(ctx, lower_shape(shape), selected))
        per_rule.append((selected, failing))
    return make_report(per_rule)


# ---------------------------------------------------------------------------
# Edge types


class _Edge:
    @memo
    def dnf(self) -> Tuple[Tuple[ContentDisjunct, Optional[FrozenSet[str]], ContentDisjunct], ...]:
        """The normal form as (source disjunct, labels, target disjunct)
        primitives, computed once per type object."""
        return _edge_dnf(self)


@frozen
class ET(_Edge):
    """Primitive edge type: source content, allowed labels (None is the
    wildcard), target content."""

    src: ContentType
    labels: Optional[FrozenSet[str]]
    dst: ContentType


@frozen
class EBoth(_Edge):
    left: "EdgeType"
    right: "EdgeType"


@frozen
class EEither(_Edge):
    left: "EdgeType"
    right: "EdgeType"


EdgeType = Union[ET, EBoth, EEither]


def edge_type_member(
    g: CommonGraph,
    e: EdgeTriple,
    t: EdgeType,
    registry: Optional[ValueTypeRegistry] = None,
) -> bool:
    """Does (content(source), label, content(target)) belong to the type's
    value semantics?

    Decided against the primitives of the type's normal form: some
    primitive allows the label and both endpoint records match its
    contents.
    """
    src, dst = g.node_props(e.s), g.node_props(e.o)
    return any(
        (labels is None or e.p in labels)
        and disjunct_member(src, ds, registry)
        and disjunct_member(dst, dd, registry)
        for ds, labels, dd in t.dnf
    )


def _label_meet(a: Optional[FrozenSet[str]], b: Optional[FrozenSet[str]]) -> Optional[FrozenSet[str]]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _edge_dnf(t: EdgeType):
    kind = type(t)
    if kind is ET:
        return tuple([(ds, t.labels, dd) for ds in t.src.dnf for dd in t.dst.dnf])
    if kind is EEither:
        return t.left.dnf + t.right.dnf
    if kind is EBoth:
        meets: Dict[tuple, ContentDisjunct] = {}  # by the fields of both: each distinct pair met once

        def meet(a: ContentDisjunct, b: ContentDisjunct) -> ContentDisjunct:
            key = a.reqs, a.open, b.reqs, b.open
            return meets.get(key) or meets.setdefault(key, a.meet(b))

        return tuple([
            (meet(s1, s2), _label_meet(l1, l2), meet(d1, d2))
            for s1, l1, d1 in t.left.dnf
            for s2, l2, d2 in t.right.dnf
        ])
    raise TriformError(f"unknown edge type {t!r}")


# ---------------------------------------------------------------------------
# Graph types


@frozen
class GraphType:
    node_types: Tuple[ContentType, ...]
    edge_types: Tuple[EdgeType, ...]
    constraints: Tuple[PgRule, ...]


@frozen
class GraphTypeReport:
    node_violations: List[str]
    edge_violations: List[EdgeTriple]
    constraints: ValidationReport

    @property
    def valid(self) -> bool:
        return not self.node_violations and not self.edge_violations and self.constraints.valid


def validate_graph_type(
    g: CommonGraph,
    gt: GraphType,
    registry: Optional[ValueTypeRegistry] = None,
) -> GraphTypeReport:
    """Full check: every node in some node type, every edge in some
    edge type, and every constraint pair holds.

    Decided set-at-a-time from the name index: each distinct content
    disjunct of the types is compiled once per run to its extension, the
    graph nodes whose record it admits (:func:`_disjunct_members`, each
    (key, value type) pair read once), looked up once per disjunct object.
    The node violations are the nodes outside every node-type disjunct's
    extension.  Edge types are compiled to their distinct primitives
    (labels, source and target extension); an edge labelled ``p``, read
    from the name index, violates when no primitive admitting ``p`` holds
    its source in the source extension and its target in the target one.
    """
    owners: PairOwners = {}
    extensions: Dict[Tuple[FrozenSet[Tuple[str, str]], bool], Set[str]] = {}
    by_object: Dict[int, Set[str]] = {}  # by id of a disjunct, which ``gt`` keeps alive

    def extension(d: ContentDisjunct) -> Set[str]:
        ext = by_object.get(id(d))
        if ext is None:
            key = frozenset(d.reqs), d.open  # an edge-type meet may repeat a pair
            ext = extensions.get(key)
            if ext is None:
                ext = extensions[key] = _disjunct_members(g, d, g.nodes, registry, owners)
            by_object[id(d)] = ext
        return ext

    admitted = set().union(*(extension(d) for nt in gt.node_types for d in nt.dnf))
    node_bad = sorted(g.nodes - admitted)
    terms = [(labels, extension(ds), extension(dd)) for et in gt.edge_types for ds, labels, dd in et.dnf]
    prims = {(labels, id(s), id(d)): (labels, s, d) for labels, s, d in terms}  # one per distinct primitive
    edge_bad = []
    for p in g.preds:
        left = g.triples_named(p)
        for labels, s, d in prims.values():
            if not left:
                break
            if labels is None or p in labels:
                left = [e for e in left if e[0] not in s or e[2] not in d]
        edge_bad += left
    edge_bad.sort()
    report = pg_validate(g, list(gt.constraints), registry)
    return GraphTypeReport(node_bad, edge_bad, report)
