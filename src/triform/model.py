"""Common graph data model.

A common graph is a finite set of predicate edges between nodes plus a
functional map from (node, key) pairs to atomic values.  It is the shared
sub-model of RDF triple stores and property graphs: nodes are opaque,
edges carry a single predicate, and node properties are single-valued.

Everything here is immutable after construction.  Values and triples
are tuples, so they hash and compare in C.  A ``CommonGraph`` is loaded
in one pass over the edges and one over the property triples, which
keep the distinct edges, the record map and a per-name triple index, in
input order.  Every other index (adjacency lists, records, the node and
value sets, a name's far ends by near end (:meth:`CommonGraph.ends`),
row profiles) is derived from those on its first read, so a run pays
only for the indexes it reads.  Validators in the
dialect modules only ever read a ``CommonGraph``, so one graph can be
shared freely between concurrent evaluators.  The AST and report
records of all modules are classes built by :func:`frozen`, which
compiles their methods once per field list.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import FunctionType
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

FWD = "fwd"
INV = "inv"


class TriformError(Exception):
    """Base class for all engine errors."""


class DuplicateKeyValue(TriformError):
    """Two property triples assign distinct values to the same (node, key)."""


class SortClash(TriformError):
    """A name is used both as a predicate and as a key."""


class UnknownValueType(TriformError):
    """A value-type identifier has no registered membership test."""


class NeighborhoodTooLarge(TriformError):
    """A signed neighborhood exceeds the configured matcher cap."""


class InstanceTooLarge(TriformError):
    """A brute-force oracle was handed an instance above its hard bound."""


class NotInFragment(TriformError):
    """A schema was passed to a compiler without passing the fragment check."""


class NotNormalized(TriformError):
    """A translation input is not in the required normal form."""


class EdgeNotInGraph(TriformError):
    """An edge argument does not occur in the graph."""


class SortError(TriformError):
    """A path expression was evaluated at a focus of the wrong sort."""


class FormatError(TriformError):
    """A JSON document does not match the expected wire format."""


_FROZEN_CODE: Dict[Tuple[Tuple[str, ...], bool], Dict[str, Callable]] = {}  # by (fields, post-init)


def _frozen_setattr(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def _frozen_repr(self) -> str:
    cls = self.__class__
    return f"{cls.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in cls.__match_args__])})"


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable record of its own annotated fields, as
    ``@dataclass(frozen=True)`` does for fields without defaults:
    ``__init__`` (then ``__post_init__``, if any), ``__eq__`` between
    instances of one class only, ``__hash__`` of the field tuple,
    ``__repr__`` as ``Name(field=value, ...)``, ``__match_args__`` as the
    field names, and no assignment or deletion.  ``__init__``, ``__eq__``
    and ``__hash__`` are compiled once per field list and shared, each
    class getting its own function objects, named after it; every class
    shares the one ``__repr__``, which reads its fields from
    ``__match_args__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if any(n in cls.__dict__ for n in names):
        raise TypeError(f"{cls.__name__}: frozen fields take no defaults")
    post = hasattr(cls, "__post_init__")
    code = _FROZEN_CODE.get((names, post))
    if code is None:
        own, other = (f"({''.join(f'{obj}.{n},' for n in names)})" for obj in ("self", "other"))
        sets = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
        src = (
            f"def __init__(self, {', '.join(names)}):\n{sets}    {'self.__post_init__()' if post else 'pass'}\n"
            "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
            f"        return {own} == {other}\n    return NotImplemented\n"
            f"def __hash__(self):\n    return hash({own})\n"
        )
        ns = {"_setattr": object.__setattr__}
        exec(src, ns)
        code = _FROZEN_CODE[(names, post)] = {n: ns[n] for n in ("__init__", "__eq__", "__hash__")}
    for name, fn in code.items():
        fn = FunctionType(fn.__code__, fn.__globals__, name)
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__match_args__ = names
    cls.__repr__ = _frozen_repr
    cls.__setattr__ = cls.__delattr__ = _frozen_setattr
    return cls


class _ValueFields(NamedTuple):  # a NamedTuple may not define __new__; Value below does
    tag: str
    payload: Union[bool, int, str]


class Value(_ValueFields):
    """Tagged atomic value: a 64-bit signed integer, a string, or a boolean.

    Equality is (tag, payload) equality: the integer ``1`` never equals
    the string ``"1"`` or the boolean ``True``.  A value is a tuple, so
    it must never share a set or a dict with plain (tag, payload) pairs.
    """

    __slots__ = ()

    def __new__(cls, tag: str, payload: Union[bool, int, str]) -> "Value":
        if tag == "bool":
            if not isinstance(payload, bool):
                raise TriformError(f"bool value with non-bool payload {payload!r}")
        elif tag == "int":
            # bool is an int subclass in Python; reject it explicitly
            if isinstance(payload, bool) or not isinstance(payload, int):
                raise TriformError(f"int value with non-int payload {payload!r}")
            if not (INT64_MIN <= payload <= INT64_MAX):
                raise TriformError(f"integer {payload} outside the 64-bit signed range")
        elif tag == "str":
            if not isinstance(payload, str):
                raise TriformError(f"str value with non-str payload {payload!r}")
        else:
            raise TriformError(f"unknown value tag {tag!r}")
        return tuple.__new__(cls, (tag, payload))

    # NamedTuple's own versions build the tuple past the checks above
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def _replace(self, **changes) -> "Value":
        return Value(**{**self._asdict(), **changes})


def int_v(n: int) -> Value:
    return Value("int", n)


def str_v(s: str) -> Value:
    return Value("str", s)


def bool_v(b: bool) -> Value:
    return Value("bool", b)


@frozen
class Node:
    """Focus variant: a node, identified by an opaque non-empty string."""

    id: str

    def __post_init__(self):
        if not self.id:
            raise TriformError("node identifiers must be non-empty")


@frozen
class Val:
    """Focus variant: an atomic value."""

    value: Value


Focus = Union[Node, Val]

# A raw element: a node id or a value.  The set evaluators work on raw
# elements and build ``Node``/``Val`` foci only for their callers.
Elem = Union[str, Value]


def focus_elem(v: Focus) -> Elem:
    """The raw element of a focus."""
    return v.id if type(v) is Node else v.value


def elem_focus(x: Elem) -> Focus:
    """The focus of a raw element."""
    return Node(x) if type(x) is str else Val(x)


class EdgeTriple(NamedTuple):
    s: str
    p: str
    o: str


class PropTriple(NamedTuple):
    n: str
    k: str
    v: Value


Triple = Union[EdgeTriple, PropTriple]


@frozen
class SignedTriple:
    """One element of a signed neighborhood, oriented away from the focus.

    ``direction`` is "fwd" for triples leaving the focus and "inv" for
    incoming triples flipped toward the focus.  ``endpoint`` is the far
    end (a value for forward key triples, a node otherwise).
    """

    name: str
    is_key: bool
    direction: str
    endpoint: Focus


Record = Dict[str, Value]


class ValueTypeRegistry:
    """Named value types with membership tests.

    The builtins int/str/bool test the value tag and ``any`` accepts
    everything, so every value belongs to at least one registered type.
    """

    def __init__(self):
        self._members: Dict[str, Callable[[Value], bool]] = {
            "int": lambda w: w.tag == "int",
            "str": lambda w: w.tag == "str",
            "bool": lambda w: w.tag == "bool",
            "any": lambda w: True,
        }

    def register(self, type_id: str, member: Callable[[Value], bool]) -> None:
        if not type_id:
            raise TriformError("value-type identifiers must be non-empty")
        self._members[type_id] = member

    def known(self, type_id: str) -> bool:
        return type_id in self._members

    def member(self, w: Value, type_id: str) -> bool:
        try:
            test = self._members[type_id]
        except KeyError:
            raise UnknownValueType(f"value type {type_id!r} is not registered") from None
        return bool(test(w))


DEFAULT_TYPES = ValueTypeRegistry()


def value_type_member(w: Value, type_id: str, registry: Optional[ValueTypeRegistry] = None) -> bool:
    """True iff ``w`` belongs to the named value type."""
    return (registry or DEFAULT_TYPES).member(w, type_id)


_NEAR, _FAR = itemgetter(0), itemgetter(2)  # of a triple; _NEAR also of a (node, key) pair


class RowProfile:
    """The row count of an element per (direction, name): ``fwd`` holds
    (name, count) pairs for its forward rows (out-edges and keys), ``inv``
    those for its inverse rows (in-edges, or a value's owners under the
    owning key), each sorted by name; ``size`` is the number of rows.  A
    graph makes one profile per count vector, compared by identity."""

    __slots__ = ("fwd", "inv", "size")

    def __init__(self, fwd: Tuple[Tuple[str, int], ...], inv: Tuple[Tuple[str, int], ...], size: int):
        self.fwd = fwd
        self.inv = inv
        self.size = size


class RowProfiles(dict):
    """The row profile of each raw element of one graph, all counted in
    one pass over the name index in sorted name order (a triple gives its
    near end a forward row and its far end an inverse row), each distinct
    profile once.  An element outside the graph gets the empty profile.
    ``max_size`` is the largest ``size`` of a profile, 0 for no rows."""

    __slots__ = ("max_size", "_over")

    def __init__(self, by_name: Dict[str, List[Triple]]):
        super().__init__()
        # each element's rows, forward as the name, inverse as (name,): by name, forward
        # first, so equal count vectors give equal tuples, each count one run of one object
        rows: Dict[Elem, List[Union[str, Tuple[str]]]] = defaultdict(list)
        for name in sorted(by_name):
            triples = by_name[name]
            for x in map(_NEAR, triples):
                rows[x].append(name)
            back = (name,)
            for x in map(_FAR, triples):
                rows[x].append(back)
        by_rows: Dict[tuple, RowProfile] = {}
        for x, names in rows.items():
            names = tuple(names)
            p = by_rows.get(names)
            if p is None:  # counted run by run
                fwd, inv, i, size = [], [], 0, len(names)
                while i < size:
                    n, j = names[i], i + 1
                    while j < size and names[j] is n:
                        j += 1
                    pairs, name = (fwd, n) if type(n) is str else (inv, n[0])
                    pairs.append((name, j - i))
                    i = j
                p = by_rows[names] = RowProfile(tuple(fwd), tuple(inv), size)
            self[x] = p
        self.max_size = max(map(len, by_rows), default=0)
        self._over: Dict[int, Set[Elem]] = {}

    def __missing__(self, x: Elem) -> RowProfile:
        return _NO_ROWS

    def over(self, cap: int) -> Set[Elem]:
        """The elements with more than ``cap`` rows, which the caller must
        not mutate: found in one pass per cap, and none without a pass when
        ``max_size`` is within the cap."""
        if self.max_size <= cap:
            return _NOTHING
        over = self._over.get(cap)
        if over is None:
            over = self._over[cap] = {x for x, p in self.items() if p.size > cap}
        return over


_NO_ROWS = RowProfile((), (), 0)
_NOTHING: FrozenSet[Elem] = frozenset()


class CommonGraph:
    """Immutable common graph: its deduplicated edges in input order, its
    record map and a name index, with every other index derived on first
    read.

    The constructor checks the invariants of :func:`build_graph` in its
    one pass over the edges and one over the property triples, and keeps
    only what that pass makes: ``edges`` (the distinct edges in the order
    the input first gives them), ``props`` (each (node, key) pair's value,
    in the same order) and the name index, :meth:`triples_named`: each
    predicate's edges and each key's property triples in first-occurrence
    order (vertical partitioning), holding the input triple objects
    themselves.  The adjacency lists, the records (:meth:`node_props`),
    the value owners, ``nodes``, ``values``, ``keys``, ``preds``, the nodes
    grouped by record size (:meth:`nodes_of_size`), each name's far ends
    by near end and direction (:meth:`ends`, at most one entry per triple
    per direction), the elements' row profiles (:attr:`row_profiles`) and
    the hash are each derived on their first read (``cached_property``),
    from those three alone, then kept; each is published whole, so
    concurrent readers see it complete or not at all.
    """

    def __init__(self, edges: Iterable[EdgeTriple], props: Iterable[PropTriple]):
        by_name: Dict[str, List[Triple]] = defaultdict(list)
        unique = dict.fromkeys(edges)  # deduplicated, in input order
        for e in unique:
            by_name[e[1]].append(e)
        edge_rows = [len(rows) for rows in by_name.values()]  # per predicate, before any key joins
        prop_map: Dict[Tuple[str, str], Value] = {}
        for t in props:
            n, k, w = t
            nk = (n, k)
            old = prop_map.get(nk)
            if old is None:
                prop_map[nk] = w
                by_name[k].append(t)
            elif old != w:
                raise DuplicateKeyValue(f"node {n!r} key {k!r} maps to both {old!r} and {w!r}")
        # the predicates come first in the index; one that gained rows is also a key
        clash = [p for (p, rows), n in zip(by_name.items(), edge_rows) if len(rows) != n]
        if clash:
            raise SortClash(f"names used both as predicate and key: {sorted(clash)}")
        self.edges = unique.keys()
        self.props = prop_map
        self._by_name = by_name

    @cached_property
    def _out_edges(self) -> Dict[str, List[EdgeTriple]]:
        out: Dict[str, List[EdgeTriple]] = defaultdict(list)
        for e in self.edges:
            out[e[0]].append(e)
        return out

    @cached_property
    def _in_edges(self) -> Dict[str, List[EdgeTriple]]:
        into: Dict[str, List[EdgeTriple]] = defaultdict(list)
        for e in self.edges:
            into[e[2]].append(e)
        return into

    @cached_property
    def _node_props(self) -> Dict[str, Dict[str, Value]]:
        records: Dict[str, Dict[str, Value]] = defaultdict(dict)
        for (n, k), w in self.props.items():
            records[n][k] = w
        return records

    @cached_property
    def _value_owners(self) -> Dict[Value, List[Tuple[str, str]]]:
        owners: Dict[Value, List[Tuple[str, str]]] = defaultdict(list)
        for nk, w in self.props.items():
            owners[w].append(nk)
        return owners

    @cached_property
    def nodes(self) -> FrozenSet[str]:
        edges = self.edges
        return frozenset(chain(map(_NEAR, edges), map(_FAR, edges), map(_NEAR, self.props)))

    @cached_property
    def values(self) -> FrozenSet[Value]:
        return frozenset(self.props.values())

    @cached_property
    def preds(self) -> FrozenSet[str]:
        edges = self.edges
        return frozenset(name for name, rows in self._by_name.items() if rows[0] in edges)

    @cached_property
    def keys(self) -> FrozenSet[str]:
        return frozenset(self._by_name).difference(self.preds)

    @cached_property
    def _by_size(self) -> Dict[int, FrozenSet[str]]:
        sizes = Counter(map(_NEAR, self.props))  # each node's record size, without the records
        by_size: Dict[int, Set[str]] = defaultdict(set)
        for u, n in sizes.items():
            by_size[n].add(u)
        groups = {n: frozenset(us) for n, us in by_size.items()}
        groups[0] = self.nodes.difference(sizes)
        return groups

    @cached_property
    def _ends(self) -> Dict[Tuple[str, str], Dict[Elem, List[Elem]]]:
        return {}  # by (name, direction), filled by ends

    @cached_property
    def _hash(self) -> int:
        return hash((frozenset(self.edges), frozenset(self.props.items())))

    @cached_property
    def row_profiles(self) -> RowProfiles:
        """The row profile of each raw element, all counted on the first
        read from the name index alone."""
        return RowProfiles(self._by_name)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CommonGraph)
            and self.edges == other.edges
            and self.props == other.props
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CommonGraph(|E|={len(self.edges)}, |props|={len(self.props)})"

    def __reduce__(self):
        # pickled and copied as its triples, in order; a copy derives its own indexes
        return CommonGraph, (list(self.edges), [PropTriple(n, k, w) for (n, k), w in self.props.items()])

    def out_edges(self, node: str) -> List[EdgeTriple]:
        return self._out_edges.get(node, [])

    def in_edges(self, node: str) -> List[EdgeTriple]:
        return self._in_edges.get(node, [])

    def node_props(self, node: str) -> Dict[str, Value]:
        return self._node_props.get(node, {})

    def value_owners(self, w: Value) -> List[Tuple[str, str]]:
        """All (node, key) pairs mapped to ``w``."""
        return self._value_owners.get(w, [])

    def triples_named(self, name: str) -> List[Triple]:
        """The edges named ``name`` or the property triples with key
        ``name`` (never both: the names are disjoint), each once, in the
        order the input first gives it."""
        return self._by_name.get(name, [])

    def nodes_of_size(self, n: int) -> FrozenSet[str]:
        """The nodes with exactly ``n`` properties.  The first call groups
        all nodes by the size of their record."""
        return self._by_size.get(n, frozenset())

    def ends(self, name: str, direction: str) -> Dict[Elem, List[Elem]]:
        """Each near end's far ends of the triples named ``name`` in the
        given direction, in input order: a node's edge targets or key value
        (``FWD``), a node's edge sources or a value's owners under the key
        (``INV``).  Grouped on first use, then kept; do not mutate."""
        got = self._ends.get((name, direction))
        if got is None:
            near, far = (0, 2) if direction == FWD else (2, 0)
            got = {}
            for t in self._by_name.get(name, ()):
                x = t[near]
                if x in got:
                    got[x].append(t[far])
                else:
                    got[x] = [t[far]]
            self._ends[name, direction] = got  # published whole, for concurrent readers
        return got

    def grouped_ends(self, name: str, direction: str) -> Optional[Dict[Elem, List[Elem]]]:
        """What :meth:`ends` returns if it was asked for ``(name,
        direction)`` before, else None; builds nothing."""
        return self._ends.get((name, direction))

    def prop(self, node: str, key: str) -> Optional[Value]:
        return self.props.get((node, key))

    def triple_view(self) -> Iterator[Triple]:
        """The graph as a set of triples: edges plus property triples."""
        for e in self.edges:
            yield e
        for (n, k), w in self.props.items():
            yield PropTriple(n, k, w)


def build_graph(edges: Iterable[EdgeTriple], props: Iterable[PropTriple]) -> CommonGraph:
    """Construct a common graph, enforcing the model invariants.

    Raises :class:`DuplicateKeyValue` if two property triples give the
    same (node, key) distinct values and :class:`SortClash` if a name is
    used both as a predicate and as a key.
    """
    return CommonGraph(edges, props)


def content(g: CommonGraph, v: str) -> Record:
    """The record of all key-value pairs attached to node ``v``.

    Empty for nodes without properties, including nodes absent from the
    graph.
    """
    return dict(g.node_props(v))


def neigh(g: CommonGraph, v: Focus) -> FrozenSet[Triple]:
    """All triples of the triple-set view whose first or last component is ``v``."""
    out: set = set()
    if isinstance(v, Node):
        for e in g.out_edges(v.id):
            out.add(e)
        for e in g.in_edges(v.id):
            out.add(e)
        for k, w in g.node_props(v.id).items():
            out.add(PropTriple(v.id, k, w))
    else:
        for (n, k) in g.value_owners(v.value):
            out.add(PropTriple(n, k, v.value))
    return frozenset(out)


def neigh_signed(g: CommonGraph, v: Focus) -> FrozenSet[SignedTriple]:
    """The signed neighborhood: outgoing triples plus flipped incoming ones.

    A loop (v, p, v) contributes two signed triples, one forward and one
    inverse.  A value focus only ever has inverse key triples.
    """
    out: set = set()
    if isinstance(v, Node):
        for e in g.out_edges(v.id):
            out.add(SignedTriple(e.p, False, FWD, Node(e.o)))
        for k, w in g.node_props(v.id).items():
            out.add(SignedTriple(k, True, FWD, Val(w)))
        for e in g.in_edges(v.id):
            out.add(SignedTriple(e.p, False, INV, Node(e.s)))
    else:
        for (n, k) in g.value_owners(v.value):
            out.add(SignedTriple(k, True, INV, Node(n)))
    return frozenset(out)


def triple_ends(g: CommonGraph, q: str, direction: str) -> Set[Elem]:
    """The raw elements with a ``q`` triple in the given direction: the
    first components (``FWD``) or the last components (``INV``) of all
    edges and property triples named ``q``.  Reads the name index only,
    so it costs the number of ``q`` triples, not the size of the graph."""
    i = 0 if direction == FWD else 2
    return {t[i] for t in g.triples_named(q)}


def value_sort_key(w: Value) -> Tuple[str, str]:
    """Total order on values used for deterministic iteration and reports."""
    if w.tag == "int":
        return ("int", f"{w.payload:+021d}")
    if w.tag == "bool":
        return ("bool", "1" if w.payload else "0")
    return ("str", w.payload)  # type: ignore[return-value]


def focus_sort_key(f: Focus) -> Tuple:
    if isinstance(f, Node):
        return ("n", f.id)
    return ("v",) + value_sort_key(f.value)


def signed_triple_sort_key(t: SignedTriple) -> Tuple:
    return (t.direction, t.name, focus_sort_key(t.endpoint))


def elems_to_foci(elems: Iterable[Elem]) -> List[Focus]:
    """Raw elements as foci in :func:`focus_sort_key` order: node ids
    sorted as strings, then values by :func:`value_sort_key`."""
    nodes = sorted(x for x in elems if type(x) is str)
    values = sorted((x for x in elems if type(x) is not str), key=value_sort_key)
    return [Node(u) for u in nodes] + [Val(w) for w in values]
