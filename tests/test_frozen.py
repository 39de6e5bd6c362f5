"""``model.frozen`` keeps the record semantics of ``@dataclass(frozen=True)``
on every class it builds: keyword construction, equality within one
class only, the hash of the field tuple, ``Name(field=value, ...)``
reprs, no assignment or deletion, ``__post_init__`` checks and an
instance ``__dict__`` for ``model.memo``."""

import itertools

import pytest

from triform import cogsl, core, model, pgschema, report, shacl, shex, sshex
from triform.model import Node, TriformError

MODULES = (model, report, core, shacl, shex, sshex, pgschema, cogsl)


def frozen_classes():
    found = {
        c
        for m in MODULES
        for c in vars(m).values()
        if isinstance(c, type) and vars(c).get("__setattr__") is model._frozen_setattr
    }
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def fields(cls):
    return tuple(vars(cls).get("__annotations__", ()))


# Field values that pass the __post_init__ checks, where 1, 2, ... do not
VALID = {shex.SNeigh: {"expr": shex.Eps()}}


def values(cls, offset=0):
    """A value for each field: distinct ints, ascending."""
    return tuple(VALID.get(cls, {}).get(f, offset + i + 1) for i, f in enumerate(fields(cls)))


CLASSES = frozen_classes()


def test_the_ast_and_report_classes_are_frozen():
    assert len(CLASSES) >= 76
    # ShEx's Boolean and test classes and PG's conjunction are the shape core's
    merged = zip((shex.SAnd, shex.SOr, shex.SNot, shex.STestConst, shex.STestType), (shacl.And, shacl.Or, shacl.Not, shacl.TestConst, shacl.TestType))
    assert all(sx_class is sh_class for sx_class, sh_class in merged)
    assert shex.SAnd is shacl.And is core.And and not hasattr(pgschema, "PgAnd")
    assert {Node, report.ValidationReport, pgschema.GraphTypeReport, cogsl.Diagnostics} <= set(CLASSES)
    # methods are shared by field list: one compiled body per field list (and __post_init__ or not)
    field_lists = {(fields(c), hasattr(c, "__post_init__")) for c in CLASSES}
    for method in ("__init__", "__eq__", "__hash__"):
        assert len({vars(c)[method].__code__ for c in CLASSES}) == len(field_lists) < len(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_record_semantics(cls):
    names, vals = fields(cls), values(cls)
    x = cls(*vals)
    assert cls(**dict(zip(names, vals))) == x
    assert not (x != cls(*vals))
    assert hash(x) == hash(vals)
    inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, vals))
    assert repr(x) == f"{cls.__qualname__}({inner})"
    if names:
        assert x != cls(*values(cls, offset=10))
        with pytest.raises(AttributeError):
            setattr(x, names[0], 0)
        with pytest.raises(AttributeError):
            delattr(x, names[0])
        assert getattr(x, names[0]) == vals[0]
    with pytest.raises(AttributeError):
        x.other = 0
    assert x.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\)"):
        cls(*vals, 0)


def test_classes_with_one_field_list_never_compare_equal():
    by_fields = {}
    for c in CLASSES:
        by_fields.setdefault(fields(c), []).append(c)
    pairs = 0
    for group in by_fields.values():
        for a, b in itertools.combinations(group, 2):
            x, y = a(*values(a)), b(*values(b))
            assert x != y and y != x
            assert x.__eq__(y) is NotImplemented
            pairs += 1
    assert pairs > 50
    assert shex.Seq(shex.Eps(), shex.Eps()) != shex.Alt(shex.Eps(), shex.Eps())


def test_post_init_checks_still_raise():
    with pytest.raises(TriformError, match="non-empty"):
        Node("")
    with pytest.raises(TriformError, match="non-empty"):
        Node(id="")
    wild = shex.Seq(shex.Eps(), shex.WildOut(frozenset()))
    with pytest.raises(TriformError, match="wildcards"):
        shex.SNeigh(wild, shex.HalfOpen(frozenset()))
    with pytest.raises(TriformError, match="non-negative"):
        sshex.XRepeat(sshex.XTC("p", model.FWD, None), -1, None)
    with pytest.raises(TriformError, match="at least the minimum"):
        sshex.XRepeat(inner=sshex.XTC("p", model.FWD, None), min=2, max=1)
    with pytest.raises(TriformError, match="empty PG-path"):
        pgschema.PgPath(None, None, None)


def test_cached_property_caches_on_the_instance():
    pg_path = pgschema.PgPath("k", pgschema.PInv(pgschema.PPred("p")), None)
    body = pg_path.normal_body
    assert pg_path.normal_body is body and vars(pg_path)["normal_body"] is body
    # the cache is not a field: equality and hash are unchanged
    assert pg_path == pgschema.PgPath("k", pgschema.PInv(pgschema.PPred("p")), None)
    assert hash(pg_path) == hash(("k", pgschema.PInv(pgschema.PPred("p")), None))
