"""Type constructors of the extended O₂ data model (Section 5.1).

The paper extends the O₂/IQL type system with two constructors:

* **ordered tuples** — ``[a1: t1, ..., an: tn]`` where the attribute order is
  meaningful, and
* **marked unions** — ``(a1: t1 + ... + an: tn)`` where the attribute names
  act as markers selecting an alternative.

Types over a set of classes ``C`` are built from:

1. atomic types ``integer``, ``string``, ``boolean``, ``float``;
2. class names in ``C`` and the top type ``any``;
3. list types ``[t]`` and set types ``{t}``;
4. ordered tuple types;
5. marked union types.

All type objects are immutable and hashable, so they can be used as
dictionary keys (the subtyping and inference machinery caches on them).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TypeConstructionError


class Type:
    """Abstract base class of every type in the model."""

    __slots__ = ()

    def is_union(self) -> bool:
        return isinstance(self, UnionType)

    def __repr__(self) -> str:  # pragma: no cover - delegated to __str__
        return str(self)


class AtomicType(Type):
    """One of the four atomic types of Section 5.1.

    Instances are interned: ``AtomicType('integer') is INTEGER``.
    """

    __slots__ = ("name",)

    _NAMES = ("integer", "string", "boolean", "float")
    _interned: dict[str, "AtomicType"] = {}

    def __new__(cls, name: str) -> "AtomicType":
        if name not in cls._NAMES:
            raise TypeConstructionError(f"unknown atomic type: {name!r}")
        cached = cls._interned.get(name)
        if cached is None:
            cached = super().__new__(cls)
            object.__setattr__(cached, "name", name)
            cls._interned[name] = cached
        return cached

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("AtomicType is immutable")

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, AtomicType) and other.name == self.name)

    def __hash__(self) -> int:
        return hash(("atomic", self.name))

    def __str__(self) -> str:
        return self.name


INTEGER = AtomicType("integer")
STRING = AtomicType("string")
BOOLEAN = AtomicType("boolean")
FLOAT = AtomicType("float")

ATOMIC_TYPES: tuple[AtomicType, ...] = (INTEGER, STRING, BOOLEAN, FLOAT)


class AnyType(Type):
    """``any`` — the top of the class hierarchy (Section 5.1, rule 2)."""

    __slots__ = ()
    _instance: "AnyType | None" = None

    def __new__(cls) -> "AnyType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnyType)

    def __hash__(self) -> int:
        return hash("any")

    def __str__(self) -> str:
        return "any"


ANY = AnyType()


class ClassType(Type):
    """A reference to a named class.

    A class *name* is a type (Section 5.1 rule 2); its interpretation is the
    set of oids assigned to the class plus ``nil``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not name[0].isalpha():
            raise TypeConstructionError(f"invalid class name: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("ClassType is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("class", self.name))

    def __str__(self) -> str:
        return self.name


class ListType(Type):
    """``[t]`` — homogeneous ordered collection."""

    __slots__ = ("element",)

    def __init__(self, element: Type) -> None:
        _require_type(element, "list element")
        object.__setattr__(self, "element", element)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("ListType is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ListType) and other.element == self.element

    def __hash__(self) -> int:
        return hash(("list", self.element))

    def __str__(self) -> str:
        return f"list({self.element})"


class SetType(Type):
    """``{t}`` — homogeneous unordered collection."""

    __slots__ = ("element",)

    def __init__(self, element: Type) -> None:
        _require_type(element, "set element")
        object.__setattr__(self, "element", element)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("SetType is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetType) and other.element == self.element

    def __hash__(self) -> int:
        return hash(("set", self.element))

    def __str__(self) -> str:
        return f"set({self.element})"


class _Fields:
    """Shared machinery for the two named-field constructors."""

    __slots__ = ()

    @staticmethod
    def check(fields: Iterable[tuple[str, Type]],
              kind: str) -> tuple[tuple[str, Type], ...]:
        frozen = tuple(fields)
        seen: set[str] = set()
        for name, field_type in frozen:
            if not isinstance(name, str) or not name:
                raise TypeConstructionError(
                    f"{kind} attribute name must be a non-empty string, "
                    f"got {name!r}")
            if name in seen:
                raise TypeConstructionError(
                    f"duplicate attribute {name!r} in {kind} type")
            seen.add(name)
            _require_type(field_type, f"{kind} attribute {name!r}")
        return frozen


class TupleType(Type):
    """``[a1: t1, ..., an: tn]`` — an **ordered** tuple type.

    Attribute order is part of the type identity: two tuple types with the
    same attribute/type pairs in different orders are *different* types
    (Section 5.1: "the ordering of tuple attributes is meaningful").
    """

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[tuple[str, Type]]) -> None:
        frozen = _Fields.check(fields, "tuple")
        object.__setattr__(self, "fields", frozen)
        object.__setattr__(
            self, "_index", {name: tp for name, tp in frozen})

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("TupleType is immutable")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def field_type(self, name: str) -> Type:
        """Return the type of attribute ``name``.

        Raises :class:`KeyError` when the attribute is absent.
        """
        return self._index[name]

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def position_of(self, name: str) -> int:
        """0-based rank of attribute ``name`` (the heterogeneous-list view)."""
        for i, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return i
        raise KeyError(name)

    def __iter__(self) -> Iterator[tuple[str, Type]]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleType) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(("tuple", self.fields))

    def __str__(self) -> str:
        inner = ", ".join(f"{n}: {t}" for n, t in self.fields)
        return f"tuple({inner})"


class UnionType(Type):
    """``(a1: t1 + ... + an: tn)`` — a **marked** union type.

    A value of this type is a one-field tuple ``[ai: v]`` where ``v`` has
    type ``ti`` — the attribute name *marks* the chosen alternative.
    Branch order is normalised away for equality: unions are compared as
    attribute→type mappings (branch order carries no meaning in the paper's
    semantics, where ``dom`` is a plain set union over alternatives).
    """

    __slots__ = ("branches", "_index")

    def __init__(self, branches: Iterable[tuple[str, Type]]) -> None:
        frozen = _Fields.check(branches, "union")
        if not frozen:
            raise TypeConstructionError("union type needs at least one branch")
        object.__setattr__(self, "branches", frozen)
        object.__setattr__(
            self, "_index", {name: tp for name, tp in frozen})

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("UnionType is immutable")

    @property
    def markers(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.branches)

    def branch_type(self, marker: str) -> Type:
        """Return the alternative type selected by ``marker``."""
        return self._index[marker]

    def has_marker(self, marker: str) -> bool:
        return marker in self._index

    def __iter__(self) -> Iterator[tuple[str, Type]]:
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UnionType)
                and dict(other.branches) == dict(self.branches))

    def __hash__(self) -> int:
        return hash(("union", frozenset(self.branches)))

    def __str__(self) -> str:
        inner = " + ".join(f"{n}: {t}" for n, t in self.branches)
        return f"union({inner})"


def _require_type(value: object, context: str) -> None:
    if not isinstance(value, Type):
        raise TypeConstructionError(
            f"{context} must be a Type, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Convenience constructors — these read close to the paper's notation.
# ---------------------------------------------------------------------------


def tuple_of(*fields: tuple[str, Type], **kw_fields: Type) -> TupleType:
    """Build an ordered tuple type.

    ``tuple_of(('title', STRING), ('bodies', list_of(c('Body'))))`` or, when
    order agrees with keyword order (Python preserves it),
    ``tuple_of(title=STRING)``.
    """
    parts: list[tuple[str, Type]] = list(fields)
    parts.extend(kw_fields.items())
    return TupleType(parts)


def union_of(*branches: tuple[str, Type], **kw_branches: Type) -> UnionType:
    """Build a marked union type from ``(marker, type)`` pairs."""
    parts: list[tuple[str, Type]] = list(branches)
    parts.extend(kw_branches.items())
    return UnionType(parts)


#: Marker prefix of a *system* union (``alpha1``, ``alpha2``, ...): the
#: alternative types a term may have, with no marker on the values —
#: the type inference and the compiler expand it into its branches.
SYSTEM_MARKER = "alpha"


def system_union(alternatives: Iterable[Type]) -> UnionType:
    """The system union of ``alternatives`` (see :data:`SYSTEM_MARKER`)."""
    return UnionType([(f"{SYSTEM_MARKER}{number}", tp)
                      for number, tp in enumerate(alternatives, 1)])


def is_system_union(tp: Type) -> bool:
    return isinstance(tp, UnionType) and all(
        marker.startswith(SYSTEM_MARKER) for marker in tp.markers)


def list_of(element: Type) -> ListType:
    """Shorthand for :class:`ListType` — ``list_of(c('Body'))``."""
    return ListType(element)


def set_of(element: Type) -> SetType:
    """Shorthand for :class:`SetType`."""
    return SetType(element)


def c(name: str) -> ClassType:
    """Shorthand for :class:`ClassType` — ``c('Article')``."""
    return ClassType(name)


def iter_subterms(tp: Type) -> Iterator[Type]:
    """Yield ``tp`` and every type syntactically nested inside it."""
    yield tp
    if isinstance(tp, (ListType, SetType)):
        yield from iter_subterms(tp.element)
    elif isinstance(tp, TupleType):
        for _, field in tp.fields:
            yield from iter_subterms(field)
    elif isinstance(tp, UnionType):
        for _, branch in tp.branches:
            yield from iter_subterms(branch)


def referenced_classes(tp: Type) -> set[str]:
    """The names of every class mentioned anywhere inside ``tp``."""
    return {sub.name for sub in iter_subterms(tp)
            if isinstance(sub, ClassType)}
