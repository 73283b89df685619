"""Values of the extended O₂ data model (Section 5.1).

A *value* over a set of oids ``O`` is:

* ``nil`` (the undefined value),
* an atomic value (int, str, bool, float),
* an oid,
* an ordered tuple ``[a1: v1, ..., an: vn]``,
* a set ``{v1, ..., vn}``,
* a list ``[v1, ..., vn]``.

Marked-union values are one-field tuples ``[ai: v]``; a dedicated
:class:`UnionValue` alias constructor is provided for readability but it
*is* a :class:`TupleValue` — exactly the paper's identification.

Ordered tuples compare order-sensitively: ``[a:1, b:2] != [b:2, a:1]``
(Section 5.1).  The equivalence ``[a1:v1,...,an:vn] ≡ [[a1:v1],...,[an:vn]]``
(tuple as heterogeneous list) is *not* folded into ``==``; it is exposed as
:func:`equivalent` and :meth:`TupleValue.as_heterogeneous_list`, which is
what the evaluator uses for positional access.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Iterator

from repro.errors import ValueError_

#: Python types accepted as atomic database values.
ATOM_PYTYPES = (int, str, bool, float)

#: What :meth:`TupleValue.select` answers, unless told otherwise, when
#: it selects nothing — no value of the model.
UNSELECTED = object()


class Nil:
    """The singleton undefined value ``nil``."""

    _instance: "Nil | None" = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Nil)

    def __hash__(self) -> int:
        return hash("nil")

    def __repr__(self) -> str:
        return "nil"


NIL = Nil()


class Oid:
    """An object identifier.

    Oids are pure identities: two oids are equal iff they are the same
    object.  The ``number`` is assigned by the instance's allocator and
    the ``class_name`` records the (most specific) class the oid was
    allocated in — this is what the *restricted* path semantics needs to
    forbid two dereferences through the same class.

    ``Oid(number, class_name)`` is interned: it returns the one live
    object for that pair, so equal pairs — from the allocator, a
    decoded snapshot, a copy or an unpickling (:meth:`__reduce__`
    constructs again) — are one object, and the identity hash and
    comparison ``object`` defines run in C for every set and dict an oid
    passes through.  The table is process-wide, holds its oids weakly
    (an oid no value references any more is dropped) and is filled
    under a lock, so concurrent constructors of one pair get one
    object.  Oids are never mutated.
    """

    __slots__ = ("number", "class_name", "__weakref__")

    def __new__(cls, number: int, class_name: str) -> "Oid":
        key = (number, class_name)
        entry = _INTERNED.get(key)
        if entry is not None:
            oid = entry()
            if oid is not None:
                return oid
        with _INTERNING:
            entry = _INTERNED.get(key)
            oid = None if entry is None else entry()
            if oid is None:
                oid = object.__new__(cls)
                oid.number = number
                oid.class_name = class_name
                entry = _INTERNED[key] = _Entry(oid, _forget)
                entry.key = key
        return oid

    def __reduce__(self) -> tuple:
        return Oid, (self.number, self.class_name)

    def __repr__(self) -> str:
        return f"o{self.number}:{self.class_name}"


class _Entry(weakref.ref):
    """A weak reference to an interned oid that remembers its key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    """Drop a dead oid's entry — unless the pair was constructed again
    since (the entry is then a live one).  Re-entrant: the collector
    may run this inside ``Oid.__new__``'s locked section."""
    with _INTERNING:
        if _INTERNED.get(entry.key) is entry:
            del _INTERNED[entry.key]


#: ``(number, class_name)`` → a weak reference to the live oid.
_INTERNED: dict[tuple[int, str], _Entry] = {}
_INTERNING = threading.RLock()


class TupleValue:
    """An **ordered** tuple value ``[a1: v1, ..., an: vn]``.

    Attribute order is significant for equality.  Duplicate attribute names
    are rejected.
    """

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[tuple[str, object]]) -> None:
        frozen = tuple(fields)
        index: dict[str, object] = {}
        for name, value in frozen:
            if not isinstance(name, str) or not name:
                raise ValueError_(
                    f"tuple attribute name must be a non-empty string, "
                    f"got {name!r}")
            if name in index:
                raise ValueError_(f"duplicate tuple attribute {name!r}")
            index[name] = value
        self.fields = frozen
        self._index = index

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def get(self, name: str) -> object:
        """Value of attribute ``name``; raises ``KeyError`` when absent."""
        return self._index[name]

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def select(self, name: str, default: object = UNSELECTED) -> object:
        """Attribute selection with the implicit union selector
        (Section 5.3): attribute ``name`` of this tuple, else the
        attribute of the payload of a one-field (marked) tuple whose
        payload is a tuple, else ``default`` — selecting nothing is
        *false*, not an error.  The one definition of the rule: the
        interpreter, the navigation operators and the column kernels
        all read it."""
        index = self._index
        if name in index:
            return index[name]
        if len(index) == 1:
            payload = self.fields[0][1]
            if isinstance(payload, TupleValue):
                return payload._index.get(name, default)
        return default

    def selectable_names(self) -> list[str]:
        """Every name :meth:`select` accepts, in order: this tuple's
        attributes, then a marked payload's others."""
        names = [name for name, _ in self.fields]
        if len(names) == 1:
            payload = self.fields[0][1]
            if isinstance(payload, TupleValue):
                names.extend(name for name, _ in payload.fields
                             if name not in names)
        return names

    def position_of(self, name: str) -> int:
        for i, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return i
        raise KeyError(name)

    def replace(self, name: str, value: object) -> "TupleValue":
        """A copy with attribute ``name`` rebound to ``value``."""
        if name not in self._index:
            raise KeyError(name)
        return TupleValue(
            (n, value if n == name else v) for n, v in self.fields)

    def as_heterogeneous_list(self) -> "ListValue":
        """The paper's tuple-as-list view: ``[[a1:v1], ..., [an:vn]]``.

        Each element is a one-field (marked) tuple, so positional access
        ``t[i]`` yields the i-th field *with* its marker — exactly what
        query (†) of Section 5.3 matches on.
        """
        return ListValue(
            TupleValue([(name, value)]) for name, value in self.fields)

    @property
    def is_marked(self) -> bool:
        """True when this is a one-field tuple, i.e. a marked-union value."""
        return len(self.fields) == 1

    @property
    def marker(self) -> str:
        """The marker of a one-field tuple (union value)."""
        if not self.is_marked:
            raise ValueError_(
                f"value {self!r} has {len(self.fields)} fields, not 1")
        return self.fields[0][0]

    @property
    def marked_value(self) -> object:
        """The payload of a one-field tuple (union value)."""
        if not self.is_marked:
            raise ValueError_(
                f"value {self!r} has {len(self.fields)} fields, not 1")
        return self.fields[0][1]

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleValue) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(("tuplev", self.fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v!r}" for n, v in self.fields)
        return f"[{inner}]"


def UnionValue(marker: str, value: object) -> TupleValue:
    """A marked-union value — by definition the one-field tuple ``[m: v]``."""
    return TupleValue([(marker, value)])


class _Collection:
    """What sets and lists share: ground membership up to ``≡``."""

    __slots__ = ()

    items: tuple
    _hashed: "frozenset | bool | None"

    def _view(self) -> "frozenset | bool":
        """The members as a frozenset, built once per collection
        object; ``False`` when a member is unhashable (a raw host
        value)."""
        view = self._hashed
        if view is None:
            try:
                view = frozenset(self.items)
            except TypeError:
                view = False
            self._hashed = view
        return view

    def has_equivalent(self, value: object) -> bool:
        """True when some member is ``≡ value``.  A member equal to
        ``value`` is ``≡`` it (``equivalent`` starts with ``==``), so
        the members are looked up first, in the hashed view.  Outside
        tuples, lists and sets ``≡`` is ``==``, so a miss is final for
        any other value; the linear ``≡`` scan runs only for a
        structured or unhashable ``value``, or when a member is
        unhashable (no view)."""
        view = self._view()
        if view is not False:
            try:
                if value in view:
                    return True
                if not isinstance(value, _STRUCTURED):
                    return False
            except TypeError:
                pass
        return any(equivalent(value, member) for member in self.items)


class ListValue(_Collection):
    """An ordered, indexable collection value."""

    __slots__ = ("items", "_hashed")

    def __init__(self, items: Iterable[object] = ()) -> None:
        self.items = tuple(items)
        self._hashed = None

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ListValue(self.items[index])
        return self.items[index]

    def __iter__(self) -> Iterator[object]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ListValue) and other.items == self.items

    def __hash__(self) -> int:
        return hash(("listv", self.items))

    def __add__(self, other: "ListValue") -> "ListValue":
        if not isinstance(other, ListValue):
            return NotImplemented
        return ListValue(self.items + other.items)

    def __repr__(self) -> str:
        return "list(" + ", ".join(repr(v) for v in self.items) + ")"


class SetValue(_Collection):
    """An unordered collection value with set semantics.

    Iteration order is deterministic (insertion order of the
    de-duplicated elements) so that query results are reproducible.
    All model values are hashable and deduplicate in O(1); a raw host
    value that is not (a query head bound to e.g. a plain list) falls
    back to an equality scan instead of raising.
    """

    __slots__ = ("items", "_hashed")

    def __init__(self, items: Iterable[object] = ()) -> None:
        seen: dict[object, None] = {}
        unhashable: list = []
        ordered: list = []
        for item in items:
            try:
                if item in seen:
                    continue
                seen[item] = None
            except TypeError:
                if any(item == prior for prior in unhashable):
                    continue
                unhashable.append(item)
            ordered.append(item)
        self.items = tuple(ordered)
        self._hashed = None

    @classmethod
    def of_distinct(cls, items: Iterable[object]) -> "SetValue":
        """The set of ``items``, which the caller guarantees pairwise
        distinct already (a plan's de-duplicated head rows): no second
        de-duplication pass."""
        made = cls.__new__(cls)
        made.items = tuple(items)
        made._hashed = None
        return made

    def __contains__(self, value: object) -> bool:
        """``==``-membership, answered by the hashed view when there is
        one and ``value`` hashes (a miss is then final), else by a scan
        — so ``intersection``, ``difference`` and ``issubset`` are
        linear, not quadratic."""
        view = self._view()
        if view is not False:
            try:
                return value in view
            except TypeError:
                pass
        return value in self.items

    def __iter__(self) -> Iterator[object]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetValue)
                and frozenset(other.items) == frozenset(self.items))

    def __hash__(self) -> int:
        return hash(("setv", frozenset(self.items)))

    def union(self, other: "SetValue") -> "SetValue":
        return SetValue(self.items + other.items)

    def intersection(self, other: "SetValue") -> "SetValue":
        return SetValue(v for v in self.items if v in other)

    def difference(self, other: "SetValue") -> "SetValue":
        return SetValue(v for v in self.items if v not in other)

    def issubset(self, other: "SetValue") -> bool:
        return all(v in other for v in self.items)

    def __repr__(self) -> str:
        return "set(" + ", ".join(repr(v) for v in self.items) + ")"


#: The values whose ``≡`` is more than ``==``.
_STRUCTURED = (TupleValue, ListValue, SetValue)

#: Union of every model value class, for isinstance checks.
MODEL_VALUE_TYPES = (Nil, Oid, TupleValue, ListValue, SetValue) + ATOM_PYTYPES


def is_value(candidate: object) -> bool:
    """True when ``candidate`` is a well-formed model value (recursively)."""
    if isinstance(candidate, (Nil, Oid)):
        return True
    if isinstance(candidate, bool):
        return True
    if isinstance(candidate, ATOM_PYTYPES):
        return True
    if isinstance(candidate, TupleValue):
        return all(is_value(v) for _, v in candidate.fields)
    if isinstance(candidate, (ListValue, SetValue)):
        return all(is_value(v) for v in candidate)
    return False


def equivalent(left: object, right: object) -> bool:
    """The ``≡`` relation of Section 5.1.

    Plain equality, extended with the tuple/heterogeneous-list
    identification: ``[a1:v1,...,an:vn] ≡ [[a1:v1],...,[an:vn]]``.
    """
    if left == right:
        return True
    if isinstance(left, TupleValue) and isinstance(right, ListValue):
        return _tuple_list_equiv(left, right)
    if isinstance(right, TupleValue) and isinstance(left, ListValue):
        return _tuple_list_equiv(right, left)
    if isinstance(left, ListValue) and isinstance(right, ListValue):
        return (len(left) == len(right)
                and all(equivalent(a, b) for a, b in zip(left, right)))
    if isinstance(left, TupleValue) and isinstance(right, TupleValue):
        return (left.attribute_names == right.attribute_names
                and all(equivalent(a, b)
                        for (_, a), (_, b)
                        in zip(left.fields, right.fields)))
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        # both directions: ``[] ≡ list()`` lets two elements of one
        # side match one element of the other
        if len(left) != len(right):
            return False
        return (all(any(equivalent(a, b) for b in right) for a in left)
                and all(any(equivalent(a, b) for a in left)
                        for b in right))
    return False


def _tuple_list_equiv(tup: TupleValue, lst: ListValue) -> bool:
    if len(tup) != len(lst):
        return False
    for (name, value), element in zip(tup.fields, lst):
        if not (isinstance(element, TupleValue) and element.is_marked
                and element.marker == name
                and equivalent(element.marked_value, value)):
            return False
    return True


def deep_size(value: object) -> int:
    """Number of nodes in a value tree (used by storage benchmarks)."""
    if isinstance(value, TupleValue):
        return 1 + sum(deep_size(v) for _, v in value.fields)
    if isinstance(value, (ListValue, SetValue)):
        return 1 + sum(deep_size(v) for v in value)
    return 1
