"""Membership of values in type interpretations — ``v ∈ dom(τ)``.

Implements the interpretation of types from Section 5.1:

* atomic types take their Python domains;
* ``dom(c)`` is ``pi(c) ∪ {nil}`` — the oids assigned to the class (through
  inheritance) plus nil;
* ``dom(any)`` is the set of all oids;
* list/set types have element-wise interpretations;
* tuple-type interpretation allows **extra attributes after the declared
  prefix** (the paper's ``l >= 0`` trailing attributes);
* union-type interpretation is the union over one-field marked tuples.

Membership needs an oid assignment, carried by an :class:`OidContext`
protocol (implemented by :class:`repro.oodb.instance.Instance`); checks on
pure values (no oids) can pass ``None``.
"""

from __future__ import annotations

from repro.oodb.types import (
    AnyType,
    AtomicType,
    BOOLEAN,
    ClassType,
    FLOAT,
    INTEGER,
    ListType,
    STRING,
    SetType,
    TupleType,
    Type,
    UnionType,
    is_system_union,
    system_union,
)
from repro.oodb.values import (
    ListValue,
    Nil,
    Oid,
    SetValue,
    TupleValue,
)

_ATOMIC_PYTHON = {
    INTEGER: int,
    STRING: str,
    BOOLEAN: bool,
    FLOAT: float,
}


def value_in_type(value: object, tp: Type, oid_context=None) -> bool:
    """Decide ``value ∈ dom(tp)``.

    ``oid_context`` must provide ``oid_class(oid) -> str`` and a hierarchy
    ``precedes(sub, sup) -> bool``; pass ``None`` to treat every oid as a
    member of its own class only.

    ``nil`` belongs to *every* domain: Section 5.1 introduces it as "the
    undefined value" and Figure 3 excludes it where needed through
    constraints (``status != nil``) rather than through types — e.g. an
    optional SGML component (``caption?``) maps to a plain attribute that
    may hold nil.
    """
    if isinstance(value, Nil):
        return not isinstance(tp, (ListType, SetType))
    if isinstance(tp, AtomicType):
        expected = _ATOMIC_PYTHON[tp]
        if expected is int:
            # bool is a Python subclass of int; keep the domains disjoint.
            return isinstance(value, int) and not isinstance(value, bool)
        if expected is float:
            return isinstance(value, float)
        return isinstance(value, expected)

    if isinstance(tp, AnyType):
        return isinstance(value, Oid)

    if isinstance(tp, ClassType):
        if isinstance(value, Nil):
            return True
        if not isinstance(value, Oid):
            return False
        if oid_context is None:
            return value.class_name == tp.name
        return oid_context.oid_in_class(value, tp.name)

    if isinstance(tp, ListType):
        return (isinstance(value, ListValue)
                and all(value_in_type(v, tp.element, oid_context)
                        for v in value))

    if isinstance(tp, SetType):
        return (isinstance(value, SetValue)
                and all(value_in_type(v, tp.element, oid_context)
                        for v in value))

    if isinstance(tp, TupleType):
        return _tuple_in_type(value, tp, oid_context)

    if is_system_union(tp):
        # the alternatives of a system union mark no value
        return any(value_in_type(value, branch, oid_context)
                   for _, branch in tp.branches)

    if isinstance(tp, UnionType):
        if not isinstance(value, TupleValue) or not value.is_marked:
            return False
        marker = value.marker
        if not tp.has_marker(marker):
            return False
        return value_in_type(
            value.marked_value, tp.branch_type(marker), oid_context)

    return False


def _tuple_in_type(value: object, tp: TupleType, oid_context) -> bool:
    """The declared attributes must appear as a prefix, in order; trailing
    extra attributes are allowed (Section 5.1's ``l >= 0``)."""
    if not isinstance(value, TupleValue):
        return False
    if len(value.fields) < len(tp.fields):
        return False
    for (expected_name, expected_type), (name, field_value) in zip(
            tp.fields, value.fields):
        if name != expected_name:
            return False
        if not value_in_type(field_value, expected_type, oid_context):
            return False
    return True


def describe_value(value: object) -> str:
    """A short human-readable description of a value's shape (for errors)."""
    if isinstance(value, Nil):
        return "nil"
    if isinstance(value, Oid):
        return f"oid of class {value.class_name}"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    if isinstance(value, TupleValue):
        return "tuple(" + ", ".join(value.attribute_names) + ")"
    if isinstance(value, ListValue):
        return f"list of {len(value)} elements"
    if isinstance(value, SetValue):
        return f"set of {len(value)} elements"
    return type(value).__name__


def infer_value_type(value: object, oid_context=None) -> Type:
    """The most natural type of a ground value — what a name root
    (``DocumentStore.define_name``) is declared with.

    A collection's element type is the join of its elements' types;
    when they have no common supertype (an object beside a tuple, say),
    it is the :func:`~repro.oodb.types.system_union` of their distinct
    types, so a path variable over an element is expanded per
    alternative.
    """
    from repro.oodb.subtyping import common_supertype
    from repro.errors import SubtypingError

    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if isinstance(value, Oid):
        return ClassType(value.class_name)
    if isinstance(value, TupleValue):
        return TupleType(
            [(name, infer_value_type(v, oid_context))
             for name, v in value.fields])
    if isinstance(value, (ListValue, SetValue)):
        constructor = ListType if isinstance(value, ListValue) else SetType
        elements = list(value)
        if not elements:
            return constructor(AnyType())
        alternatives = list(dict.fromkeys(
            infer_value_type(element, oid_context) for element in elements))
        result = alternatives[0]
        for alternative in alternatives[1:]:
            try:
                result = common_supertype(result, alternative)
            except SubtypingError:
                return constructor(system_union(alternatives))
        return constructor(result)
    if isinstance(value, Nil):
        return AnyType()
    raise TypeError(f"not a model value: {value!r}")
