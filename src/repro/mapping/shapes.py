"""Loading shapes — the bridge between content models and values.

The DTD → schema compiler produces, for every class, both a *type* (what
the schema declares) and a *shape* (how to build a value of that type
from a parsed element's children).  Shapes mirror the content model with
the field/marker names the mapping assigned, so the loader is a single
structure-directed recursion — exactly the "semantic actions annotating
the grammar" of Section 3.  :func:`shape_content` is the way back: the
content a loaded value holds under its shape, which both the export
(:mod:`repro.mapping.inverse`) and ``text()``
(:mod:`repro.mapping.text_inverse`) walk.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import MappingError
from repro.oodb.values import ListValue, Nil, Oid, TupleValue


class Shape:
    """Base class of loading shapes."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class ElemShape(Shape):
    """Consume one child element and load it as an object."""

    def __init__(self, element_name: str) -> None:
        self.element_name = element_name

    def __str__(self) -> str:
        return f"<{self.element_name}>"


class TextShape(Shape):
    """Consume character data.

    ``single`` consumes exactly one text node (mixed content);
    otherwise all remaining text in the element is concatenated.
    """

    def __init__(self, single: bool = False) -> None:
        self.single = single

    def __str__(self) -> str:
        return "#TEXT1" if self.single else "#TEXT"


class TupleShape(Shape):
    """Named fields loaded in order into an ordered tuple."""

    def __init__(self, fields: Iterable[tuple[str, Shape]]) -> None:
        self.fields = tuple(fields)

    def __str__(self) -> str:
        inner = ", ".join(f"{n}: {s}" for n, s in self.fields)
        return f"[{inner}]"


class UnionShape(Shape):
    """Marked alternatives; the loader picks the branch that consumes."""

    def __init__(self, branches: Iterable[tuple[str, Shape]]) -> None:
        self.branches = tuple(branches)

    def __str__(self) -> str:
        inner = " + ".join(f"{n}: {s}" for n, s in self.branches)
        return f"({inner})"


class ListShape(Shape):
    """Zero or more repetitions of the element shape."""

    def __init__(self, element: Shape, at_least_one: bool = False) -> None:
        self.element = element
        self.at_least_one = at_least_one

    def __str__(self) -> str:
        return f"{self.element}{'+' if self.at_least_one else '*'}"


class OptShape(Shape):
    """The child shape or ``nil``."""

    def __init__(self, child: Shape) -> None:
        self.child = child

    def __str__(self) -> str:
        return f"{self.child}?"


class EmptyShape(Shape):
    """EMPTY elements: nothing to consume."""

    def __str__(self) -> str:
        return "EMPTY"


def shape_content(shape: Shape, value: object, out: list) -> list:
    """Append what ``value`` holds under ``shape`` to ``out`` in
    document order — its character data (non-empty strings) and its
    child objects (oids) — and return ``out``.  Attribute fields are
    not content; a value that does not fit its shape raises
    :class:`~repro.errors.MappingError`."""
    if isinstance(shape, TupleShape):
        if not isinstance(value, TupleValue):
            raise MappingError(f"value is not a tuple: {value!r}")
        for name, field_shape in shape.fields:
            shape_content(field_shape, value.get(name), out)
    elif isinstance(shape, TextShape):
        if isinstance(value, str) and value:
            out.append(value)
    elif isinstance(shape, ElemShape):
        if isinstance(value, Oid):
            out.append(value)
        elif not isinstance(value, Nil):
            raise MappingError(
                f"expected an object for <{shape.element_name}>, "
                f"got {value!r}")
    elif isinstance(shape, ListShape):
        if not isinstance(value, ListValue):
            raise MappingError(f"expected a list, got {value!r}")
        for item in value:
            shape_content(shape.element, item, out)
    elif isinstance(shape, UnionShape):
        if not (isinstance(value, TupleValue) and value.is_marked):
            raise MappingError(f"union value is not marked: {value!r}")
        for marker, branch_shape in shape.branches:
            if marker == value.marker:
                return shape_content(branch_shape, value.marked_value, out)
        raise MappingError(f"unknown marker {value.marker!r}")
    elif isinstance(shape, OptShape):
        if not isinstance(value, Nil):
            shape_content(shape.child, value, out)
    elif not isinstance(shape, EmptyShape):
        raise MappingError(f"cannot walk shape {shape!r}")
    return out
