"""Type-level path enumeration (the engine of Section 5.4).

For the algebraization, the compiler must find the *candidate valuations*
of path variables "by analysis of the query using schema information".
A :class:`SchemaPath` is a path skeleton over a type: attribute and
marker steps are concrete, list/set positions are wildcards, and object
boundaries are dereference steps annotated with the class crossed.

Under the restricted semantics a schema path never crosses two classes
with a common allocation class, so the enumeration is finite even for
recursive schemas.
"""

from __future__ import annotations

from typing import Iterator

from repro.oodb.schema import Schema
from repro.oodb.types import (
    AnyType,
    AtomicType,
    ClassType,
    ListType,
    SetType,
    TupleType,
    Type,
    UnionType,
)


class SchemaStep:
    """One step of a schema path."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class SchemaAttr(SchemaStep):
    """``.a`` — attribute or union-marker selection."""

    def __init__(self, name: str, is_marker: bool = False) -> None:
        self.name = name
        self.is_marker = is_marker

    def __str__(self) -> str:
        return f".{self.name}"


class SchemaIndex(SchemaStep):
    """``[*]`` — any position of a list."""

    def __str__(self) -> str:
        return "[*]"


class SchemaElem(SchemaStep):
    """``{*}`` — any element of a set."""

    def __str__(self) -> str:
        return "{*}"


class SchemaDeref(SchemaStep):
    """``->`` annotated with the class being crossed."""

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name

    def __str__(self) -> str:
        return f"->({self.class_name})"


class SchemaPath:
    """A path skeleton with the type it reaches."""

    __slots__ = ("steps", "target")

    def __init__(self, steps: tuple[SchemaStep, ...], target: Type) -> None:
        self.steps = steps
        self.target = target

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SchemaPath)
                and other.steps == self.steps
                and other.target == self.target)

    def __hash__(self) -> int:
        return hash((self.steps, self.target))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last_attribute(self) -> str | None:
        """The name of the final attribute step, if any."""
        if self.steps and isinstance(self.steps[-1], SchemaAttr):
            return self.steps[-1].name
        return None

    def __str__(self) -> str:
        rendered = "".join(str(s) for s in self.steps) or "ε"
        return f"{rendered} : {self.target}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"SchemaPath({self})"


def enumerate_schema_paths(schema: Schema, root_type: Type
                           ) -> list[SchemaPath]:
    """All schema paths from ``root_type`` under the restricted semantics.

    Returns paths in a deterministic order, starting with the empty path
    at ``root_type`` itself.  The walk depends on ``schema.hierarchy``
    and ``root_type`` only — never on the roots or the data — so it runs
    once per start type and is memoized on the hierarchy; every call
    returns a fresh list.
    """
    return list(_memoized(schema, root_type)[0])


def schema_path_targets(schema: Schema, root_type: Type
                        ) -> tuple[Type, ...]:
    """The distinct targets of :func:`enumerate_schema_paths`, in
    first-occurrence order: a type-level walk through a path variable
    needs only these, since paths sharing a target continue alike."""
    return _memoized(schema, root_type)[1]


def _memoized(schema: Schema, root_type: Type
              ) -> tuple[tuple[SchemaPath, ...], tuple[Type, ...]]:
    # keyed by the rendering too: union equality ignores branch order,
    # the walk's order does not
    key = (root_type, str(root_type))
    memo = schema.hierarchy.schema_paths
    entry = memo.get(key)
    if entry is None:
        paths = tuple(_walk(schema, root_type, (), frozenset()))
        entry = (paths, tuple(dict.fromkeys(p.target for p in paths)))
        memo[key] = entry
    return entry


def _walk(schema: Schema, tp: Type, prefix: tuple[SchemaStep, ...],
          crossed: frozenset[str]) -> Iterator[SchemaPath]:
    yield SchemaPath(prefix, tp)
    if isinstance(tp, TupleType):
        for name, field in tp.fields:
            yield from _walk(schema, field,
                             prefix + (SchemaAttr(name),), crossed)
    elif isinstance(tp, UnionType):
        for marker, branch in tp.branches:
            yield from _walk(schema, branch,
                             prefix + (SchemaAttr(marker, is_marker=True),),
                             crossed)
    elif isinstance(tp, ListType):
        yield from _walk(schema, tp.element,
                         prefix + (SchemaIndex(),), crossed)
    elif isinstance(tp, SetType):
        yield from _walk(schema, tp.element,
                         prefix + (SchemaElem(),), crossed)
    elif isinstance(tp, ClassType):
        # Restricted semantics: a dereference is blocked when any class
        # that could allocate this oid was already crossed.  We approximate
        # with the declared class and its subclasses.
        candidates = schema.hierarchy.subclasses(tp.name)
        for class_name in candidates:
            if class_name in crossed:
                continue
            yield from _walk(schema, schema.structure(class_name),
                             prefix + (SchemaDeref(class_name),),
                             crossed | {class_name})
    elif isinstance(tp, (AtomicType, AnyType)):
        return
