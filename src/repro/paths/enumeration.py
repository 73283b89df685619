"""Enumeration of concrete paths from a value (Section 5.2).

``paths_from(value, instance)`` yields every ``(path, reached value)``
pair, starting with the empty path ("which possibly is the empty path",
Section 4.3).  Two semantics control how object dereferences may repeat:

* **restricted** (the paper's default) — a path never contains two
  dereferences of objects *allocated in the same class*.  This bounds the
  path length by the schema, guarantees safety and enables the
  algebraization of Section 5.4.
* **liberal** — a path never visits the same *object* twice.  Lengths are
  then data-bounded; this is the semantics the paper recommends for
  hypertext navigation.

Enumeration order is deterministic (document order of the value tree).

The structural index (:mod:`repro.structindex`) folds the same
traversal, restricted semantics only, into pre/post-order arrays; its
property tests pin that an indexed range scan enumerates exactly what
``paths_from`` does.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import EvaluationError
from repro.oodb.values import ListValue, Oid, SetValue, TupleValue
from repro.paths.steps import (
    AttrStep,
    DEREF,
    ElemStep,
    IndexStep,
    Path,
)

RESTRICTED = "restricted"
LIBERAL = "liberal"

_SEMANTICS = (RESTRICTED, LIBERAL)


def paths_from(value: object, instance: Any = None,
               semantics: str = RESTRICTED,
               max_paths: int | None = None) -> Iterator[tuple[Path, object]]:
    """Yield ``(path, reached_value)`` for every concrete path from
    ``value`` — the valuation set of a path variable rooted there — in
    depth-first document order.

    ``max_paths`` guards against very large values (raises when
    exceeded); ``None`` means unbounded.  The traversal is iterative
    (explicit stack), so each pair costs O(1) regardless of depth.
    """
    if semantics not in _SEMANTICS:
        raise EvaluationError(
            f"unknown path semantics {semantics!r}; "
            f"use one of {_SEMANTICS}")
    restricted = semantics == RESTRICTED
    count = 0
    stack: list[tuple] = [(value, Path.EMPTY, frozenset())]
    while stack:
        value, prefix, visited = stack.pop()
        count += 1
        if max_paths is not None and count > max_paths:
            raise EvaluationError(
                f"path enumeration exceeded {max_paths} paths")
        yield prefix, value
        # children are pushed in reverse so they pop in document order
        if isinstance(value, TupleValue):
            stack.extend(
                (field, prefix.extended(AttrStep(name)), visited)
                for name, field in reversed(value.fields))
        elif isinstance(value, ListValue):
            stack.extend(
                (element, prefix.extended(IndexStep(index)), visited)
                for index, element
                in reversed(list(enumerate(value))))
        elif isinstance(value, SetValue):
            stack.extend(
                (element, prefix.extended(ElemStep(element)), visited)
                for element in reversed(value.items))
        elif isinstance(value, Oid) and instance is not None:
            marker = value.class_name if restricted else value
            if marker not in visited:
                stack.append((instance.deref(value),
                              prefix.extended(DEREF),
                              visited | {marker}))


def enumerate_paths(value: object, instance: Any = None,
                    semantics: str = RESTRICTED,
                    max_paths: int | None = None) -> list[Path]:
    """The set of concrete paths from ``value`` as a list.

    This is the valuation the paper's query
    ``my_article PATH_p`` returns, and the operand of the Q4 structural
    difference.
    """
    return [path for path, _ in paths_from(
        value, instance, semantics, max_paths)]


def path_difference(new_value: object, old_value: object,
                    instance: Any = None,
                    semantics: str = RESTRICTED) -> list[Path]:
    """Q4: paths present in ``new_value`` but not in ``old_value``."""
    old_paths = set(enumerate_paths(old_value, instance, semantics))
    return [path for path in enumerate_paths(new_value, instance, semantics)
            if path not in old_paths]
