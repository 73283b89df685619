"""Interpreted functions and predicates (Section 5.2).

The calculus "uses interpreted functions and predicates in the style of
[3]"; the registry below carries the ones the paper names — ``contains``
and ``near`` for information retrieval, ``length`` and ``name`` for the
path/attribute sorts, ``set_to_list``/``sort_by`` for list results — plus
the comparison predicates the examples use (``I < J``).

Every entry receives the :class:`~repro.calculus.evaluator.EvalContext`
first, so predicates like ``contains`` can apply the ``text()`` inverse
mapping when handed a logical object instead of a string (Section 4.2).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import EvaluationError
from repro.mapping.text_inverse import text_of
from repro.oodb.values import ListValue, Oid, SetValue, TupleValue
from repro.paths.pathops import (
    path_concat,
    path_length,
    path_project,
    path_startswith,
)
from repro.paths.steps import Path
from repro.text import predicates as text_predicates


class FunctionRegistry:
    """Named interpreted functions and predicates."""

    def __init__(self) -> None:
        self._functions: dict[str, Callable] = {}
        self._predicates: dict[str, Callable] = {}

    def register_function(self, name: str, implementation: Callable) -> None:
        self._functions[name] = implementation

    def register_predicate(self, name: str, implementation: Callable) -> None:
        self._predicates[name] = implementation

    def function(self, name: str) -> Callable:
        try:
            return self._functions[name]
        except KeyError:
            raise EvaluationError(
                f"unknown interpreted function {name!r}") from None

    def predicate(self, name: str) -> Callable:
        try:
            return self._predicates[name]
        except KeyError:
            raise EvaluationError(
                f"unknown interpreted predicate {name!r}") from None

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def has_predicate(self, name: str) -> bool:
        return name in self._predicates


def _as_text(ctx, value: object) -> object:
    """Strings pass through; logical objects go through ``text()``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (Oid, TupleValue, ListValue, SetValue)):
        return text_of(value, ctx.instance)
    return value


def _contains(ctx, value: object, pattern: object) -> bool:
    return text_predicates.contains(_as_text(ctx, value), pattern)


def _near(ctx, value: object, first: str, second: str,
          distance: int = 5) -> bool:
    return text_predicates.near(_as_text(ctx, value), first, second,
                                distance)


def _text(ctx, value: object) -> str:
    return text_of(value, ctx.instance)


def _name(ctx, attribute: object) -> str:
    """``name(A)`` — the attribute's name as a string."""
    if isinstance(attribute, str):
        return attribute
    raise EvaluationError(f"name() expects an attribute, got {attribute!r}")


def _comparable(value: object) -> object:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return value
    raise EvaluationError(f"cannot compare {value!r}")


def _lt(ctx, left, right) -> bool:
    return _comparable(left) < _comparable(right)


def _le(ctx, left, right) -> bool:
    return _comparable(left) <= _comparable(right)


def _gt(ctx, left, right) -> bool:
    return _comparable(left) > _comparable(right)


def _ge(ctx, left, right) -> bool:
    return _comparable(left) >= _comparable(right)


def _neq(ctx, left, right) -> bool:
    from repro.oodb.values import equivalent
    return not equivalent(left, right)


def _set_to_list(ctx, value) -> ListValue:
    if isinstance(value, SetValue):
        return ListValue(value)
    if isinstance(value, ListValue):
        return value
    raise EvaluationError(f"set_to_list() expects a set, got {value!r}")


def _sort_by(ctx, value, attribute: str) -> ListValue:
    if not isinstance(value, (SetValue, ListValue)):
        raise EvaluationError("sort_by() expects a collection")
    def key(item):
        if isinstance(item, TupleValue) and item.has_attribute(attribute):
            return item.get(attribute)
        raise EvaluationError(
            f"sort_by: element {item!r} has no attribute {attribute!r}")
    return ListValue(sorted(value, key=key))


def _first(ctx, value) -> object:
    if isinstance(value, ListValue) and len(value):
        return value[0]
    raise EvaluationError("first() expects a non-empty list")


def _last(ctx, value) -> object:
    if isinstance(value, ListValue) and len(value):
        return value[-1]
    raise EvaluationError("last() expects a non-empty list")


def _count(ctx, value) -> int:
    if isinstance(value, (ListValue, SetValue)):
        return len(value)
    raise EvaluationError("count() expects a collection")


def _length(ctx, value) -> int:
    if isinstance(value, Path):
        return path_length(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (ListValue, SetValue)):
        return len(value)
    raise EvaluationError(f"length() cannot apply to {value!r}")


def _project(ctx, path, start: int, end: int):
    return path_project(path, start, end)


def _startswith(ctx, path, prefix) -> bool:
    return path_startswith(path, prefix)


def _concat(ctx, left, right):
    if isinstance(left, Path) and isinstance(right, Path):
        return path_concat(left, right)
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    if isinstance(left, ListValue) and isinstance(right, ListValue):
        return left + right
    raise EvaluationError(
        f"concat() cannot apply to {left!r} and {right!r}")


def _element(ctx, value) -> object:
    """``element(q)`` — the single element of a singleton collection."""
    if isinstance(value, (SetValue, ListValue)) and len(value) == 1:
        return next(iter(value))
    size = (len(value) if isinstance(value, (SetValue, ListValue))
            else repr(value))
    raise EvaluationError(
        f"element() expects a singleton collection, got {size} "
        "elements")


def _set_union(ctx, left, right) -> SetValue:
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        return left.union(right)
    raise EvaluationError("set_union() expects two sets")


def _set_intersection(ctx, left, right) -> SetValue:
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        return left.intersection(right)
    raise EvaluationError("set_intersection() expects two sets")


def _set_difference(ctx, left, right) -> SetValue:
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        return left.difference(right)
    raise EvaluationError("set_difference() expects two sets")


def _exists(ctx, value) -> bool:
    if isinstance(value, (SetValue, ListValue)):
        return len(value) > 0
    raise EvaluationError("exists() expects a collection")


def default_registry() -> FunctionRegistry:
    """The registry with every built-in function and predicate."""
    registry = FunctionRegistry()
    registry.register_function("length", _length)
    registry.register_function("name", _name)
    registry.register_function("project", _project)
    registry.register_function("concat", _concat)
    registry.register_function("set_to_list", _set_to_list)
    registry.register_function("sort_by", _sort_by)
    registry.register_function("first", _first)
    registry.register_function("last", _last)
    registry.register_function("count", _count)
    registry.register_function("text", _text)
    registry.register_function("element", _element)
    registry.register_function("set_union", _set_union)
    registry.register_function("set_intersection", _set_intersection)
    registry.register_function("set_difference", _set_difference)
    registry.register_predicate("exists", _exists)
    registry.register_predicate("contains", _contains)
    registry.register_predicate("near", _near)
    registry.register_predicate("startswith", _startswith)
    registry.register_predicate("lt", _lt)
    registry.register_predicate("le", _le)
    registry.register_predicate("gt", _gt)
    registry.register_predicate("ge", _ge)
    registry.register_predicate("neq", _neq)
    return registry
