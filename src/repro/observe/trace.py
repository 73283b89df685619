"""Span trees — hierarchical tracing of the query pipeline.

A :class:`Tracer` records a tree of named :class:`Span`\\ s via a
context-manager API::

    tracer = Tracer()
    with tracer.span("query", backend="algebra"):
        with tracer.span("parse"):
            ...

Spans carry attributes (annotated at open time or later via
:meth:`Span.annotate`) and wall-clock elapsed seconds.  Tests should
assert on span *structure* and attributes — the deterministic parts —
never on elapsed times.

:data:`NULL_TRACER` is a shared no-op tracer: its ``span`` context
manager hands out one reusable inert span, so code can be written
against the tracer API unconditionally at per-query (not per-row)
granularity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Span:
    """One node of the trace tree."""

    __slots__ = ("name", "attributes", "children", "elapsed", "_started")

    #: Are annotations kept?  Worth computing only when they are.
    recording = True

    def __init__(self, name: str, **attributes: object) -> None:
        self.name = name
        self.attributes: dict[str, object] = dict(attributes)
        self.children: list[Span] = []
        self.elapsed: float = 0.0
        self._started: float | None = None

    def annotate(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def child(self, name: str) -> "Span | None":
        """First direct child with the given name."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def path_names(self) -> list[str]:
        """Names of the direct children, in order."""
        return [span.name for span in self.children]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Span({self.name!r}, children={len(self.children)}, "
                f"elapsed={self.elapsed:.6f})")


class _NullSpan(Span):
    """An inert span: annotations are discarded, nothing is recorded."""

    recording = False

    def annotate(self, key: str, value: object) -> None:
        pass


class Tracer:
    """Collects span trees; one tracer may record several roots."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: object):
        node = Span(name, **attributes)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        node._started = time.perf_counter()
        try:
            yield node
        finally:
            node.elapsed += time.perf_counter() - node._started
            node._started = None
            self._stack.pop()

    @property
    def last_root(self) -> Span | None:
        return self.roots[-1] if self.roots else None

    def reset(self) -> None:
        self.roots = []
        self._stack = []


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing per span."""

    def __init__(self) -> None:
        super().__init__()
        self._null = _NullSpan("null")

    @contextmanager
    def span(self, name: str, **attributes: object):
        yield self._null

    def reset(self) -> None:
        pass


#: Shared inert tracer — safe to use concurrently since it stores nothing.
NULL_TRACER = NullTracer()
