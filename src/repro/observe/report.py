"""Rendering of profiled queries — the EXPLAIN ANALYZE output.

:class:`ExplainReport` is what
:meth:`repro.session.DocumentStore.explain_analyze`
returns: the executed plan annotated with *actual* per-operator row
counts (algebra backend), the pipeline span tree, the result, and a
structured metrics snapshot.  ``str(report)`` renders the familiar
indented tree::

    Project [t]  (rows=3, pulls=1, time=1.20ms, self=0.10ms)
      Union (13 branches)  (rows=5, pulls=1, time=1.10ms, ...)
        MakePath P = .title  (rows=1, pulls=1, time=0.10ms, ...)
        ...

``time`` is inclusive of the subtree, ``self`` is the operator's own
share of it (the self times of the distinct nodes add up to the root's
``time``).  Row counts and plan shapes are deterministic; times are
informational.
"""

from __future__ import annotations

from repro.observe.profile import PlanProfiler
from repro.observe.trace import Span


def plan_tree(operator, profiler: PlanProfiler | None = None,
              _labels: dict[int, str] | None = None) -> dict:
    """Nested ``{operator, label, rows, pulls, elapsed, self, ref,
    children}``.

    Factored plans are DAGs: a shared subplan is expanded only at its
    first occurrence; later references render as a stub node with
    ``"ref": True``, no children, and a ``(ref)`` label suffix — so the
    display, like the execution, visits every shared node once.
    """
    if _labels is None:
        _labels = {}
    ref = id(operator) in _labels
    if not ref:
        _labels[id(operator)] = operator.label()
    stats = profiler.stats_for(operator) if profiler is not None else None
    return {
        "operator": type(operator).__name__,
        "label": _labels[id(operator)] + ("  (ref)" if ref else ""),
        "rows": stats.rows_out if stats is not None else None,
        "pulls": stats.pulls if stats is not None else None,
        "elapsed": stats.elapsed if stats is not None else None,
        "self": stats.self_time if stats is not None else None,
        "ref": ref,
        "children": ([] if ref else
                     [plan_tree(child, profiler, _labels)
                      for child in operator.children()]),
    }


def render_plan_tree(tree: dict, indent: int = 0) -> str:
    pad = "  " * indent
    annotation = ""
    if tree["rows"] is not None:
        annotation = (f"  (rows={tree['rows']}, "
                      f"pulls={tree['pulls']}, "
                      f"time={tree['elapsed'] * 1000:.2f}ms, "
                      f"self={tree['self'] * 1000:.2f}ms)")
    lines = [pad + tree["label"] + annotation]
    for child in tree["children"]:
        lines.append(render_plan_tree(child, indent + 1))
    return "\n".join(lines)


def render_span(span: Span, indent: int = 0) -> str:
    pad = "  " * indent
    attributes = "".join(
        f" {key}={value}" for key, value in span.attributes.items())
    lines = [f"{pad}{span.name}{attributes}  "
             f"[{span.elapsed * 1000:.2f}ms]"]
    for child in span.children:
        lines.append(render_span(child, indent + 1))
    return "\n".join(lines)


class ExplainReport:
    """The result of running a query with full observation."""

    def __init__(self, text: str, backend: str, result, plan,
                 profiler: PlanProfiler | None, metrics: dict,
                 trace: Span | None,
                 sql: str | None = None) -> None:
        self.text = text
        self.backend = backend
        self.result = result
        self.plan = plan
        self.profiler = profiler
        #: structured snapshot — ``{"counters": {...}, "histograms": {...}}``
        self.metrics = metrics
        self.trace = trace
        #: the emitted SQL statement(s) when the run was served by the
        #: relational backend's hybrid; ``None`` on every other path
        self.sql = sql

    # -- structured access ---------------------------------------------------

    @property
    def tree(self) -> dict | None:
        """The annotated plan tree (``None`` for the calculus backend)."""
        if self.plan is None:
            return None
        return plan_tree(self.plan, self.profiler)

    def operators(self) -> list[dict]:
        """Flat pre-order list of annotated plan nodes."""
        found: list[dict] = []

        def visit(node: dict) -> None:
            found.append({key: node[key] for key in
                          ("operator", "label", "rows", "pulls",
                           "elapsed", "self", "ref")})
            for child in node["children"]:
                visit(child)

        tree = self.tree
        if tree is not None:
            visit(tree)
        return found

    def rows_for(self, operator_name: str) -> list[int]:
        """Actual row counts of every node of the given operator class."""
        return [node["rows"] for node in self.operators()
                if node["operator"] == operator_name]

    def union_fanouts(self) -> list[int]:
        """Branch counts of every distinct UnionOp in the executed
        plan (a union inside a shared subplan is counted once)."""
        if self.plan is None:
            return []
        from repro.algebra.operators import UnionOp, walk_once
        return [len(operator.branches)
                for operator in walk_once(self.plan)
                if isinstance(operator, UnionOp)]

    def counter(self, name: str, default: int = 0) -> int:
        return self.metrics.get("counters", {}).get(name, default)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE ({self.backend} backend) — "
                 f"{len(self.result)} row(s)"]
        if self.plan is not None:
            lines.append(render_plan_tree(self.tree))
        if self.sql:
            lines.append("")
            lines.append("emitted SQL:")
            lines.extend("  " + line for line in self.sql.splitlines())
        if self.trace is not None:
            lines.append("")
            lines.append(render_span(self.trace))
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("")
            lines.append("counters:")
            lines.extend(f"  {name} = {value}"
                         for name, value in counters.items())
        return "\n".join(lines)

    __str__ = render

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ExplainReport(backend={self.backend!r}, "
                f"rows={len(self.result)})")
