"""Rendering of profiled queries — the EXPLAIN ANALYZE output.

:class:`ExplainReport` is what
:meth:`repro.session.DocumentStore.explain_analyze`
returns: the executed plan annotated with *actual* per-operator row
counts (algebra backend), the pipeline span tree, the result, and a
structured metrics snapshot.  ``str(report)`` renders the familiar
indented tree::

    Project [t]  (est=4.2, rows=3, pulls=1, time=1.20ms, self=0.10ms)
      Union (13 branches)  (est=5.0, rows=5, pulls=1, time=1.10ms, ...)
        MakePath P = .title  (est=1.0, rows=1, pulls=1, time=0.10ms, ...)
        ...

``time`` is inclusive of the subtree, ``self`` is the operator's own
share of it (the self times of the distinct nodes add up to the root's
``time``).  ``est`` is the cost stage's predicted cardinality (absent
on uncosted plans); :meth:`ExplainReport.estimation_errors` ranks the
nodes by q-error and :meth:`ExplainReport.estimation_summary`
aggregates them.
Row counts and plan shapes are deterministic; times are informational.
"""

from __future__ import annotations

from repro.observe.profile import PlanProfiler
from repro.observe.trace import Span


def plan_tree(operator, profiler: PlanProfiler | None = None,
              _labels: dict[int, str] | None = None) -> dict:
    """Nested ``{operator, label, rows, pulls, elapsed, self, children}``.

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
        "est_rows": operator.est_rows,
        "ref": ref,
        "children": ([] if ref else
                     [plan_tree(child, profiler, _labels)
                      for child in operator.children()]),
    }


def render_plan_tree(tree: dict, indent: int = 0) -> str:
    pad = "  " * indent
    annotation = ""
    if tree["rows"] is not None:
        estimated = ""
        if tree.get("est_rows") is not None:
            estimated = f"est={tree['est_rows']:.1f}, "
        annotation = (f"  ({estimated}rows={tree['rows']}, "
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
                 trace: Span | None, sql: str | None = None) -> None:
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
                           "elapsed", "self", "est_rows", "ref")})
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

    def estimation_errors(self) -> list[dict]:
        """Per-operator estimation quality, worst first: every executed
        node that carries both a cost-stage estimate (``est_rows``) and
        a measured actual row count, with its q-error (the symmetric
        ratio; 1.0 = perfect).  Shared nodes are counted once (ref
        stubs are skipped).  Empty on uncosted or unprofiled runs."""
        from repro.stats import q_error
        found: list[dict] = []

        def visit(node: dict) -> None:
            if node.get("ref"):
                return
            if (node["est_rows"] is not None
                    and node["rows"] is not None):
                found.append({
                    "operator": node["operator"],
                    "label": node["label"],
                    "est_rows": node["est_rows"],
                    "actual_rows": node["rows"],
                    "q_error": q_error(node["est_rows"], node["rows"]),
                })
            for child in node["children"]:
                visit(child)

        tree = self.tree
        if tree is not None and self.profiler is not None:
            visit(tree)
        found.sort(key=lambda entry: -entry["q_error"])
        return found

    def estimation_summary(self) -> dict | None:
        """Aggregate estimation error of the run: node count, mean and
        max q-error — ``None`` when the plan carries no estimates.

        Degenerate estimates (an operator whose cost annotation went
        non-finite) are excluded from the mean so one bad node cannot
        wash out the aggregate; ``max_q_error`` still reports them."""
        import math
        errors = self.estimation_errors()
        if not errors:
            return None
        qs = [entry["q_error"] for entry in errors]
        finite = [q for q in qs if math.isfinite(q)]
        return {
            "operators": len(qs),
            "mean_q_error": (sum(finite) / len(finite)
                             if finite else math.inf),
            "max_q_error": max(qs),
        }

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE ({self.backend} backend) — "
                 f"{len(self.result)} row(s)"]
        if self.plan is not None:
            lines.append(render_plan_tree(self.tree))
            summary = self.estimation_summary()
            if summary is not None:
                lines.append(
                    f"estimation error: mean q={summary['mean_q_error']:.2f}, "
                    f"max q={summary['max_q_error']:.2f} over "
                    f"{summary['operators']} operator(s)")
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
