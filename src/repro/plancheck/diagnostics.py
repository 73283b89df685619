"""Structured findings of the static analyses.

Two finding shapes, one per plancheck layer:

* :class:`PlanFault` — the plan **verifier**'s unit: a violated
  dataflow/structural invariant of an algebra plan, attached to the
  operator that exhibits it and to the optimizer stage after which it
  appeared (so a broken rewrite is named, not just detected).
* :class:`Diagnostic` — the query **linter**'s unit: a schema-aware
  observation about the calculus form of a query, carrying a severity
  (``error`` stops execution, ``warning`` does not), a source position
  when one can be recovered from the query text, and a fix hint.

Both are plain immutable records with a human rendering; machine
consumers read the attributes, the CLI prints :meth:`render`.
"""

from __future__ import annotations

#: Severity levels, in increasing order of trouble.
SEVERITIES = ("warning", "error")


class PlanFault:
    """One violated invariant found by the plan verifier."""

    __slots__ = ("code", "message", "operator", "stage", "hint")

    def __init__(self, code: str, message: str, operator: str = "",
                 stage: str | None = None, hint: str | None = None) -> None:
        self.code = code
        self.message = message
        #: One-line rendering of the offending operator (its class name
        #: and parameters), never the whole subtree.
        self.operator = operator
        #: The stage after which the fault was observed (``compile``
        #: for the compiler's plan, then the optimizer's ``pushdown``
        #: and ``factor``) — ``None`` for direct verifier calls.
        self.stage = stage
        self.hint = hint

    def render(self) -> str:
        where = f" after {self.stage}" if self.stage else ""
        lines = [f"{self.code}{where}: {self.message}"]
        if self.operator:
            lines.append(f"  at {self.operator}")
        if self.hint:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PlanFault({self.code}, {self.message!r})"


class PlanVerificationWarning(UserWarning):
    """The optimizer's ``"warn"`` policy dropped a stage whose plan
    failed verification (the last verified plan keeps serving).

    ``faults`` is the stage's :class:`PlanFault` list.  A caller that
    must not serve past a rejected stage (diffcheck, the CLI) escalates
    the category: ``warnings.simplefilter("error",
    PlanVerificationWarning)`` makes the optimizer raise it instead."""

    def __init__(self, message: str, faults: list[PlanFault]) -> None:
        super().__init__(message)
        self.faults = faults


class Diagnostic:
    """One linter finding over a query text."""

    __slots__ = ("code", "severity", "message", "line", "column",
                 "fragment", "hint")

    def __init__(self, code: str, severity: str, message: str,
                 line: int | None = None, column: int | None = None,
                 fragment: str | None = None,
                 hint: str | None = None) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.code = code
        self.severity = severity
        self.message = message
        self.line = line
        self.column = column
        #: The query-text fragment the position points at (when the
        #: calculus-level finding could be mapped back to the source).
        self.fragment = fragment
        self.hint = hint

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def render(self) -> str:
        position = ""
        if self.line is not None:
            position = f"{self.line}:{self.column or 1}: "
        lines = [f"{position}{self.severity} {self.code}: {self.message}"]
        if self.hint:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Diagnostic({self.code}, {self.severity}, {self.message!r})"


def position_of(text: str, fragment: str | None) -> tuple[int | None,
                                                          int | None]:
    """1-based (line, column) of ``fragment``'s first occurrence in
    ``text`` — the linter's best-effort source mapping (the calculus
    form carries no positions, but variable and attribute names survive
    translation verbatim)."""
    if not fragment:
        return None, None
    at = text.find(fragment)
    if at < 0:
        return None, None
    line = text.count("\n", 0, at) + 1
    last_newline = text.rfind("\n", 0, at)
    return line, at - last_newline
