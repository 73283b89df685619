"""Static analysis over plans and queries (the compile-time gate).

Two layers:

* the **plan verifier** (:mod:`repro.plancheck.verifier`) — a dataflow
  pass over algebra operator trees driven by the per-operator
  ``produces()``/``consumes()`` contracts; the optimizer runs it after
  every rewrite stage, so a rewrite that breaks plan well-formedness is
  caught at compile time rather than by a fuzz sweep;
* the **query linter** (:mod:`repro.plancheck.lint`) — schema-aware
  diagnostics over the calculus form of a query (statically empty path
  atoms, impossible comparisons, unused variables, constant
  predicates), surfaced via ``DocumentStore.lint`` and
  ``python -m repro.plancheck``.

Counters land under ``plancheck.*`` in ``metrics()`` and
``explain_analyze`` snapshots.
"""

from repro.plancheck.diagnostics import (
    Diagnostic,
    PlanFault,
    PlanVerificationWarning,
)
from repro.plancheck.lint import lint_query
from repro.plancheck.verifier import (
    check_plan,
    verify_plan,
    verify_structural_index,
)

__all__ = [
    "Diagnostic",
    "PlanFault",
    "PlanVerificationWarning",
    "check_plan",
    "lint_query",
    "verify_plan",
    "verify_structural_index",
]
