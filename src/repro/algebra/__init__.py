"""The algebraization of the calculus (Section 5.4).

The paper sketches a two-step algebraization: (i) an algebra in the
spirit of complex-object algebras, extended with variant-based selection
over heterogeneous collections; (ii) the elimination of path and
attribute variables — "by analysis of the query using schema
information, one can find candidate valuations for the P_i and A_j", so
a query with such variables becomes a **union of queries without
attribute or path variables**.

* :mod:`repro.algebra.operators` — the operator algebra,
* :mod:`repro.algebra.batch` — the column batches operators exchange,
* :mod:`repro.algebra.kernels` — how an operator evaluates a calculus
  term or atom over a whole column (the interpreter being the general
  case),
* :mod:`repro.algebra.compile` — calculus → algebra, including the
  schema-driven variable elimination,
* :mod:`repro.algebra.optimizer` — rewrites (structural scans,
  selection pushdown, the common-prefix factoring that turns
  union-of-plans trees into shared-work DAGs, and the
  statistics-driven cost stage),
* :mod:`repro.algebra.execute` — plan execution (one batch per
  operator per run).

The restricted path semantics is required: under the liberal semantics
the same compilation would need a transitive-closure operator (the
paper's closing remark), which this algebra intentionally lacks.
"""

from repro.algebra.batch import Batch
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.operators import (
    BindOp,
    FormulaOp,
    IntervalJoinOp,
    MakePathOp,
    NegationOp,
    Operator,
    ProjectOp,
    SeedOp,
    SelectOp,
    SharedOp,
    StepOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
    walk_once,
)
from repro.algebra.optimizer import factor_shared_prefixes, optimize

__all__ = [
    "Batch", "BindOp", "FormulaOp", "IntervalJoinOp", "MakePathOp",
    "NegationOp", "Operator", "ProjectOp", "SeedOp",
    "SelectOp", "SharedOp", "StepOp", "StructuralAttrScanOp",
    "StructuralScanOp", "UnionOp",
    "UnnestOp", "compile_query", "execute_plan",
    "factor_shared_prefixes", "optimize", "walk_once",
]
