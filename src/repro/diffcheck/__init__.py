"""Differential correctness checking (the standing oracle).

The Section-5.4 claim — the algebraization is *equivalent* to the
calculus — is the contract every optimization layer (index rewrite,
plan cache, shared-prefix DAG) builds on.  This package keeps that
contract executable:

* :mod:`repro.diffcheck.generator` — a seeded random generator of
  calculus queries spanning the full surface (path and attribute
  variables, marked-union selectors, ordered-tuple positional access,
  ``contains``/``near`` text predicates, negation, quantifiers) and of
  randomized corpora specs over :mod:`repro.corpus.generator`;
* :mod:`repro.diffcheck.harness` — runs each query through the
  calculus interpreter and through the engine of one ordinary store
  per served configuration (``algebra``, ``structural``, the
  relational ``sql`` hybrid), executing each compiled plan twice, and
  flags any disagreement;
* :mod:`repro.diffcheck.minimize` — a delta-debugging minimizer that
  shrinks a failing (corpus, query) pair to a minimal repro;
* :mod:`repro.diffcheck.fixtures` — replayable JSON serialization of
  minimized repros (checked in under ``tests/diffcheck/fixtures``);
* ``python -m repro.diffcheck`` — the CLI entry point
  (``--budget N --seed S``), used by the per-PR smoke run and the
  nightly fuzz workflow.

Progress is observable through ``diffcheck.*`` counters on a
:class:`repro.observe.MetricsRegistry`.

Policy (see README): a divergence found here is a bug.  It must either
be fixed in the same change or land as a checked-in tracking fixture
with an xfail replay — never as a code comment.
"""

from repro.diffcheck.generator import (
    CorpusSpec,
    GeneratedCase,
    QueryGenerator,
    generate_cases,
)
from repro.diffcheck.harness import (
    ALGEBRA_CONFIGS,
    Comparison,
    DiffHarness,
    Outcome,
)
from repro.diffcheck.minimize import minimize
from repro.diffcheck.fixtures import (
    decode_query,
    encode_query,
    load_fixture,
    save_fixture,
)

__all__ = [
    "ALGEBRA_CONFIGS", "Comparison", "CorpusSpec", "DiffHarness",
    "GeneratedCase", "Outcome", "QueryGenerator", "decode_query",
    "encode_query", "generate_cases", "load_fixture", "minimize",
    "save_fixture",
]
