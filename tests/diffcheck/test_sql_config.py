"""The ``sql`` configuration: relational execution under the fuzzer.

Two contracts: (1) the ``sql`` config agrees with the calculus
reference on generated queries — including constructs outside the
relational subset, which the hybrid keeps in Python or falls back on;
(2) relational refusals coarsen to the same ``"rejected"`` bucket as
static rejection, so an unsupported query can never surface as a
spurious divergence.
"""

import sqlite3

from repro.diffcheck import ALGEBRA_CONFIGS, DiffHarness, generate_cases
from repro.diffcheck.harness import Outcome, _error_label
from repro.errors import (
    SQLBackendError,
    SQLExecutionError,
    SQLUnsupportedError,
)
from repro.observe import MetricsRegistry

BUDGET = 24
SEED = 11

#: Residual/structure features the emitter does not cover — the
#: hybrid must still agree by running them in Python.
UNSUPPORTED_FEATURES = {"negation", "forall", "exists"}


class TestConfigRegistration:
    def test_the_served_configs(self):
        assert list(ALGEBRA_CONFIGS) == ["algebra", "structural", "sql"]

    def test_each_config_is_an_ordinary_store(self):
        [case] = generate_cases(1, seed=SEED)
        stores = DiffHarness().stores_for(case.corpus)
        assert list(stores) == list(ALGEBRA_CONFIGS)
        sql = stores["sql"]._engine
        assert sql.backend == "sql" and sql.structural
        # scans and shred share the one encoding a sql store builds
        assert stores["sql"].struct_index is sql.sql_backend.shred.index
        assert stores["algebra"].struct_index is None


class TestCoarsening:
    def test_sql_errors_land_in_the_rejected_bucket(self):
        assert _error_label(SQLUnsupportedError("outside")) == "rejected"
        assert _error_label(SQLExecutionError("failed")) == "rejected"
        assert _error_label(SQLBackendError("generic")) == "rejected"
        assert _error_label(
            sqlite3.OperationalError("no such table: node")) == "rejected"

    def test_rejected_agrees_with_rejected(self):
        # both sides refusing is agreement, whatever the refusal text
        from repro.errors import SafetyError
        assert Outcome(error=_error_label(SQLUnsupportedError("x"))) \
            .agrees_with(Outcome(error=_error_label(SafetyError("y"))))

    def test_other_errors_stay_distinguishable(self):
        assert _error_label(KeyError("k")) == "KeyError"


class TestSweep:
    def test_fixed_seed_slice_has_zero_divergences(self):
        metrics = MetricsRegistry()
        harness = DiffHarness(metrics=metrics)
        reports = []
        for case in generate_cases(BUDGET, seed=SEED):
            comparison = harness.compare(case.corpus, case.query)
            if comparison.divergent:
                reports.append(comparison.report())
        assert not reports, "\n\n".join(reports)
        assert metrics.get("diffcheck.configs_compared") \
            == BUDGET * 2 * len(ALGEBRA_CONFIGS)

    def test_unsupported_constructs_agree_via_the_hybrid(self):
        # deliberately pick cases whose features the emitter refuses
        # (negation / quantifiers); the sql config must agree anyway
        harness = DiffHarness()
        picked = [case for case in generate_cases(120, seed=SEED)
                  if case.features & UNSUPPORTED_FEATURES]
        assert picked, "the seed stream lost its quantifier cases"
        for case in picked[:8]:
            comparison = harness.compare(case.corpus, case.query)
            assert not comparison.divergent, comparison.report()
