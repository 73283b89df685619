"""Fixed-seed differential smoke: the per-PR acceptance gate.

Runs a deterministic slice of the fuzzer (60 generated queries, every
served config — first run and re-run — against the calculus reference)
inside the fast test
loop.  Any disagreement fails with the full comparison report; the
budget is small enough to stay in the ``-m "not bench"`` loop but wide
enough that every grammar production fires at least once.
"""

from repro.diffcheck import ALGEBRA_CONFIGS, DiffHarness, generate_cases
from repro.observe import MetricsRegistry

SMOKE_BUDGET = 60
SMOKE_SEED = 7


class TestSmoke:
    def test_fixed_seed_budget_has_zero_divergences(self):
        metrics = MetricsRegistry()
        harness = DiffHarness(metrics=metrics)
        reports = []
        for case in generate_cases(SMOKE_BUDGET, seed=SMOKE_SEED):
            comparison = harness.compare(case.corpus, case.query)
            if comparison.divergent:
                reports.append(comparison.report())
        assert not reports, "\n\n".join(reports)
        assert metrics.get("diffcheck.queries") == SMOKE_BUDGET
        assert metrics.get("diffcheck.divergences") == 0
        # every config really ran, twice, on every query
        assert metrics.get("diffcheck.configs_compared") \
            == SMOKE_BUDGET * 2 * len(ALGEBRA_CONFIGS)
