"""Mutation testing for the verifier gate: corrupt one optimizer
rewrite under the test-only ``_TEST_MUTATION`` flag and prove the
verifier catches the broken plan before it can execute — then prove
the intact optimizer sails through the same gate."""

import warnings

import pytest

import repro.algebra.optimizer as optimizer
from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import PlanVerificationError
from repro.observe import MetricsRegistry

#: Pushdown victim: the guarded sink would stop at the Bind that
#: produces ``t``; unguarded, the select dives below its producer.
Q_PUSHDOWN = "select t from my_article PATH_p.title(t) where t = 'On Sets'"

#: Interval-join victim: the fused probe must come from the *other*
#: path; misbound, it probes the variable the scan itself binds.
Q_JOIN = "select v from my_article PATH_p(v), my_old_article PATH_q(v)"

#: Cost-stage victim: a path variable compiles (``structural=False``) to
#: a multi-branch union, which the cost stage reorders (and would prune, were the ``contains``
#: word absent from the corpus).
Q_COST = ('select t from a in Articles, a PATH_p.title(t) '
          'where a contains ("SGML")')


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    s.build_text_index()
    s.build_structural_index()
    return s


def _plan_for(store, text, structural=True):
    query = store._engine.translate(text)
    return query, compile_query(query, store.schema, structural=structural)


class TestSeededBreakage:
    def test_unguarded_pushdown_is_caught(self, store, monkeypatch):
        query, plan = _plan_for(store, Q_PUSHDOWN)
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        with pytest.raises(PlanVerificationError) as exc:
            optimizer.optimize(plan, verify="raise", query=query)
        assert any(f.code == "PC-UNBOUND" for f in exc.value.faults)

    def test_misbound_interval_probe_is_caught(self, store, monkeypatch):
        query, plan = _plan_for(store, Q_JOIN)
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "interval_probe_misbound")
        with pytest.raises(PlanVerificationError) as exc:
            optimizer.optimize(plan, structural=True, verify="raise",
                               query=query)
        assert any(f.code in ("PC-JOIN", "PC-UNBOUND")
                   for f in exc.value.faults)

    def test_scrambled_branch_order_is_caught(self, store, monkeypatch):
        """A cost stage that duplicates one branch and drops another no
        longer carries a permutation in its evidence — PC-COST."""
        query, plan = _plan_for(store, Q_COST, structural=False)
        snapshot = store.stats_manager.snapshot()
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "branch_order_scrambled")
        with pytest.raises(PlanVerificationError) as exc:
            optimizer.optimize(plan, structural=False, verify="raise",
                               query=query, stats=snapshot)
        assert any(f.code == "PC-COST" for f in exc.value.faults)

    def test_pruning_nonempty_branch_is_caught(self, store, monkeypatch):
        """A cost stage that prunes a branch without re-checkable zero
        evidence is rejected — PC-COST."""
        query, plan = _plan_for(store, Q_COST, structural=False)
        snapshot = store.stats_manager.snapshot()
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "prune_nonempty_branch")
        with pytest.raises(PlanVerificationError) as exc:
            optimizer.optimize(plan, structural=False, verify="raise",
                               query=query, stats=snapshot)
        assert any(f.code == "PC-COST" for f in exc.value.faults)

    def test_warn_policy_keeps_last_verified_plan(self, store,
                                                  monkeypatch):
        """Production policy: the faulty stage is dropped (with one
        warning and a counter), the pre-stage plan is served, and the
        served plan still verifies — a broken rewrite can degrade the
        plan, never the answer."""
        from repro.plancheck import verify_plan
        query, plan = _plan_for(store, Q_PUSHDOWN)
        metrics = MetricsRegistry()
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            served = optimizer.optimize(plan, verify="warn", query=query,
                                        metrics=metrics)
        assert any("fails static verification" in str(w.message)
                   for w in caught)
        counters = metrics.snapshot()["counters"]
        assert counters["plancheck.stages_rejected"] >= 1
        assert verify_plan(served, query=query) == []


class TestFaultyCompilerPlan:
    """A fault already in the compiler's plan is reported once, under
    the stage tag ``compile`` — before any rewrite runs over it."""

    @pytest.fixture()
    def faulty(self, store, monkeypatch):
        query, plan = _plan_for(store, Q_PUSHDOWN)
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        broken = optimizer.sink_selections(plan)
        monkeypatch.setattr(optimizer, "_TEST_MUTATION", None)
        return query, broken

    def test_raise_names_the_compile_stage(self, faulty):
        query, broken = faulty
        metrics = MetricsRegistry()
        with pytest.raises(PlanVerificationError) as exc:
            optimizer.optimize(broken, verify="raise", query=query,
                               metrics=metrics)
        assert {f.stage for f in exc.value.faults} == {"compile"}
        assert any(f.code == "PC-UNBOUND" for f in exc.value.faults)
        counters = metrics.snapshot()["counters"]
        assert counters["plancheck.verifications"] == 1

    def test_warn_reports_once_and_serves_it_unrewritten(self, faulty):
        from repro.plancheck import PlanVerificationWarning
        query, broken = faulty
        metrics = MetricsRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            served = optimizer.optimize(broken, verify="warn",
                                        query=query, metrics=metrics)
        [warning] = [w.message for w in caught
                     if isinstance(w.message, PlanVerificationWarning)]
        assert {f.stage for f in warning.faults} == {"compile"}
        assert served is broken
        counters = metrics.snapshot()["counters"]
        assert counters["plancheck.verifications"] == 1
        assert counters["plancheck.stages_rejected"] == 1


class TestIntactOptimizer:
    @pytest.mark.parametrize("text", [Q_PUSHDOWN, Q_JOIN])
    @pytest.mark.parametrize("structural", [False, True])
    def test_raise_gate_stays_silent(self, store, text, structural):
        assert optimizer._TEST_MUTATION is None
        query, plan = _plan_for(store, text, structural)
        optimizer.optimize(plan, structural=structural, verify="raise",
                           query=query)

    @pytest.mark.parametrize("text", [Q_PUSHDOWN, Q_JOIN, Q_COST])
    def test_cost_stage_passes_raise_gate(self, store, text):
        assert optimizer._TEST_MUTATION is None
        query, plan = _plan_for(store, text, structural=False)
        optimizer.optimize(plan, structural=False, verify="raise",
                           query=query,
                           stats=store.stats_manager.snapshot())

    def test_mutation_flag_defaults_off(self):
        assert optimizer._TEST_MUTATION is None
