"""Unit coverage for :class:`repro.serve.QueryServer`.

Single-feature tests: serving parity with the bare store, tenancy
isolation, admission control, timeout/cancel semantics, the asyncio
face, collapse bookkeeping and the write passthroughs.  The gnarly
interleavings live in the stress/fault/property suites next door.
"""

import asyncio
import subprocess
import sys
import threading

import pytest

from repro import DocumentStore, QueryServer
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import (
    AdmissionError,
    RequestCancelled,
    RequestTimeout,
    ServeError,
    UnknownTenantError,
)
from repro.serve import server as server_module
from tests.serve.conftest import QUERY_MIX, Q3


@pytest.fixture(autouse=True)
def _clean_hook():
    yield
    server_module._TEST_DELAY = None


class TestParity:
    def test_served_results_match_direct_queries(self, server, store):
        for text in QUERY_MIX:
            assert server.query("acme", text).value == store.query(text)

    def test_result_carries_snapshot_provenance(self, server, store):
        result = server.query("acme", Q3)
        assert result.tenant == "acme"
        assert result.epoch == store.epoch
        assert result.collapsed is False
        assert result.conflicts == 0
        assert result.latency >= 0.0

    def test_query_many_submissions_pipeline(self, server, store):
        requests = [server.submit("acme", text) for text in QUERY_MIX]
        for text, request in zip(QUERY_MIX, requests):
            assert request.result(timeout=30).value == store.query(text)


class TestTenancy:
    def test_tenants_are_isolated(self, server):
        other = DocumentStore(ARTICLE_DTD)
        other.load_text(SAMPLE_ARTICLE, name="my_article")
        server.add_tenant("globex", other)
        acme = server.query("acme", Q3).value
        globex = server.query("globex", Q3).value
        assert acme == globex  # same sample document...
        assert server.tenant("acme") is not server.tenant("globex")

    def test_unknown_tenant_is_refused_at_submit(self, server):
        with pytest.raises(UnknownTenantError):
            server.submit("nobody", Q3)

    def test_duplicate_tenant_is_rejected(self, server, store):
        with pytest.raises(ValueError):
            server.add_tenant("acme", store)

    def test_create_tenant_builds_a_store(self, server):
        created = server.create_tenant("fresh", ARTICLE_DTD)
        created.load_text(SAMPLE_ARTICLE, name="my_article")
        assert len(server.query("fresh", Q3).value) == 3
        assert set(server.tenants) == {"acme", "fresh"}

    def test_unknown_tenant_is_a_serve_error(self):
        assert issubclass(UnknownTenantError, ServeError)
        assert issubclass(AdmissionError, ServeError)
        assert issubclass(RequestTimeout, ServeError)
        assert issubclass(RequestCancelled, ServeError)


class TestAdmission:
    def test_queue_bound_refuses_excess_load(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1, max_pending=2) as srv:
            srv.add_tenant("acme", store)
            # distinct texts so collapsing can't absorb them
            first = srv.submit("acme", QUERY_MIX[0])
            second = srv.submit("acme", QUERY_MIX[1])
            with pytest.raises(AdmissionError):
                srv.submit("acme", QUERY_MIX[2])
            assert srv.metrics.get("serve.rejected") == 1
            gate.set()
            first.result(timeout=30)
            second.result(timeout=30)
            # slots freed: admission recovers
            srv.query("acme", QUERY_MIX[2], timeout=30)

    def test_collapsed_waiters_cost_no_slot(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1, max_pending=1) as srv:
            srv.add_tenant("acme", store)
            leader = srv.submit("acme", Q3)
            riders = [srv.submit("acme", Q3) for _ in range(5)]
            assert all(r.collapsed for r in riders)
            gate.set()
            values = [r.result(timeout=30).value
                      for r in [leader, *riders]]
            assert all(v == values[0] for v in values)

    def test_closed_server_refuses_submissions(self, store):
        srv = QueryServer(workers=1)
        srv.add_tenant("acme", store)
        srv.close()
        with pytest.raises(AdmissionError):
            srv.submit("acme", Q3)


class TestTimeoutAndCancel:
    def test_timeout_abandons_the_wait_not_the_flight(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1) as srv:
            srv.add_tenant("acme", store)
            request = srv.submit("acme", Q3)
            with pytest.raises(RequestTimeout):
                request.result(timeout=0.05)
            assert srv.metrics.get("serve.timeouts") == 1
            gate.set()
            # the shared execution kept running: the result still lands
            assert len(request.result(timeout=30).value) == 3

    def test_cancel_before_completion(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1) as srv:
            srv.add_tenant("acme", store)
            request = srv.submit("acme", Q3)
            assert request.cancel() is True
            gate.set()
            with pytest.raises(RequestCancelled):
                request.result(timeout=30)
            assert srv.metrics.get("serve.cancelled") == 1

    def test_cancel_after_completion_is_a_noop(self, server):
        request = server.submit("acme", Q3)
        request.result(timeout=30)
        assert request.cancel() is False

    def test_default_timeout_applies(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1, default_timeout=0.05) as srv:
            srv.add_tenant("acme", store)
            with pytest.raises(RequestTimeout):
                srv.query("acme", Q3)
            gate.set()


class TestAsyncFace:
    def test_aquery_matches_blocking_query(self, server, store):
        async def main():
            results = await asyncio.gather(
                *(server.aquery("acme", text) for text in QUERY_MIX))
            return results
        results = asyncio.run(main())
        for text, result in zip(QUERY_MIX, results):
            assert result.value == store.query(text)

    def test_importing_the_package_loads_no_event_loop(self):
        # asyncio (and ssl with it) is imported by the first aquery
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.serve; "
             "print('asyncio' in sys.modules, 'ssl' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": ":".join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    def test_aquery_timeout(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=1) as srv:
            srv.add_tenant("acme", store)

            async def main():
                with pytest.raises(RequestTimeout):
                    await srv.aquery("acme", Q3, timeout=0.05)
            asyncio.run(main())
            gate.set()


class TestCollapsing:
    def test_identical_concurrent_queries_share_one_execution(
            self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=2) as srv:
            srv.add_tenant("acme", store)
            requests = [srv.submit("acme", Q3) for _ in range(8)]
            gate.set()
            values = [r.result(timeout=30).value for r in requests]
            assert all(v == values[0] for v in values)
            metrics = srv.metrics
            assert metrics.get("serve.submitted") == 8
            assert metrics.get("serve.flights") == 1
            assert metrics.get("serve.collapsed") == 7
            assert metrics.get("serve.executed") == 1

    def test_epoch_bump_prevents_cross_epoch_collapse(self, store):
        """A write between two submissions changes the admission epoch,
        so the second submission may NOT ride the first's execution."""
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        title = next(iter(store.query(Q3)))
        with QueryServer(workers=2) as srv:
            srv.add_tenant("acme", store)
            stale = srv.submit("acme", Q3)
            srv.update_text("acme", title, "Renamed Heading")
            fresh = srv.submit("acme", Q3)
            assert fresh.collapsed is False
            gate.set()
            stale.result(timeout=30)
            fresh.result(timeout=30)
            assert srv.metrics.get("serve.flights") == 2
            assert srv.metrics.get("serve.collapsed") == 0

    def test_collapse_disabled_executes_every_submission(self, store):
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=2, collapse=False) as srv:
            srv.add_tenant("acme", store)
            requests = [srv.submit("acme", Q3) for _ in range(4)]
            gate.set()
            for request in requests:
                request.result(timeout=30)
            assert srv.metrics.get("serve.flights") == 4
            assert srv.metrics.get("serve.collapsed") == 0

    def test_key_normalisation_collapses_reformatted_text(self, store):
        """The collapse key is the plan-cache key, not raw text — the
        same query with different whitespace coalesces."""
        gate = threading.Event()
        server_module._TEST_DELAY = (
            lambda stage, flight: gate.wait(10)
            if stage == "executing" else None)
        with QueryServer(workers=2) as srv:
            srv.add_tenant("acme", store)
            a = srv.submit("acme", Q3)
            b = srv.submit("acme", "select t  from my_article "
                                   "PATH_p.title(t)")
            assert b.collapsed is True
            gate.set()
            assert a.result(timeout=30).value == b.result(
                timeout=30).value


class TestWrites:
    def test_update_text_through_the_server(self, server, store):
        title = next(iter(store.query(
            "select s.title from a in Articles, s in a.sections")))
        epoch = server.update_text("acme", title, "Served Heading")
        assert epoch == store.epoch
        titles = server.query(
            "acme", "select s.title from a in Articles, "
            "s in a.sections where s.title contains (\"Served\")")
        assert len(titles.value) == 1
        assert server.metrics.get("serve.writes") == 1

    def test_load_text_through_the_server(self, server, store):
        before = len(store.query("select a from a in Articles"))
        server.load_text("acme", SAMPLE_ARTICLE)
        after = len(store.query("select a from a in Articles"))
        assert after == before + 1


class TestLifecycle:
    def test_stats_shape(self, server):
        server.query("acme", Q3)
        stats = server.stats()
        assert stats["tenants"] == 1
        assert stats["submitted"] >= 1
        assert stats["executed"] >= 1
        assert stats["qps"] > 0
        assert stats["pending"] == 0

    def test_latency_histograms_recorded(self, server):
        server.query("acme", Q3)
        snapshot = server.metrics.snapshot()["histograms"]
        assert snapshot["serve.latency_ms"]["count"] == 1
        assert snapshot["serve.latency_ms.acme"]["count"] == 1

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            QueryServer(workers=0)
        with pytest.raises(ValueError):
            QueryServer(workers=1, max_pending=0)
