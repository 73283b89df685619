"""The concurrent multi-tenant query server.

:class:`QueryServer` turns the per-query engine into a traffic-serving
layer: N :class:`~repro.session.DocumentStore`\\ s sharded by tenant id,
a bounded thread pool executing reads, writers serialized per shard,
and three serving disciplines on top:

**Snapshot-epoch reads.**  Every read pins the store epoch it started
on and validates against the store's seqlock write fence
(:attr:`~repro.session.DocumentStore.write_seq`): sample the fence,
execute, sample again — equal even samples prove no writer overlapped,
so the result is consistent exactly at the pinned epoch.  A read that
raced a writer is discarded and retried (``serve.epoch_conflicts``);
after :attr:`QueryServer.read_retries` conflicts the reader takes the
shard's writer lock once (:meth:`DocumentStore.excluding_writers`) and
executes consistently — the only point where a reader may briefly
delay a writer.  Writers never wait for readers, and a response is
always *stale-but-consistent*: the whole result reflects one epoch,
never a torn mix of two.

**Request collapsing.**  Identical concurrent queries — same tenant,
same plan-cache key (:meth:`DocumentStore.cache_key`), same admission
epoch — coalesce into one in-flight execution whose result is fanned
out to every waiter (``serve.collapsed``).  The invariant the property
suite pins down: ``serve.collapsed + serve.flights ==
serve.submitted``.

**Admission control.**  At most ``max_pending`` executions may be
outstanding; beyond that :meth:`QueryServer.submit` raises
:class:`~repro.errors.AdmissionError` before queueing any work
(collapsed waiters ride an existing execution and are always
admitted).  Each wait carries a timeout; expiry abandons the wait —
never the shared execution — and cancellation is cooperative: a flight
stops at its next checkpoint once every attached waiter has cancelled.

The asyncio face (:meth:`QueryServer.aquery`) wraps the same
thread-pool futures, so one server can serve blocking callers and an
event loop at once.  It imports :mod:`asyncio` (and with it
:mod:`ssl`) when first awaited, not when the package is imported.

Counters land in the server's own registry (``serve.*``):
``submitted``, ``flights``, ``collapsed``, ``executed``, ``errors``,
``aborted``, ``rejected``, ``timeouts``, ``cancelled``,
``epoch_conflicts``, ``escalations``, ``writes``, plus
``queue_depth`` and per-tenant ``latency_ms.<tenant>`` histograms.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError as _FutureCancelled
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.errors import (
    AdmissionError,
    RequestCancelled,
    RequestTimeout,
    UnknownTenantError,
)
from repro.observe import MetricsRegistry

#: Deterministic fault-injection hook (the plancheck ``_TEST_MUTATION``
#: idiom): when set to a callable it is invoked as ``hook(stage,
#: flight)`` at named points of the execution path — ``"executing"``
#: (worker picked the flight up, nothing pinned yet) and ``"pinned"``
#: (epoch pinned, about to execute) — so tests can stall a request
#: mid-query and force the timeout, cancellation and
#: epoch-bump-during-read paths on demand.  Never set in production.
_TEST_DELAY = None


def _delay(stage: str, flight: "_Flight") -> None:
    hook = _TEST_DELAY
    if hook is not None:
        hook(stage, flight)


_UNSET = object()


class ServeResult:
    """One response: the result set plus the snapshot it was read at."""

    __slots__ = ("value", "tenant", "epoch", "collapsed", "conflicts",
                 "latency")

    def __init__(self, value, tenant: str, epoch: int, collapsed: bool,
                 conflicts: int, latency: float) -> None:
        #: The query's :class:`~repro.oodb.values.SetValue`.
        self.value = value
        self.tenant = tenant
        #: The store epoch this result is consistent at (pinned inside
        #: the validated fence window — never a torn mix of epochs).
        self.epoch = epoch
        #: Did this request ride another request's execution?
        self.collapsed = collapsed
        #: Seqlock conflicts the execution retried through.
        self.conflicts = conflicts
        #: Submit → completion wall-clock seconds for *this* waiter.
        self.latency = latency

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ServeResult(tenant={self.tenant!r}, "
                f"epoch={self.epoch}, rows={len(self.value)}, "
                f"collapsed={self.collapsed})")


class Request:
    """A submitted query: a handle over one future response."""

    __slots__ = ("tenant", "text", "submitted_at", "future", "_server",
                 "_flight", "_cancelled")

    def __init__(self, server: "QueryServer", tenant: str,
                 text: str) -> None:
        self.tenant = tenant
        self.text = text
        self.submitted_at = time.perf_counter()
        self.future: Future = Future()
        self._server = server
        self._flight: _Flight | None = None
        self._cancelled = False

    @property
    def collapsed(self) -> bool:
        """Did submission attach to an already in-flight execution?"""
        flight = self._flight
        return flight is not None and flight.leader is not self

    def result(self, timeout=_UNSET) -> ServeResult:
        """Block for the response (default budget: the server's
        ``default_timeout``).  Expiry abandons only this wait — a
        collapsed flight keeps running for its other waiters — and
        raises :class:`~repro.errors.RequestTimeout`."""
        budget = (self._server.default_timeout if timeout is _UNSET
                  else timeout)
        try:
            return self.future.result(budget)
        except _FutureTimeout:
            self._server.metrics.inc("serve.timeouts")
            raise RequestTimeout(
                f"no result within {budget}s for {self.text!r}"
            ) from None
        except _FutureCancelled:  # pragma: no cover - defensive
            raise RequestCancelled(
                f"request cancelled: {self.text!r}") from None

    def cancel(self) -> bool:
        """Cooperatively cancel this request.  Returns ``False`` when
        the response already landed.  The shared execution stops at its
        next checkpoint only once *every* waiter has cancelled."""
        if self.future.done():
            return False
        self._cancelled = True
        flight = self._flight
        if flight is not None:
            flight.note_cancel()
        try:
            self.future.set_exception(
                RequestCancelled(f"request cancelled: {self.text!r}"))
        except Exception:
            return False  # the response raced us in
        self._server.metrics.inc("serve.cancelled")
        return True

    def __repr__(self) -> str:  # pragma: no cover
        summary = " ".join(self.text.split())
        if len(summary) > 40:
            summary = summary[:37] + "..."
        return f"Request({self.tenant!r}, {summary!r})"


class _Flight:
    """One execution shared by every collapsed waiter of a key."""

    __slots__ = ("key", "tenant", "store", "text", "requests", "done",
                 "leader", "_cancel_votes", "cancelled")

    def __init__(self, key: tuple, tenant: str, store, text: str,
                 leader: Request) -> None:
        self.key = key
        self.tenant = tenant
        self.store = store
        self.text = text
        self.requests: list[Request] = [leader]
        self.leader = leader
        self.done = False
        self._cancel_votes = 0
        self.cancelled = False

    def attach(self, request: Request) -> None:
        request._flight = self
        self.requests.append(request)
        self.cancelled = False  # a live waiter keeps the flight alive

    def note_cancel(self) -> None:
        self._cancel_votes += 1
        if self._cancel_votes >= len(self.requests):
            self.cancelled = True

    def check_cancelled(self) -> None:
        if self.cancelled:
            raise RequestCancelled(
                f"every waiter cancelled: {self.text!r}")


class _Shard:
    """One tenant: a store plus its serving bookkeeping."""

    __slots__ = ("tenant", "store")

    def __init__(self, tenant: str, store) -> None:
        self.tenant = tenant
        self.store = store


class QueryServer:
    """Serve O₂SQL traffic over tenant-sharded document stores.

    ``workers`` sizes the read thread pool; ``max_pending`` bounds the
    number of outstanding (queued + running) executions — admission
    control; ``collapse`` toggles in-flight request collapsing;
    ``default_timeout`` is the per-request wait budget ``None`` waits
    forever); ``read_retries`` caps the seqlock retry loop before the
    consistency fallback takes the writer lock once, and
    ``escalate_after`` (seconds) is the long-read threshold: a query
    shape whose observed runtime reaches it skips the optimistic loop
    entirely on later executions (and a conflicted attempt that ran
    that long stops retrying at once) — a read that slow keeps losing
    the optimistic race against a steady writer, burning a recompile
    per doomed retry, so it takes the consistent fallback instead.
    """

    def __init__(self, workers: int = 4, max_pending: int | None = None,
                 collapse: bool = True,
                 default_timeout: float | None = None,
                 read_retries: int = 6,
                 escalate_after: float = 0.05) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.max_pending = (workers * 32 if max_pending is None
                            else max_pending)
        if self.max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.collapse = collapse
        self.default_timeout = default_timeout
        self.read_retries = read_retries
        self.escalate_after = escalate_after
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._tenants: dict[str, _Shard] = {}
        self._inflight: dict[tuple, _Flight] = {}
        # (tenant, cache_key) -> last observed runtime, feeding the
        # proactive long-read escalation (bounded by the number of
        # distinct query shapes the server ever sees)
        self._runtimes: dict[tuple, float] = {}
        self._pending = 0
        self._closed = False
        self._started_at = time.perf_counter()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")

    # -- tenancy --------------------------------------------------------------

    def add_tenant(self, tenant: str, store) -> None:
        """Shard ``store`` under ``tenant``.  One store, one tenant."""
        with self._lock:
            if tenant in self._tenants:
                raise ValueError(f"tenant {tenant!r} already exists")
            self._tenants[tenant] = _Shard(tenant, store)

    def create_tenant(self, tenant: str, dtd_text: str, **store_kwargs):
        """Build a fresh :class:`~repro.session.DocumentStore` from
        ``dtd_text`` and shard it; returns the store."""
        from repro.session import DocumentStore
        store = DocumentStore(dtd_text, **store_kwargs)
        self.add_tenant(tenant, store)
        return store

    def tenant(self, tenant: str):
        """The tenant's store (for inspection and direct loading
        during setup — serve-time writes should go through the
        server's write methods)."""
        return self._shard(tenant).store

    @property
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._tenants)

    def _shard(self, tenant: str) -> _Shard:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"unknown tenant: {tenant!r}") from None

    # -- reads ----------------------------------------------------------------

    def submit(self, tenant: str, text: str) -> Request:
        """Admit one read; returns immediately with a :class:`Request`.

        Collapsible duplicates (same tenant, plan-cache key and
        admission epoch) attach to the in-flight execution and consume
        no admission slot; everything else takes a slot or is refused
        with :class:`~repro.errors.AdmissionError`.
        """
        request = Request(self, tenant, text)
        with self._lock:
            if self._closed:
                raise AdmissionError("server is closed")
            shard = self._shard(tenant)
            pin = shard.store.pin_epoch()
            key = (tenant, shard.store.cache_key(text), pin.epoch)
            flight = self._inflight.get(key) if self.collapse else None
            if flight is not None and not flight.done:
                flight.attach(request)
                self.metrics.inc("serve.submitted")
                self.metrics.inc("serve.collapsed")
                return request
            if self._pending >= self.max_pending:
                self.metrics.inc("serve.rejected")
                raise AdmissionError(
                    f"queue full ({self._pending} pending, "
                    f"bound {self.max_pending})")
            flight = _Flight(key, tenant, shard.store, text, request)
            request._flight = flight
            self._inflight[key] = flight
            self._pending += 1
            self.metrics.inc("serve.submitted")
            self.metrics.inc("serve.flights")
            self.metrics.observe("serve.queue_depth", self._pending)
        self._executor.submit(self._run_flight, flight)
        return request

    def query(self, tenant: str, text: str,
              timeout=_UNSET) -> ServeResult:
        """Submit and wait (the blocking convenience path)."""
        return self.submit(tenant, text).result(timeout)

    async def aquery(self, tenant: str, text: str,
                     timeout=_UNSET) -> ServeResult:
        """The asyncio face: same admission, collapsing and snapshot
        semantics, awaited instead of blocked on."""
        import asyncio
        request = self.submit(tenant, text)
        budget = (self.default_timeout if timeout is _UNSET
                  else timeout)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(request.future), budget)
        except asyncio.TimeoutError:
            self.metrics.inc("serve.timeouts")
            raise RequestTimeout(
                f"no result within {budget}s for {text!r}") from None

    # -- writes ---------------------------------------------------------------

    def update_text(self, tenant: str, oid, new_text: str) -> int:
        """Serialized in-database edit; returns the new epoch."""
        store = self._shard(tenant).store
        store.update_text(oid, new_text)
        self.metrics.inc("serve.writes")
        return store.epoch

    def load_text(self, tenant: str, document_text: str,
                  name: str | None = None, validate: bool = True):
        """Serialized document load; returns the new document's oid."""
        store = self._shard(tenant).store
        oid = store.load_text(document_text, name=name,
                              validate=validate)
        self.metrics.inc("serve.writes")
        return oid

    def load_tree(self, tenant: str, tree, name: str | None = None,
                  validate: bool = True):
        store = self._shard(tenant).store
        oid = store.load_tree(tree, name=name, validate=validate)
        self.metrics.inc("serve.writes")
        return oid

    def define_name(self, tenant: str, name: str, value) -> None:
        store = self._shard(tenant).store
        store.define_name(name, value)
        self.metrics.inc("serve.writes")

    # -- execution ------------------------------------------------------------

    def _run_flight(self, flight: _Flight) -> None:
        try:
            value, epoch, conflicts = self._execute(flight)
        except BaseException as exc:
            self._finish(flight, error=exc)
        else:
            self._finish(flight, value=value, epoch=epoch,
                         conflicts=conflicts)

    def _execute(self, flight: _Flight):
        """The snapshot-epoch read protocol (see the module doc)."""
        store = flight.store
        metrics = self.metrics
        _delay("executing", flight)
        conflicts = 0
        shape = flight.key[:2]  # (tenant, cache_key) — epoch-free
        known = self._runtimes.get(shape)
        if known is not None and known >= self.escalate_after:
            # proactive long-read escalation: this query's runtime
            # rivals any realistic write interval, so the optimistic
            # race is a coin it keeps losing — each loss burning a
            # full recompile.  Take the consistent path immediately.
            metrics.inc("serve.escalations")
        else:
            for attempt in range(self.read_retries):
                flight.check_cancelled()
                seq = store.write_seq
                if seq & 1:
                    # writer mid-mutation: yield and resample
                    conflicts += 1
                    metrics.inc("serve.epoch_conflicts")
                    time.sleep(0.0002 * (attempt + 1))
                    continue
                epoch = store.epoch
                _delay("pinned", flight)
                started = time.perf_counter()
                try:
                    value = store.query(flight.text)
                except Exception:
                    if store.write_seq != seq:
                        # the failure happened inside a torn window —
                        # possibly an artifact of racing the writer
                        conflicts += 1
                        metrics.inc("serve.epoch_conflicts")
                        continue
                    raise
                elapsed = time.perf_counter() - started
                self._runtimes[shape] = elapsed
                if store.write_seq == seq:
                    return value, epoch, conflicts
                conflicts += 1
                metrics.inc("serve.epoch_conflicts")
                if elapsed >= self.escalate_after:
                    # reactive flavour of the same policy, for the
                    # first time a long query shape conflicts
                    metrics.inc("serve.escalations")
                    break
        # consistency fallback: exclude writers for one execution (the
        # only point where a reader may briefly delay a writer)
        flight.check_cancelled()
        with store.excluding_writers():
            epoch = store.epoch
            started = time.perf_counter()
            value = store.query(flight.text)
            self._runtimes[shape] = time.perf_counter() - started
        return value, epoch, conflicts

    def _finish(self, flight: _Flight, value=None, epoch: int = -1,
                conflicts: int = 0, error=None) -> None:
        with self._lock:
            flight.done = True
            if self._inflight.get(flight.key) is flight:
                del self._inflight[flight.key]
            self._pending -= 1
            waiters = list(flight.requests)
        if error is None:
            self.metrics.inc("serve.executed")
        elif isinstance(error, RequestCancelled):
            self.metrics.inc("serve.aborted")
        else:
            self.metrics.inc("serve.errors")
        now = time.perf_counter()
        for request in waiters:
            if request.future.done():
                continue  # cancelled or abandoned waiter
            latency = now - request.submitted_at
            try:
                if error is not None:
                    request.future.set_exception(error)
                else:
                    request.future.set_result(ServeResult(
                        value=value, tenant=flight.tenant, epoch=epoch,
                        collapsed=request is not flight.leader,
                        conflicts=conflicts, latency=latency))
            except Exception:  # pragma: no cover - cancel raced us
                continue
            self.metrics.observe("serve.latency_ms", latency * 1000.0)
            self.metrics.observe(
                f"serve.latency_ms.{flight.tenant}", latency * 1000.0)

    # -- lifecycle / reporting ------------------------------------------------

    def stats(self) -> dict:
        """Structured serving snapshot (qps is lifetime average)."""
        with self._lock:
            pending = self._pending
            inflight = len(self._inflight)
            tenants = len(self._tenants)
        elapsed = time.perf_counter() - self._started_at
        counters = self.metrics.snapshot()["counters"]
        submitted = counters.get("serve.submitted", 0)
        return {
            "tenants": tenants,
            "workers": self.workers,
            "pending": pending,
            "inflight": inflight,
            "submitted": submitted,
            "flights": counters.get("serve.flights", 0),
            "collapsed": counters.get("serve.collapsed", 0),
            "executed": counters.get("serve.executed", 0),
            "epoch_conflicts": counters.get("serve.epoch_conflicts", 0),
            "qps": submitted / elapsed if elapsed > 0 else 0.0,
            "uptime_seconds": elapsed,
        }

    def close(self, wait: bool = True) -> None:
        """Refuse new work and shut the pool down.  ``wait=True``
        drains in-flight executions first."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"QueryServer(tenants={len(self._tenants)}, "
                f"workers={self.workers}, pending={self._pending})")
