"""The prepared-query plan cache (the serving-path memoization layer).

Algebraization is a pure function of the query text and the schema —
Section 5 expands path and attribute variables by *schema* analysis,
never by looking at the data — so the parse → translate → safety →
inference → compile artifacts of a query can be reused across
executions.  :class:`PlanCache` keys them by normalized query text,
backend, path-semantics mode and whether plans are structural, so one
cache can serve several engine configurations.

Staleness is handled with a store-wide **epoch**: every data or schema
change (document loads, name definitions, in-database text edits) bumps
it, and an entry compiled under an older epoch is discarded on its next
lookup.  This matters for two reasons:

* translation consults the set of persistence roots (a ``load_text``
  with a name changes what identifiers resolve to), and
* a plan's ``contains`` selects memoize their text-index probe per
  plan object — a recompile is the staleness barrier that gives a
  fresh probe against the maintained index.

Thread safety: every cache mutation happens under one lock; entries are
immutable once stored, and executing a cached plan builds per-call
state only (the engine forks a fresh evaluation context per run).

What gets cached is the fully optimized plan — including the
common-prefix **factoring** that merges identical union-branch prefixes
into shared DAG nodes (:class:`repro.algebra.operators.SharedOp`).
Sharing stays sound under caching because a shared node memoizes its
row stream per *execution*, not per plan: ``execute_plan`` installs the
memo table on the forked evaluation context and drops it when the run
ends, so a warm plan re-reads current data every time it runs.

Counters (``cache.hits``, ``cache.misses``, ``cache.invalidations``,
``cache.evictions``, ``cache.epoch_bumps``) are incremented on the
registry the caller passes per operation — the same convention as every
other instrumented layer: no registry, no cost beyond one test.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


def normalize_query_text(text: str) -> str:
    """Whitespace/comment-insensitive cache key for O₂SQL text.

    Mirrors the lexer exactly: runs of whitespace outside string
    literals collapse to one space, ``--`` line comments vanish, and
    quoted literals (either quote character, no escapes) are preserved
    byte for byte — two texts normalize equal iff they tokenize equal.
    """
    out: list[str] = []
    pending_space = False
    i, length = 0, len(text)
    while i < length:
        ch = text[i]
        if ch == "-" and text.startswith("--", i):
            end = text.find("\n", i)
            i = length if end < 0 else end
            continue
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if out and pending_space:
            out.append(" ")
        pending_space = False
        if ch in "\"'":
            end = text.find(ch, i + 1)
            if end < 0:
                # unterminated literal: keep the raw tail so the parser
                # reports the error on a faithfully keyed text
                out.append(text[i:])
                break
            out.append(text[i:end + 1])
            i = end + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class CachedArtifacts:
    """Everything the pipeline front end produces for one query text.

    ``query`` is the calculus form (always present); ``plan`` is the
    optimized algebra plan (``None`` on the calculus backend).  Both are
    immutable after construction and safe to execute from several
    threads — per-run state lives in the forked evaluation context.

    ``verified`` records whether the plan passed the
    :mod:`repro.plancheck` static verifier before entering the cache
    (always ``False`` on the calculus backend — there is no plan to
    verify).  A cached serve never re-verifies: the flag travels with
    the entry.

    ``sql_program`` is the compiled hybrid
    (:class:`repro.sqlbackend.backend.HybridPlan`) on the ``sql``
    backend — ``None`` everywhere else, and ``None`` on the ``sql``
    backend too when the plan could not be hybridized (the entry then
    serves through ordinary plan execution).
    """

    __slots__ = ("query", "plan", "epoch", "key", "verified",
                 "sql_program")

    def __init__(self, query, plan, epoch: int, key,
                 verified: bool = False,
                 # inert: the e2e benchmark harness still passes it;
                 # ROADMAP item 11 deletes it
                 stats_generation: int | None = None,
                 sql_program=None) -> None:
        self.query = query
        self.plan = plan
        self.epoch = epoch
        self.key = key
        self.verified = verified
        self.sql_program = sql_program

    def __repr__(self) -> str:  # pragma: no cover
        kind = "algebra plan" if self.plan is not None else "calculus"
        return f"CachedArtifacts({kind}, epoch={self.epoch})"


class EpochPin:
    """A reader's snapshot handle over a :class:`PlanCache` epoch.

    Pinning records the epoch current at construction; :attr:`stale`
    flips as soon as any mutation bumps the cache epoch.  The serving
    layer (:mod:`repro.serve`) pins the epoch at admission time to key
    in-flight request collapsing and to tag every response with the
    snapshot it reflects.
    """

    __slots__ = ("_cache", "epoch")

    def __init__(self, cache: "PlanCache", epoch: int) -> None:
        self._cache = cache
        self.epoch = epoch

    @property
    def stale(self) -> bool:
        """Has any mutation bumped the epoch since the pin was taken?"""
        return self._cache.epoch != self.epoch

    def __repr__(self) -> str:  # pragma: no cover
        return f"EpochPin(epoch={self.epoch}, stale={self.stale})"


class PlanCache:
    """A bounded, thread-safe, epoch-guarded artifact cache (LRU)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedArtifacts] = OrderedDict()
        self._epoch = 0

    # -- epochs ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current data/schema epoch (monotonically increasing)."""
        return self._epoch

    def pin(self) -> EpochPin:
        """Pin the current epoch (a reader's snapshot handle)."""
        return EpochPin(self, self._epoch)

    def bump_epoch(self, metrics=None) -> int:
        """Mark every cached entry stale (they are dropped lazily, on
        their next lookup); returns the new epoch."""
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
        if metrics is not None:
            metrics.inc("cache.epoch_bumps")
        return epoch

    # -- lookup / store -------------------------------------------------------

    @staticmethod
    def key_for(text: str, backend: str, path_semantics: str,
                structural: bool = True) -> tuple:
        return (normalize_query_text(text), backend, path_semantics,
                bool(structural))

    def lookup(self, key: tuple, metrics=None,
               # inert: the e2e benchmark harness still passes it;
               # ROADMAP item 11 deletes it
               stats_generation: int | None = None
               ) -> CachedArtifacts | None:
        """The entry for ``key``, or ``None`` on a miss.  An entry from
        an earlier epoch counts as an invalidation *and* a miss."""
        stale = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.epoch != self._epoch:
                del self._entries[key]
                entry = None
                stale = True
            if entry is not None:
                self._entries.move_to_end(key)
        if metrics is not None:
            if stale:
                metrics.inc("cache.invalidations")
            if entry is not None:
                metrics.inc("cache.hits")
            else:
                metrics.inc("cache.misses")
        return entry

    def store(self, key: tuple, entry: CachedArtifacts,
              metrics=None) -> None:
        """Insert (or overwrite) an entry; never stores stale artifacts
        — an entry compiled under an older epoch is simply dropped."""
        evicted = 0
        with self._lock:
            if entry.epoch != self._epoch:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if metrics is not None and evicted:
            metrics.inc("cache.evictions", evicted)

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (the epoch is left untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Structured snapshot: size, capacity and current epoch."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "epoch": self._epoch,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PlanCache(entries={len(self._entries)}, "
                f"epoch={self._epoch})")
