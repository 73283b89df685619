"""Statistics lifecycle: collection and epochs.

:class:`StatisticsManager` collects the counts
``DocumentStore.stats()`` and ``DocumentStore.statistics()`` report.
It owns one :class:`~repro.stats.statistics.Statistics` snapshot at a
time and keeps it coherent with the store's data/schema **epoch**
(read off the same ``epoch_source`` the plan cache and structural
index use): a snapshot collected under an older epoch is recollected
lazily on the next :meth:`snapshot` call, and collection is
O(classes + roots), never O(objects).  No compile and no
``explain_analyze`` reads a snapshot.  Executed plans are counted
(:meth:`record_execution`); nothing they measure feeds back into a
later plan.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.oodb.values import ListValue, SetValue
from repro.stats.statistics import Statistics


class StatisticsManager:
    """Collects the table statistics, one snapshot per store epoch."""

    def __init__(self, instance: Any, epoch_source: Any,
                 context: Any = None, metrics: Any = None) -> None:
        self.instance = instance
        #: Anything with an ``epoch`` attribute — the store's
        #: :class:`~repro.cache.plancache.PlanCache` in practice.
        self.epoch_source = epoch_source
        #: The engine's evaluation context (read for the text and
        #: structural indexes, which the store installs after
        #: construction); ``None`` falls back to no index statistics.
        self.context = context
        self.metrics = metrics
        self._lock = threading.Lock()
        self._snapshot: Statistics | None = None
        self._recorded_queries = 0

    @property
    def epoch(self) -> int:
        return int(getattr(self.epoch_source, "epoch", 0))

    # -- the snapshot ---------------------------------------------------------

    def snapshot(self) -> Statistics:
        """The current statistics; recollected when the store epoch
        moved since the last collection."""
        current = self._snapshot
        if current is not None and current.epoch == self.epoch:
            return current
        # the rebuild the next structural scan would pay anyway, before
        # the lock is taken: a rebuild holds only the index's own lock
        struct_index = getattr(self.context, "struct_index", None)
        if struct_index is not None:
            struct_index.refresh()
        with self._lock:
            current = self._snapshot
            if current is not None and current.epoch == self.epoch:
                return current
            collected = self._collect()
            self._snapshot = collected
            if self.metrics is not None:
                self.metrics.inc("stats.collections")
            return collected

    def invalidate(self) -> None:
        """Forget the memoized snapshot: the next :meth:`snapshot`
        recollects, for a change that moves no epoch (a newly built
        index)."""
        self._snapshot = None

    def _collect(self) -> Statistics:
        instance = self.instance
        schema = instance.schema
        class_cards = {
            name: len(instance.disjoint_extent(name))
            for name in schema.class_names}
        root_cards: dict[str, int] = {}
        for name in instance.root_names:
            try:
                value = instance.root(name)
            except Exception:  # pragma: no cover - racing writer
                continue
            root_cards[name] = (len(value)
                                if isinstance(value,
                                              (ListValue, SetValue))
                                else 1)
        text_index = getattr(self.context, "text_index", None)
        struct_index = getattr(self.context, "struct_index", None)
        document_count = 0
        vocabulary_size = 0
        if text_index is not None:
            document_count = text_index.document_count
            vocabulary_size = text_index.vocabulary_size
        index_nodes = 0
        index_roots = 0
        attr_occurrences: dict[str, int] = {}
        if struct_index is not None:
            for block in struct_index.blocks.values():
                index_nodes += block.size
                index_roots += 1
                for attr, positions in block.attr_steps.items():
                    attr_occurrences[attr] = (
                        attr_occurrences.get(attr, 0) + len(positions))
        return Statistics(
            epoch=self.epoch,
            class_cardinalities=class_cards,
            root_cardinalities=root_cards,
            object_count=instance.object_count(),
            document_count=document_count,
            vocabulary_size=vocabulary_size,
            index_nodes=index_nodes,
            index_roots=index_roots,
            attr_occurrences=attr_occurrences,
        )

    # -- executions -----------------------------------------------------------

    def record_execution(self, key: Any, est_rows: float | None,
                         actual_rows: int) -> None:
        """Count one executed plan.  ``est_rows`` and the result
        cardinality are not kept (the engine passes ``None`` for the
        first); the parameters stay for the e2e benchmark harness's
        traced run, which ROADMAP item 11 rewrites."""
        with self._lock:
            self._recorded_queries += 1

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """The ``statistics`` block of ``DocumentStore.stats()``."""
        return {**self.snapshot().to_dict(),
                "recorded_queries": self._recorded_queries}

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatisticsManager(epoch={self.epoch})"

