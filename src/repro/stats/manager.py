"""Statistics lifecycle: collection, epochs, generations, feedback.

:class:`StatisticsManager` sits between the store and the optimizer's
cost stage.  It owns one :class:`~repro.stats.statistics.Statistics`
snapshot at a time and keeps it coherent along two axes:

* **epoch** — the store's data/schema version (read off the same
  ``epoch_source`` the plan cache and structural index use).  A
  snapshot collected under an older epoch is recollected lazily on the
  next :meth:`snapshot` call; collection is O(classes + roots), never
  O(objects).
* **generation** — the costing version.  Feedback from executed plans
  (:meth:`record_execution`, :meth:`ingest_profile`) accumulates
  silently and never churns plans by itself; :meth:`recost` is the one
  explicit way to advance the generation — the plan cache then drops
  entries costed under the stale generation on their next lookup
  (``cache.stats_invalidations``) and the recompile reads the
  accumulated feedback.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from repro.algebra.operators import Operator, walk_once
from repro.oodb.values import ListValue, SetValue
from repro.stats.statistics import Statistics

#: EMA weight of the newest unit-cost sample.
_EMA_ALPHA = 0.3


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error ((max+1)/(min+1); 1.0 = perfect).

    Total on degenerate inputs instead of propagating garbage: a NaN
    on either side reports ``inf`` (worst possible), negative values —
    a cost annotation that went wrong upstream — clamp to the zero
    floor (so ``low = -1`` cannot divide by zero), and an infinite
    estimate against a finite actual reports ``inf``."""
    if math.isnan(estimated) or math.isnan(actual):
        return math.inf
    high = max(estimated, actual, 0.0)
    low = max(min(estimated, actual), 0.0)
    if math.isinf(high):
        return 1.0 if math.isinf(low) else math.inf
    return (high + 1.0) / (low + 1.0)


class StatisticsManager:
    """Collects, versions and updates the table statistics."""

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
        self._generation = 0
        self._snapshot: Statistics | None = None
        self._unit_costs: dict[str, float] = {}
        self._recorded_queries = 0
        self._branch_actuals: dict[Any, int] = {}

    # -- versions -------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The current costing version (monotonically increasing)."""
        return self._generation

    @property
    def epoch(self) -> int:
        return int(getattr(self.epoch_source, "epoch", 0))

    # -- the snapshot ---------------------------------------------------------

    def snapshot(self) -> Statistics:
        """The current statistics; recollected when the store epoch or
        the costing generation moved since the last collection."""
        current = self._snapshot
        if (current is not None and current.epoch == self.epoch
                and current.generation == self._generation):
            return current
        # the rebuild the next structural scan would pay anyway, before
        # the lock is taken: a rebuild holds only the index's own lock
        struct_index = getattr(self.context, "struct_index", None)
        if struct_index is not None:
            struct_index.refresh()
        with self._lock:
            current = self._snapshot
            if (current is not None and current.epoch == self.epoch
                    and current.generation == self._generation):
                return current
            collected = self._collect()
            self._snapshot = collected
            if self.metrics is not None:
                self.metrics.inc("stats.collections")
            return collected

    def invalidate(self) -> None:
        """Forget the memoized snapshot: the next :meth:`snapshot`
        recollects, for a change that moves no epoch (a newly built
        index, harvested feedback)."""
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
            generation=self._generation,
            class_cardinalities=class_cards,
            root_cardinalities=root_cards,
            object_count=instance.object_count(),
            document_count=document_count,
            vocabulary_size=vocabulary_size,
            index_nodes=index_nodes,
            index_roots=index_roots,
            attr_occurrences=attr_occurrences,
            unit_costs=_normalized(self._unit_costs),
            branch_actuals=self._branch_actuals,
            text_index=text_index,
        )

    # -- feedback -------------------------------------------------------------

    def record_execution(self, key: Any, est_rows: float | None,
                         actual_rows: int) -> None:
        """Count one executed plan.  Its result cardinality is not
        kept: estimation error is reported by ``explain_analyze``
        (:func:`q_error`), costing feedback is per union branch
        (:meth:`ingest_profile`), and only :meth:`recost` advances the
        generation."""
        with self._lock:
            self._recorded_queries += 1

    def ingest_profile(self, plan: Operator, profiler: Any,
                       key: Any = None) -> None:
        """Harvest a profiled run: EMA-update per-operator-class unit
        costs, and record per-branch actual cardinalities for every
        union the cost stage reordered (keyed by the plan's cache key
        and the union's evidence ordinal)."""
        per_class: dict[str, tuple[float, int]] = {}
        with self._lock:
            for node in walk_once(plan):
                stats = profiler.stats_for(node)
                if stats.rows_out > 0 and stats.elapsed > 0.0:
                    name = type(node).__name__
                    elapsed, rows = per_class.get(name, (0.0, 0))
                    per_class[name] = (elapsed + stats.elapsed,
                                       rows + stats.rows_out)
                evidence = node.cost_evidence
                if evidence is not None and key is not None:
                    for branch, original in zip(node.children(),
                                                evidence.order):
                        self._branch_actuals[
                            (key, evidence.ordinal, original)] = (
                            profiler.rows_out(branch))
            for name, (elapsed, rows) in per_class.items():
                sample = elapsed / rows
                previous = self._unit_costs.get(name)
                if previous is None:
                    self._unit_costs[name] = sample
                else:
                    self._unit_costs[name] = (
                        (1.0 - _EMA_ALPHA) * previous
                        + _EMA_ALPHA * sample)

    def recost(self) -> int:
        """Explicitly advance the costing generation (drops every
        cached plan's costing on its next lookup); returns the new
        generation."""
        with self._lock:
            self._generation += 1
        if self.metrics is not None:
            self.metrics.inc("stats.recostings")
        return self._generation

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """The ``statistics`` block of ``DocumentStore.stats()``."""
        return {**self.snapshot().to_dict(),
                "recorded_queries": self._recorded_queries}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StatisticsManager(epoch={self.epoch}, "
                f"generation={self._generation})")


def _normalized(raw: dict[str, float]) -> dict[str, float]:
    """Measured per-row seconds, rescaled so the cheapest class costs
    1.0 — the model's unit for unmeasured classes — and clamped so one
    noisy sample cannot dominate every other statistic."""
    if not raw:
        return {}
    base = min(value for value in raw.values() if value > 0.0)
    if base <= 0.0:  # pragma: no cover - all-zero samples
        return {}
    return {name: max(0.25, min(50.0, value / base))
            for name, value in raw.items()}
