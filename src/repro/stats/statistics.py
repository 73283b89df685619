"""The epoch-versioned table-statistics snapshot.

:class:`Statistics` folds everything the engine already measures into
one immutable-by-convention record the optimizer's cost stage can read
without touching the store:

* per-class cardinalities (disjoint extents) and persistence-root
  collection sizes, from the :class:`~repro.oodb.instance.Instance`;
* text-index document frequencies — the number of documents a
  literal word matches, an *upper bound* for the patterns built from
  it, which is exactly what selectivity estimation and provable-empty
  pruning need (:mod:`repro.text`);
* structural-index block/slice sizes (node counts, per-attribute
  occurrence counts, atom-slice sizes) from :mod:`repro.structindex`;
* historical per-operator unit costs (seconds per row, EMA-smoothed)
  harvested from :class:`~repro.observe.profile.PlanProfiler` runs, and
  actual result/branch cardinalities fed back by the engine.

A snapshot carries two version numbers.  ``epoch`` is the store's
data/schema epoch: a mutation produces a fresh snapshot (the manager
recollects lazily).  ``generation`` is the *costing* version: it
advances on an explicit ``StatisticsManager.recost()`` so accumulated
feedback is re-read without any data change — the plan cache
invalidates entries whose recorded generation is stale (the
``cache.stats_invalidations`` counter).

:class:`CostEvidence` is the audit record the cost stage attaches to
every union it reorders or prunes; :mod:`repro.plancheck` re-validates
it (the ``PC-COST`` checks), so a miscosted rewrite is caught before it
can execute — the same gating policy every other rewrite follows.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.text.patterns import (
    AndExpr,
    OrExpr,
    Pattern,
    PatternExpr,
)


class CostEvidence:
    """Why a union looks the way it does after the cost stage.

    ``order`` holds the *original* branch indices in their new
    execution order; ``pruned`` maps each removed original index to its
    justification ``(kind, detail)``.  Together they must partition
    ``range(original)`` — the verifier's ``PC-COST`` check — and every
    pruned entry must carry re-checkable zero evidence (currently the
    single kind ``"empty_candidates"``: a pattern whose posting-size
    upper bound is provably zero).  ``generation`` records the
    statistics snapshot the decision was costed against.
    """

    __slots__ = ("original", "order", "pruned", "generation", "ordinal")

    def __init__(self, original: int, order: tuple[int, ...],
                 pruned: Mapping[int, tuple[str, Any]],
                 generation: int, ordinal: int = 0) -> None:
        self.original = original
        self.order = tuple(order)
        self.pruned = dict(pruned)
        self.generation = generation
        #: Position of this union in the plan's deterministic post-order
        #: walk — the key branch-cardinality feedback is recorded under.
        self.ordinal = ordinal

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CostEvidence(original={self.original}, "
                f"order={self.order}, pruned={sorted(self.pruned)}, "
                f"generation={self.generation})")


#: Default selectivity of a selection whose predicate the model cannot
#: bound (the classic System-R guess).
DEFAULT_SELECTIVITY = 0.5

#: Default fan-out of an unnest when no structural statistics exist.
DEFAULT_FANOUT = 3.0


class Statistics:
    """One coherent snapshot of everything the cost model reads."""

    __slots__ = ("epoch", "generation", "class_cardinalities",
                 "root_cardinalities", "object_count", "document_count",
                 "vocabulary_size", "index_nodes", "index_roots",
                 "attr_occurrences", "unit_costs", "branch_actuals",
                 "_text_index", "_bound_memo")

    def __init__(self, epoch: int = 0, generation: int = 0,
                 class_cardinalities: Mapping[str, int] | None = None,
                 root_cardinalities: Mapping[str, int] | None = None,
                 object_count: int = 0,
                 document_count: int = 0,
                 vocabulary_size: int = 0,
                 index_nodes: int = 0,
                 index_roots: int = 0,
                 attr_occurrences: Mapping[str, int] | None = None,
                 unit_costs: Mapping[str, float] | None = None,
                 branch_actuals: Mapping[Any, int] | None = None,
                 text_index: Any = None) -> None:
        self.epoch = epoch
        self.generation = generation
        self.class_cardinalities = dict(class_cardinalities or {})
        self.root_cardinalities = dict(root_cardinalities or {})
        self.object_count = object_count
        self.document_count = document_count
        self.vocabulary_size = vocabulary_size
        self.index_nodes = index_nodes
        self.index_roots = index_roots
        self.attr_occurrences = dict(attr_occurrences or {})
        self.unit_costs = dict(unit_costs or {})
        self.branch_actuals = dict(branch_actuals or {})
        # posting sizes are read lazily (and memoized) off the live
        # index: the snapshot is keyed to an epoch, and any mutation
        # bumps the epoch, so the reads stay coherent with the rest
        self._text_index = text_index
        self._bound_memo: dict[PatternExpr, int | None] = {}

    # -- cardinalities --------------------------------------------------------

    def class_cardinality(self, class_name: str) -> int:
        return self.class_cardinalities.get(class_name, 0)

    def root_cardinality(self, name: str) -> int:
        return self.root_cardinalities.get(name, 1)

    def avg_fanout(self) -> float:
        """Mean children per node, from the structural index when one
        is built (node count vs. a root-count worth of trees)."""
        if self.index_nodes and self.index_roots:
            subtree = self.index_nodes / self.index_roots
            # a subtree of n nodes over ~log depth: crude but monotone
            return max(1.0, min(8.0, subtree ** (1.0 / 3.0)))
        return DEFAULT_FANOUT

    def avg_subtree_size(self) -> float:
        """Mean nodes per indexed root subtree — the row multiplier of
        a structural range scan seeded at a document root."""
        if self.index_nodes and self.index_roots:
            return self.index_nodes / self.index_roots
        return DEFAULT_FANOUT ** 3

    def attr_density(self, attr: str | None) -> float:
        """Expected holders of ``attr`` per indexed root subtree."""
        if attr is None or not self.index_roots:
            return max(1.0, self.avg_subtree_size() / 4.0)
        return max(1.0, self.attr_occurrences.get(attr, 0)
                   / self.index_roots)

    def unit_cost(self, operator_name: str,
                  default: float = 1.0) -> float:
        """Relative per-row cost of one operator class, learned from
        profiled runs (1.0 until something was measured)."""
        return self.unit_costs.get(operator_name, default)

    # -- text-index posting bounds -------------------------------------------

    def candidate_upper_bound(self, expression: Any) -> int | None:
        """An upper bound on the number of documents that can satisfy
        ``expression``, from document frequencies alone (no probe is
        issued): exact for one literal word, the smallest frequency of
        a phrase's words, the sum over a disjunction.  ``None`` means
        the model cannot bound it — a negation-dominated or regex-only
        pattern, or an index marked stale (what it holds for the keys
        indexed before the mark bounds nothing about their text now).
        A return of ``0`` is a *proof* of emptiness: a
        literal word no document contains matches nothing, so the cost
        stage may prune a branch gated on it before any index probe
        runs.
        """
        if not isinstance(expression, PatternExpr):
            return None
        # keyed by the pattern's text (PatternExpr equality), never by
        # id(): the snapshot outlives the plans it costs, and a
        # collected pattern's id is reused by the next one
        if expression not in self._bound_memo:
            self._bound_memo[expression] = self._bound_of(expression)
        return self._bound_memo[expression]

    def _bound_of(self, expression: Any) -> int | None:
        """The bound itself, from
        :meth:`repro.text.TextIndex.posting_size` — the document
        frequency of each literal word."""
        index = self._text_index
        if index is None or index.stale:
            return None
        if isinstance(expression, Pattern):
            bounds = [index.posting_size(word)
                      for word in expression.literal_words()]
            if not bounds:
                return None  # regex-only: needs a vocabulary scan
            return min(bounds)
        if isinstance(expression, AndExpr):
            left = self._bound_of(expression.left)
            right = self._bound_of(expression.right)
            if left is None:
                return right
            if right is None:
                return left
            return min(left, right)
        if isinstance(expression, OrExpr):
            left = self._bound_of(expression.left)
            right = self._bound_of(expression.right)
            if left is None or right is None:
                return None
            return left + right
        return None  # a negation bounds nothing

    # -- feedback -------------------------------------------------------------

    def branch_actual(self, plan_key: Any, ordinal: int,
                      original_index: int) -> int | None:
        """The actual row count a union branch produced on a previous
        run of the same cached plan (``None`` before any feedback)."""
        return self.branch_actuals.get((plan_key, ordinal,
                                        original_index))

    # -- reporting ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Structured summary (the ``statistics`` block of
        :meth:`repro.session.DocumentStore.stats`)."""
        return {
            "epoch": self.epoch,
            "generation": self.generation,
            "classes": len(self.class_cardinalities),
            "objects": self.object_count,
            "documents": self.document_count,
            "vocabulary": self.vocabulary_size,
            "index_nodes": self.index_nodes,
            "index_roots": self.index_roots,
            "attrs_tracked": len(self.attr_occurrences),
            "unit_costs": dict(self.unit_costs),
            "recorded_branches": len(self.branch_actuals),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Statistics(epoch={self.epoch}, "
                f"generation={self.generation}, "
                f"classes={len(self.class_cardinalities)}, "
                f"objects={self.object_count})")
