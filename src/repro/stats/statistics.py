"""The epoch-versioned table-statistics snapshot.

:class:`Statistics` folds what the engine already measures into one
immutable-by-convention record the row model
(:func:`repro.stats.estimate`) reads without touching the store:

* per-class cardinalities (disjoint extents) and persistence-root
  collection sizes, from the :class:`~repro.oodb.instance.Instance`;
* text-index document frequencies — the number of documents a
  literal word matches, an *upper bound* for the patterns built from
  it (:mod:`repro.text`);
* structural-index sizes (node and root counts, per-attribute
  occurrence counts) from :mod:`repro.structindex`.

A snapshot carries the store's data/schema ``epoch``: a mutation
produces a fresh snapshot (the manager recollects lazily).
"""

from __future__ import annotations

from typing import Any, ClassVar, Mapping

from repro.text.patterns import (
    AndExpr,
    OrExpr,
    Pattern,
    PatternExpr,
)


#: Default selectivity of a selection whose predicate the model cannot
#: bound (the classic System-R guess).
DEFAULT_SELECTIVITY = 0.5

#: Default fan-out of an unnest when no structural statistics exist.
DEFAULT_FANOUT = 3.0


class Statistics:
    """One coherent snapshot of everything the cost model reads."""

    #: Inert (always 0): read only by the e2e benchmark harness's
    #: traced run; ROADMAP item 11 deletes it.
    generation: ClassVar[int] = 0

    __slots__ = ("epoch", "class_cardinalities",
                 "root_cardinalities", "object_count", "document_count",
                 "vocabulary_size", "index_nodes", "index_roots",
                 "attr_occurrences", "_text_index", "_bound_memo")

    def __init__(self, epoch: int = 0,
                 class_cardinalities: Mapping[str, int] | None = None,
                 root_cardinalities: Mapping[str, int] | None = None,
                 object_count: int = 0,
                 document_count: int = 0,
                 vocabulary_size: int = 0,
                 index_nodes: int = 0,
                 index_roots: int = 0,
                 attr_occurrences: Mapping[str, int] | None = None,
                 text_index: Any = None) -> None:
        self.epoch = epoch
        self.class_cardinalities = dict(class_cardinalities or {})
        self.root_cardinalities = dict(root_cardinalities or {})
        self.object_count = object_count
        self.document_count = document_count
        self.vocabulary_size = vocabulary_size
        self.index_nodes = index_nodes
        self.index_roots = index_roots
        self.attr_occurrences = dict(attr_occurrences or {})
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

    # -- text-index posting bounds -------------------------------------------

    def candidate_upper_bound(self, expression: Any) -> int | None:
        """An upper bound on the number of documents that can satisfy
        ``expression``, from document frequencies alone (no probe is
        issued): exact for one literal word, the smallest frequency of
        a phrase's words, the sum over a disjunction.  ``None`` means
        the model cannot bound it — a negation-dominated or regex-only
        pattern.  A return of ``0`` is a *proof* of emptiness: a
        literal word no document contains matches nothing, so the
        index probe of the same pattern finds no key either.
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
        if index is None:
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

    # -- reporting ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Structured summary (the ``statistics`` block of
        :meth:`repro.session.DocumentStore.stats`)."""
        return {
            "epoch": self.epoch,
            "classes": len(self.class_cardinalities),
            "objects": self.object_count,
            "documents": self.document_count,
            "vocabulary": self.vocabulary_size,
            "index_nodes": self.index_nodes,
            "index_roots": self.index_roots,
            "attrs_tracked": len(self.attr_occurrences),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Statistics(epoch={self.epoch}, "
                f"classes={len(self.class_cardinalities)}, "
                f"objects={self.object_count})")
