"""The epoch-versioned table-statistics snapshot.

:class:`Statistics` is the count record ``DocumentStore.stats()``
reports under ``statistics``:

* per-class cardinalities (disjoint extents) and persistence-root
  collection sizes, from the :class:`~repro.oodb.instance.Instance`;
* the text index's key and vocabulary sizes (:mod:`repro.text`);
* structural-index sizes (node and root counts, per-attribute
  occurrence counts) from :mod:`repro.structindex`.

A snapshot carries the store's data/schema ``epoch``: a mutation
produces a fresh snapshot (the manager recollects lazily).
"""

from __future__ import annotations

from typing import ClassVar, Mapping


class Statistics:
    """One coherent snapshot of the store's counts."""

    #: Inert (always 0): read only by the e2e benchmark harness's
    #: traced run; ROADMAP item 11 deletes it.
    generation: ClassVar[int] = 0

    __slots__ = ("epoch", "class_cardinalities",
                 "root_cardinalities", "object_count", "document_count",
                 "vocabulary_size", "index_nodes", "index_roots",
                 "attr_occurrences")

    def __init__(self, epoch: int = 0,
                 class_cardinalities: Mapping[str, int] | None = None,
                 root_cardinalities: Mapping[str, int] | None = None,
                 object_count: int = 0,
                 document_count: int = 0,
                 vocabulary_size: int = 0,
                 index_nodes: int = 0,
                 index_roots: int = 0,
                 attr_occurrences: Mapping[str, int] | None = None
                 ) -> None:
        self.epoch = epoch
        self.class_cardinalities = dict(class_cardinalities or {})
        self.root_cardinalities = dict(root_cardinalities or {})
        self.object_count = object_count
        self.document_count = document_count
        self.vocabulary_size = vocabulary_size
        self.index_nodes = index_nodes
        self.index_roots = index_roots
        self.attr_occurrences = dict(attr_occurrences or {})

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
