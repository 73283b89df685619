"""Unit and regression tests for :class:`repro.structindex.StructuralIndex`:
freshness (epoch gating, targeted dirty marking), the completeness flags
on recursive schemas, node-budget truncation, and the TextIndex-style
query-after-update guarantee."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.oodb.values import Oid
from repro.paths import RESTRICTED, Path, paths_from
from repro.structindex import StructuralIndex

BOOK_DTD = """
<!DOCTYPE book [
<!ELEMENT book - - (title, section+)>
<!ELEMENT section - O (title, para*, section*)>
<!ELEMENT title - O (#PCDATA)>
<!ELEMENT para - O (#PCDATA)>
]>
"""

NESTED_BOOK = """
<book><title>The Nesting Book
<section><title>Chapter One
  <para>Top level prose.
  <section><title>One point One
    <para>Deeper prose.
    <section><title>One point One point One
      <para>Deepest prose.
    </section>
  </section>
</section>
</book>
"""


@pytest.fixture
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra", structural=True)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    return s


class TestFreshness:
    def test_load_marks_everything_dirty(self, store):
        index = store.struct_index
        index.refresh()
        assert index.refresh() == 0  # idempotent once clean
        before = index.stats()["nodes"]
        store.load_text(SAMPLE_ARTICLE, name="my_old_article")
        assert index.stats()["dirty"]
        assert index.refresh() > 0
        assert index.stats()["nodes"] > before
        assert not index.stats()["dirty"]

    def test_define_name_adds_a_block(self, store):
        article = store.instance.root("my_article")
        store.define_name("alias", article)
        store.struct_index.refresh()
        assert "alias" in store.struct_index.blocks

    def test_unannounced_epoch_bump_forces_full_rebuild(self, store):
        index = store.struct_index
        index.refresh()
        metrics = store.enable_metrics()
        store.plan_cache.bump_epoch()  # behind the index's back
        assert index.refresh() == len(store.instance.root_names)

    def test_locate_refreshes_first(self, store):
        # a stale index never serves a lookup: locate_all() sees the
        # new document without an explicit refresh() call
        oid = store.load_text(SAMPLE_ARTICLE, name="late_arrival")
        (located,) = store.struct_index.locate_all([oid])
        assert located is not None
        block, pre = located
        assert block.values[pre] == oid


class TestTargetedUpdates:
    def test_update_text_marks_only_containing_blocks(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
        for position, tree in enumerate(generate_corpus(4, seed=5)):
            s.load_tree(tree, name=f"doc{position}", validate=False)
        index = s.struct_index
        index.refresh()
        metrics = s.enable_metrics()
        doc2 = index.blocks["doc2"]
        title = next(value for value in doc2.values
                     if isinstance(value, Oid)
                     and value.class_name == "Title")
        s.update_text(title, "Retitled by the update test")
        rebuilt = index.refresh()
        # only the blocks whose arrays contain the edited oid: the
        # class-extent root and doc2 — not doc0/doc1/doc3
        assert rebuilt == 2
        names = set(s.instance.root_names)
        assert {"doc0", "doc1", "doc3"} < names
        assert metrics.get("structindex.block_rebuilds") == 2

    @staticmethod
    def holding(index, oid) -> set:
        """The blocks any occurrence of ``oid`` (complete or not) is
        in, by brute force over the values: what the index-wide oid
        map answered when it existed."""
        return {name for name, block in index.blocks.items()
                if any(value is oid for value in block.values)}

    def test_dirty_marking_per_holding_block(self):
        """An oid held in one block dirties that block, one held in
        two dirties both, and an oid no block holds dirties
        everything."""
        s = DocumentStore(BOOK_DTD, backend="algebra")
        s.load_text(NESTED_BOOK, name="my_book")
        # a title no document holds, under a name of its own
        title = next(oid for oid in s.instance.all_oids()
                     if oid.class_name == "Title")
        orphan = s.instance.new_object("Title")
        s.instance.set_value(orphan, s.instance.deref(title))
        s.define_name("orphan", orphan)
        index = s.struct_index
        index.refresh()
        by_count: dict = {}
        for oid in s.instance.all_oids():
            by_count.setdefault(len(self.holding(index, oid)), oid)
        assert {0, 1, 2} <= set(by_count)
        for count in (1, 2):
            oid = by_count[count]
            index.note_object_update(oid, epoch=s.plan_cache.epoch)
            assert index._dirty == self.holding(index, oid)
            assert len(index._dirty) == count
            assert not index._all_dirty
            assert index.refresh() == count
        # an object inside a suppressed subtree, and an oid the
        # instance never allocated
        for unseen in (by_count[0], Oid(999_998, "Title")):
            assert self.holding(index, unseen) == set()
            index.note_object_update(unseen, epoch=s.plan_cache.epoch)
            assert index._all_dirty and not index._dirty
            assert index.refresh() == len(s.instance.root_names)

    def test_update_of_unknown_oid_degrades_to_full_rebuild(self, store):
        index = store.struct_index
        index.refresh()
        ghost = Oid(999_999, "Title")
        index.note_object_update(ghost, epoch=store.plan_cache.epoch)
        assert index.refresh() == len(store.instance.root_names)

    def test_query_after_update_sees_new_structure(self, store):
        new_title = "A Structurally Indexed Title"
        q = "select t from my_article PATH_p.title(t)"
        before = {store.text(t) for t in store.query(q)}
        assert new_title not in before
        title = store.instance.root("my_article")
        article = store.instance.deref(title)
        first_title = article.get("title")
        store.update_text(first_title, new_title)
        after = {store.text(t) for t in store.query(q)}
        assert new_title in after


class TestCompleteness:
    def test_recursive_sections_are_marked_incomplete(self):
        s = DocumentStore(BOOK_DTD, backend="algebra")
        s.load_text(NESTED_BOOK, name="my_book")
        index = s.struct_index
        index.refresh()
        incomplete = [pre for block in index.blocks.values()
                      for pre in range(block.size)
                      if not block.complete[pre]]
        assert incomplete  # the nested section truncates its ancestors

    def test_complete_flags_are_sound(self):
        s = DocumentStore(BOOK_DTD, backend="algebra")
        s.load_text(NESTED_BOOK, name="my_book")
        s.struct_index.refresh()
        for block in s.struct_index.blocks.values():
            for pre in range(block.size):
                if not block.complete[pre]:
                    continue
                fresh = list(paths_from(block.values[pre], s.instance,
                                        RESTRICTED))
                scanned = [(block.path(i, block.level[pre]),
                            block.values[i])
                           for i in range(pre, block.end[pre])]
                assert [(p, id(v)) for p, v in fresh] \
                    == [(p, id(v)) for p, v in scanned]

    def test_fused_attr_scan_rechecks_blocked_derefs(self):
        # a suppressed dereference leaves the oid with no subtree in
        # the block, but a live ``.title`` still auto-dereferences it:
        # the fused scan must re-check such oids against the instance
        plain = DocumentStore(BOOK_DTD, backend="algebra",
                              structural=False)
        fused = DocumentStore(BOOK_DTD, backend="algebra")
        for s in (plain, fused):
            s.load_text(NESTED_BOOK, name="my_book")
        index = fused.struct_index
        index.refresh()
        assert any(block.blocked_oids
                   for block in index.blocks.values())
        metrics = fused.enable_metrics()
        for q in ("select t from my_book PATH_p.title(t)",
                  "select name(ATT_a) from my_book PATH_p.ATT_a(v)"):
            assert fused.query(q) == plain.query(q)
        assert metrics.get("structindex.range_scans") > 0

    def test_locate_skips_incomplete_occurrences(self):
        s = DocumentStore(BOOK_DTD, backend="algebra")
        s.load_text(NESTED_BOOK, name="my_book")
        index = s.struct_index
        oids = list(s.instance.all_oids())
        for oid, located in zip(oids, index.locate_all(oids)):
            if located is None:
                continue
            block, pre = located
            assert block.complete[pre]


class TestTruncation:
    def test_node_budget_disables_block_but_not_queries(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        index = StructuralIndex(s.instance, epoch_source=s.plan_cache,
                                max_block_nodes=10)
        index.note_data_change(epoch=s.plan_cache.epoch)
        index.refresh()
        assert all(block.truncated and block.size == 0
                   for block in index.blocks.values())
        s._engine.ctx.struct_index = index
        s.struct_index = index
        s._engine.structural = True
        metrics = s.enable_metrics()
        result = s.query("select t from my_article PATH_p.title(t)")
        assert len(result) == 3
        assert metrics.get("structindex.fallback_walks") > 0
        assert metrics.get("structindex.range_scans") == 0


    def test_node_budget_boundary(self):
        """A block of exactly ``max_block_nodes`` nodes is built; one
        node over the budget truncates it."""
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        size = s.build_structural_index().blocks["my_article"].size
        for budget, truncated in ((size, False), (size - 1, True)):
            index = StructuralIndex(s.instance, max_block_nodes=budget)
            index.refresh()
            block = index.blocks["my_article"]
            assert block.truncated is truncated
            assert block.size == (0 if truncated else size)


class TestMaxPathsParity:
    def test_scan_raises_the_walk_error_text(self, store):
        """The range scan keeps the live walk's enumeration-limit
        contract: a subtree one node over ``max_paths`` raises the
        walk's error text, one at the limit is one range scan."""
        from repro.errors import EvaluationError
        (block, pre), = store.struct_index.locate_all(
            [store.instance.root("my_article")])
        size = block.end[pre] - pre
        oracle = DocumentStore(ARTICLE_DTD, backend="calculus")
        oracle.load_text(SAMPLE_ARTICLE, name="my_article")
        text = "select PATH_p from my_article PATH_p"
        for s in (store, oracle):
            s._engine.ctx.max_paths = size - 1
            with pytest.raises(EvaluationError,
                               match=f"exceeded {size - 1} paths"):
                s.query(text)
            s._engine.ctx.max_paths = size
        report = store.explain_analyze(text)
        assert report.counter("structindex.range_scans") == 1
        assert report.counter("structindex.fallback_walks") == 0
        assert store.query(text) == oracle.query(text)
        # the live walk is lazy: a consumer that stops early (an
        # existential finding its witness) never sees the error
        root = store.instance.root("my_article")
        pairs = paths_from(root, store.instance, RESTRICTED, max_paths=5)
        assert next(pairs) == (Path.EMPTY, root)
