"""The statistics snapshot: collection, posting bounds, row model."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.stats import Statistics, estimate, q_error
from repro.stats.statistics import DEFAULT_FANOUT
from repro.text.patterns import Pattern, parse_pattern_expr


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    s.build_text_index()
    s.build_structural_index()
    return s


class TestCollection:
    def test_snapshot_measures_the_store(self, store):
        snap = store.statistics()
        assert snap.class_cardinality("Article") == 2
        assert snap.root_cardinality("Articles") == 2
        assert snap.root_cardinality("my_article") == 1
        assert snap.object_count == store.instance.object_count()
        assert snap.document_count > 0
        assert snap.vocabulary_size > 0
        # the structural index was built over every root
        assert snap.index_nodes > 0
        assert snap.index_roots > 0
        assert snap.attr_density("title") >= 1.0

    def test_snapshot_is_memoized_per_epoch(self, store):
        assert store.statistics() is store.statistics()

    def test_mutation_triggers_lazy_recollection(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.statistics()
        s.load_text(SAMPLE_ARTICLE, name="another")
        after = s.statistics()
        assert after is not before
        assert after.epoch > before.epoch
        assert (after.class_cardinality("Article")
                == before.class_cardinality("Article") + 1)

    def test_index_built_after_queries_refreshes_snapshot(self):
        """Building an index moves no store epoch, so the facade must
        refresh the memoized snapshot explicitly — otherwise costing
        stays index-blind until the next data mutation."""
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.statistics()
        assert before.vocabulary_size == 0
        s.build_text_index()
        after = s.statistics()
        assert after.vocabulary_size > 0
        assert after.document_count > 0
        s.build_structural_index()
        assert s.statistics().index_nodes > 0

    def test_report_block_in_store_stats(self, store):
        block = store.stats()["statistics"]
        assert block["classes"] > 0

    def test_statistics_count_the_current_structural_index(self):
        """A collection reads the index as of the store's epoch, not
        the blocks the last scan happened to leave behind."""
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")

        def index_nodes():
            stats = s.stats()
            counted = stats["statistics"]["index_nodes"]
            assert counted == stats["struct_index"]["nodes"]
            return counted

        s.query("select t from my_article PATH_p.title(t)")
        one = index_nodes()
        # a load, and no query since
        s.load_text(SAMPLE_ARTICLE, name="my_old_article")
        assert index_nodes() > one

    def test_fanout_defaults_without_structural_index(self):
        empty = Statistics()
        assert empty.avg_fanout() == DEFAULT_FANOUT
        assert empty.avg_subtree_size() == DEFAULT_FANOUT ** 3


class TestPostingBounds:
    def test_literal_word_bound_is_posting_size(self, store):
        snap = store.statistics()
        expr = parse_pattern_expr('"SGML"')
        bound = snap.candidate_upper_bound(expr)
        assert bound == store.text_index.posting_size("SGML")
        assert bound > 0

    def test_absent_word_bound_is_zero_proof(self, store):
        snap = store.statistics()
        assert snap.candidate_upper_bound(
            parse_pattern_expr('"xyzzynotthere"')) == 0

    def test_bound_is_remembered_by_text_not_by_object_id(self, store):
        # the snapshot outlives the plans it costs: a collected
        # pattern's id() is handed to the next pattern allocated
        snap = store.statistics()
        expected = store.text_index.posting_size("SGML")
        for _ in range(50):
            absent = Pattern("xyzzynotthere")
            assert snap.candidate_upper_bound(absent) == 0
            freed = id(absent)
            del absent
            present = Pattern("SGML")
            assert snap.candidate_upper_bound(present) == expected
            if id(present) == freed:
                break

    def test_conjunction_takes_the_min(self, store):
        snap = store.statistics()
        both = snap.candidate_upper_bound(
            parse_pattern_expr('"SGML" and "xyzzynotthere"'))
        assert both == 0

    def test_disjunction_adds(self, store):
        snap = store.statistics()
        left = snap.candidate_upper_bound(parse_pattern_expr('"SGML"'))
        right = snap.candidate_upper_bound(
            parse_pattern_expr('"OODBMS"'))
        union = snap.candidate_upper_bound(
            parse_pattern_expr('"SGML" or "OODBMS"'))
        assert union == left + right

    def test_negation_is_unbounded(self, store):
        snap = store.statistics()
        assert snap.candidate_upper_bound(
            parse_pattern_expr('not "SGML"')) is None

    def test_an_edit_keeps_the_zero_proof(self):
        """The index is re-indexed with every edit, so its bounds stay
        exact: an absent word still bounds at 0 after ``update_text``,
        and the edited words are counted."""
        private = DocumentStore(ARTICLE_DTD, backend="algebra")
        private.load_text(SAMPLE_ARTICLE, name="my_article")
        private.build_text_index()
        absent = parse_pattern_expr('"xyzzynotthere"')
        edited = parse_pattern_expr('"Zanzibar"')
        assert private.statistics().candidate_upper_bound(edited) == 0
        title = next(oid for oid in private.instance.all_oids()
                     if oid.class_name == "Title")
        private.update_text(title, "Zanzibar heading words")
        snap = private.statistics()
        assert snap.candidate_upper_bound(absent) == 0
        # the article's title and the article
        assert snap.candidate_upper_bound(edited) == 2


class TestRowModel:
    def test_estimates_are_nonnegative_rows(self, store):
        from repro.algebra.compile import compile_query
        engine = store._engine
        query = engine.translate(
            "select t from a in Articles, a PATH_p.title(t)")
        plan = compile_query(query, store.schema, structural=False)
        snap = store.statistics()
        root = estimate(plan, snap)
        assert isinstance(root, float)
        assert root >= 0.0
        # the root projection passes its input's rows through
        assert estimate(plan.children()[0], snap) == root

    def test_shared_memo_costs_dag_nodes_once(self, store):
        from repro.algebra.compile import compile_query
        from repro.algebra.optimizer import optimize
        engine = store._engine
        query = engine.translate(
            "select t from a in Articles, a PATH_p.title(t)")
        # the union-of-plans: its factoring is what makes a DAG
        plan = optimize(compile_query(query, store.schema,
                                      structural=False))
        snap = store.statistics()
        memo = {}
        estimate(plan, snap, memo)
        # the memo holds one entry per distinct DAG node
        assert len(memo) == len(set(memo))

    @staticmethod
    def _contains_select(store, pattern):
        """The optimized union-of-plans' one ``contains`` select, and
        the row estimates of its DAG."""
        from repro.algebra.compile import compile_query
        from repro.algebra.operators import SelectOp, walk_once
        from repro.algebra.optimizer import optimize
        query = store._engine.translate(
            "select t from a in Articles, a PATH_p.title(t) "
            f"where a contains ({pattern})")
        plan = optimize(compile_query(query, store.schema,
                                      structural=False))
        (select,) = [node for node in walk_once(plan)
                     if isinstance(node, SelectOp)
                     and node.pattern is not None]
        memo = {}
        estimate(plan, store.statistics(), memo)
        return select, memo

    def test_contains_select_is_bounded_by_its_postings(self, store):
        select, memo = self._contains_select(store, '"SGML"')
        assert select.oid_only
        bound = store.statistics().candidate_upper_bound(select.pattern)
        assert memo[id(select)] == min(memo[id(select.child)], bound)

    def test_unbounded_select_keeps_the_default(self, store):
        select, memo = self._contains_select(store, 'not "SGML"')
        assert memo[id(select)] == 0.5 * memo[id(select.child)]


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert q_error(10, 10) == 1.0
        assert q_error(0, 0) == 1.0

    def test_symmetric(self):
        assert q_error(3, 12) == q_error(12, 3)

    def test_grows_with_the_miss(self):
        assert q_error(1, 100) > q_error(1, 10) > 1.0
