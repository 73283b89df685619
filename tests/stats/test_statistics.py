"""The statistics snapshot: collection, posting bounds, cost model."""

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
        assert empty.unit_cost("StepOp") == 1.0


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

    def test_a_stale_index_bounds_nothing(self):
        """After ``mark_stale()`` the postings describe text the store
        no longer vouches for: no bound, hence no zero proof."""
        private = DocumentStore(ARTICLE_DTD, backend="algebra")
        private.load_text(SAMPLE_ARTICLE, name="my_article")
        private.build_text_index()
        absent = parse_pattern_expr('"xyzzynotthere"')
        assert private.statistics().candidate_upper_bound(absent) == 0
        title = next(oid for oid in private.instance.all_oids()
                     if oid.class_name == "Title")
        private.update_text(title, "Edited heading words")
        assert private.text_index.stale
        assert private.statistics().candidate_upper_bound(absent) is None


class TestCostModel:
    def test_estimates_are_positive_and_monotone(self, store):
        from repro.algebra.compile import compile_query
        engine = store._engine
        query = engine.translate(
            "select t from a in Articles, a PATH_p.title(t)")
        plan = compile_query(query, store.schema, structural=False)
        snap = store.statistics()
        root = estimate(plan, snap)
        assert root.rows >= 0.0
        assert root.cost > 0.0
        # a child can never cost more than its parent chain
        child = estimate(plan.children()[0], snap)
        assert child.cost <= root.cost

    def test_shared_memo_costs_dag_nodes_once(self, store):
        from repro.algebra.compile import compile_query
        from repro.algebra.optimizer import optimize
        engine = store._engine
        query = engine.translate(
            "select t from a in Articles, a PATH_p.title(t)")
        # the union-of-plans: its factoring is what makes a DAG
        plan = optimize(compile_query(query, store.schema, structural=False),
                        structural=False)
        snap = store.statistics()
        memo = {}
        estimate(plan, snap, memo)
        # the memo holds one entry per distinct DAG node
        assert len(memo) == len(set(memo))


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert q_error(10, 10) == 1.0
        assert q_error(0, 0) == 1.0

    def test_symmetric(self):
        assert q_error(3, 12) == q_error(12, 3)

    def test_grows_with_the_miss(self):
        assert q_error(1, 100) > q_error(1, 10) > 1.0
