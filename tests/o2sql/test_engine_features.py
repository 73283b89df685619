"""End-to-end tests for the remaining surface features: correlated
exists, element(), nested selects, set operations on subqueries, the
liberal-semantics engine, and error reporting."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.errors import QuerySyntaxError, QueryTypeError, SafetyError
from repro.oodb import SetValue


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(8, seed=13):
        s.load_tree(tree)
    return s


class TestCorrelatedExists:
    def test_exists_filters(self, store):
        with_sgml = store.query("""
            select a from a in Articles
            where exists (select s from s in a.sections
                          where s.title contains ("SGML"))
        """)
        # cross-check against the flat join (exists dedups articles)
        flat = store.query("""
            select a from a in Articles, s in a.sections
            where s.title contains ("SGML")
        """)
        assert with_sgml == flat

    def test_not_exists(self, store):
        without = store.query("""
            select a from a in Articles
            where not exists (select s from s in a.sections
                              where s.title contains ("SGML"))
        """)
        total = len(store.instance.root("Articles"))
        with_sgml = store.query("""
            select a from a in Articles
            where exists (select s from s in a.sections
                          where s.title contains ("SGML"))
        """)
        assert len(without) + len(with_sgml) == total

    def test_exists_with_path_item(self, store):
        result = store.query("""
            select a from a in Articles
            where exists (select v from a PATH_p.status(v)
                          where v = "final")
        """)
        expected = store.query(
            "select a from a in Articles where a.status = 'final'")
        assert result == expected


class TestNestedQueries:
    def test_element_extracts_singleton(self, store):
        result = store.query("element (select a from a in Articles "
                             "where a = my_article)")
        assert len(result) == 1

    def test_subquery_in_where_membership(self, store):
        result = store.query("""
            select a from a in Articles
            where a in (select b from b in Articles
                        where b.status = "final")
        """)
        expected = store.query(
            "select a from a in Articles where a.status = 'final'")
        assert result == expected

    def test_count_of_subquery(self, store):
        result = store.query(
            "count (select a from a in Articles)")
        assert list(result)[0] == len(store.instance.root("Articles"))

    def test_difference_of_selects(self, store):
        finals = "select a from a in Articles where a.status = 'final'"
        all_articles = "select a from a in Articles"
        drafts = store.query(f"({all_articles}) - ({finals})")
        expected = store.query(
            "select a from a in Articles where a.status = 'draft'")
        assert drafts == expected


class TestErrors:
    def test_syntax_error_reported_with_position(self, store):
        with pytest.raises(QuerySyntaxError):
            store.query("select from nothing")

    def test_type_error_for_impossible_attribute(self, store):
        with pytest.raises(QueryTypeError):
            store.query("select x from a in Articles, "
                        "a PATH_p.not_an_attr(x)")

    def test_unknown_function_is_type_error(self, store):
        from repro.errors import QueryError
        with pytest.raises(QueryError):
            store.query("select frobnicate(a) from a in Articles")

    def test_unsafe_query_rejected(self, store):
        with pytest.raises((SafetyError, QueryTypeError)):
            store.query("select a from a in Articles where x = y")


class TestSemanticsOptions:
    def test_liberal_engine_consistent_on_acyclic_data(self):
        restricted = DocumentStore(ARTICLE_DTD,
                                   path_semantics="restricted")
        liberal = DocumentStore(ARTICLE_DTD, path_semantics="liberal",
                                backend="calculus")
        for s in (restricted, liberal):
            s.load_text(SAMPLE_ARTICLE, name="my_article")
        query = "select t from my_article PATH_p.title(t)"
        assert restricted.query(query) == liberal.query(query)
