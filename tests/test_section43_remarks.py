"""Fidelity tests for the five numbered remarks of Section 4.3.

The paper annotates query Q3 with five observations about path
expressions; each gets a direct test here.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.paths import Path, path_length, path_project


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    return s


class TestRemark1DotDotSugar:
    """ '1. We may allow the syntactical sugared form
    from my_article .. title(t)' """

    def test_sugar_equals_explicit_path_variable(self, store):
        explicit = store.query(
            "select t from my_article PATH_p.title(t)")
        sugared = store.query(
            "select t from my_article .. .title(t)")
        assert explicit == sugared


class TestRemark2UnionTypedResults:
    """ '2. the presence of path variables will often imply that the
    corresponding data variable is of a union type' """

    def test_inferred_type_is_alpha_union(self, store):
        types = store.check_query(
            "select x from my_article PATH_p(x).title")
        rendered = {str(v): t for v, t in types.items()}
        inferred = rendered["x"]
        from repro.oodb.types import UnionType
        assert isinstance(inferred, UnionType)
        assert all(m.startswith("alpha") for m in inferred.markers)


class TestRemark3PathsOutsideFrom:
    """ '3. Path variables may be used outside a from clause ...
    my_article PATH_p.title is a query that returns the set of paths
    to a title field.' """

    def test_bare_path_expression_returns_paths(self, store):
        result = store.query("my_article PATH_p.title")
        assert len(result) > 0
        assert all(isinstance(p, Path) for p in result)


class TestRemark4ListFunctions:
    """ '4. Paths is a data type that comes equipped with functions ...
    length(P) = 4 and P[0:1] = .sections[0]' """

    def test_the_paper_example_verbatim(self):
        P = Path.of("sections", 0, "subsectns", 0)
        assert str(P) == ".sections[0].subsectns[0]"
        assert path_length(P) == 4
        assert path_project(P, 0, 1) == Path.of("sections", 0)
        assert str(path_project(P, 0, 1)) == ".sections[0]"

    def test_length_usable_inside_queries(self, store):
        shallow = store.query("""
            select PATH_p from my_article PATH_p.title
            where length(PATH_p) < 2
        """)
        all_paths = store.query("my_article PATH_p.title")
        assert set(shallow) < set(all_paths)
        assert all(len(p) < 2 for p in shallow)


class TestRemark5CycleAvoidance:
    """ '5. When path variables are used ... there is always the
    possibility of cycles ... Our interpretation avoids cycles.' """

    def test_cyclic_cross_references_terminate(self):
        dtd = """
        <!DOCTYPE doc [
        <!ELEMENT doc - - (note+)>
        <!ELEMENT note - O (#PCDATA)>
        <!ATTLIST note label ID #IMPLIED
                       see IDREF #IMPLIED> ]>
        """
        s = DocumentStore(dtd)
        s.load_text(
            '<doc><note label="n1" see="n2">first'
            '<note label="n2" see="n1">second</doc>', name="my_doc")
        # notes reference each other: enumeration must terminate under
        # both semantics
        restricted = s.query("my_doc PATH_p")
        assert len(restricted) < 100
        liberal_store = DocumentStore(dtd, path_semantics="liberal",
                                      backend="calculus")
        liberal_store.load_text(
            '<doc><note label="n1" see="n2">first'
            '<note label="n2" see="n1">second</doc>', name="my_doc")
        liberal = liberal_store.query("my_doc PATH_p")
        assert len(liberal) < 300
        assert len(liberal) > len(restricted)
