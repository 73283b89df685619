"""Integration tests on a *recursive* DTD (nested sections).

Figure 1's DTD is non-recursive; real document types (books, manuals)
nest sections inside sections.  This exercises recursion through the
whole stack: mapping (self-referential classes), loading, restricted vs
liberal path semantics, and the algebraization (whose schema paths must
stay finite under the restricted semantics).
"""

import pytest

from repro import DocumentStore
from repro.paths import LIBERAL

BOOK_DTD = """
<!DOCTYPE book [
<!ELEMENT book - - (title, section+)>
<!ELEMENT section - O (title, para*, section*)>
<!ELEMENT title - O (#PCDATA)>
<!ELEMENT para - O (#PCDATA)>
<!ATTLIST section depth NUMBER #IMPLIED>
]>
"""

NESTED_BOOK = """
<book><title>The Nesting Book
<section depth="1"><title>Chapter One
  <para>Top level prose.
  <section depth="2"><title>One point One
    <para>Deeper prose.
    <section depth="3"><title>One point One point One
      <para>Deepest prose with a needle word.
    </section>
  </section>
</section>
<section depth="1"><title>Chapter Two
  <para>More prose.
</section>
</book>
"""


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(BOOK_DTD)
    s.load_text(NESTED_BOOK, name="my_book")
    s.check()
    return s


class TestRecursiveMapping:
    def test_section_class_references_itself(self, store):
        structure = store.schema.structure("Section")
        from repro.oodb.types import referenced_classes
        assert "Section" in referenced_classes(structure)

    def test_number_attribute(self, store):
        # restricted paths reach level-1 and (via the trailing sections
        # list plus the implicit dereference of `.depth`) level-2
        # sections; level 3 would need two Section dereferences in P
        result = store.query(
            "select d from my_book PATH_p.depth(d)")
        assert set(result) == {1, 2}
        # chaining a second path variable exposes the third level
        deeper = store.query(
            "select d from my_book PATH_p -> PATH_q.depth(d)")
        assert set(deeper) == {1, 2, 3}

    def test_all_objects_loaded(self, store):
        # book + 5 titles + 4 paras + 4 sections = 14
        assert store.instance.object_count() == 14


class TestRecursionAndPathSemantics:
    def test_restricted_depth_is_schema_bounded(self, store):
        titles = store.query("select t from my_book PATH_p.title(t)")
        texts = {store.text(t) for t in titles}
        # P may dereference Section once; the implicit dereference of
        # `.title` adds one more level — so levels 1 and 2 are visible
        # but level 3 is not.
        assert "The Nesting Book" in texts
        assert "Chapter One" in texts
        assert "One point One" in texts
        assert "One point One point One" not in texts

    def test_chained_path_variables_descend(self, store):
        titles = store.query(
            "select t from my_book PATH_p -> PATH_q.title(t)")
        texts = {store.text(t) for t in titles}
        assert "One point One point One" in texts

    def test_liberal_reaches_every_level(self):
        s = DocumentStore(BOOK_DTD, path_semantics=LIBERAL)
        s.load_text(NESTED_BOOK, name="my_book")
        titles = s.query("select t from my_book PATH_p.title(t)")
        texts = {s.text(t) for t in titles}
        assert {"The Nesting Book", "Chapter One", "One point One",
                "One point One point One", "Chapter Two"} <= texts

    def test_liberal_grep_finds_deepest_content(self):
        s = DocumentStore(BOOK_DTD, path_semantics=LIBERAL)
        s.load_text(NESTED_BOOK, name="my_book")
        hits = s.query("""
            select name(ATT_a) from my_book PATH_p.ATT_a(v)
            where v contains ("needle")
        """)
        assert "text" in set(hits)


class TestRecursiveAlgebra:
    def test_schema_paths_finite(self, store):
        from repro.oodb.types import ClassType
        from repro.paths import enumerate_schema_paths
        paths = enumerate_schema_paths(store.schema, ClassType("Book"))
        assert len(paths) < 200  # finite despite the recursion

    def test_algebra_agrees_with_calculus(self, store):
        from repro.algebra.compile import compile_query
        from repro.algebra.execute import execute_plan
        from repro.calculus import evaluate_query
        query = store._engine.translate(
            "select t from my_book PATH_p.title(t)")
        interpreted = evaluate_query(query, store._engine.ctx)
        for structural in (False, True):
            plan = compile_query(query, store.schema, structural=structural)
            assert execute_plan(plan, store._engine.ctx) == interpreted


class TestRecursiveInverse:
    def test_export_round_trip(self, store):
        from repro.sgml.instance_parser import parse_document
        exported = store.export_text("my_book")
        original = parse_document(NESTED_BOOK, store.dtd)
        assert parse_document(exported, store.dtd) == original
