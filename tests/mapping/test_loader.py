"""Tests for the document loader and the text() inverse operator."""

import pytest

from repro.corpus.article_dtd import article_dtd
from repro.corpus.sample_article import sample_article_tree
from repro.errors import MappingError
from repro.mapping import DocumentLoader, load_document, map_dtd, text_of
from repro.oodb import ListValue, NIL, Oid, TupleValue
from repro.sgml.dtd_parser import parse_dtd
from repro.sgml.instance_parser import parse_document


@pytest.fixture(scope="module")
def mapped():
    return map_dtd(article_dtd())


@pytest.fixture()
def loader(mapped):
    return load_document(mapped, sample_article_tree())


class TestFigure2Loading:
    def test_instance_is_well_typed(self, loader):
        loader.instance.check()

    def test_constraints_hold(self, mapped, loader):
        mapped.constraints.check_instance(loader.instance)

    def test_root_holds_one_article(self, mapped, loader):
        root = loader.instance.root("Articles")
        assert len(root) == 1
        assert root[0].class_name == "Article"

    def test_article_value_shape(self, mapped, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        assert article.attribute_names == (
            "title", "authors", "affil", "abstract", "sections",
            "acknowl", "status")
        assert article.get("status") == "final"
        assert len(article.get("authors")) == 4

    def test_authors_are_text_objects(self, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        first_author = article.get("authors")[0]
        assert isinstance(first_author, Oid)
        value = loader.instance.deref(first_author)
        assert value.get("text") == "V. Christophides"

    def test_sections_use_a1_branch(self, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        for section_oid in article.get("sections"):
            section = loader.instance.deref(section_oid)
            assert section.is_marked
            assert section.marker == "a1"  # no subsections in Figure 2
            assert section.marked_value.has_attribute("bodies")

    def test_body_union_marked_by_element_name(self, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        section = loader.instance.deref(article.get("sections")[0])
        body_oid = section.marked_value.get("bodies")[0]
        body = loader.instance.deref(body_oid)
        assert body.marker == "paragr"

    def test_object_count(self, loader):
        # one object per element of Figure 2 (17 elements)
        assert loader.instance.object_count() == 17

    def test_provenance_is_an_inert_name(self, loader):
        # text() reads the database: the loader keeps no source tree,
        # and the name stays (empty) for callers that still pass it
        assert loader.provenance == {}

    def test_multiple_documents_share_root(self, mapped):
        loader = DocumentLoader(mapped)
        loader.load(sample_article_tree())
        loader.load(sample_article_tree())
        assert len(loader.instance.root("Articles")) == 2


class TestTextInverse:
    def test_text_of_title_object(self, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        title = article.get("title")
        assert "Novel Query Facilities" in text_of(title, loader.instance)

    def test_text_of_section_concatenates(self, loader):
        article = loader.instance.deref(loader.instance.root("Articles")[0])
        section_text = text_of(article.get("sections")[0],
                               loader.instance)
        assert "Introduction" in section_text
        assert "SGML standard" in section_text

    def test_attributes_are_not_text(self, loader):
        # the article's ``status`` is an attribute value: the document
        # text does not hold it, and neither does text()
        document = loader.instance.root("Articles")[0]
        assert loader.instance.deref(document).get("status") == "final"
        assert "final" not in text_of(document, loader.instance).split()

    def test_text_of_plain_values(self):
        assert text_of("hello") == "hello"
        assert text_of(42) == ""
        assert text_of(TupleValue([("a", "x"), ("b", "y")])) == "x y"
        assert text_of(ListValue(["p", NIL, "q"])) == "p q"

    def test_text_of_cyclic_references_terminates(self, mapped):
        # two objects referencing each other: a mapped class's IDREF is
        # an attribute, not text; a class the DTD did not make is
        # walked generically, each object once, so the cycle ends
        from repro.oodb import STRING, Instance, schema_from_classes
        from repro.oodb import tuple_of
        instance = Instance(mapped.schema)
        a = instance.new_object("Paragr")
        b = instance.new_object("Paragr")
        instance.set_value(a, TupleValue([("text", "A"), ("reflabel", b)]))
        instance.set_value(b, TupleValue([("text", "B"), ("reflabel", a)]))
        assert text_of(a, instance) == "A"
        assert text_of(ListValue([a, b, a]), instance) == "A B"
        plain = Instance(schema_from_classes(
            {"Node": tuple_of(("text", STRING))}, roots={}))
        c = plain.new_object("Node")
        d = plain.new_object("Node")
        plain.set_value(c, TupleValue([("text", "C"), ("next", d)]))
        plain.set_value(d, TupleValue([("text", "D"), ("next", c)]))
        assert text_of(c, plain) == "C D"


class TestCrossReferences:
    @pytest.fixture()
    def ref_mapped(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (fig+, par+)>
            <!ELEMENT fig - O (#PCDATA)>
            <!ATTLIST fig label ID #REQUIRED>
            <!ELEMENT par - O (#PCDATA)>
            <!ATTLIST par ref IDREF #IMPLIED>
        """)
        return map_dtd(dtd)

    def test_idref_resolved_to_oid(self, ref_mapped):
        tree = parse_document(
            '<doc><fig label="f1">a figure'
            '<par ref="f1">see figure</doc>',
            parse_dtd("""
                <!ELEMENT doc - - (fig+, par+)>
                <!ELEMENT fig - O (#PCDATA)>
                <!ATTLIST fig label ID #REQUIRED>
                <!ELEMENT par - O (#PCDATA)>
                <!ATTLIST par ref IDREF #IMPLIED>
            """))
        loader = load_document(ref_mapped, tree)
        instance = loader.instance
        doc = instance.deref(instance.root("Docs")[0])
        fig_oid = doc.get("figs")[0]
        par_oid = doc.get("pars")[0]
        par = instance.deref(par_oid)
        assert par.get("ref") == fig_oid
        # inverse reference: the figure's label lists the paragraph
        fig = instance.deref(fig_oid)
        assert par_oid in list(fig.get("label"))

    def test_dangling_idref_rejected(self, ref_mapped):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (fig+, par+)>
            <!ELEMENT fig - O (#PCDATA)>
            <!ATTLIST fig label ID #REQUIRED>
            <!ELEMENT par - O (#PCDATA)>
            <!ATTLIST par ref IDREF #IMPLIED>
        """)
        tree = parse_document(
            '<doc><fig label="f1">a<par ref="ghost">b</doc>', dtd)
        with pytest.raises(MappingError):
            load_document(ref_mapped, tree)


class TestLoaderErrors:
    def test_wrong_document_element(self, mapped):
        from repro.sgml.instance import Element, Text
        loader = DocumentLoader(mapped)
        with pytest.raises(MappingError):
            loader.load(Element("title", children=[Text("x")]))

    def test_number_attribute_converted(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc year NUMBER #REQUIRED>
        """)
        mapped = map_dtd(dtd)
        tree = parse_document('<doc year="1994">x</doc>', dtd)
        loader = load_document(mapped, tree)
        doc = loader.instance.deref(loader.instance.root("Docs")[0])
        assert doc.get("year") == 1994

    def test_missing_optional_attribute_is_nil(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc note CDATA #IMPLIED>
        """)
        mapped = map_dtd(dtd)
        tree = parse_document("<doc>x</doc>", dtd)
        loader = load_document(mapped, tree)
        doc = loader.instance.deref(loader.instance.root("Docs")[0])
        assert doc.get("note") == NIL

    def test_letters_and_group_records_document_order(self):
        dtd = parse_dtd("""
            <!ELEMENT letter - - ((to & from), content)>
            <!ELEMENT (to|from|content) - O (#PCDATA)>
        """)
        mapped = map_dtd(dtd)
        to_first = load_document(mapped, parse_document(
            "<letter><to>Alice<from>Bob<content>hi</letter>", dtd))
        letter = to_first.instance.deref(
            to_first.instance.root("Letters")[0])
        assert letter.marker == "a1"
        assert letter.marked_value.attribute_names == (
            "to", "from", "content")
        from_first = load_document(mapped, parse_document(
            "<letter><from>Bob<to>Alice<content>hi</letter>", dtd))
        letter2 = from_first.instance.deref(
            from_first.instance.root("Letters")[0])
        assert letter2.marker == "a2"
        assert letter2.marked_value.attribute_names == (
            "from", "to", "content")


class CountingExtent(list):
    """A class extent that counts the steps taken through it."""

    steps = 0

    def __getitem__(self, index):
        CountingExtent.steps += 1
        return super().__getitem__(index)

    def remove(self, item):  # a front scan visits up to every member
        CountingExtent.steps += len(self)
        super().remove(item)


class TestBacktrackingCostsWhatItAllocated:
    """An abandoned union/list/optional branch is undone newest-first
    and each object popped off the tail of its extent: loading a
    document costs the same whatever the instance already holds
    (before, ``remove_object`` scanned the extent from the front — one
    ``Oid.__eq__`` per object loaded earlier)."""

    def test_the_200th_load_works_like_the_first(self, mapped,
                                                   monkeypatch):
        from repro.corpus.generator import generate_corpus
        trees = generate_corpus(200, seed=11)
        comparisons = 0
        plain_eq = Oid.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            return plain_eq(self, other)

        monkeypatch.setattr(Oid, "__eq__", counting_eq)

        def work_of_loading(loader, tree):
            nonlocal comparisons
            extents = loader.instance._extent
            for name, members in extents.items():
                extents[name] = CountingExtent(members)
            comparisons = CountingExtent.steps = 0
            before = loader.instance.object_count()
            loader.load(tree)
            return (comparisons, CountingExtent.steps,
                    loader.instance.object_count() - before)

        first = work_of_loading(DocumentLoader(mapped), trees[0])
        loader = DocumentLoader(mapped)
        for tree in trees[1:]:
            loader.load(tree)
        last = work_of_loading(loader, trees[0])
        assert first == last
        assert first[1] > 0  # the document does backtrack
        loader.instance.check()
