"""Tests for instance parsing and omitted-tag inference — experiment F2."""

import pytest

from repro.corpus.article_dtd import article_dtd
from repro.corpus.sample_article import SAMPLE_ARTICLE, sample_article_tree
from repro.errors import DocumentSyntaxError, EntityError
from repro.sgml.dtd_parser import parse_dtd
from repro.sgml.instance import Element, Text, element_count, iter_elements
from repro.sgml.instance_parser import parse_document


class TestFigure2:
    """Experiment F2: the Figure-2 instance parses against Figure 1."""

    def test_root_and_status(self):
        tree = sample_article_tree()
        assert tree.name == "article"
        assert tree.attributes["status"] == "final"

    def test_four_authors_via_end_tag_inference(self):
        tree = sample_article_tree()
        authors = tree.find_all("author")
        assert [a.text_content() for a in authors] == [
            "V. Christophides", "S. Abiteboul", "S. Cluet", "M. Scholl"]
        assert all(a.end_inferred for a in authors)

    def test_title_inferred_end(self):
        tree = sample_article_tree()
        title = tree.first("title")
        assert title is not None
        assert title.end_inferred
        assert "Novel Query Facilities" in title.text_content()

    def test_two_sections_each_with_title_and_body(self):
        tree = sample_article_tree()
        sections = tree.find_all("section")
        assert len(sections) == 2
        for section in sections:
            assert section.first("title") is not None
            assert section.first("body") is not None

    def test_section_titles(self):
        tree = sample_article_tree()
        titles = [s.first("title").text_content()
                  for s in tree.find_all("section")]
        assert titles == ["Introduction", "SGML preliminaries"]

    def test_paragraphs_inside_bodies(self):
        tree = sample_article_tree()
        paragraphs = tree.find_all("paragr")
        assert len(paragraphs) == 2
        assert "SGML standard" in paragraphs[0].text_content()

    def test_child_order_follows_document(self):
        tree = sample_article_tree()
        names = [c.name for c in tree.child_elements()]
        assert names == ["title", "author", "author", "author", "author",
                         "affil", "abstract", "section", "section",
                         "acknowl"]

    def test_element_count(self):
        # article + title + 4 authors + affil + abstract
        # + 2 x (section + title + body + paragr) + acknowl = 17
        assert element_count(sample_article_tree()) == 17


class TestTagInference:
    def test_end_tag_inference_chain(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (item+)>
            <!ELEMENT item - O (#PCDATA)>
        """)
        tree = parse_document(
            "<doc><item>one<item>two<item>three</doc>", dtd)
        assert [i.text_content() for i in tree.find_all("item")] == [
            "one", "two", "three"]

    def test_start_tag_inference(self):
        # `caption` is O O: its start tag may be omitted where unambiguous.
        dtd = parse_dtd("""
            <!ELEMENT fig - - (caption)>
            <!ELEMENT caption O O (#PCDATA)>
        """)
        tree = parse_document("<fig>the caption text</fig>", dtd)
        caption = tree.first("caption")
        assert caption is not None
        assert caption.start_inferred
        assert caption.text_content() == "the caption text"

    def test_nested_start_tag_inference(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (sec)>
            <!ELEMENT sec O O (par+)>
            <!ELEMENT par O O (#PCDATA)>
        """)
        tree = parse_document("<doc>hello</doc>", dtd)
        sec = tree.first("sec")
        assert sec is not None and sec.start_inferred
        par = sec.first("par")
        assert par is not None and par.start_inferred
        assert par.text_content() == "hello"

    def test_end_inference_at_eof(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - O (item+)>
            <!ELEMENT item - O (#PCDATA)>
        """)
        tree = parse_document("<doc><item>only", dtd)
        assert tree.end_inferred
        assert tree.first("item").text_content() == "only"

    def test_unclosed_strict_element_at_eof_rejected(self):
        dtd = parse_dtd("<!ELEMENT doc - - (#PCDATA)>")
        with pytest.raises(DocumentSyntaxError):
            parse_document("<doc>text", dtd)

    def test_element_not_allowed_anywhere_rejected(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (a)>
            <!ELEMENT a - O (#PCDATA)>
        """)
        with pytest.raises(DocumentSyntaxError):
            parse_document("<doc><doc>x</doc></doc>", dtd)

    def test_incomplete_content_on_explicit_close_rejected(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (a, b)>
            <!ELEMENT (a|b) - O (#PCDATA)>
        """)
        with pytest.raises(DocumentSyntaxError):
            parse_document("<doc><a>x</doc>", dtd)

    def test_empty_element_closes_immediately(self):
        dtd = parse_dtd("""
            <!ELEMENT fig - - (picture, caption)>
            <!ELEMENT picture - O EMPTY>
            <!ELEMENT caption - O (#PCDATA)>
        """)
        tree = parse_document("<fig><picture><caption>hi</fig>", dtd)
        assert tree.first("picture") is not None
        assert tree.first("picture").children == []
        assert tree.first("caption").text_content() == "hi"

    def test_undeclared_element_rejected(self):
        dtd = parse_dtd("<!ELEMENT doc - - (#PCDATA)>")
        with pytest.raises(DocumentSyntaxError):
            parse_document("<doc><ghost>x</ghost></doc>", dtd)


class TestWellFormedMode:
    """Parsing without a DTD requires explicit tags."""

    def test_basic(self):
        tree = parse_document("<a><b>text</b><b>more</b></a>")
        assert tree.name == "a"
        assert len(tree.find_all("b")) == 2

    def test_mismatched_end_tag_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("<a><b>text</a></b>")

    def test_unclosed_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("<a><b>text</b>")

    def test_text_outside_root_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("hello <a>x</a>")

    def test_second_root_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("<a>x</a><b>y</b>")

    def test_empty_document_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("   ")

    def test_comments_ignored(self):
        tree = parse_document("<a><!-- hidden <b> -->text</a>")
        assert tree.text_content() == "text"
        assert tree.find_all("b") == []

    def test_xmlish_empty_element_tolerated(self):
        tree = parse_document("<a><b/>text</a>")
        assert tree.first("b") is not None


class TestAttributes:
    def test_quoted_and_unquoted(self):
        tree = parse_document('<a x="1" y=two z=\'three\'>t</a>')
        assert tree.attributes == {"x": "1", "y": "two", "z": "three"}

    def test_minimized_enumerated_attribute(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc status (final | draft) draft>
        """)
        tree = parse_document("<doc final>x</doc>", dtd)
        assert tree.attributes["status"] == "final"

    def test_minimized_unknown_token_rejected(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc status (final | draft) draft>
        """)
        with pytest.raises(DocumentSyntaxError):
            parse_document("<doc bogus>x</doc>", dtd)

    def test_defaults_applied(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc status (final | draft) draft
                          note CDATA #IMPLIED>
        """)
        tree = parse_document("<doc>x</doc>", dtd)
        assert tree.attributes == {"status": "draft"}

    def test_explicit_value_overrides_default(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ATTLIST doc status (final | draft) draft>
        """)
        tree = parse_document('<doc status="final">x</doc>', dtd)
        assert tree.attributes["status"] == "final"

    def test_entities_in_attribute_values(self):
        tree = parse_document('<a title="x &amp; y">t</a>')
        assert tree.attributes["title"] == "x & y"


class TestEntities:
    def test_predefined(self):
        tree = parse_document("<a>&lt;tag&gt; &amp; &quot;quote&quot;</a>")
        assert tree.text_content() == '<tag> & "quote"'

    def test_numeric_character_references(self):
        tree = parse_document("<a>&#65;&#x42;</a>")
        assert tree.text_content() == "AB"

    def test_internal_entity_from_dtd(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ENTITY inria "I.N.R.I.A.">
        """)
        tree = parse_document("<doc>at &inria; labs</doc>", dtd)
        assert tree.text_content() == "at I.N.R.I.A. labs"

    def test_nested_internal_entities(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ENTITY inner "core">
            <!ENTITY outer "the &inner; text">
        """)
        tree = parse_document("<doc>&outer;</doc>", dtd)
        assert tree.text_content() == "the core text"

    def test_entity_cycle_rejected(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ENTITY a "&b;">
            <!ENTITY b "&a;">
        """)
        with pytest.raises(EntityError):
            parse_document("<doc>&a;</doc>", dtd)

    def test_undefined_entity_rejected(self):
        with pytest.raises(EntityError):
            parse_document("<a>&ghost;</a>")

    def test_external_entity_marker(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (#PCDATA)>
            <!ENTITY pic SYSTEM "/images/pic1">
        """)
        tree = parse_document("<doc>see &pic;</doc>", dtd)
        assert "/images/pic1" in tree.text_content()

    def test_bare_ampersand_tolerated(self):
        tree = parse_document("<a>AT&T rules</a>")
        assert "AT&T" in tree.text_content().replace("&amp;", "&") or \
            "AT&T" in tree.text_content()


class TestTreeApi:
    def test_text_merging(self):
        element = Element("p")
        element.append_text("a")
        element.append_text("b")
        assert element.children == [Text("ab")]

    def test_structural_equality_ignores_inference_flags(self):
        explicit = parse_document("<a><b>t</b></a>")
        dtd = parse_dtd("""
            <!ELEMENT a - - (b)>
            <!ELEMENT b - O (#PCDATA)>
        """)
        inferred = parse_document("<a><b>t</a>", dtd)
        assert explicit == inferred

    def test_iter_elements_preorder(self):
        tree = parse_document("<a><b><c>x</c></b><d>y</d></a>")
        assert [e.name for e in iter_elements(tree)] == ["a", "b", "c", "d"]

    def test_depth(self):
        tree = parse_document("<a><b><c>x</c></b></a>")
        c = tree.find_all("c")[0]
        assert c.depth() == 2
        assert tree.depth() == 0

    def test_whitespace_dropped_in_element_content(self):
        dtd = parse_dtd("""
            <!ELEMENT doc - - (item+)>
            <!ELEMENT item - O (#PCDATA)>
        """)
        tree = parse_document("<doc>\n  <item>one\n  <item>two\n</doc>", dtd)
        assert all(isinstance(c, Element) for c in tree.children)


STRICT = "<!ELEMENT doc - - (#PCDATA)>"
PAIR = "<!ELEMENT doc - - (a, b)>\n<!ELEMENT (a|b) - O (#PCDATA)>"
ENUM = ("<!ELEMENT doc - - (#PCDATA)>\n"
        "<!ATTLIST doc status (final | draft) draft>")

#: (document, DTD, line, column) — the rejected documents of the tests
#: above spread over several lines, with the positions the eager
#: line-start table reported before positions became lazy
POSITIONED = [
    ("<doc>text", STRICT, 1, 10),
    ("<doc>\n  <doc>x</doc>\n</doc>",
     "<!ELEMENT doc - - (a)>\n<!ELEMENT a - O (#PCDATA)>", 2, 8),
    ("<doc>\n<a>x\n   </doc>", PAIR, 3, 10),
    ("<doc>\n\n  <ghost>x</ghost></doc>", STRICT, 3, 10),
    ("<a>\n <b>text</a></b>", None, 2, 13),
    ("<a><b>text</b>\n", None, 2, 1),
    ("\n\nhello <a>x</a>", None, 3, 7),
    ("<a>x</a>\n<b>y</b>", None, 2, 4),
    ("<doc\n   bogus>x</doc>", ENUM, 2, 9),
    ("<a>\n  < b>", None, 2, 3),
    ("<a x=>t</a>", None, 1, 6),
    ("<a>é\u2003\n<!-- never closed", None, 2, 5),
    ("<a>\r\n<![CDATA[ open", None, 2, 10),
    ("<a>\n</a\n x>", None, 3, 2),
]


class TestErrorPositions:
    @pytest.mark.parametrize("text, dtd_text, line, column", POSITIONED)
    def test_position_of_the_syntax_error(self, text, dtd_text, line,
                                          column):
        dtd = parse_dtd(dtd_text) if dtd_text else None
        with pytest.raises(DocumentSyntaxError) as caught:
            parse_document(text, dtd)
        assert (caught.value.line, caught.value.column) == (line, column)
