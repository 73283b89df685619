"""F1 — Figure 1: the article DTD, its content automata, and DTD
parsing at a few hundred declarations."""

from repro.corpus.article_dtd import ARTICLE_DTD, article_dtd
from repro.sgml.automata import ContentAutomaton
from repro.sgml.dtd_parser import parse_dtd

FIGURE1_ELEMENTS = {
    "article", "title", "author", "affil", "abstract", "section",
    "subsectn", "body", "figure", "picture", "caption", "paragr",
    "acknowl"}


def test_parse_figure1_dtd():
    dtd = parse_dtd(ARTICLE_DTD)
    assert set(dtd.element_names) == FIGURE1_ELEMENTS
    assert dtd.check() == []
    # four attribute lists and the fig1 entity
    assert sum(1 for name in dtd.element_names if dtd.attlist(name)) == 4
    assert dtd.entity("fig1").system_id


def test_content_automata():
    dtd = article_dtd()
    for name in dtd.element_names:
        automaton = ContentAutomaton(dtd.element(name).model)
        assert automaton.state_count >= 1, name


def test_parse_large_generated_dtd():
    declarations = ["<!ELEMENT root - - (e0+)>"]
    for i in range(200):
        nxt = f"(e{i + 1}*, #PCDATA)" if i < 199 else "(#PCDATA)"
        declarations.append(f"<!ELEMENT e{i} - O {nxt}>")
    dtd = parse_dtd("\n".join(declarations))
    assert len(dtd.element_names) == 201
