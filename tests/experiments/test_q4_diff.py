"""Q4 — the structural difference between two document versions:
identical, extended by one section, and 15-section long."""

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_article
from repro.paths.enumeration import enumerate_paths
from repro.sgml.instance import Element, Text

Q4 = "my_article PATH_p - my_old_article PATH_p"


def test_q4_identical(figure2_store):
    assert len(figure2_store.query(Q4)) == 0


def test_q4_extended():
    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE, name="my_old_article")
    store.load_text(SAMPLE_ARTICLE.replace(
        "<acknowl>",
        "<section><title> New results\n"
        "<body><paragr> Fresh findings.\n</body></section>\n<acknowl>"),
        name="my_article")
    rendered = {str(path) for path in store.query(Q4)}
    assert rendered
    assert all(".sections[2]" in path for path in rendered)


def test_q4_large_documents():
    # two 15-section versions differing in one spliced-in section
    store = DocumentStore(ARTICLE_DTD)
    store.load_tree(generate_article(seed=9, sections=15),
                    name="my_old_article", validate=False)
    extended = generate_article(seed=9, sections=15)
    section = Element("section", children=[
        Element("title", children=[Text("brand new")]),
        Element("body", children=[
            Element("paragr", children=[Text("added content")])])])
    at = next(i for i, child in enumerate(extended.children)
              if getattr(child, "name", "") == "acknowl")
    extended.children.insert(at, section)
    section.parent = extended
    store.load_tree(extended, name="my_article", validate=False)
    assert len(store.query(Q4)) > 0


def test_path_enumeration_alone(figure2_store):
    article = figure2_store.instance.root("my_article")
    paths = enumerate_paths(article, figure2_store.instance)
    assert len(paths) > 20
    # Q4's left operand is exactly this enumeration
    assert len(figure2_store.query("my_article PATH_p")) == len(paths)
