"""F2 — Figure 2: the document instance, whose omitted end tags the
parser infers, and the generated corpus parsed the same way."""

from repro.corpus.article_dtd import article_dtd
from repro.corpus.generator import generate_corpus
from repro.corpus.sample_article import SAMPLE_ARTICLE
from repro.sgml.instance import element_count, iter_elements
from repro.sgml.instance_parser import parse_document
from repro.sgml.validator import validation_problems
from repro.sgml.writer import write_document


def test_parse_figure2():
    dtd = article_dtd()
    tree = parse_document(SAMPLE_ARTICLE, dtd)
    assert tree.name == "article"
    assert element_count(tree) == 17
    assert any(element.end_inferred for element in iter_elements(tree))
    assert validation_problems(tree, dtd) == []


def test_validate_figure2():
    dtd = article_dtd()
    tree = parse_document(SAMPLE_ARTICLE, dtd)
    assert validation_problems(tree, dtd) == []


def test_parse_corpus_throughput(corpus_texts):
    # every fully tagged document parses back to the tree it was
    # written from
    dtd = article_dtd()
    trees = [parse_document(text, dtd) for text in corpus_texts]
    assert trees == generate_corpus(20, seed=42)


def test_round_trip(corpus_texts):
    dtd = article_dtd()
    tree = parse_document(corpus_texts[0], dtd)
    assert parse_document(write_document(tree, dtd), dtd) == tree
