"""F3 — Figure 3: the DTD → O₂ schema mapping, its footnote-1 inverse,
and loading Figure 2 into the mapped database."""

from repro.corpus.article_dtd import article_dtd
from repro.corpus.sample_article import sample_article_tree
from repro.mapping.dtd_to_schema import map_dtd
from repro.mapping.inverse import export_document, schema_to_dtd
from repro.mapping.loader import DocumentLoader
from repro.oodb.display import format_schema
from repro.sgml.dtd_parser import parse_dtd

FIGURE3_FRAGMENTS = [
    "class Article public type tuple (title: Title, authors: "
    "list (Author)",
    "class Title inherit Text",
    "class Section public type union (a1: tuple (title: Title, "
    "bodies: list (Body)), a2: tuple",
    "class Body public type union (figure: Figure, paragr: Paragr)",
    "class Picture inherit Bitmap",
    "name Articles: list (Article)",
    "status in set('final', 'draft')",
    "authors != list()",
]


def test_map_figure1_to_figure3():
    mapped = map_dtd(article_dtd())
    rendered = format_schema(mapped.schema, mapped.constraints)
    for fragment in FIGURE3_FRAGMENTS:
        assert fragment in rendered, fragment


def test_map_wide_dtd():
    declarations = ["<!ELEMENT root - - (c0, c1, c2)>"]
    for i in range(120):
        declarations.append(f"<!ELEMENT c{i} - O (#PCDATA)>")
        declarations.append(f"<!ATTLIST c{i} kind (x | y) x>")
    mapped = map_dtd(parse_dtd("\n".join(declarations)))
    # 121 element classes plus Text and Bitmap
    assert len(mapped.schema.class_names) == 123


def test_inverse_mapping_round_trip():
    mapped = map_dtd(article_dtd())
    loader = DocumentLoader(mapped)
    oid = loader.load(sample_article_tree())
    exported = export_document(mapped, loader.instance, oid,
                               loader.id_tokens)
    assert exported == sample_article_tree()


def test_schema_to_dtd():
    regenerated = parse_dtd(schema_to_dtd(map_dtd(article_dtd())))
    assert set(regenerated.element_names) == set(
        article_dtd().element_names)


def test_load_figure2_into_database():
    mapped = map_dtd(article_dtd())
    loader = DocumentLoader(mapped)
    loader.load(sample_article_tree())
    assert loader.instance.object_count() == 17
    loader.instance.check()
    mapped.constraints.check_instance(loader.instance)
