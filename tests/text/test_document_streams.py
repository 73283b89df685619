"""The load path's text index against a per-key reference, and both
against the store's history.

A :class:`~repro.DocumentStore` indexes each loaded document as one
token stream whose objects are spans of it
(:meth:`~repro.text.TextIndex.add_document`), from one walk of the
database.  The reference indexes every object on its own, ``add(oid,
text(oid))``.  Over articles with resolved cross references, letters, a
recursive DTD and mixed content, both must give the same probes —
words, regex words, phrases across sibling boundaries — the same
``posting_size``, ``document_count``, indexed keys and occurrence
total, on a fresh index, after ``update_text`` and after removals.

``text()`` and the index are read from the database, so neither
depends on how the store got there: after a reload, an edit and its
revert, or a second ``build_text_index()``, every object's text and
every stream and span equal the fresh store's; after an edit they
equal those of a fresh store loading the exported documents.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE, article_dtd
from repro.corpus.generator import generate_corpus
from repro.corpus.letters import SAMPLE_LETTERS, generate_letters
from repro.mapping.naming import TEXT_FIELD
from repro.oodb.values import ListValue, TupleValue
from repro.sgml import write_document
from repro.text import Pattern, TextIndex, tokenize
from repro.text.nfa import is_literal_word
from tests.test_recursive_documents import BOOK_DTD, NESTED_BOOK

LETTERS_DTD = """
<!DOCTYPE letter [
<!ELEMENT letter - - ((to & from), content)>
<!ELEMENT (to|from|content) - O (#PCDATA)>
]>
"""

MIXED_DTD = """
<!DOCTYPE doc [
<!ELEMENT doc - - (p+)>
<!ELEMENT p - - (#PCDATA | b)*>
<!ELEMENT b - - (#PCDATA)>
]>
"""

MIXED_DOCUMENTS = [
    "<doc><p>foo<b>bar</b>.</p></doc>",
    "<doc><p>plain words <b>bold words</b> more plain</p>"
    "<p><b>lead</b> tail</p><p>(<b>inside</b>)</p></doc>",
    "<doc><p>a<b>b</b>c</p><p>bar foo</p></doc>",
]

REGEX_WORDS = ("S.*", "(t|T).*", "p.*e", "[A-Z].*", "(c|o).*")


def article_documents():
    """Generated articles with figure ``label``s and paragraph
    ``reflabel``s pointing at them (the generator sets neither)."""
    dtd = article_dtd()
    texts = [SAMPLE_ARTICLE]
    for number, tree in enumerate(generate_corpus(8, seed=42)):
        figures = tree.find_all("figure")
        for count, figure in enumerate(figures):
            figure.attributes["label"] = f"f{number}x{count}"
        if figures:
            for paragraph in tree.find_all("paragr")[::2]:
                paragraph.attributes["reflabel"] = \
                    figures[0].attributes["label"]
        texts.append(write_document(tree, dtd))
    return texts


def letter_documents():
    documents = []
    for sender_first, sender, recipient, content in (
            SAMPLE_LETTERS + generate_letters(12)):
        people = [f"<from>{sender}", f"<to>{recipient}"]
        if not sender_first:
            people.reverse()
        documents.append(f"<letter>{''.join(people)}"
                         f"<content>{content}</letter>")
    return documents


CORPORA = {
    "articles": (ARTICLE_DTD, article_documents),
    "letters": (LETTERS_DTD, letter_documents),
    "recursive": (BOOK_DTD, lambda: [
        NESTED_BOOK, NESTED_BOOK.replace("needle", "haystack")]),
    "mixed": (MIXED_DTD, lambda: MIXED_DOCUMENTS),
}


def loaded(corpus: str, live: bool) -> DocumentStore:
    """A store over the corpus, its index built before the loads
    (``live``: the load path) or after them."""
    dtd, documents = CORPORA[corpus]
    store = DocumentStore(dtd)
    if live:
        store.build_text_index()
    for text in documents():
        store.load_text(text)
    if not live:
        store.build_text_index()
    return store


def reference(store: DocumentStore) -> TextIndex:
    index = TextIndex()
    for oid in store.instance.all_oids():
        text = store.text(oid)
        if text:
            index.add(oid, text)
    return index


def patterns(store: DocumentStore, index: TextIndex) -> list[Pattern]:
    """Every vocabulary word, the regex words, and every two- and
    three-word run of each document's text — runs that cross from one
    sibling into the next included."""
    found = [Pattern(word) for word in sorted(index.vocabulary())
             if is_literal_word(word)]
    found += [Pattern(word) for word in REGEX_WORDS]
    for document in store.instance.root(store.mapped.root_name):
        words = [word for word in tokenize(store.text(document))
                 if is_literal_word(word)]
        for width in (2, 3):
            found += [Pattern(" ".join(words[at:at + width]))
                      for at in range(len(words) - width + 1)]
    found.append(Pattern("S.* (t|T).*"))
    return found


def assert_same(store: DocumentStore, expected: TextIndex) -> int:
    index = store.text_index
    assert index.document_count == expected.document_count
    assert index.occurrence_total == expected.occurrence_total
    assert set(index.indexed()) == set(expected.indexed())
    assert sorted(index.vocabulary()) == sorted(expected.vocabulary())
    for word in expected.vocabulary():
        assert index.posting_size(word) == expected.posting_size(word)
    checked = 0
    for pattern in patterns(store, expected):
        assert index.probe(pattern) == expected.probe(pattern), \
            pattern.source
        checked += 1
    return checked


def edit_target(store: DocumentStore):
    """The first object that carries character data of its own."""
    for oid in store.instance.all_oids():
        value = store.instance.deref(oid)
        if isinstance(value, TupleValue) and value.has_attribute(
                TEXT_FIELD):
            return oid
    return None


@pytest.mark.parametrize("live", [True, False], ids=["live", "built"])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_the_load_path_index_matches_a_per_key_reference(corpus, live):
    store = loaded(corpus, live)
    expected = reference(store)
    assert assert_same(store, expected) > expected.vocabulary_size

    # edits: the edited object's document is indexed again; emptied,
    # the object leaves the index, and its next edit still finds the
    # document it was reached from
    target = edit_target(store)
    for words in ("Zanzibar heading words", "", "second edit words"):
        store.update_text(target, words)
        assert_same(store, reference(store))

    # removals: a stream keeps answering for the keys left in it
    expected = reference(store)
    for oid in list(store.instance.all_oids())[1::4]:
        assert store.text_index.remove(oid) == expected.remove(oid)
    assert_same(store, expected)


class TestOwnStreamKeys:
    """``text.own_stream_keys`` counts the objects of a loaded document
    that do not join its stream, ``text.own_stream_keys.<reason>`` by
    reason."""

    @staticmethod
    def own_stream_counters(store: DocumentStore) -> dict:
        return {name: value
                for name, value in store.metrics()["counters"].items()
                if name.startswith("text.own_stream_keys")}

    def test_every_article_object_joins_its_stream(self):
        store = DocumentStore(ARTICLE_DTD)
        store.enable_metrics()
        store.build_text_index()
        store.load_text(SAMPLE_ARTICLE)
        for tree in generate_corpus(20, seed=42):
            store.load_tree(tree, validate=False)
        store.build_text_index()
        assert self.own_stream_counters(store) == {}
        assert store.text_index.document_count > 0

    def test_text_glued_across_a_tag_leaves_the_stream(self):
        store = DocumentStore(MIXED_DTD)
        store.enable_metrics()
        store.build_text_index()
        store.load_text(MIXED_DOCUMENTS[0])
        # "foo<b>bar</b>." is the one token "foobar": <b> is no span
        assert self.own_stream_counters(store) == {
            "text.own_stream_keys": 1,
            "text.own_stream_keys.glued_boundary": 1}
        assert store.text_index.keys_with_word("bar") == {
            oid for oid in store.instance.all_oids()
            if oid.class_name == "B"}

    def test_a_reloaded_store_joins_its_streams_too(self, tmp_path):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE)
        store.save(tmp_path / "snapshot")
        reloaded = DocumentStore.load(tmp_path / "snapshot")
        reloaded.enable_metrics()
        index = reloaded.build_text_index()
        assert self.own_stream_counters(reloaded) == {}
        assert len(index._streams) == 1


def layout(index: TextIndex) -> dict:
    """Every stream and span of the index, by key: the stream's tokens
    and document, the key's ``[lo, hi)`` and its parent key."""
    found = {}
    for key, (sid, slot) in index._keys.items():
        stream = index._streams[sid]
        parent = stream.parents[slot]
        found[key] = (stream.tokens, stream.document, stream.lo[slot],
                      stream.hi[slot],
                      None if parent < 0 else stream.keys[parent])
    return found


def texts(store: DocumentStore) -> dict:
    return {oid: store.text(oid) for oid in store.instance.all_oids()}


HISTORIES = ("reloaded", "reverted", "rebuilt", "edited")


@pytest.mark.parametrize("history", HISTORIES)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_text_and_index_do_not_depend_on_history(corpus, history,
                                                 tmp_path):
    fresh = loaded(corpus, live=False)
    store = loaded(corpus, live=True)
    if history == "reloaded":
        store.save(tmp_path / "snapshot")
        store = DocumentStore.load(tmp_path / "snapshot")
    elif history in ("reverted", "edited"):
        target = edit_target(store)
        before = store.text(target)
        store.update_text(target, "Zanzibar heading words")
        if history == "reverted":
            store.update_text(target, before)
    store.build_text_index()
    if history == "rebuilt":
        store.build_text_index()
    if history == "edited":
        # the reference: a fresh load of the documents the store now
        # holds, exported by the inverse mapping — it allocates the
        # same oids in the same order
        dtd = CORPORA[corpus][0]
        fresh = DocumentStore(dtd)
        for document in store.instance.root(store.mapped.root_name):
            fresh.load_text(store.export_text(document), validate=False)
        fresh.build_text_index()
        assert "Zanzibar" in store.text(edit_target(store))
    assert texts(store) == texts(fresh)
    assert layout(store.text_index) == layout(fresh.text_index)
    assert len(store.text_index._streams) == len(
        fresh.text_index._streams)


def test_an_object_no_document_reaches_is_indexed_alone():
    """An object made by hand belongs to no loaded document: the
    rebuilt index holds it in a stream of its own, and an edit
    re-indexes it alone."""
    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE)
    loose = store.instance.new_object(
        "Title", TupleValue([(TEXT_FIELD, "Loose heading words")]))
    index = store.build_text_index()
    assert index.keys_with_word("Loose") == {loose}
    assert index.document_of(loose) is None
    streams = len(index._streams)
    store.update_text(loose, "Zanzibar")
    assert index.keys_with_word("Zanzibar") == {loose}
    assert index.keys_with_word("Loose") == set()
    assert len(index._streams) == streams
    assert_same(store, reference(store))


def test_content_that_is_not_a_tree_is_not_spanned():
    """A second paragraph made by hand to share the first one's bold
    child: ``text()`` of the second paragraph walks the child again,
    so neither it nor the document is a span of the document's walk.
    Every indexed key's tokens are its ``text()``'s, and the algebra
    answers as the calculus does."""
    answers = {}
    for backend in ("algebra", "calculus"):
        store = DocumentStore(MIXED_DTD, backend=backend)
        document = store.load_text(
            "<doc><p>one <b>shared</b></p><p>two</p></doc>")
        first, second = store.instance.deref(document).get("ps")
        bold = store.instance.deref(first).get("texts")[1].get("b")
        store.instance.set_value(second, TupleValue([("texts", ListValue([
            TupleValue([(TEXT_FIELD, "two ")]),
            TupleValue([("b", bold)])]))]))
        index = store.build_text_index()
        assert set(index.indexed()) == {first, bold}
        for key, (tokens, _, lo, hi, _) in layout(index).items():
            assert list(tokens[lo:hi]) == tokenize(store.text(key))
        assert store.text(second) == "two shared"
        answers[backend] = store.query(
            'select p from d in Docs, p in d.ps where p contains ("shared")')
    assert answers["algebra"] == answers["calculus"]
    assert len(answers["algebra"]) == 1
