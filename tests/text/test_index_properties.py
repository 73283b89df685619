"""Property-based tests: the inverted index vs the contains oracle.

For random document sets and random pattern expressions, the index's
candidate set must be a superset of the true answer (and exact for
purely positive expressions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.text import TextIndex, contains
from repro.text.patterns import (
    AndExpr,
    NotExpr,
    OrExpr,
    Pattern,
)
from tests.text.postings import posting_size

WORDS = ["sgml", "oodb", "path", "query", "union", "tuple", "schema"]

#: What real text holds besides lowercase words: mixed case and tokens
#: with punctuation at their edges (which the tokenizer strips).
RAW_WORDS = WORDS + ["SGML", "Sgml", "object,", "(SGML)", "query.",
                     "'path'", "OODB;"]

#: Pattern words: literals (some that can never equal a stripped
#: token), regex words, alternations.
PATTERN_WORDS = WORDS + ["SGML", "Sgml", "object", "object,", "(SGML)",
                         "SG.*", "s.*", "(sgml|SGML)", "(path|query)",
                         "qu?ery", "OODB"]

documents = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=12).map(
        " ".join),
    min_size=1, max_size=8)

raw_documents = st.lists(
    st.lists(st.sampled_from(RAW_WORDS), min_size=1, max_size=12).map(
        " ".join),
    min_size=1, max_size=8)


def patterns(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Pattern(draw(st.sampled_from(PATTERN_WORDS)))
    if kind == 1:
        return Pattern(" ".join(draw(st.lists(
            st.sampled_from(PATTERN_WORDS), min_size=2, max_size=3))))
    left = patterns(draw)
    right = patterns(draw)
    if kind == 2:
        return AndExpr(left, right)
    return OrExpr(left, right)


positive_expressions = st.composite(patterns)()

expressions = st.one_of(
    positive_expressions,
    st.builds(NotExpr, positive_expressions),
    st.builds(AndExpr, positive_expressions,
              st.builds(NotExpr, positive_expressions)),
)


def build(texts):
    index = TextIndex()
    for key, text in enumerate(texts):
        index.add(key, text)
    return index


class TestIndexSoundness:
    @given(raw_documents, positive_expressions)
    @settings(max_examples=200)
    def test_positive_candidates_are_exact(self, texts, expression):
        index = build(texts)
        truth = {key for key, text in enumerate(texts)
                 if contains(text, expression)}
        candidates, exact = index.probe(expression)
        assert exact
        assert candidates == truth

    @given(raw_documents, positive_expressions, positive_expressions)
    @settings(max_examples=100)
    def test_a_negation_anywhere_is_reported_inexact(self, texts, kept,
                                                     negated):
        index = build(texts)
        mixed = AndExpr(kept, NotExpr(negated))
        candidates, exact = index.probe(mixed)
        # the positive side alone: a superset, and said to be one
        assert not exact
        assert candidates == index.probe(kept)[0]
        assert {key for key, text in enumerate(texts)
                if contains(text, mixed)} <= candidates
        for dominated in (NotExpr(kept), OrExpr(kept, NotExpr(negated))):
            assert index.probe(dominated) == (None, False)

    @given(raw_documents, expressions)
    @settings(max_examples=200)
    def test_candidates_never_lose_answers(self, texts, expression):
        index = build(texts)
        truth = {key for key, text in enumerate(texts)
                 if contains(text, expression)}
        candidates, _ = index.probe(expression)
        if candidates is not None:
            assert truth <= candidates

    @given(documents, st.sampled_from(WORDS))
    @settings(max_examples=100)
    def test_word_probe_matches_scan(self, texts, word):
        index = build(texts)
        truth = {key for key, text in enumerate(texts)
                 if word in text.split()}
        assert index.keys_with_word(word) == truth


class OccurrenceLists:
    """The naive reference model: one ``(key, position)`` entry per
    occurrence in a list per token — every mutation rebuilds, every
    probe scans."""

    def __init__(self):
        self.postings = {}
        self.lengths = {}

    def add(self, key, text):
        base = self.lengths.get(key, 0)
        tokens = text.split()
        for offset, token in enumerate(tokens):
            self.postings.setdefault(token, []).append(
                (key, base + offset))
        self.lengths[key] = base + len(tokens)

    def remove(self, key):
        self.lengths.pop(key, None)
        self.postings = {
            token: kept for token, entries in self.postings.items()
            if (kept := [entry for entry in entries if entry[0] != key])}

    def replace(self, key, text):
        self.remove(key)
        self.add(key, text)

    def keys_with_word(self, word):
        return {key for key, _ in self.postings.get(word, ())}

    def keys_with_phrase(self, words):
        hits = set()
        for key, position in self.postings.get(words[0], ()):
            if all((key, position + offset) in self.postings.get(word, ())
                   for offset, word in enumerate(words)):
                hits.add(key)
        return hits

    def keys_matching(self, accepts):
        return {key for token, entries in self.postings.items()
                if accepts(token) for key, _ in entries}


KEYS = st.integers(0, 5)
TEXTS = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
#: What separates the children of an element: "" glues a word to the
#: element next to it.
JOINERS = st.sampled_from([" ", " ", "  ", ""])
#: A nested document: ``(key, children, joiner)`` per element, a child
#: a word or an element.
ELEMENTS = st.recursive(
    st.sampled_from(WORDS),
    lambda children: st.tuples(
        KEYS, st.lists(children, max_size=3), JOINERS),
    max_leaves=10)
DOCUMENTS = st.tuples(KEYS, st.lists(ELEMENTS, min_size=1, max_size=3),
                      JOINERS)
#: The keys a document is filed under.
FILINGS = st.sampled_from(["D0", "D1"])


def lay_out(document):
    """``(text, spans)`` of a nested document, as
    :meth:`TextIndex.add_document` takes them."""
    spans = []

    def walk(element, parent, start):
        key, children, joiner = element
        slot = len(spans)
        spans.append(None)
        pieces = []
        for child in children:
            at = start + len(joiner.join(pieces + [""]))
            pieces.append(child if isinstance(child, str)
                          else walk(child, slot, at))
        text = joiner.join(pieces)
        spans[slot] = (key, parent, start, start + len(text))
        return text

    return walk(document, -1, 0), spans


class IndexAgreesWithOccurrenceLists(RuleBasedStateMachine):
    """Random ``add``/``add_document``/``replace``/``remove`` sequences,
    each document filed under one of two keys: the stream index and the
    occurrence-list model answer every probe alike."""

    def __init__(self):
        super().__init__()
        self.index = TextIndex()
        self.model = OccurrenceLists()
        # filing -> the keys whose stream is filed under it
        self.filed = {"D0": set(), "D1": set()}

    def unfile(self, key):
        for keys in self.filed.values():
            keys.discard(key)

    @rule(key=KEYS, text=TEXTS)
    def add(self, key, text):
        assert self.index.add(key, text) == len(text.split())
        self.model.add(key, text)
        self.unfile(key)

    @rule(key=KEYS, text=TEXTS)
    def replace(self, key, text):
        self.index.replace(key, text)
        self.model.replace(key, text)
        self.unfile(key)

    @rule(document=DOCUMENTS, filing=FILINGS)
    def add_document(self, document, filing):
        # what was filed under ``filing`` goes first; then one stream
        # for the keys that fit their region, the rest on their own:
        # the model adds every key's text, in order
        text, spans = lay_out(document)
        self.index.add_document(text, spans, filing)
        for key in self.filed[filing]:
            self.model.remove(key)
        self.filed[filing] = set()
        for key, _, start, end in spans:
            self.model.add(key, text[start:end])
            self.unfile(key)
            self.filed[filing].add(key)
        for key, _, _, _ in spans:
            assert self.index.document_of(key) == filing

    @rule(key=KEYS)
    def remove(self, key):
        assert self.index.remove(key) == self.model.lengths.get(key, 0)
        self.model.remove(key)
        self.unfile(key)

    @invariant()
    def words_and_sizes_agree(self):
        assert self.index.document_count == len(self.model.lengths)
        assert set(self.index.vocabulary()) == set(self.model.postings)
        for word in WORDS:
            keys = self.model.keys_with_word(word)
            assert self.index.keys_with_word(word) == keys
            assert posting_size(self.index, word) == len(keys)
            assert (posting_size(self.index, word) == 0) == (
                word not in self.model.postings)
        assert self.index.occurrence_total == sum(
            map(len, self.model.postings.values()))

    @rule(words=st.lists(st.sampled_from(WORDS), min_size=2, max_size=3))
    def phrases_agree(self, words):
        phrase = Pattern(" ".join(words))
        expected = self.model.keys_with_phrase(words)
        assert self.index.keys_with_phrase(phrase) == expected
        assert self.index.probe(phrase) == (expected, True)

    @rule(prefix=st.sampled_from(["s", "qu", "t", "un", "x"]),
          tail=st.sampled_from(WORDS))
    def patterns_agree(self, prefix, tail):
        # a regex word scans the vocabulary; in a phrase it merges the
        # groups of every token it matches
        expected = self.model.keys_matching(
            lambda token: token.startswith(prefix))
        assert self.index.keys_matching(prefix + ".*") == expected
        assert self.index.probe(
            Pattern(prefix + ".*")) == (expected, True)
        phrase = Pattern(f"{prefix}.* {tail}")
        assert self.index.keys_with_phrase(phrase) == {
            key
            for token in self.model.postings if token.startswith(prefix)
            for key in self.model.keys_with_phrase([token, tail])}

    @rule(left=st.sampled_from(WORDS), right=st.sampled_from(WORDS))
    def boolean_candidates_agree(self, left, right):
        one, other = (self.model.keys_with_word(left),
                      self.model.keys_with_word(right))
        assert self.index.probe(
            AndExpr(Pattern(left), Pattern(right))) == (one & other, True)
        assert self.index.probe(
            OrExpr(Pattern(left), Pattern(right))) == (one | other, True)


IndexAgreesWithOccurrenceLists.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestIndexAgreesWithOccurrenceLists = IndexAgreesWithOccurrenceLists.TestCase
