"""Tests for the positional inverted index."""

import pytest

from repro.text import TextIndex, parse_pattern_expr
from repro.text.patterns import Pattern
from tests.text.postings import posting_size


def build_index() -> TextIndex:
    index = TextIndex()
    index.add("d1", "the SGML standard for structured documents")
    index.add("d2", "OODBMS support for complex object storage")
    index.add("d3", "SGML meets OODBMS: complex documents")
    index.add("d4", "an unrelated note about titles and Titles")
    return index


class TestBasicProbes:
    def test_word_probe(self):
        index = build_index()
        assert index.keys_with_word("SGML") == {"d1", "d3"}
        assert index.keys_with_word("OODBMS") == {"d2", "d3"}
        assert index.keys_with_word("ghost") == set()

    def test_pattern_probe_scans_vocabulary(self):
        index = build_index()
        assert index.keys_matching("(t|T)itles") == {"d4"}

    def test_phrase_probe(self):
        index = build_index()
        assert index.keys_for_pattern(Pattern("complex object")) == {"d2"}
        assert index.keys_for_pattern(Pattern("complex documents")) == {"d3"}
        # words present but not adjacent:
        assert index.keys_for_pattern(Pattern("SGML OODBMS")) == set()

    def test_stats(self):
        index = build_index()
        assert index.document_count == 4
        assert index.vocabulary_size > 10

    def test_incremental_add_same_key(self):
        index = TextIndex()
        index.add("d", "first part")
        index.add("d", "second part")
        assert index.keys_with_word("first") == {"d"}
        assert index.keys_with_word("second") == {"d"}
        # incremental adds concatenate the token stream, so a phrase may
        # span the boundary — documented behaviour
        assert index.keys_for_pattern(Pattern("part second")) == {"d"}


class TestRemoveReplace:
    def test_remove_drops_all_postings(self):
        index = build_index()
        removed = index.remove("d3")
        assert removed > 0
        assert index.document_count == 3
        assert index.keys_with_word("SGML") == {"d1"}
        assert index.keys_with_word("OODBMS") == {"d2"}
        # a token unique to d3 disappears from the vocabulary entirely
        assert "meets" not in set(index.vocabulary())

    def test_remove_unknown_key_is_a_noop(self):
        index = build_index()
        vocab_before = index.vocabulary_size
        assert index.remove("ghost") == 0
        assert index.document_count == 4
        assert index.vocabulary_size == vocab_before

    def test_replace_reflects_only_new_text(self):
        index = build_index()
        index.replace("d1", "a fresh revision about XML")
        assert index.keys_with_word("SGML") == {"d3"}
        assert index.keys_with_word("XML") == {"d1"}
        # positions restart at zero, so phrases in the new text match
        assert index.keys_for_pattern(Pattern("fresh revision")) == {"d1"}
        assert index.document_count == 4

    def test_replace_counts_in_metrics(self):
        from repro.observe import MetricsRegistry
        index = build_index()
        index.metrics = MetricsRegistry()
        index.replace("d2", "new words")
        index.remove("d4")
        counters = index.metrics.snapshot()["counters"]
        assert counters["text.reindexed"] == 1
        assert counters["text.removals"] == 2  # one inside replace


class TestSessionIndexMaintenance:
    """Regression: ``update_text`` must keep a built index current.

    Before the fix, the index kept the *old* tokens for the edited
    object (and its ancestors), so index-backed ``contains`` queries
    returned stale results after an in-database edit.
    """

    @pytest.fixture()
    def store(self):
        from repro import DocumentStore
        from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
        store = DocumentStore(ARTICLE_DTD, backend="algebra")
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.build_text_index()
        return store

    def edit_first_title(self, store, new_text):
        title_oid = next(iter(store.query(
            "select s.title from a in Articles, s in a.sections")))
        store.update_text(title_oid, new_text)
        return title_oid

    def test_edited_object_is_reindexed(self, store):
        oid = self.edit_first_title(store, "Fresh Zanzibar Heading")
        assert oid in store.text_index.keys_with_word("Zanzibar")

    def test_contains_query_sees_the_edit(self, store):
        query = ('select s.title from a in Articles, s in a.sections '
                 'where s.title contains ("Zanzibar")')
        assert len(store.query(query)) == 0
        self.edit_first_title(store, "Zanzibar Section")
        hits = store.query(query)
        assert len(hits) == 1
        assert store.text(next(iter(hits))) == "Zanzibar Section"

    def test_old_tokens_no_longer_match(self, store):
        query = ('select s.title from a in Articles, s in a.sections '
                 'where s.title contains ("{word}")')
        old_title = store.text(next(iter(store.query(
            "select s.title from a in Articles, s in a.sections"))))
        old_word = old_title.split()[0]
        assert len(store.query(query.format(word=old_word))) > 0
        self.edit_first_title(store, "Completely Different")
        assert len(store.query(query.format(word=old_word))) == 0

    def test_ancestors_are_reindexed_too(self, store):
        # the article's own text embeds every descendant's character
        # data, so an edit deep in the tree must be visible at the root
        query = ('select a from a in Articles '
                 'where a contains ("Zanzibar")')
        assert len(store.query(query)) == 0
        self.edit_first_title(store, "Zanzibar Section")
        assert len(store.query(query)) == 1


class TestRemoveTouchesOwnTokensOnly:
    """Regression: ``remove`` must not walk the whole vocabulary.

    Before the fix, every removal filtered every posting list in the
    index, so an in-database edit (``update_text`` → ``replace``) cost
    O(vocabulary) regardless of the edited text.  The reverse map makes
    the cost a function of the removed document alone —
    ``text.remove_postings_touched`` pins that.
    """

    def test_remove_touches_exactly_the_keys_tokens(self):
        from repro.observe import MetricsRegistry
        index = TextIndex()
        index.add("mine", "alpha beta gamma alpha")
        # a large unrelated vocabulary the removal must never visit
        for i in range(50):
            index.add(f"other{i}", f"unrelated{i} filler{i} noise{i}")
        index.metrics = MetricsRegistry()
        index.remove("mine")
        counters = index.metrics.snapshot()["counters"]
        # three distinct tokens in "mine" — not 153
        assert counters["text.remove_postings_touched"] == 3
        assert index.keys_with_word("unrelated7") == {"other7"}
        assert "alpha" not in set(index.vocabulary())

    def test_update_text_cost_is_independent_of_corpus_size(self):
        from repro import DocumentStore
        from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
        from repro.corpus.generator import generate_corpus

        def edit_cost(extra_articles: int) -> int:
            store = DocumentStore(ARTICLE_DTD, backend="algebra")
            store.load_text(SAMPLE_ARTICLE, name="my_article")
            for tree in generate_corpus(extra_articles, seed=7):
                store.load_tree(tree, validate=False)
            store.build_text_index()
            store.enable_metrics()
            store.reset_metrics()
            title_oid = next(iter(store.query(
                "select s.title from a in Articles, s in a.sections "
                'where a = my_article')))
            store.update_text(title_oid, "Edited Heading")
            counters = store.metrics()["counters"]
            return counters["text.remove_postings_touched"]

        small, large = edit_cost(0), edit_cost(25)
        # the same edit touches the same postings no matter how many
        # unrelated articles the index holds
        assert small == large
        assert small > 0

    def test_update_text_touches_the_same_entries_on_any_corpus(
            self, monkeypatch):
        """Every index entry an edit touches is reached through the
        key — one hash or one equality test of an ``Oid`` each.  The
        same edit performs the same number of them on a 40-article and
        on a 200-article store (before key groups: one ``Oid.__eq__``
        per occurrence, in any document, of each token of the edited
        object's ancestors)."""
        from repro import DocumentStore
        from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
        from repro.corpus.generator import generate_corpus
        from repro.oodb import Oid

        touched = 0
        plain = {name: getattr(Oid, name)
                 for name in ("__eq__", "__hash__")}

        def counting(name):
            def method(self, *args):
                nonlocal touched
                touched += 1
                return plain[name](self, *args)
            return method

        def entries_touched(articles: int) -> int:
            nonlocal touched
            store = DocumentStore(ARTICLE_DTD, backend="algebra")
            store.load_text(SAMPLE_ARTICLE, name="my_article")
            for tree in generate_corpus(articles, seed=7):
                store.load_tree(tree, validate=False)
            store.build_text_index()
            title_oid = min(store.query(
                "select s.title from a in Articles, s in a.sections "
                "where a = my_article"), key=lambda oid: oid.number)
            store.update_text(title_oid, "First Edit")  # + parent map
            with monkeypatch.context() as patch:
                for name in plain:
                    patch.setattr(Oid, name, counting(name))
                touched = 0
                store.update_text(title_oid, "Edited Heading")
                return touched

        small, large = entries_touched(40), entries_touched(200)
        assert small == large
        assert small > 0

    def test_interleaved_adds_then_remove(self):
        index = TextIndex()
        index.add("d", "one two")
        index.add("d", "two three")
        index.add("e", "two")
        assert index.remove("d") == 4
        assert index.keys_with_word("two") == {"e"}
        assert index.keys_with_word("one") == set()
        assert index.keys_with_word("three") == set()


class CountingKey:
    """A key whose equality tests are counted (what ``Oid.__eq__`` is
    to the store's index)."""

    comparisons = 0

    def __init__(self, name: str) -> None:
        self.name = name

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        CountingKey.comparisons += 1
        return isinstance(other, CountingKey) and other.name == self.name


class TestReplaceCostsTheKeysOwnTokens:
    """``replace`` deletes and inserts the key's own entries: no pass
    over the other keys that share its tokens (before key groups, one
    equality test per occurrence of every shared token)."""

    @staticmethod
    def comparisons_of_one_replace(others: int) -> int:
        index = TextIndex()
        mine = CountingKey("mine")
        index.add(mine, "shared words in every document")
        for n in range(others):
            index.add(CountingKey(f"other{n}"),
                      "shared words in every document twice shared")
        CountingKey.comparisons = 0
        index.replace(mine, "shared words rewritten")
        spent = CountingKey.comparisons
        assert index.keys_with_word("rewritten") == {mine}
        assert mine not in index.keys_with_word("every")
        assert len(index.keys_with_word("shared")) == others + 1
        return spent

    def test_comparisons_do_not_grow_with_the_sharing_keys(self):
        few = self.comparisons_of_one_replace(10)
        many = self.comparisons_of_one_replace(1000)
        assert few == many


class TestPostingStatistics:
    def test_posting_size_is_the_document_frequency(self):
        index = TextIndex()
        index.add("a", "word word word other")
        index.add("b", "word")
        assert posting_size(index, "word") == 2   # keys, not occurrences
        assert posting_size(index, "other") == 1
        assert posting_size(index, "ghost") == 0  # the proof of absence

    def test_postings_total_is_a_running_occurrence_count(self):
        index = TextIndex()
        index.add("a", "word word word other")
        index.add("b", "word")
        index.add("b", "again word")
        assert (index.occurrence_total, index.document_count) == (7, 2)
        assert set(index.vocabulary()) == {"word", "other", "again"}
        assert [posting_size(index, word)
                for word in ("word", "other", "again")] == [2, 1, 1]
        index.replace("a", "other")
        index.remove("b")
        assert (index.occurrence_total, index.document_count) == (1, 1)
        assert set(index.vocabulary()) == {"other"}
        assert posting_size(index, "other") == 1

    def test_a_document_counts_each_key_s_tokens(self):
        """A document stream stores its tokens once, and the occurrence
        total still counts every key's own tokens: the nested key's
        tokens once for it and once for each key around it."""
        index = TextIndex()
        index.add_document("word other word", [
            ("doc", -1, 0, 15), ("part", 0, 5, 15)], "doc")
        assert (index.occurrence_total, index.document_count) == (5, 2)
        assert sum(map(len, (offsets for group in index._postings.values()
                             for offsets in group.values()))) == 3
        assert [posting_size(index, word) for word in ("word", "other")] \
            == [2, 2]
        index.remove("doc")
        assert (index.occurrence_total, index.document_count) == (2, 1)
        assert posting_size(index, "word") == 1

    def test_postings_scanned_counts_the_entries_a_probe_reads(self):
        from repro.observe import MetricsRegistry
        index = TextIndex()
        index.add("a", "word word word")
        index.add("b", "word")
        index.metrics = MetricsRegistry()
        index.keys_with_word("word")
        counters = index.metrics.snapshot()["counters"]
        assert counters["text.postings_scanned"] == 2


class TestMatcherCache:
    """Compiled NFA matchers are memoized across probes."""

    def test_repeated_pattern_probe_compiles_once(self):
        from repro.text.nfa import clear_matcher_cache, matcher_cache_info
        index = build_index()
        clear_matcher_cache()
        assert index.keys_matching("(t|T)itles") == {"d4"}
        first = matcher_cache_info()
        assert index.keys_matching("(t|T)itles") == {"d4"}
        second = matcher_cache_info()
        assert first["misses"] == second["misses"] == 1
        assert second["hits"] == first["hits"] + 1

    def test_phrase_patterns_share_word_matchers(self):
        from repro.text.nfa import clear_matcher_cache, matcher_cache_info
        clear_matcher_cache()
        Pattern("complex object")
        baseline = matcher_cache_info()["misses"]
        # re-parsing the same pattern text (one Pattern per query run)
        # reuses both compiled word matchers
        Pattern("complex object")
        assert matcher_cache_info()["misses"] == baseline

    def test_cache_is_bounded(self):
        from repro.text.nfa import (
            clear_matcher_cache,
            matcher_cache_info,
        )
        clear_matcher_cache()
        capacity = matcher_cache_info()["capacity"]
        for i in range(capacity + 20):
            Pattern(f"(w|W)ord{i}")
        info = matcher_cache_info()
        assert info["size"] <= capacity

    def test_cached_matcher_still_matches(self):
        from repro.text.nfa import cached_matcher, clear_matcher_cache
        clear_matcher_cache()
        for _ in range(2):
            matcher = cached_matcher("ab+a")
            assert matcher.matches("abba")
            assert not matcher.matches("aa")


class TestCandidates:
    def test_and_intersects(self):
        index = build_index()
        expr = parse_pattern_expr('"SGML" and "OODBMS"')
        assert index.probe(expr) == ({"d3"}, True)

    def test_or_unions(self):
        index = build_index()
        expr = parse_pattern_expr('"SGML" or "OODBMS"')
        assert index.probe(expr) == ({"d1", "d2", "d3"}, True)

    def test_not_gives_none(self):
        index = build_index()
        assert index.probe(parse_pattern_expr('not "SGML"')) == (None,
                                                                 False)

    def test_and_with_not_keeps_positive_side(self):
        index = build_index()
        expr = parse_pattern_expr('"SGML" and not "OODBMS"')
        # a superset is fine, and said to be one
        assert index.probe(expr) == ({"d1", "d3"}, False)

    def test_or_with_not_gives_none(self):
        index = build_index()
        expr = parse_pattern_expr('"SGML" or not "OODBMS"')
        assert index.probe(expr) == (None, False)

    def test_candidates_agree_with_contains(self):
        from repro.text import contains
        index = build_index()
        documents = {
            "d1": "the SGML standard for structured documents",
            "d2": "OODBMS support for complex object storage",
            "d3": "SGML meets OODBMS: complex documents",
            "d4": "an unrelated note about titles and Titles",
        }
        for source in ['"SGML" and "OODBMS"', '"SGML" or "OODBMS"',
                       '"complex object"', '"(t|T)itles"']:
            expr = parse_pattern_expr(source)
            truth = {key for key, text in documents.items()
                     if contains(text, expr)}
            candidate_set, _ = index.probe(expr)
            assert candidate_set is not None
            assert truth <= candidate_set, source
