"""A positional inverted index (the "full text indexing" of Section 4.1).

The index maps tokens to postings ``(key, position)``.  Keys are
caller-chosen (typically oids).  The optimizer (Section 5.4 + 4.1) uses
:meth:`TextIndex.candidates` to turn a ``contains`` predicate into an
index probe: the returned key set is exact for positive boolean
combinations of literal patterns and a safe superset otherwise (``None``
means "no pruning possible, scan").

**Concurrency contract** (what the serving layer relies on).  Mutators
(:meth:`TextIndex.add`, :meth:`TextIndex.remove`,
:meth:`TextIndex.replace`) serialize on an internal lock.  Probes are
lock-free: a posting list is only ever *swapped* for a freshly built
one (:meth:`TextIndex.remove` never filters in place) or appended to
(:meth:`TextIndex.add`), so a reader holding a list reference iterates
a consistent per-token snapshot — it may be one edit stale, it is
never torn mid-filter.  Consistency *across* tokens (a phrase probe
spanning several posting lists while an edit lands) is the caller's
job: :class:`~repro.serve.QueryServer` validates every read against
the store's write fence and retries reads that overlapped a writer.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable

from repro.text.nfa import cached_matcher, is_literal_word
from repro.text.patterns import (
    AndExpr,
    NotExpr,
    OrExpr,
    Pattern,
    PatternExpr,
    tokenize_words,
)


def tokenize(text: str) -> list[str]:
    """The index's tokenizer (same as the predicate's)."""
    return tokenize_words(text)


class TextIndex:
    """token -> list of (key, position) postings."""

    def __init__(self) -> None:
        self._postings: dict[str, list[tuple[Hashable, int]]] = {}
        self._documents: dict[Hashable, int] = {}  # key -> token count
        # reverse map: key -> {token: occurrences} — lets remove/replace
        # touch only the key's own posting lists instead of scanning the
        # whole vocabulary
        self._doc_tokens: dict[Hashable, dict[str, int]] = {}
        # serializes mutators; probes stay lock-free (see module doc)
        self._mutation_lock = threading.RLock()
        #: optional repro.observe MetricsRegistry; ``None`` = disabled
        self.metrics = None

    # -- building -------------------------------------------------------------

    def add(self, key: Hashable, text: str) -> int:
        """Index ``text`` under ``key``; returns the token count."""
        tokens = tokenize(text)
        with self._mutation_lock:
            base = self._documents.get(key, 0)
            counts = self._doc_tokens.setdefault(key, {})
            for offset, token in enumerate(tokens):
                self._postings.setdefault(token, []).append(
                    (key, base + offset))
                counts[token] = counts.get(token, 0) + 1
            self._documents[key] = base + len(tokens)
        return len(tokens)

    def remove(self, key: Hashable) -> int:
        """Drop every posting of ``key``; returns the token count that
        was removed (0 when the key was never indexed).  Tokens whose
        posting list empties are dropped from the vocabulary.

        Only the key's own tokens (from the reverse map) are visited —
        ``text.remove_postings_touched`` counts them, and stays
        independent of the rest of the vocabulary.

        Surviving posting lists are *rebuilt and swapped in*, never
        filtered in place: a concurrent probe holding the old list
        keeps iterating a consistent (one-edit-stale) snapshot.
        """
        with self._mutation_lock:
            removed = self._documents.pop(key, None)
            if removed is None:
                return 0
            counts = self._doc_tokens.pop(key, {})
            for token, occurrences in counts.items():
                if self.metrics is not None:
                    self.metrics.inc("text.remove_postings_touched")
                postings = self._postings.get(token)
                if postings is None:  # pragma: no cover - defensive
                    continue
                if len(postings) == occurrences:
                    # the key owned the whole posting list: drop the
                    # token without filtering
                    del self._postings[token]
                else:
                    # copy-on-write: publish a fresh list atomically
                    self._postings[token] = [
                        entry for entry in postings if entry[0] != key]
        if self.metrics is not None:
            self.metrics.inc("text.removals")
        return removed

    def replace(self, key: Hashable, text: str) -> int:
        """Re-index ``key`` with fresh ``text`` (the incremental
        maintenance step an in-database edit needs); returns the new
        token count.  Unlike a bare :meth:`add`, old postings are
        removed first, so the entry reflects only the new content."""
        with self._mutation_lock:
            self.remove(key)
            if self.metrics is not None:
                self.metrics.inc("text.reindexed")
            return self.add(key, text)

    @property
    def document_count(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def vocabulary(self) -> Iterable[str]:
        return self._postings.keys()

    # -- statistics (read by repro.stats, no probe issued) --------------------

    def posting_size(self, word: str) -> int:
        """Posting-list length of a literal token — an O(1) upper
        bound on the number of documents containing ``word`` (a key
        with several occurrences counts once per occurrence, so the
        bound is safe, never exact).  ``0`` is a proof of absence: the
        cost model prunes union branches gated on such patterns before
        any probe runs."""
        return len(self._postings.get(word, ()))

    def posting_stats(self) -> dict:
        """Aggregate posting statistics for the table-statistics
        snapshot (:mod:`repro.stats`)."""
        sizes = [len(postings) for postings in self._postings.values()]
        return {
            "documents": len(self._documents),
            "vocabulary": len(sizes),
            "postings": sum(sizes),
            "max_posting": max(sizes, default=0),
        }

    # -- probing --------------------------------------------------------------

    def keys_with_word(self, word: str) -> set[Hashable]:
        """Exact-token probe."""
        postings = self._postings.get(word, ())
        if self.metrics is not None:
            self.metrics.inc("text.word_probes")
            self.metrics.inc("text.postings_scanned", len(postings))
        return {key for key, _ in postings}

    def keys_matching(self, word_pattern: str) -> set[Hashable]:
        """Pattern probe: literal words hit directly, regex-ish ones scan
        the vocabulary with the NFA."""
        if is_literal_word(word_pattern):
            return self.keys_with_word(word_pattern)
        if self.metrics is not None:
            self.metrics.inc("text.vocabulary_scans")
        matcher = cached_matcher(word_pattern)
        hits: set[Hashable] = set()
        for token, postings in self._postings.items():
            if matcher.matches(token):
                hits.update(key for key, _ in postings)
        return hits

    def keys_with_phrase(self, pattern: Pattern) -> set[Hashable]:
        """Phrase probe using positions (consecutive tokens)."""
        if self.metrics is not None:
            self.metrics.inc("text.phrase_probes")
        per_word: list[dict[Hashable, set[int]]] = []
        for offset, source_word in enumerate(pattern.source.split()):
            positions: dict[Hashable, set[int]] = {}
            matcher = pattern.word_matchers[offset]
            if is_literal_word(source_word):
                entries = self._postings.get(source_word, ())
            else:
                entries = [entry for token, posting in
                           self._postings.items()
                           if matcher.matches(token)
                           for entry in posting]
            for key, position in entries:
                positions.setdefault(key, set()).add(position - offset)
            per_word.append(positions)
        candidates = set(per_word[0])
        for positions in per_word[1:]:
            candidates &= set(positions)
        hits: set[Hashable] = set()
        for key in candidates:
            anchor_sets = [positions[key] for positions in per_word]
            common = set.intersection(*anchor_sets)
            if common:
                hits.add(key)
        return hits

    def keys_for_pattern(self, pattern: Pattern) -> set[Hashable]:
        if pattern.is_phrase:
            return self.keys_with_phrase(pattern)
        return self.keys_matching(pattern.source)

    def candidates(self, expression: PatternExpr) -> set[Hashable] | None:
        """Keys that *may* satisfy the expression.

        Exact for positive combinations; ``None`` when the expression is
        dominated by negation (no index pruning possible).  Callers must
        still re-check phrases/negations on the actual text when they
        need exact semantics with a superset result — but for pure
        And/Or/Pattern trees this set is already exact.
        """
        if isinstance(expression, Pattern):
            return self.keys_for_pattern(expression)
        if isinstance(expression, AndExpr):
            left = self.candidates(expression.left)
            right = self.candidates(expression.right)
            if left is None:
                return right
            if right is None:
                return left
            return left & right
        if isinstance(expression, OrExpr):
            left = self.candidates(expression.left)
            right = self.candidates(expression.right)
            if left is None or right is None:
                return None
            return left | right
        if isinstance(expression, NotExpr):
            return None
        return None
