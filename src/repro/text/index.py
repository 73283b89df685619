"""A positional inverted index (the "full text indexing" of Section 4.1).

The index maps each token to its *key group*: ``token -> {key ->
positions}``, the positions an immutable, ascending tuple.  Keys are
caller-chosen (typically oids).  A key's entries are reached through
its own tokens (``key -> its distinct tokens``), so adding, removing or
re-indexing a key costs one dictionary step per distinct token of that
key — never a pass over the other keys that share its tokens.  The
optimizer (Section 5.4 + 4.1) uses :meth:`TextIndex.probe` to turn a
``contains`` predicate into an index probe.  One rule, stated once:
the returned key set is **exact** — precisely the indexed keys whose
text satisfies the expression — when the expression contains no
``not`` (any And/Or tree of patterns: literal or regex words,
phrases); with a ``not`` anywhere it is a safe superset, or ``None``
("no pruning possible, scan") when negation dominates.
:meth:`TextIndex.probe` returns the set together with that verdict, so
no caller walks the expression to guess it.

An answer read off the index is an answer about the text that was
*indexed*.  The owner re-indexes the keys an edit touches; when it can
no longer vouch for the rest (the session's ``text()`` switching
strategy under them) it calls :meth:`TextIndex.mark_stale`, and
:meth:`TextIndex.current` is the keys a probe may still decide alone.

**Concurrency contract** (what the serving layer relies on).  Mutators
(:meth:`TextIndex.add`, :meth:`TextIndex.remove`,
:meth:`TextIndex.replace`) serialize on an internal lock and change a
group one entry at a time.  Probes are lock-free: a probe *snapshots* a
token's group in one atomic step (``set(group)``, ``group.copy()``,
``list(vocabulary.items())`` — single calls that run no Python code in
between) and never iterates a live group; position tuples are never
mutated, only replaced.  A snapshot is therefore complete and stays
unchanged whatever lands afterwards — it may be one edit stale, it is
never torn.  Consistency *across* tokens (a phrase probe spanning
several groups while an edit lands) is the caller's job:
:class:`~repro.serve.QueryServer` validates every read against the
store's write fence and retries reads that overlapped a writer.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Collection, Hashable, Iterable

from repro.text.nfa import cached_matcher, is_literal_word
from repro.text.patterns import (
    AndExpr,
    OrExpr,
    Pattern,
    PatternExpr,
    tokenize_words,
)

Group = dict[Hashable, tuple[int, ...]]


def tokenize(text: str) -> list[str]:
    """The index's tokenizer (same as the predicate's)."""
    return tokenize_words(text)


class TextIndex:
    """token -> {key -> positions}."""

    def __init__(self) -> None:
        self._groups: dict[str, Group] = {}
        self._documents: dict[Hashable, int] = {}  # key -> token count
        # reverse map: key -> its distinct tokens — remove/replace reach
        # the key's own entries through it
        self._doc_tokens: dict[Hashable, tuple[str, ...]] = {}
        self._occurrences = 0  # sum of the token counts
        # keys (re-)indexed since the last mark_stale(); None = no
        # mark_stale() yet, every indexed key is current
        self._current: set[Hashable] | None = None
        # serializes mutators; probes stay lock-free (see module doc)
        self._mutation_lock = threading.RLock()
        #: optional repro.observe MetricsRegistry; ``None`` = disabled
        self.metrics = None

    # -- building -------------------------------------------------------------

    def add(self, key: Hashable, text: str) -> int:
        """Index ``text`` under ``key``; returns the token count.  One
        group insert per distinct token; a second ``add`` of the same
        key continues its positions."""
        tokens = tokenize(text)
        with self._mutation_lock:
            base = self._documents.get(key, 0)
            positions: defaultdict[str, list[int]] = defaultdict(list)
            for position, token in enumerate(tokens, base):
                positions[token].append(position)
            groups = self._groups
            fresh = []  # the tokens this call gives the key
            for token, where in positions.items():
                group = groups.get(token)
                if group is None:
                    groups[token] = {key: tuple(where)}
                elif base and key in group:
                    group[key] += tuple(where)
                    continue
                else:
                    group[key] = tuple(where)
                fresh.append(token)
            self._doc_tokens[key] = (
                self._doc_tokens.get(key, ()) + tuple(fresh))
            self._documents[key] = base + len(tokens)
            self._occurrences += len(tokens)
            if self._current is not None and not base:
                self._current.add(key)
        return len(tokens)

    def remove(self, key: Hashable) -> int:
        """Drop every entry of ``key``; returns the token count that
        was removed (0 when the key was never indexed).  Tokens whose
        group empties are dropped from the vocabulary.

        Only the key's own tokens (from the reverse map) are visited,
        one dictionary delete each — ``text.remove_postings_touched``
        counts them, and stays independent of the rest of the
        vocabulary and of how many other keys share those tokens.
        """
        with self._mutation_lock:
            removed = self._documents.pop(key, None)
            if removed is None:
                return 0
            own = self._doc_tokens.pop(key)
            if self._current is not None:
                self._current.discard(key)
            groups = self._groups
            for token in own:
                group = groups[token]
                del group[key]
                if not group:
                    del groups[token]
            self._occurrences -= removed
        if self.metrics is not None:
            if own:  # a counter that would get 0 stays absent
                self.metrics.inc("text.remove_postings_touched", len(own))
            self.metrics.inc("text.removals")
        return removed

    def replace(self, key: Hashable, text: str) -> int:
        """Re-index ``key`` with fresh ``text`` (the incremental
        maintenance step an in-database edit needs); returns the new
        token count.  Unlike a bare :meth:`add`, old entries are
        removed first, so the key reflects only the new content."""
        with self._mutation_lock:
            self.remove(key)
            if self.metrics is not None:
                self.metrics.inc("text.reindexed")
            return self.add(key, text)

    def mark_stale(self) -> None:
        """The owner no longer vouches for the text indexed so far:
        until a key is re-indexed (:meth:`replace`, or :meth:`add`
        after :meth:`remove`), probes still list it but it is not in
        :meth:`current`."""
        with self._mutation_lock:
            self._current = set()

    @property
    def stale(self) -> bool:
        """Has :meth:`mark_stale` been called?  Then a key set — an
        empty one included — says nothing about the keys indexed
        before the mark: only :meth:`current` keys are decided by it."""
        return self._current is not None

    def current(self) -> Collection[Hashable]:
        """The indexed keys whose indexed text is current — the ones
        an exact probe decides without a look at the text.  A live
        container, for membership tests only."""
        current = self._current
        return self._documents if current is None else current

    @property
    def document_count(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._groups)

    def vocabulary(self) -> Iterable[str]:
        return self._groups.keys()

    # -- statistics (read by repro.stats, no probe issued) --------------------

    def posting_size(self, word: str) -> int:
        """Document frequency of a literal token: the exact number of
        keys containing ``word``, in O(1).  On an index that is not
        :attr:`stale`, ``0`` is a proof of absence: the cost model
        prunes union branches gated on such patterns before any probe
        runs."""
        return len(self._groups.get(word, ()))

    def posting_stats(self) -> dict:
        """Aggregate posting statistics for the table-statistics
        snapshot (:mod:`repro.stats`): ``postings`` is the occurrence
        total, ``max_posting`` the largest document frequency."""
        sizes = [len(group) for group in list(self._groups.values())]
        return {
            "documents": len(self._documents),
            "vocabulary": len(sizes),
            "postings": self._occurrences,
            "max_posting": max(sizes, default=0),
        }

    # -- probing --------------------------------------------------------------

    def _matching_groups(self, word: str, matcher) -> list[Group]:
        """The live groups of the tokens ``word`` stands for: its own
        for a literal word, else those of every vocabulary token the
        matcher accepts (callers snapshot before reading them)."""
        if is_literal_word(word):
            group = self._groups.get(word)
            return [] if group is None else [group]
        return [group for token, group in list(self._groups.items())
                if matcher.matches(token)]

    def keys_with_word(self, word: str) -> set[Hashable]:
        """Exact-token probe."""
        keys = set(self._groups.get(word, ()))
        if self.metrics is not None:
            self.metrics.inc("text.word_probes")
            self.metrics.inc("text.postings_scanned", len(keys))
        return keys

    def keys_matching(self, word_pattern: str) -> set[Hashable]:
        """Pattern probe: literal words hit directly, regex-ish ones scan
        the vocabulary with the NFA."""
        if is_literal_word(word_pattern):
            return self.keys_with_word(word_pattern)
        if self.metrics is not None:
            self.metrics.inc("text.vocabulary_scans")
        hits: set[Hashable] = set()
        for group in self._matching_groups(
                word_pattern, cached_matcher(word_pattern)):
            hits.update(group)  # one call: the snapshot step
        return hits

    def keys_with_phrase(self, pattern: Pattern) -> set[Hashable]:
        """Phrase probe using positions (consecutive tokens)."""
        if self.metrics is not None:
            self.metrics.inc("text.phrase_probes")
        per_word: list[Group] = []
        for offset, source_word in enumerate(pattern.source.split()):
            snapshots = [group.copy() for group in self._matching_groups(
                source_word, pattern.word_matchers[offset])]
            merged = snapshots.pop() if snapshots else {}
            for snapshot in snapshots:  # several tokens match a regex
                for key, positions in snapshot.items():
                    merged[key] = merged.get(key, ()) + positions
            per_word.append(merged)
        first, *later = per_word
        hits: set[Hashable] = set()
        for key, positions in first.items():
            anchors = set(positions)
            for offset, group in enumerate(later, 1):
                anchors.intersection_update(
                    position - offset for position in group.get(key, ()))
                if not anchors:
                    break
            else:
                hits.add(key)
        return hits

    def keys_for_pattern(self, pattern: Pattern) -> set[Hashable]:
        if pattern.is_phrase:
            return self.keys_with_phrase(pattern)
        return self.keys_matching(pattern.source)

    def probe(self, expression: PatternExpr
              ) -> tuple[set[Hashable] | None, bool]:
        """``(keys, exact)``: the indexed keys that may satisfy the
        expression, and whether they are exactly the ones that do.

        Without a ``not`` in the expression the set is exact.  With
        one, ``a and not b`` probes ``a`` only (a superset), and an
        expression negation dominates (``not b``, ``a or not b``) has
        no key set at all: ``(None, False)``.
        """
        if isinstance(expression, Pattern):
            return self.keys_for_pattern(expression), True
        if isinstance(expression, (AndExpr, OrExpr)):
            left, left_exact = self.probe(expression.left)
            right, right_exact = self.probe(expression.right)
            exact = left_exact and right_exact
            if isinstance(expression, AndExpr):
                if left is None or right is None:
                    return (right if left is None else left), False
                return left & right, exact
            if left is None or right is None:
                return None, False
            return left | right, exact
        return None, False

    def candidates(self, expression: PatternExpr) -> set[Hashable] | None:
        """The key set of :meth:`probe` — exact under the rule stated
        there (no ``not`` in the expression), a superset or ``None``
        otherwise."""
        return self.probe(expression)[0]
