"""A positional inverted index (the "full text indexing" of Section 4.1).

**Layout.**  The index stores token *streams*.  A stream is one token
sequence: a loaded document's whole text (:meth:`TextIndex.add_document`)
or one key's own text (:meth:`TextIndex.add`).  Postings map ``token ->
{stream id -> offsets}``, the offsets an immutable, ascending tuple.
Keys are caller-chosen (typically oids).  A key is a ``[lo, hi)`` span of
one stream plus its parent key in that stream: an element's text is a
contiguous run of its document's text (the region encoding of the XML
query processing survey), so a document's postings are stored once, not
once per ancestor.  Each stream's ``owner`` array names the innermost
key at every offset, and the keys that contain an offset are the walk
up the parent chain from its owner.  A key's text is the document text
over its span; it joins its document's stream when the span is cut at
whitespace, and otherwise gets a stream of its own.  Either way a key's
tokens are what :func:`tokenize` gives its text.  Every stream of a
document is filed under the document's key, so the document can be
indexed again as a whole (:meth:`TextIndex.add_document`).

Probes answer in keys.  A word's key set is the walk up from the owner
of each of its offsets; it is built once per index version and kept in
a memo.  A phrase is matched on stream offsets, then widened to the keys
whose span covers the whole match.  The optimizer (Section 5.4 + 4.1)
uses :meth:`TextIndex.probe` to turn a ``contains`` predicate into an
index probe.  One rule, stated once: the returned key set is **exact** —
precisely the indexed keys whose text satisfies the expression — when
the expression contains no ``not`` (any And/Or tree of patterns: literal
or regex words, phrases); with a ``not`` anywhere it is a safe superset,
or ``None`` ("no pruning possible, scan") when negation dominates.
:meth:`TextIndex.probe` returns the set together with that verdict, so
no caller walks the expression to guess it.

An answer read off the index is an answer about the text that was
*indexed*; the owner re-indexes what an edit touches (the session
re-indexes the edited object's document), so every indexed key's text
is its current text.

**Concurrency contract** (what the serving layer relies on).  Mutators
(:meth:`TextIndex.add`, :meth:`TextIndex.add_document`,
:meth:`TextIndex.remove`, :meth:`TextIndex.replace`) serialize on an
internal lock.  A published stream is never mutated: a mutator
publishes a new stream object under the same id.  A token's postings
change one stream entry at a time, the offsets tuple replaced, never
mutated.  Probes are lock-free: a probe *snapshots* a token's postings
in one atomic step (``list(group.items())``, ``group.copy()``,
``list(postings)`` — single calls that run no Python code in between),
reads each stream object once and never iterates a live group.  A
stream leaves the index after its posting entries, and a document
indexed again publishes its new streams before the old ones leave, so
a probe that finds a posted stream gone takes a fresh snapshot, which
holds the newer version.  A key set is therefore built from a complete
snapshot: it may be one edit stale, it is never torn.  Every mutator
ends by replacing the memo with an empty one (one assignment); a probe
reads the memo object once and writes only into the memo object it
read.  So a key set computed while a mutator runs lands in a memo that
mutator discards, and after a mutator returns the memo holds only key
sets of the new version.
Consistency *across* tokens (a phrase probe spanning several groups
while an edit lands) is the caller's job: :class:`~repro.serve.
QueryServer` validates every read against the store's write fence and
retries reads that overlapped a writer.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from typing import Collection, Hashable, Iterable, Sequence

from repro.text.nfa import cached_matcher, is_literal_word
from repro.text.patterns import (
    AndExpr,
    OrExpr,
    Pattern,
    PatternExpr,
    tokenize_words,
)

Group = dict[int, tuple[int, ...]]  # stream id -> offsets
#: ``(key, parent, start, end)``: one key of a document (see
#: :meth:`TextIndex.add_document`)
Span = tuple[Hashable, int, int, int]

#: Why a key of an added document gets a stream of its own: an end of
#: its region falls inside a whitespace-delimited chunk (text glued
#: across a tag).
GLUED_BOUNDARY = "glued_boundary"

_NO_KEYS: frozenset = frozenset()


def tokenize(text: str) -> list[str]:
    """The index's tokenizer (same as the predicate's)."""
    return tokenize_words(text)


class _Stream:
    """One token sequence and the keys that are spans of it.

    ``keys[slot]`` spans ``[lo[slot], hi[slot])``; ``parents[slot]`` is
    the live slot enclosing it (``-1``: none) and ``owner[offset]`` the
    innermost live slot holding the offset (``-1``: none, and the offset
    is in no posting); ``live`` counts the slots still indexed (a
    removed slot's key is ``None``).  ``owner is None`` marks a stream
    of one key that holds every offset.  ``document`` is the key of the
    document the stream was filed under (``None``: none).  Never
    mutated once published."""

    __slots__ = ("tokens", "keys", "lo", "hi", "parents", "owner", "live",
                 "document")

    def __init__(self, tokens: tuple[str, ...], keys: list,
                 lo: list[int], hi: list[int], parents: list[int],
                 owner: list[int] | None, live: int,
                 document: Hashable = None) -> None:
        self.tokens = tokens
        self.keys = keys
        self.lo = lo
        self.hi = hi
        self.parents = parents
        self.owner = owner
        self.live = live
        self.document = document

    def keys_covering(self, anchors: Iterable[int], width: int) -> list:
        """The keys whose span holds ``[anchor, anchor + width)`` for
        one of ``anchors``: from each anchor's owner up to the first
        span reaching that far, then every span above it (with
        ``width`` 1, the keys holding an anchor)."""
        owner = self.owner
        if owner is None:
            return self.keys
        parents, hi = self.parents, self.hi
        seen: set[int] = set()
        for anchor in anchors:
            slot = owner[anchor]
            end = anchor + width
            while slot >= 0 and hi[slot] < end:
                slot = parents[slot]
            while slot >= 0 and slot not in seen:
                seen.add(slot)
                slot = parents[slot]
        keys = self.keys
        return [keys[slot] for slot in seen]


class TextIndex:
    """token -> {stream -> offsets}; every key a span of one stream."""

    def __init__(self) -> None:
        self._postings: dict[str, Group] = {}
        self._streams: dict[int, _Stream] = {}
        self._keys: dict[Hashable, tuple[int, int]] = {}  # (stream, slot)
        # document key -> the ids of the streams filed under it
        self._documents: dict[Hashable, list[int]] = {}
        self._next_stream = 0
        self._occurrences = 0  # sum of the keys' token counts
        # token -> its key set, for the current index version only
        self._memo: dict[str, frozenset] = {}
        # serializes mutators; probes stay lock-free (see module doc)
        self._mutation_lock = threading.RLock()
        #: optional repro.observe MetricsRegistry; ``None`` = disabled
        self.metrics = None

    # -- building -------------------------------------------------------------

    def add(self, key: Hashable, text: str) -> int:
        """Index ``text`` under ``key`` as a stream of its own; returns
        the token count.  One posting entry per distinct token; a second
        ``add`` of the same key continues its offsets."""
        with self._mutation_lock:
            return self._add(key, text, None)

    def _add(self, key: Hashable, text: str, document: Hashable) -> int:
        tokens = tuple(tokenize(text))
        found = self._keys.get(key)
        if found is None:
            before: tuple[str, ...] = ()
        else:  # the key's tokens so far, moved to the new stream
            stream = self._streams[found[0]]
            slot = found[1]
            before = stream.tokens[stream.lo[slot]:stream.hi[slot]]
            self._drop(key)
        whole = before + tokens
        self._publish(_Stream(whole, [key], [0], [len(whole)], [-1],
                              None, 1, document))
        self._memo = {}
        return len(tokens)

    def add_document(self, text: str, spans: Sequence[Span],
                     document: Hashable) -> Counter[str]:
        """Index the keys of one document as spans of one stream, with
        one tokenizer pass over ``text``, the document's text.

        ``spans`` lists ``(key, parent, start, end)`` in document order,
        an enclosing span before the spans inside it: the key's text is
        ``text[start:end]``, and ``parent`` is the position in ``spans``
        of the span enclosing it (``-1``: none).  A key joins the stream
        when neither end of its region falls inside a
        whitespace-delimited chunk of ``text``.  Every other key is
        indexed as by :meth:`add`, and the returned counter says why,
        by reason (:data:`GLUED_BOUNDARY`); a key met before — already
        indexed, or earlier in ``spans`` — continues as by :meth:`add`,
        after the stream.

        Every stream this makes is filed under ``document``, the
        document's key (:meth:`document_of`), and the streams filed
        under it before are replaced, keys and all: the document is
        indexed again as a whole.  The new streams are published before
        the old ones leave the postings, so a probe meanwhile reads the
        old version or the new one, never neither
        (``text.remove_postings_touched`` counts the posting entries the
        old streams take with them)."""
        size = len(text)

        def clean(cut: int) -> bool:
            return (cut == 0 or cut == size or text[cut - 1].isspace()
                    or text[cut].isspace())

        reasons: Counter[str] = Counter()
        keys: list = []
        parents: list[int] = []
        regions: list[tuple[int, int]] = []
        # per span: its slot, or else the nearest joined ancestor's
        slot_of: list[int] = []
        apart: list[tuple[Hashable, str]] = []
        with self._mutation_lock:
            replaced = self._documents.pop(document, ())
            for sid in replaced:  # its keys are indexed anew below
                stream = self._streams.get(sid)
                for slot, key in enumerate(stream.keys if stream else ()):
                    if key is not None:
                        del self._keys[key]
                        self._occurrences -= stream.hi[slot] - stream.lo[slot]
            indexed = self._keys
            met = set()  # the keys of this document so far
            for key, parent, start, end in spans:
                enclosing = slot_of[parent] if parent >= 0 else -1
                new = key not in met and key not in indexed
                met.add(key)
                if new and clean(start) and clean(end):
                    slot_of.append(len(keys))
                    keys.append(key)
                    parents.append(enclosing)
                    regions.append((start, end))
                    continue
                if new:
                    reasons[GLUED_BOUNDARY] += 1
                slot_of.append(enclosing)
                apart.append((key, text[start:end]))
            if keys:
                self._publish_document(text, keys, parents, regions,
                                       document)
            for key, key_text in apart:
                self._add(key, key_text, document)
            touched = sum(map(self._retire, replaced))
            self._memo = {}
        if touched and self.metrics is not None:
            self.metrics.inc("text.remove_postings_touched", touched)
        return reasons

    def document_of(self, key: Hashable) -> Hashable:
        """The document ``key``'s stream is filed under (``None``: the
        key is not indexed, or was added on its own)."""
        found = self._keys.get(key)
        return None if found is None else self._streams[found[0]].document

    def _publish_document(self, text: str, keys: list,
                          parents: list[int],
                          regions: list[tuple[int, int]],
                          document: Hashable) -> None:
        """Tokenize ``text`` once, piece by piece between the region
        ends (no whitespace-delimited chunk crosses one), and publish
        the stream whose keys span those regions."""
        offset_at = {}
        tokens: list[str] = []
        previous = 0
        for cut in sorted({0, len(text)}.union(*regions)):
            tokens += tokenize(text[previous:cut])
            offset_at[cut] = len(tokens)
            previous = cut
        lo = [offset_at[start] for start, _ in regions]
        hi = [offset_at[end] for _, end in regions]
        owner = [-1] * len(tokens)
        for slot, (first, last) in enumerate(zip(lo, hi)):
            owner[first:last] = [slot] * (last - first)  # inner ones later
        self._publish(_Stream(tuple(tokens), keys, lo, hi, parents, owner,
                              len(keys), document))

    def _publish(self, stream: _Stream) -> None:
        """Give ``stream`` an id, register its keys and post the offsets
        some key holds — the stream first, so a posting never names a
        stream a probe cannot read."""
        sid = self._next_stream
        self._next_stream += 1
        self._streams[sid] = stream
        if stream.document is not None:
            self._documents.setdefault(stream.document, []).append(sid)
        for slot, key in enumerate(stream.keys):
            self._keys[key] = (sid, slot)
        self._occurrences += sum(stream.hi) - sum(stream.lo)
        positions: defaultdict[str, list[int]] = defaultdict(list)
        owner = stream.owner
        if owner is None or -1 not in owner:
            for offset, token in enumerate(stream.tokens):
                positions[token].append(offset)
        else:
            for offset, token in enumerate(stream.tokens):
                if owner[offset] >= 0:
                    positions[token].append(offset)
        postings = self._postings
        for token, where in positions.items():
            group = postings.get(token)
            if group is None:
                postings[token] = {sid: tuple(where)}
            else:
                group[sid] = tuple(where)

    def remove(self, key: Hashable) -> int:
        """Drop ``key``; returns its token count (0 when the key was
        never indexed).  Tokens no key holds any more are dropped from
        the vocabulary.

        Only the key's own stream is visited: the last key of a stream
        takes the stream's posting entries with it, one dictionary
        delete per distinct token; any other key passes its offsets to
        its parent, and the entries of offsets no key holds any more are
        cut.  ``text.remove_postings_touched`` counts the entries
        deleted or cut, which stays independent of the rest of the
        vocabulary and of how many other streams share those tokens.
        """
        with self._mutation_lock:
            dropped = self._drop(key)
            if dropped is None:
                return 0
            self._memo = {}
        removed, touched = dropped
        if self.metrics is not None:
            if touched:  # a counter that would get 0 stays absent
                self.metrics.inc("text.remove_postings_touched", touched)
            self.metrics.inc("text.removals")
        return removed

    def _drop(self, key: Hashable) -> tuple[int, int] | None:
        """:meth:`remove` without the counters: ``(token count, posting
        entries touched)``, ``None`` for a key never indexed."""
        found = self._keys.get(key)
        if found is None:
            return None
        sid, slot = found
        stream = self._streams[sid]
        lo, hi = stream.lo[slot], stream.hi[slot]
        del self._keys[key]
        self._occurrences -= hi - lo
        if stream.live == 1:
            return hi - lo, self._retire(sid)
        postings = self._postings
        touched = 0
        # the slot's offsets and child spans pass to its parent; the
        # trailing -1 maps "no slot" to itself
        lift = [*range(len(stream.keys)), -1]
        parent = lift[slot] = stream.parents[slot]
        owner = stream.owner.copy()
        owner[lo:hi] = map(lift.__getitem__, owner[lo:hi])
        keys = stream.keys.copy()
        keys[slot] = None
        self._streams[sid] = _Stream(
            stream.tokens, keys, stream.lo, stream.hi,
            list(map(lift.__getitem__, stream.parents)), owner,
            stream.live - 1, stream.document)
        if parent < 0:  # offsets no key holds leave the postings
            tokens = stream.tokens
            for token in {tokens[offset] for offset in range(lo, hi)
                          if owner[offset] < 0}:
                group = postings[token]
                kept = tuple(offset for offset in group[sid]
                             if owner[offset] >= 0)
                touched += 1
                if kept:
                    group[sid] = kept
                else:
                    del group[sid]
                    if not group:
                        del postings[token]
        return hi - lo, touched

    def _retire(self, sid: int) -> int:
        """Drop stream ``sid`` and its posting entries, one dictionary
        delete per distinct token; returns how many (0 for a stream
        already gone).  Its keys are the caller's to unregister."""
        stream = self._streams.get(sid)
        if stream is None:
            return 0
        postings = self._postings
        touched = 0
        for token in set(stream.tokens):
            group = postings.get(token)
            if group is not None and group.pop(sid, None) is not None:
                touched += 1
                if not group:
                    del postings[token]
        # last, so a probe that finds a posted stream gone knows its
        # snapshot is older than this and takes a fresh one
        del self._streams[sid]
        return touched

    def replace(self, key: Hashable, text: str) -> int:
        """Re-index ``key`` with fresh ``text`` (the incremental
        maintenance step an in-database edit needs); returns the new
        token count.  Unlike a bare :meth:`add`, old entries are
        removed first, so the key reflects only the new content, in a
        stream of its own."""
        with self._mutation_lock:
            self.remove(key)
            if self.metrics is not None:
                self.metrics.inc("text.reindexed")
            return self.add(key, text)

    def indexed(self) -> Collection[Hashable]:
        """The indexed keys — the ones an exact probe decides without
        a look at their text.  A live container, for membership tests
        only."""
        return self._keys

    @property
    def document_count(self) -> int:
        return len(self._keys)

    @property
    def occurrence_total(self) -> int:
        """The sum of the keys' token counts — what an index storing
        every key's tokens on their own would hold."""
        return self._occurrences

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def vocabulary(self) -> Iterable[str]:
        return self._postings.keys()

    # -- statistics (no probe issued) -----------------------------------------

    def posting_size(self, word: str) -> int:
        """Document frequency of a literal token: the exact number of
        keys containing ``word``, read off the memoized key set.  ``0``
        is a proof of absence: no probe of a pattern that needs the
        word finds a key."""
        return len(self._word_keys(word))

    # -- probing --------------------------------------------------------------

    def _word_keys(self, word: str) -> frozenset:
        """The keys holding the token ``word``, built on first use in an
        index version: the walk up from each offset's owner."""
        memo = self._memo
        keys = memo.get(word)
        if keys is None:
            streams = self._streams
            while True:  # again if a stream left after the snapshot
                group = self._postings.get(word)
                if not group:
                    return _NO_KEYS
                found: list = []
                for sid, offsets in list(group.items()):
                    stream = streams.get(sid)
                    if stream is None:
                        break
                    found += stream.keys_covering(offsets, 1)
                else:
                    break
            keys = memo[word] = frozenset(found)
        return keys

    def _matching_groups(self, word: str, matcher) -> list[Group]:
        """The live groups of the tokens ``word`` stands for: its own
        for a literal word, else those of every vocabulary token the
        matcher accepts (callers snapshot before reading them)."""
        if is_literal_word(word):
            group = self._postings.get(word)
            return [] if group is None else [group]
        return [group for token, group in list(self._postings.items())
                if matcher.matches(token)]

    def keys_with_word(self, word: str) -> frozenset:
        """Exact-token probe."""
        keys = self._word_keys(word)
        if self.metrics is not None:
            self.metrics.inc("text.word_probes")
            self.metrics.inc("text.postings_scanned", len(keys))
        return keys

    def keys_matching(self, word_pattern: str) -> frozenset:
        """Pattern probe: literal words hit directly, regex-ish ones scan
        the vocabulary with the NFA."""
        if is_literal_word(word_pattern):
            return self.keys_with_word(word_pattern)
        if self.metrics is not None:
            self.metrics.inc("text.vocabulary_scans")
        matcher = cached_matcher(word_pattern)
        return frozenset().union(*(
            self._word_keys(token) for token in list(self._postings)
            if matcher.matches(token)))

    def keys_with_phrase(self, pattern: Pattern) -> set[Hashable]:
        """Phrase probe: consecutive offsets of one stream, widened to
        the keys whose span holds the whole match."""
        if self.metrics is not None:
            self.metrics.inc("text.phrase_probes")
        while True:  # again if a stream left after the snapshots
            hits = self._phrase_hits(pattern)
            if hits is not None:
                return hits

    def _phrase_hits(self, pattern: Pattern) -> set[Hashable] | None:
        """One pass of :meth:`keys_with_phrase` over fresh snapshots;
        ``None`` when a matched stream left the index meanwhile."""
        per_word: list[Group] = []
        for offset, source_word in enumerate(pattern.source.split()):
            snapshots = [group.copy() for group in self._matching_groups(
                source_word, pattern.word_matchers[offset])]
            merged = snapshots.pop() if snapshots else {}
            for snapshot in snapshots:  # several tokens match a regex
                for sid, offsets in snapshot.items():
                    merged[sid] = merged.get(sid, ()) + offsets
            per_word.append(merged)
        first, *later = per_word
        width = len(per_word)
        streams = self._streams
        hits: set[Hashable] = set()
        for sid, offsets in first.items():
            anchors = set(offsets)
            for step, group in enumerate(later, 1):
                anchors.intersection_update(
                    offset - step for offset in group.get(sid, ()))
                if not anchors:
                    break
            else:
                stream = streams.get(sid)
                if stream is None:
                    return None
                hits.update(stream.keys_covering(anchors, width))
        return hits

    def keys_for_pattern(self, pattern: Pattern) -> Collection[Hashable]:
        if pattern.is_phrase:
            return self.keys_with_phrase(pattern)
        return self.keys_matching(pattern.source)

    def probe(self, expression: PatternExpr
              ) -> tuple[Collection[Hashable] | None, bool]:
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
