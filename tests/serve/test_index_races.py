"""The index-level concurrency contract the serving layer builds on.

Deterministic checks pin each discipline down without any scheduling
luck.  TextIndex: a probe *snapshots* a token's postings (stream id →
offsets) in one atomic step, so a snapshot taken before
``remove``/``replace`` is complete and unchanged afterwards, the offset
tuples inside it are never mutated, and a stream a key is removed from
is replaced by a new stream object, never edited.  StructuralIndex: a reader that located a block before a
rebuild keeps the *old, internally consistent* block and answer,
because the rebuild publishes a fresh block and a fresh lookup map.
Two threaded hammers then drive the same paths under real
interleaving: probes racing ``replace`` edits, and ``locate_all``
racing full block rebuilds, with zero exceptions and only-valid-states
results.
"""

import sys
import threading

from repro.corpus import SAMPLE_ARTICLE
from repro.text import TextIndex
from tests.serve.conftest import build_store

ROUNDS = 150


class TestTextIndexSnapshots:
    def test_a_snapshot_survives_remove_complete_and_unchanged(self):
        index = TextIndex()
        index.add("a", "shared token stream")
        index.add("b", "shared token stream")
        (stream_a, _), (stream_b, _) = index._keys["a"], index._keys["b"]
        # the probe's one atomic step (keys_with_phrase: group.copy(),
        # keys_with_word: list(group.items()))
        held = index._postings["shared"].copy()
        keys = index.keys_with_word("shared")
        before = dict(held)

        index.remove("a")

        # what the probe holds is the complete pre-edit group — a probe
        # mid-read never sees a half-removed key
        assert held == before == {stream_a: (0,), stream_b: (0,)}
        assert keys == {"a", "b"}
        # the live group lost exactly "a"'s stream entry, in place, and
        # the next probe builds the key set afresh
        assert index._postings["shared"] == {stream_b: (0,)}
        assert index.keys_with_word("shared") == {"b"}

    def test_positions_are_replaced_never_mutated(self):
        index = TextIndex()
        index.add("doc", "alpha beta alpha")
        held = index._postings["alpha"].copy()
        before = dict(held)
        (offsets,) = held.values()
        assert offsets == (0, 2) and isinstance(offsets, tuple)

        index.add("doc", "alpha")        # continues the key's offsets
        (extended,) = index._postings["alpha"].values()
        assert extended == (0, 2, 3) and extended is not offsets
        index.replace("doc", "beta gamma")

        # the snapshot and the tuple inside it are what they were
        assert held == before and list(held.values()) == [(0, 2)]
        assert next(iter(held.values())) is offsets
        assert "alpha" not in index._postings
        assert list(index._postings["beta"].values()) == [(0,)]

    def test_a_stream_is_replaced_never_mutated(self):
        """Removing one key of a document stream publishes a new stream
        object: a probe holding the old one keeps reading the old
        spans, and the memo of the old version is not the new one's."""
        index = TextIndex()
        index.add_document("alpha beta gamma", [
            ("doc", -1, 0, 16), ("head", 0, 0, 10)], "doc")
        (stream_id, _) = index._keys["doc"]
        held = index._streams[stream_id]
        memo = index._memo
        assert index.keys_with_word("beta") == {"doc", "head"}
        assert memo["beta"] == {"doc", "head"}

        index.remove("doc")

        assert index._streams[stream_id] is not held
        assert set(held.keys_covering([1], 1)) == {"doc", "head"}
        assert index._memo is not memo and "beta" not in index._memo
        assert index.keys_with_word("beta") == {"head"}
        # "gamma" was the removed key's alone: its entry is cut
        assert "gamma" not in index._postings

    def test_probes_racing_replace_see_only_valid_states(self):
        """Readers probing words and phrases while a writer re-indexes.

        The per-token contract: a probe sees some snapshot of each
        token's group — possibly one edit stale, never torn — so
        every result is a subset of the live keys, phrase positions
        stay internally coherent, and nothing raises.  (Consistency
        *across* tokens is explicitly the serve fence's job, so two
        probes may straddle an edit — the test only asserts what the
        index itself promises.)"""
        index = TextIndex()
        for n in range(8):
            index.add(n, "stable prefix version zero")
        errors = []
        done = threading.Event()

        def writer():
            try:
                for round_number in range(ROUNDS):
                    key = round_number % 8
                    version = ("one" if round_number % 2
                               else "zero")
                    index.replace(
                        key, f"stable prefix version {version}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    for word in ("stable", "zero", "one"):
                        assert (index.keys_with_word(word)
                                <= set(range(8)))
                    # positions within each snapshot stay coherent:
                    # the phrase probe never invents a key
                    from repro.text.patterns import Pattern
                    phrase = index.keys_with_phrase(
                        Pattern("stable prefix"))
                    assert phrase <= set(range(8))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

        # the dust settled: the index converged on the exact final
        # state of the deterministic write sequence
        last_round = {key: max(r for r in range(ROUNDS)
                               if r % 8 == key)
                      for key in range(8)}
        assert index.keys_with_word("stable") == set(range(8))
        for key, round_number in last_round.items():
            version = "one" if round_number % 2 else "zero"
            assert key in index.keys_with_word(version)
            other = "zero" if version == "one" else "one"
            assert key not in index.keys_with_word(other)

    def test_probes_racing_document_streams_converge(self):
        """Readers probing words, regex words and phrases while a writer
        adds document streams and lifts keys out of them (``remove``,
        ``replace``), with a short switch interval.  No probe raises or
        names a key never indexed, and once the writer is done every
        probe equals an index built key by key from the same script: no
        key set of an older version survived in the memo."""
        from repro.text.patterns import Pattern

        def script(round_number):
            document = f"alpha beta {round_number % 3} gamma stable"
            keys = [f"d{round_number}", f"d{round_number}.head",
                    f"d{round_number}.tail"]
            spans = [(keys[0], -1, 0, len(document)),
                     (keys[1], 0, 0, 10),
                     (keys[2], 0, 13, len(document))]
            edits = []
            if round_number >= 2:
                edits.append(("remove", f"d{round_number - 2}", None))
                edits.append(("replace", f"d{round_number - 1}.head",
                              f"beta alpha version {round_number % 2}"))
            return document, spans, edits

        rounds = ROUNDS // 3
        every_key = {f"d{n}{part}" for n in range(rounds)
                     for part in ("", ".head", ".tail")}
        probes = [Pattern(word) for word in (
            "alpha", "beta", "gamma", "stable", "0", "1", "(a|b).*")]
        probes += [Pattern("alpha beta"), Pattern("beta 1 gamma"),
                   Pattern("gamma stable"), Pattern("beta alpha")]
        index = TextIndex()
        errors = []
        done = threading.Event()

        def writer():
            try:
                for round_number in range(rounds):
                    document, spans, edits = script(round_number)
                    index.add_document(document, spans, spans[0][0])
                    for action, key, text in edits:
                        if action == "remove":
                            index.remove(key)
                        else:
                            index.replace(key, text)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    for pattern in probes:
                        keys, exact = index.probe(pattern)
                        assert exact and set(keys) <= every_key
                        index.posting_size(pattern.source)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

        expected = TextIndex()
        for round_number in range(rounds):
            document, spans, edits = script(round_number)
            for key, _, start, end in spans:
                expected.add(key, document[start:end])
            for action, key, text in edits:
                if action == "remove":
                    expected.remove(key)
                else:
                    expected.replace(key, text)
        assert index.document_count == expected.document_count
        assert index.occurrence_total == expected.occurrence_total
        for pattern in probes:
            assert index.probe(pattern) == expected.probe(pattern), \
                pattern.source
            assert index.posting_size(pattern.source) == \
                expected.posting_size(pattern.source)


    def test_probes_racing_document_replacement_never_see_neither(self):
        """A writer indexes one filed document again and again, its
        text alternating between two versions (what ``update_text``
        does to the edited object's document).  The new stream is
        published before the old one leaves the postings, so a reader
        probing a word both versions hold always finds every key of
        the document — never a state in which the document is gone —
        and a word of one version finds all keys or none."""
        versions = ["stable alpha beta tail", "stable gamma zeta tail"]
        keys = {"doc", "doc.head", "doc.tail"}

        def spans(text):
            return [("doc", -1, 0, len(text)), ("doc.head", 0, 0, 17),
                    ("doc.tail", 0, 18, len(text))]

        index = TextIndex()
        index.add_document(versions[0], spans(versions[0]), "d")
        errors = []
        done = threading.Event()

        def writer():
            try:
                for round_number in range(ROUNDS):
                    text = versions[round_number % 2]
                    index.add_document(text, spans(text), "d")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            from repro.text.patterns import Pattern
            try:
                while not done.is_set():
                    assert index.keys_with_word("stable") == {
                        "doc", "doc.head"}
                    assert index.keys_with_word("tail") == {
                        "doc", "doc.tail"}
                    assert index.keys_with_word("alpha") in (
                        set(), {"doc", "doc.head"})
                    assert index.keys_with_phrase(
                        Pattern("stable")) == {"doc", "doc.head"}
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert set(index.indexed()) == keys
        assert len(index._streams) == 1
        assert index.keys_with_word("gamma") == {"doc", "doc.head"}
        assert index.keys_with_word("alpha") == set()


class TestStructuralIndexRebuildRaces:
    def test_rebuild_swaps_blocks_and_lookups(self):
        store = build_store(documents=1)
        index = store.struct_index
        index.refresh()
        oid = next(
            oid for oid in store.instance.all_oids()
            if sum(oid in block.occurrences
                   for block in index.blocks.values()) >= 2)
        (held,) = index.locate_all([oid])
        block, pre = held
        positions = block.occurrences[oid]
        before = (list(positions), block.size, block.values[pre])
        # force a rebuild of the root the reader located the oid in
        index._dirty.add(block.root_name)
        index.refresh()
        # the held block and its slice never mutated under the reader
        assert (list(positions), block.size, block.values[pre]) == before
        assert block.occurrences[oid] is positions
        # the published block and the next answer are new objects
        assert index.blocks[block.root_name] is not block
        (located,) = index.locate_all([oid])
        assert located is not held and located[0] is not block

    def test_locate_racing_rebuilds(self):
        """Readers locating + scanning blocks while a writer keeps
        dirtying the index: every lookup returns either None or an
        internally consistent immutable block."""
        store = build_store(documents=2)
        index = store.struct_index
        index.refresh()
        title = min(
            store.query("select s.title from a in Articles, "
                        "s in a.sections"),
            key=lambda o: o.number)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for n in range(ROUNDS // 3):
                    store.update_text(title, f"Race {n} Heading")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    (found,) = index.locate_all([title])
                    if found is None:
                        continue
                    block, pre = found
                    # the block is immutable: its arrays agree with
                    # each other even if a rebuild already replaced it
                    assert 0 <= pre < block.size
                    assert block.occurrences.get(title), \
                        "oid lost from block"
                    assert len(block.values) == block.size
                    assert len(block.complete) == block.size
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestDocumentStoreFence:
    def test_write_seq_is_odd_exactly_during_mutation(self):
        store = build_store(documents=1, indexes=False)
        observed = []

        assert store.write_seq % 2 == 0
        with store.mutating():
            observed.append(store.write_seq)
            with store.mutating():  # nested mutators don't double-bump
                observed.append(store.write_seq)
        assert all(seq % 2 == 1 for seq in observed)
        assert len(set(observed)) == 1
        assert store.write_seq % 2 == 0

    def test_every_mutator_bumps_the_fence(self):
        store = build_store(documents=1, indexes=False)
        title = min(
            store.query("select s.title from a in Articles, "
                        "s in a.sections"),
            key=lambda o: o.number)
        before = store.write_seq
        store.update_text(title, "Fenced Heading")
        after_edit = store.write_seq
        assert after_edit == before + 2  # enter + exit
        store.load_text(SAMPLE_ARTICLE)
        assert store.write_seq == after_edit + 2

    def test_excluding_writers_blocks_mutators(self):
        store = build_store(documents=1, indexes=False)
        title = min(
            store.query("select s.title from a in Articles, "
                        "s in a.sections"),
            key=lambda o: o.number)
        entered = threading.Event()
        committed = threading.Event()

        def writer():
            entered.set()
            store.update_text(title, "Blocked Heading")
            committed.set()

        with store.excluding_writers():
            thread = threading.Thread(target=writer)
            thread.start()
            assert entered.wait(10)
            # the writer cannot commit while we hold the exclusion
            assert not committed.wait(0.1)
            seq_inside = store.write_seq
            assert seq_inside % 2 == 0
        assert committed.wait(10)
        thread.join(timeout=10)
        assert store.write_seq == seq_inside + 2
