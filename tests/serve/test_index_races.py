"""The index-level concurrency contract the serving layer builds on.

Deterministic checks pin each discipline down without any scheduling
luck.  TextIndex: a probe *snapshots* a token's key group in one atomic
step, so a snapshot taken before ``remove``/``replace`` is complete and
unchanged afterwards, and the position tuples inside it are never
mutated.  StructuralIndex: a reader that located a block before a
rebuild keeps the *old, internally consistent* block and answer,
because the rebuild publishes a fresh block and a fresh lookup map.
Two threaded hammers then drive the same paths under real
interleaving: probes racing ``replace`` edits, and ``locate_all``
racing full block rebuilds, with zero exceptions and only-valid-states
results.
"""

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
        # the probe's one atomic step (keys_with_phrase: group.copy(),
        # keys_with_word: set(group))
        held = index._groups["shared"].copy()
        keys = index.keys_with_word("shared")
        before = dict(held)

        index.remove("a")

        # what the probe holds is the complete pre-edit group — a probe
        # mid-read never sees a half-removed key
        assert held == before == {"a": (0,), "b": (0,)}
        assert keys == {"a", "b"}
        # the live group lost exactly "a"'s entry, in place
        assert index._groups["shared"] == {"b": (0,)}

    def test_positions_are_replaced_never_mutated(self):
        index = TextIndex()
        index.add("doc", "alpha beta alpha")
        held = index._groups["alpha"].copy()
        positions = held["doc"]
        assert positions == (0, 2) and isinstance(positions, tuple)

        index.add("doc", "alpha")        # continues the key's positions
        assert index._groups["alpha"]["doc"] == (0, 2, 3)
        assert index._groups["alpha"]["doc"] is not positions
        index.replace("doc", "beta gamma")

        # the snapshot and the tuple inside it are what they were
        assert held == {"doc": (0, 2)} and held["doc"] is positions
        assert "alpha" not in index._groups
        assert index._groups["beta"] == {"doc": (0,)}

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
