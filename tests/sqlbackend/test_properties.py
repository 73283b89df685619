"""Property tests: the shred is a faithful relational image.

The round-trips under test are the ones the emitter relies on:

* an ordered SQL scan of ``node`` reproduces the ``paths_from``
  pre-order stream (paths, values, levels) exactly;
* interval containment *in SQL* is ancestry — ``pre < d < end_pre``
  and the pre/post form with the post rank ``end_pre − 1 − level``
  (ground truth: the parent chain read back from the same table);
* ``content``/``attr`` rows match the structural index's secondary
  slices — the two physical layers index the same walk;
* ``vkey`` round-trips through SQLite's TEXT affinity unchanged.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.paths.enumeration import RESTRICTED, paths_from
from repro.sqlbackend.shred import Shred, value_key
from repro.structindex import StructuralIndex


@lru_cache(maxsize=None)
def shredded_store(size: int, seed: int):
    store = DocumentStore(ARTICLE_DTD)
    for position, tree in enumerate(generate_corpus(size, seed=seed)):
        store.load_tree(tree, name=f"doc{position}", validate=False)
    shred = Shred(StructuralIndex(store.instance,
                                 epoch_source=store.plan_cache))
    shred.refresh()
    return store, shred


corpora = st.tuples(st.integers(1, 3), st.integers(0, 19))


class TestWalkRoundTrip:
    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_ordered_scan_reproduces_the_enter_stream(self, corpus):
        size, seed = corpus
        store, shred = shredded_store(size, seed)
        for name, root in shred.roots.items():
            walk = list(paths_from(root.values[0], store.instance,
                                   RESTRICTED,
                                   shred.index.max_block_nodes))
            assert len(walk) == root.size
            _, rows, _ = shred.execute(
                "SELECT pre, level, kind FROM node WHERE root = ? "
                "ORDER BY pre", (name,))
            assert [r[0] for r in rows] == list(range(root.size))
            for (path, value), (pre, sql_level, _) in zip(walk, rows):
                assert root.path(pre) == path
                assert root.values[pre] is value
                assert sql_level == len(path)

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_interval_containment_in_sql_is_ancestry(self, corpus):
        size, seed = corpus
        _, shred = shredded_store(size, seed)
        rng = random.Random(seed)
        for name, root in shred.roots.items():
            if root.size < 2:
                continue
            _, rows, _ = shred.execute(
                "SELECT pre, end_pre - 1 - level, parent, end_pre "
                "FROM node WHERE root = ? ORDER BY pre", (name,))
            post = [r[1] for r in rows]
            parent = [r[2] for r in rows]
            end = [r[3] for r in rows]
            assert sorted(post) == list(range(root.size))
            for _ in range(200):
                a = rng.randrange(root.size)
                d = rng.randrange(root.size)
                node = parent[d]
                chain = False
                while node != -1:
                    if node == a:
                        chain = True
                        break
                    node = parent[node]
                # the range-scan shape, and the pre/post form with
                # the derived post rank
                assert (a < d < end[a]) == chain
                assert (a < d and post[d] < post[a]) == chain

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_vkey_round_trips_through_sqlite(self, corpus):
        size, seed = corpus
        _, shred = shredded_store(size, seed)
        for name, root in shred.roots.items():
            _, rows, _ = shred.execute(
                "SELECT pre, vkey FROM node WHERE root = ? "
                "ORDER BY pre", (name,))
            for pre, vkey in rows:
                assert vkey == value_key(root.values[pre])


class TestIndexAgreement:
    """The shred and the structural index fold the same walk, so
    their secondary structures must agree slice for slice."""

    @given(corpora)
    @settings(max_examples=15, deadline=None)
    def test_content_rows_match_the_atom_slices(self, corpus):
        size, seed = corpus
        store, shred = shredded_store(size, seed)
        index = store.build_structural_index()
        for name, root in shred.roots.items():
            block = index.blocks[name]
            _, rows, _ = shred.execute(
                "SELECT pre, value FROM content WHERE root = ? "
                "ORDER BY pre", (name,))
            expected = [(pre, value)
                        for pre, value in enumerate(root.values)
                        if isinstance(value, str)]
            assert rows == expected
            for pre, value in rows:
                assert pre in block.occurrences[value]

    @given(corpora)
    @settings(max_examples=15, deadline=None)
    def test_attr_rows_match_the_attr_step_slices(self, corpus):
        size, seed = corpus
        store, shred = shredded_store(size, seed)
        index = store.build_structural_index()
        for name in shred.roots:
            block = index.blocks[name]
            _, rows, _ = shred.execute(
                "SELECT name, pre FROM attr WHERE root = ? "
                "ORDER BY name, pre", (name,))
            by_name: dict = {}
            for attr_name, pre in rows:
                by_name.setdefault(attr_name, []).append(pre)
            assert by_name == {n: sorted(p)
                               for n, p in block.attr_steps.items()}
            assert sorted(pre for _, pre in rows) == sorted(
                pre for positions in block.attr_steps.values()
                for pre in positions)
