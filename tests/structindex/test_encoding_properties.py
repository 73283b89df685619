"""Property tests on the pre/post encoding itself.

The invariants under test are the ones the scan/join operators rely on:

* interval containment is ancestry —
  ``pre(a) < pre(d) ∧ post(d) < post(a)  ⇔  a is an ancestor of d``
  (ground truth: the parent chain);
* level/parent/end consistency (pre-order array well-formedness);
* a *complete* node's range scan enumerates exactly what a fresh
  ``paths_from`` walk from its value would;
* the fused attribute scan's selection memo, sliced to a complete
  node's subtree, selects exactly what the walk selects;
* the encoding is stable across serialize → reload.
"""

import random
from bisect import bisect_left
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DocumentStore
from repro.algebra.operators import SeedOp, StructuralAttrScanOp
from repro.calculus.evaluator import EvalContext
from repro.calculus.terms import AttVar, DataVar, PathVar
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.oodb.values import Oid
from repro.paths import RESTRICTED, paths_from
from repro.structindex import StructuralIndex

from tests.structindex.test_index import BOOK_DTD, NESTED_BOOK


@lru_cache(maxsize=None)
def indexed_store(size: int, seed: int):
    store = DocumentStore(ARTICLE_DTD)
    for position, tree in enumerate(generate_corpus(size, seed=seed)):
        name = f"doc{position}" if position % 2 == 0 else None
        store.load_tree(tree, name=name, validate=False)
    index = store.build_structural_index()
    return store, index


corpora = st.tuples(st.integers(1, 3), st.integers(0, 19))


def _is_ancestor_by_chain(block, a: int, d: int) -> bool:
    node = block.parent[d]
    while node != -1:
        if node == a:
            return True
        node = block.parent[node]
    return False


class TestIntervalContainment:
    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_pre_post_interval_iff_ancestor(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        rng = random.Random(seed)
        for block in index.blocks.values():
            pairs = [(rng.randrange(block.size), rng.randrange(block.size))
                     for _ in range(200)]
            for a, d in pairs:
                interval = a < d and block.post[d] < block.post[a]
                assert interval == _is_ancestor_by_chain(block, a, d)
                assert block.is_ancestor(a, d) == interval

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_descendants_are_the_contiguous_pre_range(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            for pre in range(block.size):
                stop = block.end[pre]
                assert pre < stop <= block.size
                # exactly the nodes in [pre+1, stop) are descendants
                for d in range(pre + 1, min(stop, pre + 40)):
                    assert block.is_ancestor(pre, d)
                if stop < block.size:
                    assert not block.is_ancestor(pre, stop)


class TestArrayConsistency:
    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_level_parent_and_nesting(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            assert block.parent[0] == -1
            assert block.level[0] == 0
            assert block.paths[0].steps == ()
            for pre in range(1, block.size):
                parent = block.parent[pre]
                assert 0 <= parent < pre
                assert block.level[pre] == block.level[parent] + 1
                # a child's interval nests strictly inside its parent's
                assert parent < pre < block.end[pre] <= block.end[parent]
                # the path is the parent's path plus one step
                assert len(block.paths[pre].steps) \
                    == len(block.paths[parent].steps) + 1
                assert block.paths[pre].steps[:-1] \
                    == block.paths[parent].steps

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_post_order_is_a_permutation(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            assert sorted(block.post) == list(range(block.size))

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_secondary_slices_are_sorted_and_point_back(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            for oid, positions in block.oids.items():
                assert positions == sorted(positions)
                assert all(block.values[p] == oid for p in positions)
            for atom, positions in block.atoms.items():
                assert positions == sorted(positions)
                assert all(block.values[p] == atom for p in positions)
            for cls, positions in block.classes.items():
                assert all(block.values[p].class_name == cls
                           for p in positions)


class TestScanEquivalence:
    @given(corpora)
    @settings(max_examples=15, deadline=None)
    def test_complete_subtree_scan_equals_fresh_walk(self, corpus):
        size, seed = corpus
        store, index = indexed_store(size, seed)
        rng = random.Random(seed + 1)
        for block in index.blocks.values():
            sample = rng.sample(range(block.size),
                                min(block.size, 25))
            for pre in sample:
                if not block.complete[pre]:
                    continue
                fresh = list(paths_from(block.values[pre],
                                        store.instance, RESTRICTED))
                scanned = list(block.relative_pairs(pre))
                assert len(fresh) == len(scanned)
                for (fp, fv), (sp, sv) in zip(fresh, scanned):
                    assert fp == sp
                    assert fv is sv


class TestAttrCandidates:
    """The fused scan's candidate set is exact: running the live
    selection over the candidates yields the same (path, holder,
    value) triples as running it over every node of a fresh walk."""

    @staticmethod
    def _deref(value, instance):
        while isinstance(value, Oid):
            value = instance.deref(value)
        return value

    def _select(self, store, node, name):
        from repro.calculus.evaluator import _select_attribute
        base = self._deref(node, store.instance)
        return _select_attribute(base, name)

    @given(corpora)
    @settings(max_examples=10, deadline=None)
    def test_candidates_match_the_walk(self, corpus):
        size, seed = corpus
        store, index = indexed_store(size, seed)
        rng = random.Random(seed + 2)
        for block in index.blocks.values():
            names = sorted(block.attr_steps) + [None]
            sample = rng.sample(range(block.size),
                                min(block.size, 8))
            for pre in sample:
                if not block.complete[pre]:
                    continue
                for name in names:
                    live = set()
                    for path, node in paths_from(
                            block.values[pre], store.instance,
                            RESTRICTED):
                        tried = ([name] if name is not None
                                 else sorted(block.attr_steps))
                        for n in tried:
                            for v in self._select(store, node, n):
                                live.add((str(path), id(node), n,
                                          id(v)))
                    depth = len(block.paths[pre].steps)
                    fused = set()
                    for i in block.attr_candidates(pre, name):
                        rel = str(block.paths[i].steps[depth:])
                        tried = ([name] if name is not None
                                 else sorted(block.attr_steps))
                        for n in tried:
                            for v in self._select(
                                    store, block.values[i], n):
                                fused.add((rel, id(block.values[i]),
                                           n, id(v)))
                    live = {(p, nid, n, vid)
                            for p, nid, n, vid in live}
                    # compare on (holder, name, value): the candidate
                    # set must find every holder the walk finds
                    assert ({t[1:] for t in fused}
                            == {t[1:] for t in live})


def _operator_trial(store, name):
    """The trial a fused scan for ``name`` (``None``: an attribute
    variable) hands :meth:`Block.selections`."""
    op = StructuralAttrScanOp(
        SeedOp(), DataVar("x"), PathVar("P"), DataVar("h"), name,
        None if name is not None else AttVar("A"), DataVar("v"))
    return partial(op._select, ctx=EvalContext(store.instance))


def _memo_matches_the_walk(store, block, pre, name):
    trial = _operator_trial(store, name)
    live = {(id(node), selected, id(value))
            for _, node in paths_from(block.values[pre], store.instance,
                                      RESTRICTED)
            for selected, value in trial(node)}
    holders, names, values = block.selections(name, trial)
    assert holders == sorted(holders)
    lo = bisect_left(holders, pre)
    hi = bisect_left(holders, block.end[pre])
    memo = [(id(block.values[holder]), selected, id(value))
            for holder, selected, value
            in zip(holders[lo:hi], names[lo:hi], values[lo:hi])]
    # one entry per selection, and the same selections as the walk
    assert len(memo) == len(set(memo))
    assert set(memo) == live


class TestSelectionMemo:
    """:meth:`Block.selections` is built once over the whole block;
    its ``[pre, end[pre])`` slice must be the subtree's selections —
    the ``(holder, name, value)`` identities the operator's own trial
    finds on every node of a fresh walk from ``pre``."""

    @given(corpora)
    @settings(max_examples=10, deadline=None)
    def test_memo_slice_matches_the_walk(self, corpus):
        size, seed = corpus
        store, index = indexed_store(size, seed)
        rng = random.Random(seed + 3)
        for block in index.blocks.values():
            sample = rng.sample(range(block.size), min(block.size, 8))
            for pre in sample:
                if block.complete[pre]:
                    for name in sorted(block.attr_steps) + [None]:
                        _memo_matches_the_walk(store, block, pre, name)

    def test_memo_slice_matches_the_walk_past_blocked_oids(self):
        store = DocumentStore(BOOK_DTD, backend="algebra")
        store.load_text(NESTED_BOOK, name="my_book")
        index = store.build_structural_index()
        assert any(block.blocked_oids for block in index.blocks.values())
        for block in index.blocks.values():
            for pre in range(block.size):
                if block.complete[pre]:
                    for name in sorted(block.attr_steps) + [None]:
                        _memo_matches_the_walk(store, block, pre, name)


class TestReloadStability:
    def _fingerprint(self, index):
        printed = {}
        for name, block in index.blocks.items():
            printed[name] = [
                (str(block.paths[pre]), block.level[pre],
                 block.parent[pre], block.post[pre], block.end[pre],
                 block.complete[pre],
                 type(block.values[pre]).__name__)
                for pre in range(block.size)]
        return printed

    @pytest.mark.parametrize("seed", [0, 3, 7, 9])
    def test_encoding_survives_serialize_reload(self, seed, tmp_path):
        store = DocumentStore(ARTICLE_DTD)
        for position, tree in enumerate(
                generate_corpus(2, seed=seed)):
            store.load_tree(tree, name=f"doc{position}", validate=False)
        before = self._fingerprint(store.build_structural_index())
        path = tmp_path / f"snapshot{seed}.db"
        store.save(path)
        reloaded = DocumentStore.load(path)
        after = self._fingerprint(reloaded.build_structural_index())
        assert before == after

    def test_rebuild_on_same_instance_is_identical(self):
        store, index = indexed_store(2, 3)
        before = self._fingerprint(index)
        fresh = StructuralIndex(store.instance)
        fresh.refresh()
        assert self._fingerprint(fresh) == before
