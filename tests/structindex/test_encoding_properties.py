"""Property tests on the pre/post encoding itself.

The invariants under test are the ones the scan/join operators rely on:

* interval containment is ancestry —
  ``pre(a) < pre(d) < end(a)  ⇔  a is an ancestor of d``, and so is
  ``pre(a) < pre(d) ∧ post(d) < post(a)`` with the derived post rank
  ``end − 1 − level`` (ground truth: the parent chain);
* the derived post rank is the post-order rank of an independent
  ``paths_from`` walk;
* level/parent/end consistency (pre-order array well-formedness);
* a *complete* node's range scan enumerates exactly what a fresh
  ``paths_from`` walk from its value would;
* the fused attribute scan's selection memo, sliced to a complete
  node's subtree, selects exactly what the walk selects;
* the encoding is stable across serialize → reload.
"""

import random
from bisect import bisect_left
from collections import Counter
from types import SimpleNamespace
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
from repro.oodb import (
    STRING,
    Instance,
    ListValue,
    SetValue,
    TupleValue,
    UnionValue,
    c,
    schema_from_classes,
    set_of,
    tuple_of,
    union_of,
)
from repro.oodb.values import Oid
from repro.paths import RESTRICTED, Path, paths_from
from repro.paths.steps import apply_step
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


def _post(block, pre: int) -> int:
    """The post rank the encoding carries in ``end`` and ``level``."""
    return block.end[pre] - 1 - block.level[pre]


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
                chain = _is_ancestor_by_chain(block, a, d)
                assert (a < d < block.end[a]) == chain
                assert (a < d and _post(block, d) < _post(block, a)) \
                    == chain

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
                    assert _is_ancestor_by_chain(block, pre, d)
                if stop < block.size:
                    assert not _is_ancestor_by_chain(block, pre, stop)


class TestArrayConsistency:
    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_level_parent_and_nesting(self, corpus):
        size, seed = corpus
        store, index = indexed_store(size, seed)
        for block in index.blocks.values():
            assert block.parent[0] == -1
            assert block.level[0] == 0
            assert block.steps[0] is None
            assert block.path(0) == Path.EMPTY
            for pre in range(1, block.size):
                parent = block.parent[pre]
                assert 0 <= parent < pre
                assert block.level[pre] == block.level[parent] + 1
                # a child's interval nests strictly inside its parent's
                assert parent < pre < block.end[pre] <= block.end[parent]
                # the path is the parent's path plus the node's step,
                # and that step leads from the parent's value to its own
                path = block.path(pre)
                assert len(path.steps) == block.level[pre]
                assert path.steps[:-1] == block.path(parent).steps
                assert path.steps[-1] is block.steps[pre]
                assert apply_step(block.values[parent], block.steps[pre],
                                  store.instance) is block.values[pre]

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_post_order_is_a_permutation(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            posts = [_post(block, pre) for pre in range(block.size)]
            assert sorted(posts) == list(range(block.size))

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_derived_post_is_the_walks_post_order(self, corpus):
        """Number the nodes of a fresh ``paths_from`` walk in post
        order — a node closes when the walk next enters a node no
        deeper than it — and compare with ``end − 1 − level``."""
        size, seed = corpus
        store, index = indexed_store(size, seed)
        for block in index.blocks.values():
            walk = list(paths_from(block.values[0], store.instance,
                                   RESTRICTED))
            assert len(walk) == block.size
            posts = [None] * len(walk)
            open_nodes: list[tuple[int, int]] = []  # (depth, pre)
            counter = 0
            for pre, (path, _) in enumerate(walk + [(Path.EMPTY, None)]):
                depth = len(path.steps)
                while open_nodes and open_nodes[-1][0] >= depth:
                    posts[open_nodes.pop()[1]] = counter
                    counter += 1
                open_nodes.append((depth, pre))
            assert posts == [_post(block, pre)
                             for pre in range(block.size)]

    @given(corpora)
    @settings(max_examples=20, deadline=None)
    def test_secondary_slices_are_sorted_and_point_back(self, corpus):
        size, seed = corpus
        _, index = indexed_store(size, seed)
        for block in index.blocks.values():
            held = 0
            for value, positions in block.occurrences.items():
                assert positions == sorted(set(positions))
                if isinstance(value, Oid):
                    assert all(block.values[p] is value
                               for p in positions)
                else:
                    assert all(block.values[p] == value
                               for p in positions)
                held += len(positions)
            # every oid and atom node is in exactly one slice
            assert held == sum(
                1 for value in block.values
                if not isinstance(value, (TupleValue, ListValue,
                                          SetValue)))


def _range_scan(block, pre):
    """The ``(relative path, value)`` pairs of the subtree at ``pre``,
    read off the arrays the way a structural scan does."""
    depth = block.level[pre]
    return [(block.path(i, depth), block.values[i])
            for i in range(pre, block.end[pre])]


def _scan_equals_fresh_walk(instance, block, pre):
    fresh = list(paths_from(block.values[pre], instance, RESTRICTED))
    scanned = _range_scan(block, pre)
    assert len(fresh) == len(scanned)
    for (fp, fv), (sp, sv) in zip(fresh, scanned):
        assert fp == sp
        assert fv is sv


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
                _scan_equals_fresh_walk(store.instance, block, pre)


@lru_cache(maxsize=None)
def value_graph(persons: int, seed: int):
    """An instance the article corpus cannot produce: ``persons``
    Person objects whose ``spouse`` links close class cycles (a
    same-class dereference the restricted semantics blocks), a set of
    tags and a set of oids (``ElemStep``s), and a marked-union ``role``
    whose payload is a tuple on some persons and a string on others.
    Returns ``(instance, index)``."""
    rng = random.Random(seed)
    schema = schema_from_classes(
        {"Person": tuple_of(
            ("name", STRING),
            ("spouse", c("Person")),
            ("tags", set_of(STRING)),
            ("role", union_of(("boss", tuple_of(("title", STRING))),
                              ("clerk", STRING))))},
        roots={"team": tuple_of(("lead", c("Person")),
                                ("members", set_of(c("Person"))))})
    db = Instance(schema)
    people = [db.new_object("Person") for _ in range(persons)]
    for number, person in enumerate(people):
        role = (UnionValue("boss", TupleValue([("title", f"T{number}")]))
                if rng.random() < 0.5
                else UnionValue("clerk", f"C{number}"))
        tags = SetValue(rng.sample(["x", "y", "z", "w"], rng.randint(0, 3)))
        db.set_value(person, TupleValue([
            ("name", f"P{number}"), ("spouse", rng.choice(people)),
            ("tags", tags), ("role", role)]))
    db.set_root("team", TupleValue([
        ("lead", people[0]),
        ("members", SetValue(rng.sample(people,
                                        rng.randint(1, persons))))]))
    index = StructuralIndex(db)
    index.refresh()
    return db, index


class TestFoldOnAValueGraph:
    """The fold against ``paths_from`` beyond the article corpus: set
    elements, marked unions and blocked same-class dereferences."""

    @given(st.integers(1, 5), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_every_complete_node_scans_as_the_walk(self, persons, seed):
        db, index = value_graph(persons, seed)
        (block,) = index.blocks.values()
        assert block.complete[0] and not block.truncated
        steps = {type(step).__name__ for step in block.steps[1:]}
        assert {"AttrStep", "DerefStep", "ElemStep"} <= steps
        assert block.blocked_oids  # every spouse link closes a cycle
        assert not all(block.complete)
        for pre in range(block.size):
            if block.complete[pre]:
                _scan_equals_fresh_walk(db, block, pre)
            else:
                # truncated relative to a fresh walk, never wrong
                fresh = {(path, id(value)) for path, value in paths_from(
                    block.values[pre], db, RESTRICTED)}
                scanned = {(path, id(value))
                           for path, value in _range_scan(block, pre)}
                assert scanned < fresh

    @given(st.integers(1, 5), st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_memo_slice_matches_the_walk(self, persons, seed):
        db, index = value_graph(persons, seed)
        store = SimpleNamespace(instance=db)
        (block,) = index.blocks.values()
        for pre in range(block.size):
            if block.complete[pre]:
                for name in sorted(block.attr_steps) + [None]:
                    _memo_matches_the_walk(store, block, pre, name)


class TestAttrCandidates:
    """The fused scan's candidate set is exact: the selections memo,
    filled with the calculus's own selection and sliced to a complete
    node's subtree, yields the same (holder, name, value) triples as
    running that selection over every node of a fresh walk."""

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
        store, _ = indexed_store(size, seed)
        # a private index: its memos are filled with this test's trial,
        # not the operators' (a memo is keyed by name only)
        index = StructuralIndex(store.instance)
        index.refresh()
        rng = random.Random(seed + 2)
        for block in index.blocks.values():
            names = sorted(block.attr_steps) + [None]
            sample = rng.sample(range(block.size),
                                min(block.size, 8))
            for pre in sample:
                if not block.complete[pre]:
                    continue
                for name in names:
                    tried = ([name] if name is not None
                             else sorted(block.attr_steps))

                    def trial(node, tried=tried):
                        return [(n, v) for n in tried
                                for v in self._select(store, node, n)]

                    live = {(id(node), n, id(v))
                            for _, node in paths_from(
                                block.values[pre], store.instance,
                                RESTRICTED)
                            for n, v in trial(node)}
                    holders, held, values = block.selections(name, trial)
                    lo = bisect_left(holders, pre)
                    hi = bisect_left(holders, block.end[pre])
                    fused = {(id(block.values[holder]), n, id(v))
                             for holder, n, v in zip(holders[lo:hi],
                                                     held[lo:hi],
                                                     values[lo:hi])}
                    # the slice must find every holder the walk finds
                    assert fused == live


def _operator_trial(store, name):
    """The trial a fused scan for ``name`` (``None``: an attribute
    variable) hands :meth:`Block.selections`."""
    op = StructuralAttrScanOp(
        SeedOp(), DataVar("x"), PathVar("P"), DataVar("h"), name,
        None if name is not None else AttVar("A"), DataVar("v"))
    return partial(op._select, ctx=EvalContext(store.instance))


def _memo_matches_the_walk(store, block, pre, name):
    trial = _operator_trial(store, name)
    live = Counter((path, id(node), selected, id(value))
                   for path, node in paths_from(
                       block.values[pre], store.instance, RESTRICTED)
                   for selected, value in trial(node))
    holders, names, values = block.selections(name, trial)
    assert holders == sorted(holders)
    lo = bisect_left(holders, pre)
    hi = bisect_left(holders, block.end[pre])
    depth = block.level[pre]
    memo = Counter((block.path(holder, depth), id(block.values[holder]),
                    selected, id(value))
                   for holder, selected, value
                   in zip(holders[lo:hi], names[lo:hi], values[lo:hi]))
    # one entry per selection, at the holder's path (an object reached
    # twice holds twice), and the same selections as the walk
    assert max(memo.values(), default=1) == 1
    assert memo == live


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
                (str(block.path(pre)), block.level[pre],
                 block.parent[pre], block.end[pre],
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
