"""Tests for the value model (Section 5.1)."""

import copy
import gc
import pickle
import sys
import threading
import time

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import ValueError_
from repro.oodb import (
    ListValue,
    NIL,
    Nil,
    Oid,
    SetValue,
    TupleValue,
    UnionValue,
    equivalent,
    is_value,
)
from repro.oodb import values
from repro.oodb.values import _INTERNED, UNSELECTED, deep_size


class TestNil:
    def test_singleton(self):
        assert Nil() is NIL

    def test_falsy(self):
        assert not NIL

    def test_equality(self):
        assert NIL == Nil()
        assert NIL != 0
        assert NIL != ""


class TestOid:
    def test_identity(self):
        assert Oid(1, "A") == Oid(1, "A")
        assert Oid(1, "A") != Oid(2, "A")

    def test_hashable(self):
        assert len({Oid(1, "A"), Oid(1, "A"), Oid(2, "A")}) == 2

    def test_repr(self):
        assert repr(Oid(7, "Article")) == "o7:Article"

    def test_hash_is_the_identity(self):
        # an oid is its own identity: hashing and comparison are
        # object's, in C, and equal pairs are one object
        for number in (0, 1, 7, 2**40):
            for class_name in ("A", "Article"):
                oid = Oid(number, class_name)
                assert Oid(number, class_name) is oid
                assert hash(oid) == object.__hash__(oid)
        assert "__eq__" not in vars(Oid) and "__hash__" not in vars(Oid)
        assert Oid(1, "A") is not Oid(1, "B")

    def test_copies_rehash(self):
        oid = Oid(12, "Title")
        for made in (copy.copy(oid), copy.deepcopy(oid),
                     pickle.loads(pickle.dumps(oid))):
            assert made == oid and hash(made) == hash(oid)
            assert made.class_name == "Title"

    def test_copies_are_the_oid(self):
        oid = Oid(13, "Title")
        assert copy.copy(oid) is oid
        assert copy.deepcopy(oid) is oid
        assert copy.deepcopy([oid, oid])[1] is oid
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(oid, protocol)) is oid

    def test_concurrent_constructors_get_one_object(self, monkeypatch):
        threads, pairs = 8, 50
        barrier = threading.Barrier(threads)
        made: list = [[] for _ in range(threads)]
        entry = values._Entry

        def slow_entry(oid, callback):
            # widen the window between a miss and the table's fill
            time.sleep(0.0005)
            return entry(oid, callback)

        def construct(slot):
            # every thread constructs each pair, all released at once
            for number in range(pairs):
                barrier.wait(timeout=60)
                made[slot].append(Oid(2**50 + number, "Raced"))

        monkeypatch.setattr(values, "_Entry", slow_entry)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=construct, args=(slot,))
                       for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for number in range(pairs):
            assert len({id(oids[number]) for oids in made}) == 1

    def test_dead_oids_leave_the_table(self):
        key = (2**50 + 23, "Dropped")
        oid = Oid(*key)
        assert _INTERNED[key]() is oid
        del oid
        gc.collect()
        assert key not in _INTERNED
        # constructed again: a new entry, which the old one's callback
        # does not remove
        again = Oid(*key)
        assert _INTERNED[key]() is again

    def test_equality_and_hash_survive_save_and_load(self, tmp_path):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        before = list(store.instance.all_oids())
        store.save(tmp_path / "snapshot")
        loaded = DocumentStore.load(tmp_path / "snapshot")
        after = list(loaded.instance.all_oids())
        assert sorted(before, key=hash) == sorted(after, key=hash)
        assert [hash(oid) for oid in before] == [hash(oid)
                                                 for oid in after]
        assert set(before) == set(after)

    def test_reloaded_store_holds_one_oid_object_per_object(
            self, tmp_path):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.save(tmp_path / "snapshot")
        del store
        gc.collect()
        loaded = DocumentStore.load(tmp_path / "snapshot")
        instance = loaded.instance
        found: dict[tuple[int, str], set[int]] = {}

        def collect(value):
            if isinstance(value, Oid):
                found.setdefault((value.number, value.class_name),
                                 set()).add(id(value))
            elif isinstance(value, TupleValue):
                for _, field in value.fields:
                    collect(field)
            elif isinstance(value, (ListValue, SetValue)):
                for item in value:
                    collect(item)

        for oid in instance.all_oids():
            collect(oid)
            collect(instance.deref(oid))
        for name in instance.schema.roots:
            collect(instance.root(name))
        # every reference the snapshot decoded is the object's one oid
        assert len(found) == len(list(instance.all_oids()))
        assert all(len(ids) == 1 for ids in found.values())


class TestTupleValue:
    def test_order_sensitive_equality(self):
        # Section 5.1: for any non-identity permutation the tuples differ.
        ab = TupleValue([("a", 1), ("b", 2)])
        ba = TupleValue([("b", 2), ("a", 1)])
        assert ab != ba

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError_):
            TupleValue([("a", 1), ("a", 2)])

    def test_get_and_has(self):
        t = TupleValue([("title", "SGML"), ("year", 1994)])
        assert t.get("title") == "SGML"
        assert t.has_attribute("year")
        with pytest.raises(KeyError):
            t.get("missing")

    def test_replace_is_functional(self):
        t = TupleValue([("a", 1), ("b", 2)])
        t2 = t.replace("a", 10)
        assert t.get("a") == 1
        assert t2.get("a") == 10
        assert t2.get("b") == 2
        with pytest.raises(KeyError):
            t.replace("zzz", 0)

    def test_as_heterogeneous_list(self):
        t = TupleValue([("a", 1), ("b", 2)])
        het = t.as_heterogeneous_list()
        assert isinstance(het, ListValue)
        assert het[0] == TupleValue([("a", 1)])
        assert het[1] == TupleValue([("b", 2)])

    def test_marked_accessors(self):
        u = UnionValue("figure", Oid(3, "Figure"))
        assert u.is_marked
        assert u.marker == "figure"
        assert u.marked_value == Oid(3, "Figure")

    def test_marked_accessors_reject_wide_tuples(self):
        t = TupleValue([("a", 1), ("b", 2)])
        assert not t.is_marked
        with pytest.raises(ValueError_):
            _ = t.marker
        with pytest.raises(ValueError_):
            _ = t.marked_value

    def test_select_own_attribute(self):
        t = TupleValue([("title", "SGML"), ("year", 1994)])
        assert t.select("year") == 1994
        assert t.select("missing") is UNSELECTED
        assert t.select("missing", NIL) is NIL

    def test_select_through_the_union_selector(self):
        marked = UnionValue("a1", TupleValue([("title", "inside")]))
        assert marked.select("title") == "inside"
        assert marked.select("a1") == TupleValue([("title", "inside")])
        assert marked.selectable_names() == ["a1", "title"]

    def test_select_prefers_the_outer_attribute(self):
        marked = UnionValue("title", TupleValue([("title", "inner")]))
        assert marked.select("title") == TupleValue([("title", "inner")])
        assert marked.selectable_names() == ["title"]

    def test_select_never_looks_into_other_payloads(self):
        assert UnionValue("a1", "text").select("title", 0) == 0
        wide = TupleValue([("a", TupleValue([("title", "x")])),
                           ("b", 2)])
        assert wide.select("title", 0) == 0
        assert wide.selectable_names() == ["a", "b"]

    def test_position_of(self):
        t = TupleValue([("to", "x"), ("from", "y")])
        assert t.position_of("to") == 0
        assert t.position_of("from") == 1


class TestListValue:
    def test_indexing_and_slicing(self):
        lst = ListValue([10, 20, 30])
        assert lst[0] == 10
        assert lst[-1] == 30
        assert lst[0:2] == ListValue([10, 20])

    def test_concatenation(self):
        assert ListValue([1]) + ListValue([2]) == ListValue([1, 2])

    def test_equality_is_ordered(self):
        assert ListValue([1, 2]) != ListValue([2, 1])

    def test_empty(self):
        assert len(ListValue()) == 0


class TestSetValue:
    def test_deduplication(self):
        s = SetValue([1, 2, 2, 3, 1])
        assert len(s) == 3

    def test_order_insensitive_equality(self):
        assert SetValue([1, 2]) == SetValue([2, 1])
        assert hash(SetValue([1, 2])) == hash(SetValue([2, 1]))

    def test_set_algebra(self):
        a = SetValue([1, 2, 3])
        b = SetValue([2, 3, 4])
        assert a.union(b) == SetValue([1, 2, 3, 4])
        assert a.intersection(b) == SetValue([2, 3])
        assert a.difference(b) == SetValue([1])
        assert SetValue([2]).issubset(a)
        assert not a.issubset(b)

    def test_deterministic_iteration(self):
        s = SetValue([3, 1, 2])
        assert list(s) == [3, 1, 2]  # insertion order preserved

    def test_membership_is_hashed(self):
        """``difference`` of two 1 000-member sets compares O(n)
        members, not O(n²): membership reads the hashed view."""
        CountingMember.comparisons = 0
        left = SetValue(CountingMember(n) for n in range(1000))
        right = SetValue(CountingMember(n) for n in range(500, 1500))
        made = CountingMember.comparisons
        assert len(left.difference(right)) == 500
        assert len(left.intersection(right)) == 500
        assert not left.issubset(right)
        assert CountingMember.comparisons - made < 5 * 1000

    def test_membership_without_a_view_scans(self):
        members = [[1], [2]]  # raw host values: no hashed view
        held = SetValue(members)
        assert [2] in held and [3] not in held
        assert 1 not in held
        assert {"unhashable": 1} not in SetValue([1, 2])
        assert SetValue([1, 2]).difference(SetValue([2.0])) == \
            SetValue([1])


class CountingMember:
    """A member whose equality tests are counted."""

    comparisons = 0

    def __init__(self, number: int) -> None:
        self.number = number

    def __hash__(self) -> int:
        return hash(self.number)

    def __eq__(self, other: object) -> bool:
        CountingMember.comparisons += 1
        return (isinstance(other, CountingMember)
                and other.number == self.number)


class TestIsValue:
    def test_accepts_model_values(self):
        candidates = [
            NIL, Oid(1, "A"), 5, "x", True, 2.5,
            TupleValue([("a", ListValue([SetValue([1])]))]),
        ]
        for candidate in candidates:
            assert is_value(candidate)

    def test_rejects_foreign_objects(self):
        assert not is_value(object())
        assert not is_value([1, 2])  # raw Python list is not a model value
        assert not is_value(TupleValue([("a", object())]))


class TestEquivalence:
    """The ≡ relation: tuple vs heterogeneous list (Section 5.1)."""

    def test_tuple_equiv_marked_list(self):
        tup = TupleValue([("a", 5), ("b", 6)])
        het = ListValue([TupleValue([("a", 5)]), TupleValue([("b", 6)])])
        assert equivalent(tup, het)
        assert equivalent(het, tup)

    def test_not_equiv_when_marker_differs(self):
        tup = TupleValue([("a", 5)])
        het = ListValue([TupleValue([("b", 5)])])
        assert not equivalent(tup, het)

    def test_not_equiv_when_length_differs(self):
        tup = TupleValue([("a", 5), ("b", 6)])
        het = ListValue([TupleValue([("a", 5)])])
        assert not equivalent(tup, het)

    def test_recursive_equivalence(self):
        inner_tup = TupleValue([("x", 1)])
        inner_het = ListValue([TupleValue([("x", 1)])])
        left = ListValue([inner_tup])
        right = ListValue([inner_het])
        assert equivalent(left, right)

    def test_plain_equality_implies_equivalence(self):
        assert equivalent(5, 5)
        assert equivalent("a", "a")
        assert not equivalent(5, 6)

    def test_set_equivalence_is_symmetric(self):
        # ``[] ≡ list()``: every element on the left has a match on
        # the right, yet ``list(nil)`` has none on the left
        left = SetValue([NIL, TupleValue([]), ListValue([])])
        right = SetValue([NIL, TupleValue([]), ListValue([NIL])])
        assert len(left) == len(right) == 3
        assert not equivalent(left, right)
        assert not equivalent(right, left)

    def test_set_equivalence(self):
        left = SetValue([TupleValue([("a", 1)])])
        right = SetValue([ListValue([TupleValue([("a", 1)])])])
        assert equivalent(left, right)


class TestDeepSize:
    def test_atom_is_one(self):
        assert deep_size(5) == 1
        assert deep_size(NIL) == 1

    def test_nested(self):
        value = TupleValue([("a", ListValue([1, 2]))])
        # tuple + list + 2 atoms
        assert deep_size(value) == 4
