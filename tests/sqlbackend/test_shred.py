"""Unit tests for the shredder (`repro.sqlbackend.shred`)."""

import math

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.oodb.values import Nil, Oid
from repro.sqlbackend.shred import Shred, value_key
from repro.structindex import StructuralIndex


def build_store():
    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


def shred_of(store, **index_options):
    return Shred(StructuralIndex(store.instance,
                                 epoch_source=store.plan_cache,
                                 **index_options))


class TestValueKey:
    def test_oid_key_includes_the_class(self):
        assert value_key(Oid(7, "Section")) == "o:7:Section"
        assert value_key(Oid(7, "Article")) != value_key(
            Oid(7, "Section"))
        assert value_key(Oid(7, "Section")) != value_key(
            Oid(8, "Section"))

    def test_numeric_tower_canonicalizes(self):
        # equivalent() follows Python ==, so 1, 1.0 and True must
        # share one key or SQL joins would miss pairs == finds
        assert value_key(1) == value_key(1.0) == value_key(True)
        assert value_key(0) == value_key(False)
        assert value_key(1.5) == value_key(1.5)
        assert value_key(1) != value_key(2)

    def test_nan_is_never_joinable(self):
        assert value_key(float("nan")) is None

    def test_infinities_keep_their_sign(self):
        assert value_key(float("inf")) != value_key(float("-inf"))

    def test_strings_ints_do_not_collide(self):
        assert value_key("1") != value_key(1)
        assert value_key(Nil()) == "nil"

    def test_collections_get_no_key(self):
        from repro.oodb.values import ListValue, SetValue, TupleValue
        assert value_key(ListValue(["a"])) is None
        assert value_key(SetValue(["a"])) is None
        assert value_key(TupleValue([("t", "x")])) is None


class TestShredBuild:
    def test_content_rows_are_exactly_the_string_atoms(self):
        store = build_store()
        shred = shred_of(store)
        shred.refresh()
        for name, root in shred.roots.items():
            _, rows, _ = shred.execute(
                "SELECT pre, value FROM content WHERE root = ? "
                "ORDER BY pre", (name,))
            expected = [(pre, value)
                        for pre, value in enumerate(root.values)
                        if isinstance(value, str)]
            assert rows == expected

    def test_node_count_matches_hydration_arrays(self):
        store = build_store()
        shred = shred_of(store)
        shred.refresh()
        for name, root in shred.roots.items():
            _, rows, _ = shred.execute(
                "SELECT COUNT(*) FROM node WHERE root = ?", (name,))
            assert rows[0][0] == root.size == len(root.values) \
                == len(root.steps)

    def test_refresh_is_epoch_gated(self):
        store = build_store()
        shred = shred_of(store)
        assert shred.refresh() > 0
        # clean: a second refresh is a no-op
        assert shred.refresh() == 0
        # any store mutation bumps the cache epoch -> stale again
        store.load_text(SAMPLE_ARTICLE, name="another")
        assert shred.refresh() > 0
        assert "another" in shred.roots

    def test_no_epoch_source_means_always_stale(self):
        store = build_store()
        shred = Shred(StructuralIndex(store.instance))
        first = shred.refresh()
        assert first > 0
        # correct-but-slow mode: every refresh rebuilds
        assert shred.refresh() == first

    def test_node_budget_yields_unusable_stub(self):
        store = build_store()
        shred = shred_of(store, max_block_nodes=3)
        shred.refresh()
        assert shred.roots["my_article"].truncated
        assert "budget" in shred.refused["my_article"]
        assert shred.max_root_size() == 0
        _, rows, _ = shred.execute("SELECT COUNT(*) FROM node", ())
        assert rows == [(0,)]
