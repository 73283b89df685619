"""Tests for the binary codec and the object store."""

import pytest

from repro.errors import StoreError
from repro.oodb import (
    Instance,
    ListValue,
    NIL,
    ObjectStore,
    Oid,
    STRING,
    SetValue,
    TupleValue,
    c,
    decode_value,
    encode_value,
    encoded_size,
    list_of,
    schema_from_classes,
    tuple_of,
)
from repro.oodb.store import atomic_write
from repro.oodb.types import INTEGER


ROUND_TRIP_VALUES = [
    NIL,
    0,
    -1,
    42,
    2 ** 40,
    -(2 ** 40),
    True,
    False,
    0.0,
    -2.5,
    3.14159,
    "",
    "hello",
    "accented: é à ü — SGML",
    Oid(7, "Article"),
    TupleValue([]),
    TupleValue([("a", 1), ("b", "x")]),
    ListValue([]),
    ListValue([1, "two", NIL]),
    SetValue([]),
    SetValue([1, 2, 3]),
    TupleValue([("nested", ListValue([SetValue([TupleValue([("x", 1)])])]))]),
]


class TestCodec:
    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES,
                             ids=[repr(v)[:40] for v in ROUND_TRIP_VALUES])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert not isinstance(decode_value(encode_value(1)), bool)

    def test_trailing_garbage_rejected(self):
        data = encode_value(5) + b"\x00"
        with pytest.raises(StoreError):
            decode_value(data)

    def test_truncated_rejected(self):
        data = encode_value("hello")
        with pytest.raises(StoreError):
            decode_value(data[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(StoreError):
            decode_value(b"\xff")

    def test_unserializable_rejected(self):
        with pytest.raises(StoreError):
            encode_value(object())

    def test_encoded_size_positive(self):
        assert encoded_size(NIL) == 1
        assert encoded_size("abc") > 3

    def test_tuple_order_preserved(self):
        value = TupleValue([("b", 1), ("a", 2)])
        assert decode_value(encode_value(value)).attribute_names == ("b", "a")


@pytest.fixture
def schema():
    return schema_from_classes(
        {"Title": STRING,
         "Article": tuple_of(("title", c("Title")), ("year", INTEGER))},
        roots={"Articles": list_of(c("Article"))})


@pytest.fixture
def store(schema):
    db = Instance(schema)
    titles = [db.new_object("Title", f"title-{i}") for i in range(5)]
    articles = [
        db.new_object("Article", TupleValue([
            ("title", titles[i]), ("year", 1990 + i)]))
        for i in range(5)]
    db.set_root("Articles", ListValue(articles))
    return ObjectStore(db)


class TestSnapshots:
    def test_snapshot_round_trip(self, schema, store):
        data = store.snapshot_bytes()
        restored = ObjectStore.load_bytes(schema, data)
        db = restored.instance
        assert db.object_count() == 10
        assert len(db.root("Articles")) == 5
        first = db.root("Articles")[0]
        value = db.deref(first)
        assert value.get("year") == 1990
        assert db.deref(value.get("title")) == "title-0"

    def test_snapshot_preserves_oid_numbers(self, schema, store):
        restored = ObjectStore.load_bytes(schema, store.snapshot_bytes())
        original_numbers = sorted(
            o.number for o in store.instance.all_oids())
        restored_numbers = sorted(
            o.number for o in restored.instance.all_oids())
        assert original_numbers == restored_numbers

    def test_new_objects_after_load_are_fresh(self, schema, store):
        restored = ObjectStore.load_bytes(schema, store.snapshot_bytes())
        existing = {o.number for o in restored.instance.all_oids()}
        fresh = restored.instance.new_object("Title", "new")
        assert fresh.number not in existing

    def test_bad_magic_rejected(self, schema):
        with pytest.raises(StoreError):
            ObjectStore.load_bytes(schema, b"NOT A SNAPSHOT")

    def test_save_and_load_file(self, schema, store, tmp_path):
        path = tmp_path / "db.snapshot"
        written = store.save(path)
        assert path.stat().st_size == written
        restored = ObjectStore.load(schema, path)
        assert restored.instance.object_count() == 10


class TestAtomicWrite:
    def test_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "file.bin"
        atomic_write(path, b"old")
        atomic_write(path, b"new contents")
        assert path.read_bytes() == b"new contents"
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_data_is_synced_before_the_rename(self, tmp_path,
                                              monkeypatch):
        import os
        events = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            events.append("fsync"), fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            events.append("replace"), replace(src, dst))[1])
        atomic_write(tmp_path / "file.bin", b"payload")
        assert events == ["fsync", "replace"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path,
                                              monkeypatch):
        import os
        path = tmp_path / "file.bin"
        atomic_write(path, b"old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_store_save_overwrites_through_it(self, schema, store,
                                              tmp_path):
        path = tmp_path / "db.snapshot"
        path.write_bytes(b"garbage from an earlier run")
        store.save(path)
        assert ObjectStore.load(schema, path).instance.object_count() == 10


class TestUpdate:
    def test_update_object_rebinds_the_value(self, store):
        oid = store.instance.root("Articles")[1]
        new_value = store.instance.deref(oid).replace("year", 2001)
        store.update_object(oid, new_value)
        assert store.instance.deref(oid).get("year") == 2001


class TestStats:
    def test_stats_report(self, store):
        report = store.stats()
        assert report["Title"]["objects"] == 5
        assert report["Article"]["objects"] == 5
        assert report["Title"]["bytes"] > 0

    def test_total_bytes_positive(self, store):
        assert store.total_bytes() > 0
