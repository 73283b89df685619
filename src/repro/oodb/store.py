"""A small object store backing :class:`~repro.oodb.instance.Instance`.

The paper's documents live inside the O₂ OODBMS; our substitute is an
in-process store that provides the pieces the experiments rely on:

* **snapshots** — serialize a whole instance to a single file and load it
  back (used to measure the Section-3 storage overhead and to persist the
  corpus between benchmark runs);
* **statistics** — object counts and encoded sizes per class.

The snapshot format is::

    REPRO-STORE\\n
    <varint root-count> (name, value)*
    <varint class-count> (class name, varint member-count,
                          (varint oid-number, value)*)*

Schema is *not* serialized — snapshots are reloaded against a schema the
caller supplies, and membership is re-checked on load.
"""

from __future__ import annotations

import os

from repro.errors import StoreError
from repro.oodb.instance import Instance
from repro.oodb.schema import Schema
from repro.oodb.serialize import (
    _Reader,
    _decode,
    _encode_into,
    _write_string,
    _write_varint,
)
from repro.oodb.values import Oid

_MAGIC = b"REPRO-STORE\n"


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` crash-consistently: write a
    sibling temp file, flush and ``fsync`` it, then rename it over the
    destination.  A reader (or a crash at any point) sees the old file
    or the new one, never a torn mix."""
    temp = f"{os.fspath(path)}.tmp"
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


class ObjectStore:
    """Wraps an :class:`Instance` with persistence and size statistics."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance

    def update_object(self, oid: Oid, value: object) -> None:
        """Rebind an object's value."""
        self.instance.set_value(oid, value)

    # -- statistics -----------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-class ``{'objects': n, 'bytes': encoded size}``."""
        from repro.oodb.serialize import encoded_size
        report: dict[str, dict[str, int]] = {}
        for class_name in self.instance.schema.class_names:
            members = self.instance.disjoint_extent(class_name)
            if not members:
                continue
            total = sum(
                encoded_size(self.instance.deref(oid)) for oid in members)
            report[class_name] = {"objects": len(members), "bytes": total}
        return report

    def total_bytes(self) -> int:
        """Encoded size of every object value plus every root value."""
        from repro.oodb.serialize import encoded_size
        total = sum(
            encoded_size(self.instance.deref(oid))
            for oid in self.instance.all_oids())
        total += sum(
            encoded_size(self.instance.root(name))
            for name in self.instance.root_names)
        return total

    # -- snapshots ------------------------------------------------------------

    def snapshot_bytes(self) -> bytes:
        """Serialize roots and all objects to a bytes snapshot."""
        out = bytearray(_MAGIC)
        roots = self.instance.root_names
        _write_varint(out, len(roots))
        for name in roots:
            _write_string(out, name)
            _encode_into(out, self.instance.root(name))
        class_blocks = [
            (class_name, self.instance.disjoint_extent(class_name))
            for class_name in self.instance.schema.class_names
            if self.instance.disjoint_extent(class_name)]
        _write_varint(out, len(class_blocks))
        for class_name, members in class_blocks:
            _write_string(out, class_name)
            _write_varint(out, len(members))
            for oid in members:
                _write_varint(out, oid.number)
                _encode_into(out, self.instance.deref(oid))
        return bytes(out)

    def save(self, path: str | os.PathLike) -> int:
        """Write a snapshot file (crash-consistently, see
        :func:`atomic_write`); returns the byte count."""
        data = self.snapshot_bytes()
        atomic_write(path, data)
        return len(data)

    @classmethod
    def load_bytes(cls, schema: Schema, data: bytes,
                   on_missing_root=None) -> "ObjectStore":
        """Rebuild a store from :meth:`snapshot_bytes` output.

        ``on_missing_root(name, value, instance)`` is called for roots
        present in the snapshot but not declared in ``schema`` (e.g. O₂
        *names* registered at runtime); it must declare the root or
        raise.  ``instance`` is the fully decoded instance, so the
        callback can resolve oids while inferring the root's type.
        """
        if not data.startswith(_MAGIC):
            raise StoreError("not a repro store snapshot")
        reader = _Reader(data)
        reader.pos = len(_MAGIC)
        instance = Instance(schema)
        root_count = reader.varint()
        pending_roots = []
        for _ in range(root_count):
            name = reader.string()
            pending_roots.append((name, _decode(reader)))
        class_count = reader.varint()
        max_number = 0
        for _ in range(class_count):
            class_name = reader.string()
            member_count = reader.varint()
            for _ in range(member_count):
                number = reader.varint()
                value = _decode(reader)
                oid = Oid(number, class_name)
                instance._extent[class_name].append(oid)
                instance._values[number] = value
                max_number = max(max_number, number)
        instance._next_oid = max_number + 1
        for name, value in pending_roots:
            if not schema.has_root(name) and on_missing_root is not None:
                on_missing_root(name, value, instance)
            instance.set_root(name, value)
        instance.check()
        return cls(instance)

    @classmethod
    def load(cls, schema: Schema, path: str | os.PathLike,
             on_missing_root=None) -> "ObjectStore":
        with open(path, "rb") as handle:
            return cls.load_bytes(schema, handle.read(), on_missing_root)

