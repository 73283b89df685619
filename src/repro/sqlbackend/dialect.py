"""The SQL-dialect seam of the relational backend.

Everything engine-specific — connecting, the accel DDL, per-root
deletion — lives behind :class:`Dialect`, so a server engine
(Postgres) can slot in without touching the shredder or the emitter.
:class:`SQLiteDialect` is the in-process default and the only one
shipped.

The accel schema is the relational image of the structural index
encoding (:mod:`repro.structindex`): one ``node`` row per pre rank of
a block with its (pre, level, parent) ranks and interval end (the
post rank is ``end_pre − 1 − level``),
plus the navigation closures the emitter joins through (the shredder
fills them while it projects a block — no dialect re-spells them):

* ``deref_base`` — the fixpoint of the implicit dereference
  (``_auto_deref``): the node selections and indexings actually apply
  to (``NULL`` below a suppressed dereference or past the evaluator's
  16-step chain cap).
* ``cont``  — the container node after the marked-union swap: the
  payload tuple when ``deref_base`` is a one-field (marked) tuple
  wrapping another tuple, else ``deref_base`` itself.
* ``sel``   — one row per ``(base, attribute) -> target`` pair of the
  calculus attribute selection (direct fields first, then the marked
  payload's unshadowed fields).

``content`` holds the string atoms (the LIKE-probe surface) and
``attr`` the attribute-step rows — both keyed by ``(root, pre)`` so
property tests can diff them against the structural index slices.
"""

from __future__ import annotations

import sqlite3
from typing import Any

SCHEMA = """
CREATE TABLE node (
    root       TEXT    NOT NULL,
    pre        INTEGER NOT NULL,
    level      INTEGER NOT NULL,
    parent     INTEGER NOT NULL,
    end_pre    INTEGER NOT NULL,
    kind       TEXT    NOT NULL,
    class      TEXT,
    step       TEXT    NOT NULL,
    name       TEXT,
    position   INTEGER,
    vkey       TEXT,
    deref_base INTEGER,
    cont       INTEGER,
    PRIMARY KEY (root, pre)
) WITHOUT ROWID;
CREATE INDEX node_children ON node (root, parent, step);
CREATE INDEX node_vkeys ON node (root, vkey);

CREATE TABLE sel (
    root   TEXT    NOT NULL,
    base   INTEGER NOT NULL,
    name   TEXT    NOT NULL,
    target INTEGER NOT NULL,
    PRIMARY KEY (root, base, name)
) WITHOUT ROWID;

CREATE TABLE content (
    root  TEXT    NOT NULL,
    pre   INTEGER NOT NULL,
    value TEXT    NOT NULL,
    PRIMARY KEY (root, pre)
) WITHOUT ROWID;

CREATE TABLE attr (
    root  TEXT    NOT NULL,
    pre   INTEGER NOT NULL,
    name  TEXT    NOT NULL,
    value TEXT,
    PRIMARY KEY (root, pre)
) WITHOUT ROWID;
"""

class Dialect:
    """Abstract SQL dialect: connection + DDL + spelling details."""

    name = "abstract"

    def connect(self) -> Any:
        raise NotImplementedError

    def create_schema(self, connection: Any) -> None:
        connection.executescript(SCHEMA)

    def delete_root(self, connection: Any, root: str) -> None:
        """Drop one root's rows from every accel table (its block was
        rebuilt or dropped; the other roots stay as they are)."""
        for table in ("node", "sel", "content", "attr"):
            connection.execute(
                f"DELETE FROM {table} WHERE root = ?", (root,))

    def errors(self) -> tuple[type, ...]:
        """Exception classes the underlying driver raises."""
        return ()


class SQLiteDialect(Dialect):
    """In-process SQLite (stdlib :mod:`sqlite3`), the default target.

    The connection is shared across the engine's threads
    (``check_same_thread=False``); the shred serializes statement
    execution behind its own lock, matching the structural index's
    copy-on-write discipline.
    """

    name = "sqlite"

    def connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(":memory:",
                                     check_same_thread=False)
        connection.execute("PRAGMA synchronous = OFF")
        return connection

    def errors(self) -> tuple[type, ...]:
        return (sqlite3.Error,)
