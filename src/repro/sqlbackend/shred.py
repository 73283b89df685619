"""Project structural-index blocks into the relational accel tables.

There is one pre/post encoding in the process — the
:class:`~repro.structindex.Block` arrays a
:class:`~repro.structindex.StructuralIndex` folds from the instance and
keeps fresh — and a :class:`Shred` is its relational image, nothing
more: it never walks the instance.  Per published block,

* every pre rank becomes one ``node`` row carrying the block's post
  rank, level, parent and subtree end (``end_pre``); ``kind``, ``step``,
  ``name`` and ``position`` are read off ``values[pre]``, the last step
  of ``paths[pre]`` and the parent array;
* ``deref_base`` (the fixpoint of the implicit dereference) and
  ``cont`` (the container after the marked-union swap) are filled in
  the same pass: pre ranks are visited in reverse, so an oid's
  ``deref`` child is resolved before the oid itself;
* ``sel``/``content``/``attr`` rows follow from the same arrays.

A root is **navigable** when its block is neither truncated (the
index's node budget) nor holds an incomplete node (a suppressed
dereference), and no implicit dereference chain overflows the
evaluator's 16-step cap; :attr:`Shred.refused` names the others and
the backend refuses them (and falls back) instead of approximating.

Freshness is the index's protocol, not a second one:
:meth:`Shred.refresh` refreshes the index and re-inserts exactly the
roots whose published block *object* changed — blocks are immutable
once published, so identity is the staleness test, and a targeted
block rebuild after ``update_text`` re-shreds the touched roots, not
the corpus.

Result rows hydrate from the projected blocks' own
``values``/``paths`` arrays: they hold the *actual* objects of the
instance, so hydrated rows are indistinguishable from interpreter
bindings.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.oodb.values import (
    ATOM_PYTYPES,
    ListValue,
    Nil,
    Oid,
    SetValue,
    TupleValue,
)
from repro.paths.steps import AttrStep, DerefStep, ElemStep, IndexStep, Path
from repro.sqlbackend.dialect import Dialect, SQLiteDialect
from repro.structindex import Block, StructuralIndex

#: The evaluator raises after this many implicit dereferences; roots
#: whose chains exceed it are refused.
DEREF_CAP = 16


def value_key(value: object) -> str | None:
    """The equality key stored in ``node.vkey``.

    Two *atomic* values (or oids, or nil) are :func:`equivalent` iff
    Python ``==`` holds, and ``==`` across int/bool/float follows the
    numeric tower — so numbers canonicalize to one key.  Collections
    get ``None``: SQL never decides their equality, the emitter
    enumerates and rechecks exactly.
    """
    if isinstance(value, Oid):
        return f"o:{value.number}:{value.class_name}"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        if value != value:          # NaN: equal to nothing, not even
            return None             # itself — never joinable by key
        if value in (float("inf"), float("-inf")):
            return f"n:{value!r}"
        if value.is_integer():
            return f"n:{int(value)}"
        return f"n:{value!r}"
    if isinstance(value, int):
        return f"n:{value}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, Nil):
        return "nil"
    return None


def _kind_of(value: object) -> str:
    if isinstance(value, Oid):
        return "oid"
    if isinstance(value, TupleValue):
        return "tuple"
    if isinstance(value, ListValue):
        return "list"
    if isinstance(value, SetValue):
        return "set"
    if isinstance(value, Nil):
        return "nil"
    return "atom"


class Shred:
    """The relational image of a :class:`StructuralIndex`'s blocks.

    The index owns the walk, the node budget (``max_block_nodes``) and
    freshness.  An index without an ``epoch_source`` cannot tell when
    the instance moved, so every :meth:`refresh` rebuilds it — correct,
    just slow, for cacheless engines.
    """

    def __init__(self, index: StructuralIndex,
                 dialect: Dialect | None = None,
                 metrics: Any = None) -> None:
        self.index = index
        self.dialect = dialect if dialect is not None else SQLiteDialect()
        self.metrics = metrics
        #: root name -> the published block its rows were projected
        #: from (and result rows hydrate from).
        self.roots: dict[str, Block] = {}
        #: root name -> why the backend must refuse to navigate it.
        self.refused: dict[str, str] = {}
        self._lock = threading.RLock()
        self._connection: Any = None

    # -- freshness ------------------------------------------------------------

    def refresh(self) -> int:
        """Bring the tables up to date; returns roots (re)inserted.
        Cheap when clean: the index's own clean check plus one identity
        comparison per root, without taking the shred lock."""
        index = self.index
        if index.epoch_source is None:
            index.note_data_change()
        index.refresh()
        # Block defines no __eq__: equal dicts hold the same objects
        if index.blocks == self.roots:
            return 0
        with self._lock:
            published = index.blocks
            projected = self.roots
            changed = [name for name, block in published.items()
                       if projected.get(name) is not block]
            stale = [name for name, block in projected.items()
                     if published.get(name) is not block]
            if not changed and not stale:
                return 0
            connection = self.connection()
            refused = {name: why for name, why in self.refused.items()
                       if name not in stale}
            try:
                for name in stale:
                    self.dialect.delete_root(connection, name)
                for name in changed:
                    why = self._project(connection, name,
                                        published[name])
                    if why is not None:
                        refused[name] = why
            except BaseException:
                # keep the tables the image of ``self.roots``: a
                # half-applied per-root swap would not heal by itself
                connection.rollback()
                raise
            connection.commit()
            self.refused = refused
            self.roots = published
            if self.metrics is not None:
                self.metrics.inc("sql.shreds")
                self.metrics.inc("sql.shred_nodes",
                                 sum(published[name].size
                                     for name in changed))
            return len(changed)

    def connection(self) -> Any:
        if self._connection is None:
            with self._lock:
                if self._connection is None:
                    connection = self.dialect.connect()
                    self.dialect.create_schema(connection)
                    self._connection = connection
        return self._connection

    def execute(self, sql: str, params: dict | tuple = ()
                ) -> tuple[list[str], list[tuple], dict[str, Block]]:
        """Run one statement; returns (column names, all rows, the
        blocks the rows were projected from).

        Fetching eagerly under the lock keeps one connection safe
        across server threads; hydration happens outside, from the
        returned blocks — a :meth:`refresh` that swaps :attr:`roots`
        after the lock is released cannot pair these rows with the
        next epoch's blocks."""
        with self._lock:
            cursor = self.connection().execute(sql, params)
            names = [entry[0] for entry in cursor.description or ()]
            return names, cursor.fetchall(), self.roots

    # -- the projection -------------------------------------------------------

    def _project(self, connection: Any, name: str,
                 block: Block) -> str | None:
        """Insert one block's rows; returns why the root is not
        navigable (``None`` when it is)."""
        if block.truncated:
            return "node budget exceeded"
        values = block.values
        posts = block.post
        levels = block.level
        parents = block.parent
        ends = block.end
        size = block.size
        kinds = [_kind_of(value) for value in values]
        steps = [_step_of(path) for path in block.paths]
        positions = [0] * size
        child_counts = [0] * size
        for pre in range(1, size):
            parent = parents[pre]
            positions[pre] = child_counts[parent]
            child_counts[parent] += 1
        # the implicit-dereference closure: an oid's only child is its
        # deref target at pre + 1, already resolved when walking down
        bases: list[int | None] = list(range(size))
        hops = [0] * size
        over_cap = False
        for pre in range(size - 1, -1, -1):
            if kinds[pre] != "oid":
                continue
            if ends[pre] > pre + 1:
                hops[pre] = hops[pre + 1] + 1
                bases[pre] = bases[pre + 1]
            else:           # suppressed dereference: nothing to apply to
                bases[pre] = None
            if hops[pre] > DEREF_CAP:
                over_cap = True
                bases[pre] = None
        node_rows = []
        sel_rows = []
        content_rows = []
        attr_rows = []
        for pre, value in enumerate(values):
            kind = kinds[pre]
            step, step_name = steps[pre]
            base = bases[pre]
            cont = base
            if (base is not None and kinds[base] == "tuple"
                    and ends[base] > base + 1
                    and ends[base + 1] == ends[base]
                    and kinds[base + 1] == "tuple"):
                # marked union (a one-field tuple wrapping a tuple):
                # positional access applies to the payload
                cont = base + 1
            node_rows.append((
                name, pre, posts[pre], levels[pre],
                parents[pre], ends[pre], kind,
                value.class_name if isinstance(value, Oid) else None,
                step, step_name, positions[pre], value_key(value),
                base, cont,
            ))
            if kind == "atom" and isinstance(value, str):
                content_rows.append((name, pre, value))
            if step == "attr":
                rendered = (str(value)
                            if isinstance(value, ATOM_PYTYPES)
                            else None)
                attr_rows.append((name, pre, step_name, rendered))
            if kind == "tuple":
                children = _children(pre, ends)
                for child in children:
                    sel_rows.append((name, pre, steps[child][1], child))
                if len(children) == 1:
                    payload = children[0]
                    marker = steps[payload][1]
                    if kinds[payload] == "tuple":
                        for grand in _children(payload, ends):
                            if steps[grand][1] != marker:
                                sel_rows.append(
                                    (name, pre, steps[grand][1], grand))
        connection.executemany(
            "INSERT INTO node (root, pre, post, level, parent, "
            "end_pre, kind, class, step, name, position, vkey, "
            "deref_base, cont) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            node_rows)
        connection.executemany(
            "INSERT INTO sel (root, base, name, target) "
            "VALUES (?, ?, ?, ?)", sel_rows)
        connection.executemany(
            "INSERT INTO content (root, pre, value) VALUES (?, ?, ?)",
            content_rows)
        connection.executemany(
            "INSERT INTO attr (root, pre, name, value) "
            "VALUES (?, ?, ?, ?)", attr_rows)
        if not all(block.complete):
            return "suppressed dereference (incomplete subtree)"
        if over_cap:
            return f"dereference chain over the {DEREF_CAP}-step cap"
        return None

    # -- lookups --------------------------------------------------------------

    def max_root_size(self, names: Iterable[str] | None = None) -> int:
        roots = self.roots
        pool = (roots.values() if names is None
                else [roots[n] for n in names if n in roots])
        return max((block.size for block in pool), default=0)


def _step_of(path: Path) -> tuple[str, str | None]:
    if not path.steps:
        return "root", None
    last = path.steps[-1]
    if isinstance(last, AttrStep):
        return "attr", last.name
    if isinstance(last, IndexStep):
        return "index", None
    if isinstance(last, ElemStep):
        return "elem", None
    if isinstance(last, DerefStep):
        return "deref", None
    raise AssertionError(f"unknown step {last!r}")  # pragma: no cover


def _children(pre: int, ends: list[int]) -> list[int]:
    """Direct children of ``pre`` in pre order (sibling hop via end)."""
    out = []
    child = pre + 1
    while child < ends[pre]:
        out.append(child)
        child = ends[child]
    return out
