"""The pre/post-order structural index (the "XPath accelerator" layer).

Every value node reachable from a persistence root is assigned a
``(pre, post, level, parent)`` tuple, kept in arrays sorted by ``pre``
— one *block* per root.  Because the arrays are folded from the exact
event stream of :func:`repro.paths.enumeration.walk_events` (the
traversal ``paths_from`` projects), two classic properties hold by
construction:

* **interval containment is ancestry** —
  ``pre(a) < pre(d) ∧ post(d) < post(a)  ⇔  a is an ancestor of d``;
* **descendants are contiguous** — the subtree of the node at pre rank
  ``i`` occupies exactly the pre range ``[i, end[i])``, so the valuation
  of an unbound path variable rooted there (the whole union-of-plans
  fan-out of Section 5.4) is *one range scan* over precomputed
  ``(path, value)`` arrays.

Secondary slices index oid nodes per allocation class and atomic leaf
values per equality bucket; both are pre-sorted, so "which occurrences
of value ``v`` fall inside this subtree" (the equality joins the
compiler emits for bound variables after a path variable) is two
bisections — the ancestor/descendant interval join.

**Completeness.**  Under the restricted semantics a walk never crosses
two objects of the same class, so a subtree recorded below such a
crossing can be *truncated* relative to a fresh walk started inside it
(the fresh walk's marker set starts empty).  Each node therefore
carries a ``complete`` flag: when a dereference is blocked by a class
crossed at ancestor ``s``, every open node strictly below ``s`` is
incomplete.  Scans only ever start from *complete* occurrences;
everything else falls back to the live walk — never wrong, only
slower.

**Freshness.**  The index piggybacks on the plan-cache epoch
(:class:`repro.cache.PlanCache`): the owning
:class:`~repro.session.DocumentStore` notifies it on every mutation it
performs (loads mark everything dirty, in-database text edits mark only
the blocks containing the edited object), and :meth:`refresh` rebuilds
exactly the dirty blocks.  An epoch bump the index was *not* told about
(someone mutated the instance behind the facade's back) degrades to a
full rebuild — stale answers are structurally impossible.  Either way
the index publishes a *new* :class:`Block`, so what a block memoizes
about itself (:meth:`Block.selections`) is as fresh as the block.

**One encoding.**  These blocks are the only pre/post encoding in the
process: the relational backend's tables
(:mod:`repro.sqlbackend.shred`) are a projection of the published
blocks, re-inserted per root whenever :meth:`refresh` publishes a new
block object for it.
"""

from __future__ import annotations

import gc
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, cast

from repro.errors import EvaluationError
from repro.oodb.values import ATOM_PYTYPES, Nil, Oid
from repro.paths.enumeration import (
    BLOCKED,
    ENTER,
    RESTRICTED,
    walk_events,
)
from repro.paths.steps import AttrStep, DerefStep, Path

#: Per-block node budget: a pathological value graph aborts the block
#: (queries fall back to live walks) instead of stalling the build.
DEFAULT_MAX_BLOCK_NODES = 1_000_000


class Block:
    """The encoding of one persistence root, in pre-order arrays.

    A published block is never mutated — a rebuild installs a new
    object — except for one lazily filled memo, :meth:`selections`.
    """

    __slots__ = ("root_name", "origin", "post", "level", "parent",
                 "values", "paths", "end", "complete", "classes",
                 "atoms", "oids", "truncated", "value_ids",
                 "attr_steps", "attr_positions", "blocked_oids",
                 "_selections")

    def __init__(self, root_name: str, origin: object,
                 truncated: bool = False) -> None:
        self.root_name = root_name
        self.origin = origin
        self.values: list = []        # pre -> node value
        self.paths: list[Path] = []   # pre -> absolute path from the root
        self.post: list[int] = []     # pre -> post-order rank
        self.level: list[int] = []    # pre -> depth (root = 0)
        self.parent: list[int] = []   # pre -> parent's pre (-1 at root)
        self.end: list[int] = []      # pre -> subtree end (exclusive)
        self.complete: list[bool] = []
        self.classes: dict[str, list[int]] = {}   # class -> oid pres
        self.atoms: dict = {}                     # atom value -> pres
        self.oids: dict[Oid, list[int]] = {}      # oid -> pres
        self.truncated = truncated
        self.value_ids: list[int] = []  # ids registered in the identity map
        # attribute name -> pres reached by an AttrStep of that name,
        # plus the combined list (for attribute variables) and the oids
        # whose dereference the semantics suppressed (no subtree)
        self.attr_steps: dict[str, list[int]] = {}
        self.attr_positions: list[int] = []
        self.blocked_oids: list[int] = []
        # attribute name (None: any) -> (holders, names, values)
        self._selections: dict[str | None, tuple[list, list, list]] = {}

    @property
    def size(self) -> int:
        return len(self.values)

    def is_ancestor(self, a: int, d: int) -> bool:
        """The interval-containment test (ancestor, strictly)."""
        return a < d and self.post[d] < self.post[a]

    def subtree_size(self, pre: int) -> int:
        return self.end[pre] - pre

    def relative_pairs(self, pre: int, max_paths: int | None = None
                       ) -> Iterator[tuple[Path, object]]:
        """``(relative path, value)`` for the subtree at ``pre`` — the
        materialized ``paths_from(values[pre], ...)`` (same pairs, same
        order, same ``max_paths`` error contract)."""
        paths = self.paths
        values = self.values
        depth = len(paths[pre].steps)
        stop = self.end[pre]
        if max_paths is not None and stop - pre > max_paths:
            # mirror the live walk's guard lazily: yield up to the
            # limit, then raise — a consumer that stops early (an
            # existential finding its witness) never sees the error
            limit = pre + max_paths
            for position in range(pre, stop):
                if position >= limit:
                    raise EvaluationError(
                        f"path enumeration exceeded {max_paths} paths")
                yield (Path._unsafe(paths[position].steps[depth:]),
                       values[position])
            return
        for position in range(pre, stop):
            yield (Path._unsafe(paths[position].steps[depth:]),
                   values[position])

    def attr_candidates(self, pre: int, name: str | None = None
                        ) -> list[int]:
        """Pre ranks inside the subtree at ``pre`` whose value *can*
        select attribute ``name`` (any attribute when ``None``) — the
        candidate set of a fused scan-then-select.

        A holder of the attribute is the AttrStep position's parent;
        selection also silently crosses the object boundary
        (auto-dereference) and looks through one-field marked-union
        tuples, so the holder's DEREF-chain ancestors and — behind one
        more AttrStep hop — the marked wrapper and *its* DEREF chain
        select the same value.  Oids whose dereference the restricted
        walk suppressed have no subtree here, yet a live selection
        still dereferences them: they (and their DEREF chains) are kept
        as candidates and re-checked against the instance.  The set
        over-approximates; the caller applies the exact selection per
        candidate.
        """
        seen: set[int] = set()
        out: list[int] = []
        stop = self.end[pre]
        sources = (self.attr_positions if name is None
                   else self.attr_steps.get(name, ()))
        lo = bisect_left(sources, pre + 1)
        hi = bisect_left(sources, stop, lo)
        for j in sources[lo:hi]:
            holder = self.parent[j]
            self._climb_derefs(holder, pre, seen, out)
            if (holder > pre
                    and isinstance(self.paths[holder].steps[-1],
                                   AttrStep)):
                # the holder may be the payload of a marked union
                self._climb_derefs(self.parent[holder], pre, seen, out)
        blocked = self.blocked_oids
        lo = bisect_left(blocked, pre)
        hi = bisect_left(blocked, stop, lo)
        for j in blocked[lo:hi]:
            self._climb_derefs(j, pre, seen, out)
        out.sort()
        return out

    def selections(self, name: str | None,
                   trial: Callable[[object], list[tuple[str, object]]]
                   ) -> tuple[list[int], list[str], list]:
        """Every selection of attribute ``name`` (any attribute when
        ``None``) the block's nodes make, as three parallel arrays
        sorted by holder pre rank: ``holders``, ``names`` and
        ``values`` — one entry per ``(name, value)`` that ``trial``
        returns for a candidate of :meth:`attr_candidates` over the
        whole block.  The entries of the subtree at ``pre`` are the
        slice between ``bisect_left(holders, pre)`` and
        ``bisect_left(holders, end[pre])``, and they are exactly what
        ``attr_candidates(pre, name)`` would have tried: a candidate
        is an ancestor-or-self of the AttrStep position (or blocked
        oid) it was found from, so the candidates inside the subtree
        are the ones found from inside it.

        Filled the first time a scan asks for ``name``, never while
        the block is built, and then only read — so every caller must
        pass the same trial for a name (the memo is keyed by name).
        It cannot go stale: the trial reads the values the block
        recorded and the objects behind the oids it recorded (blocked
        ones included), every edit of such an object dirties the
        block, and an unannounced epoch bump rebuilds every block —
        either way a new :class:`Block` object, with an empty memo, is
        published.
        Concurrent fills each build their own arrays and publish them
        with one dict assignment."""
        memo = self._selections.get(name)
        if memo is None:
            holders: list[int] = []
            names: list[str] = []
            values: list = []
            for position in self.attr_candidates(0, name):
                for selected, value in trial(self.values[position]):
                    holders.append(position)
                    names.append(selected)
                    values.append(value)
            memo = self._selections[name] = (holders, names, values)
        return memo

    def _climb_derefs(self, i: int, pre: int, seen: set[int],
                      out: list[int]) -> None:
        while i not in seen:
            seen.add(i)
            out.append(i)
            if i <= pre or not isinstance(self.paths[i].steps[-1],
                                          DerefStep):
                return
            i = self.parent[i]

    def matches_in(self, pre: int, probe: object) -> list[int] | None:
        """Pre ranks of the occurrences of ``probe`` inside the subtree
        at ``pre``, ascending, via the secondary slices — or ``None``
        when the probe's type has no slice (collections: their ``≡``
        has structural cases a hash bucket cannot model)."""
        if isinstance(probe, Oid):
            positions = self.oids.get(probe, ())
        elif isinstance(probe, (Nil,) + ATOM_PYTYPES):
            # dict-key equality on atoms is Python ``==`` — exactly the
            # ``≡`` relation restricted to atomic values (1 ≡ 1.0 ≡ True
            # share a bucket)
            positions = self.atoms.get(probe, ())
        else:
            return None
        lo = bisect_left(positions, pre)
        hi = bisect_left(positions, self.end[pre], lo)
        return list(positions[lo:hi])


@contextmanager
def _collector_paused() -> Iterator[None]:
    """No cyclic collection while blocks are rebuilt.  A rebuild
    allocates a few objects per node, acyclic and all of them kept, so
    a collection that starts in the middle finds nothing to free — and
    once the allocation outgrows a quarter of what the process already
    holds, CPython makes it a *full* collection, a traversal of the
    whole store (75-100 ms on 300 articles, inside a 170 ms rebuild).
    The collector resumes, and sees the new blocks, when the rebuild
    is done; a caller that had it off keeps it off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _build_block(root_name: str, origin: object, instance: Any,
                 max_nodes: int | None) -> Block:
    """Fold one :func:`walk_events` stream into a :class:`Block`."""
    block = Block(root_name, origin)
    values = block.values
    paths = block.paths
    posts = block.post
    levels = block.level
    parents = block.parent
    ends = block.end
    complete = block.complete
    open_nodes: list[int] = []       # pres of the current root-to-node path
    crossings: dict[str, int] = {}   # class -> pre of the crossing oid
    restore: dict[int, tuple] = {}   # deref-child pre -> crossing to undo
    post_counter = 0
    try:
        for kind, path, value, level in walk_events(
                origin, instance, RESTRICTED, max_nodes):
            if kind is ENTER:
                pre = len(values)
                parent = open_nodes[-1] if open_nodes else -1
                if parent >= 0 and isinstance(values[parent], Oid):
                    # entering the deref target: the parent oid just
                    # crossed its class for this subtree
                    crossed = values[parent].class_name
                    restore[pre] = (crossed, crossings.get(crossed))
                    crossings[crossed] = parent
                values.append(value)
                paths.append(path)
                levels.append(level)
                parents.append(parent)
                posts.append(-1)
                ends.append(-1)
                complete.append(True)
                open_nodes.append(pre)
                if isinstance(value, Oid):
                    block.oids.setdefault(value, []).append(pre)
                    block.classes.setdefault(
                        value.class_name, []).append(pre)
                elif isinstance(value, (Nil,) + ATOM_PYTYPES):
                    block.atoms.setdefault(value, []).append(pre)
                if path.steps and isinstance(path.steps[-1], AttrStep):
                    block.attr_steps.setdefault(
                        path.steps[-1].name, []).append(pre)
                    block.attr_positions.append(pre)
            elif kind is BLOCKED:
                # ``value``'s class was crossed at an open ancestor: a
                # fresh walk from any open node strictly below that
                # crossing would deref here, so those subtrees are
                # truncated relative to paths_from
                crossing = crossings.get(
                    cast(Oid, value).class_name, -1)
                for open_pre in reversed(open_nodes):
                    if open_pre == crossing:
                        break
                    complete[open_pre] = False
            else:  # LEAVE
                pre = open_nodes.pop()
                posts[pre] = post_counter
                post_counter += 1
                ends[pre] = len(values)
                undo = restore.pop(pre, None)
                if undo is not None:
                    crossed, previous = undo
                    if previous is None:
                        del crossings[crossed]
                    else:
                        crossings[crossed] = previous
    except EvaluationError:
        # node budget exceeded: an unusable (but well-formed) block
        return Block(root_name, origin, truncated=True)
    # an oid with an empty subtree is one whose dereference the
    # semantics suppressed (a non-blocked oid always has its DEREF
    # child): the fused attribute scans must re-check these live
    block.blocked_oids = sorted(
        pre for positions in block.oids.values() for pre in positions
        if ends[pre] == pre + 1)
    return block


class StructuralIndex:
    """Pre/post interval encodings of every persistence root.

    ``epoch_source`` is any object with an ``epoch`` attribute — in
    practice the store's :class:`~repro.cache.PlanCache`, so the same
    bump that invalidates cached plans marks this index stale.
    ``metrics`` follows the repository-wide convention (``None`` =
    disabled; counters land under ``structindex.*``).
    """

    def __init__(self, instance: Any, epoch_source: Any = None,
                 max_block_nodes: int | None = DEFAULT_MAX_BLOCK_NODES
                 ) -> None:
        self.instance = instance
        self.epoch_source = epoch_source
        self.max_block_nodes = max_block_nodes
        self.metrics: Any = None
        self._lock = threading.RLock()
        self._blocks: dict[str, Block] = {}
        # every occurrence (complete or not), for dirty marking
        self._oid_nodes: dict[Oid, list[tuple[str, int]]] = {}
        # id(value) -> one *complete* occurrence; the blocks' value
        # arrays keep the objects alive, so ids stay unambiguous
        self._value_nodes: dict[int, tuple[str, int]] = {}
        self._dirty: set[str] = set()
        self._all_dirty = True
        self._synced_epoch: int | None = None

    # -- maintenance hooks ----------------------------------------------------

    def note_data_change(self, epoch: int | None = None) -> None:
        """A structural mutation (document load, new root): everything
        is stale; ``epoch`` records the post-mutation epoch so
        :meth:`refresh` knows the change was accounted for."""
        with self._lock:
            self._all_dirty = True
            self._synced_epoch = epoch

    def note_object_update(self, oid: Oid,
                           epoch: int | None = None) -> None:
        """An in-database edit of one object: only the blocks whose
        interval arrays contain the oid are stale (the TextIndex-style
        targeted maintenance).  An oid the index has never seen forces
        a full rebuild — it cannot tell what the update touched."""
        with self._lock:
            touched = {name for name, _ in self._oid_nodes.get(oid, ())}
            if touched:
                self._dirty.update(touched)
            else:
                self._all_dirty = True
            self._synced_epoch = epoch

    def refresh(self) -> int:
        """Bring the index up to date; returns the number of blocks
        rebuilt.  Cheap when clean (no lock taken)."""
        if (not self._all_dirty and not self._dirty
                and (self.epoch_source is None
                     or self.epoch_source.epoch == self._synced_epoch)):
            return 0
        with self._lock:
            if self.epoch_source is not None:
                epoch = self.epoch_source.epoch
                if epoch != self._synced_epoch:
                    # an unannounced mutation: trust nothing
                    self._all_dirty = True
                    self._synced_epoch = epoch
            if self._all_dirty:
                pending = list(self.instance.root_names)
                for stale in list(self._blocks):
                    if stale not in pending:
                        self._drop_block(stale)
                self._all_dirty = False
                self._dirty.clear()
            elif self._dirty:
                pending = sorted(self._dirty)
                self._dirty.clear()
            else:
                return 0
            rebuilt = 0
            with _collector_paused():
                for name in pending:
                    if self.instance.has_root(name):
                        self._rebuild_block(name)
                        rebuilt += 1
                    else:
                        self._drop_block(name)
            return rebuilt

    def _rebuild_block(self, name: str) -> None:
        self._drop_block(name)
        origin = self.instance.root(name)
        block = _build_block(name, origin, self.instance,
                             self.max_block_nodes)
        self._blocks[name] = block
        for oid, positions in block.oids.items():
            entries = self._oid_nodes.setdefault(oid, [])
            entries.extend((name, pre) for pre in positions)
        for pre, value in enumerate(block.values):
            if block.complete[pre]:
                key = id(value)
                if key not in self._value_nodes:
                    self._value_nodes[key] = (name, pre)
                    block.value_ids.append(key)
        if self.metrics is not None:
            self.metrics.inc("structindex.block_rebuilds")
            self.metrics.inc("structindex.nodes_indexed", block.size)

    def _drop_block(self, name: str) -> None:
        old = self._blocks.pop(name, None)
        if old is None:
            return
        for oid in old.oids:
            entries = self._oid_nodes.get(oid)
            if entries is not None:
                # copy-on-write: swap a fresh list in so a reader that
                # grabbed the old one keeps a consistent snapshot
                kept = [entry for entry in entries if entry[0] != name]
                if kept:
                    self._oid_nodes[oid] = kept
                else:
                    del self._oid_nodes[oid]
        for key in old.value_ids:
            entry = self._value_nodes.get(key)
            if entry is not None and entry[0] == name:
                del self._value_nodes[key]

    # -- lookups --------------------------------------------------------------

    def locate(self, source: object) -> tuple[Block, int] | None:
        """:meth:`locate_all` of the one source."""
        return self.locate_all((source,))[0]

    def locate_all(self, sources: Iterable[object]
                   ) -> list[tuple[Block, int] | None]:
        """Per source, a *complete* occurrence as ``(block, pre)``, or
        ``None`` (unindexed value, or every occurrence truncated) —
        after one :meth:`refresh` and under one lock acquisition, what
        a structural operator asks once per batch.  Oids match by
        value (equal oids are the same allocation); any other node
        matches by object identity.

        The lookups run under the index lock (a rebuild may be
        swapping blocks concurrently), but a returned :class:`Block`
        is immutable once published: the caller scans it lock-free, and
        a rebuild racing the scan installs a *new* block object — the
        held one keeps serving a consistent snapshot of the epoch it
        was built at (the serving layer's write fence decides whether
        that snapshot is current enough to return)."""
        self.refresh()
        located: list[tuple[Block, int] | None] = []
        with self._lock:
            blocks = self._blocks
            oid_nodes = self._oid_nodes
            value_nodes = self._value_nodes
            for source in sources:
                found = None
                if type(source) is Oid:
                    for name, pre in oid_nodes.get(source, ()):
                        block = blocks.get(name)
                        if block is not None and block.complete[pre]:
                            found = block, pre
                            break
                else:
                    entry = value_nodes.get(id(source))
                    if entry is not None:
                        block = blocks.get(entry[0])
                        if (block is not None
                                and block.values[entry[1]] is source):
                            found = block, entry[1]
                located.append(found)
        return located

    @property
    def blocks(self) -> dict[str, Block]:
        """Root name → published block, as a snapshot: what the SQL
        shred projects (and compares by identity), and diagnostics."""
        with self._lock:
            return dict(self._blocks)

    def stats(self) -> dict:
        with self._lock:
            return {
                "blocks": len(self._blocks),
                "nodes": sum(b.size for b in self._blocks.values()),
                "oids": len(self._oid_nodes),
                "synced_epoch": self._synced_epoch,
                "dirty": bool(self._all_dirty or self._dirty),
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StructuralIndex(blocks={len(self._blocks)}, "
                f"epoch={self._synced_epoch})")
