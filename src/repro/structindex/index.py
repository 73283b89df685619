"""The pre/post-order structural index (the "XPath accelerator" layer).

Every value node reachable from a persistence root is assigned a
``(pre, end, level, parent)`` tuple and the last step of its path,
kept in arrays sorted by ``pre`` — one *block* per root.  The post
rank is not stored: a node's post rank is the number of nodes closed
before it, ``end − 1 − level`` (the preceding non-ancestors plus its
descendants), so ``end`` and ``level`` carry it.  A block is
one iterative depth-first fold over the value graph, the traversal of
:func:`repro.paths.paths_from` under the restricted semantics; no
``Path`` is stored — :meth:`Block.path` climbs ``parent`` for a row
whose path is read.  The property tests
(``tests/structindex/test_encoding_properties.py``) pin that a
complete node's range scan pairs the same paths with the same values,
in the same order, as ``paths_from``.  Two classic properties hold by
construction:

* **interval containment is ancestry** —
  ``pre(a) < pre(d) < end(a)  ⇔  a is an ancestor of d`` (the classic
  ``pre(a) < pre(d) ∧ post(d) < post(a)`` with the derived post rank);
* **descendants are contiguous** — the subtree of the node at pre rank
  ``i`` occupies exactly the pre range ``[i, end[i])``, so the valuation
  of an unbound path variable rooted there (the whole union-of-plans
  fan-out of Section 5.4) is *one range scan* over the value array.

One secondary slice, ``occurrences``, maps every oid (a key by
identity) and every atomic leaf value (a key per ``==`` bucket) to its
pre ranks, ascending, so "which occurrences of value ``v`` fall inside
this subtree" (the equality joins the compiler emits for bound
variables after a path variable) is two bisections — the
ancestor/descendant interval join.

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
about itself (:meth:`Block.selections`) is as fresh as the block, and
empties its lookup map (:meth:`StructuralIndex.locate_all`), which the
next lookups refill from the published blocks.

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
from itertools import chain
from typing import Any, Callable, Iterator, Sequence

from repro.oodb.values import (
    ATOM_PYTYPES,
    ListValue,
    Nil,
    Oid,
    SetValue,
    TupleValue,
)
from repro.paths.steps import (
    DEREF,
    AttrStep,
    DerefStep,
    ElemStep,
    IndexStep,
    Path,
    Step,
)

#: Per-block node budget: a pathological value graph aborts the block
#: (queries fall back to live walks) instead of stalling the build.
DEFAULT_MAX_BLOCK_NODES = 1_000_000

_ATOM_TYPES = (Nil,) + ATOM_PYTYPES
_SLICED_TYPES = (Oid,) + _ATOM_TYPES


class Block:
    """The encoding of one persistence root, in pre-order arrays.

    A published block is never mutated — a rebuild installs a new
    object — except for one lazily filled memo, :meth:`selections`.
    """

    __slots__ = ("root_name", "level", "parent", "values", "steps",
                 "end", "complete", "occurrences", "truncated",
                 "attr_steps", "blocked_oids", "_selections")

    def __init__(self, root_name: str, truncated: bool = False) -> None:
        self.root_name = root_name
        self.values: list = []        # pre -> node value
        # pre -> the last step of the node's path (None at the root);
        # one shared object per attribute name, list position and DEREF
        self.steps: list[Step | None] = []
        self.level: list[int] = []    # pre -> depth (root = 0)
        self.parent: list[int] = []   # pre -> parent's pre (-1 at root)
        self.end: list[int] = []      # pre -> subtree end (exclusive)
        self.complete: list[bool] = []
        # oid (by identity) or atom (by ``==`` bucket) -> ascending pres
        self.occurrences: dict = {}
        self.truncated = truncated
        # attribute name -> pres reached by an AttrStep of that name,
        # and the oids whose dereference the semantics suppressed (no
        # subtree)
        self.attr_steps: dict[str, list[int]] = {}
        self.blocked_oids: list[int] = []
        # attribute name (None: any) -> (holders, names, values)
        self._selections: dict[str | None, tuple[list, list, list]] = {}

    @property
    def size(self) -> int:
        return len(self.values)

    def path(self, pre: int, depth: int = 0) -> Path:
        """The path from the ancestor of ``pre`` at level ``depth``
        down to ``pre`` — the path ``paths_from`` pairs with
        ``values[pre]`` when it walks from that ancestor (from the
        root, by default).  Built by climbing ``parent``, so only a
        row whose path is read pays for one."""
        steps = self.steps
        parents = self.parent
        climbed = []
        for _ in range(self.level[pre] - depth):
            climbed.append(steps[pre])
            pre = parents[pre]
        climbed.reverse()
        return Path._unsafe(tuple(climbed))

    def selections(self, name: str | None,
                   trial: Callable[[object], list[tuple[str, object]]]
                   ) -> tuple[list[int], list[str], list]:
        """Every selection of attribute ``name`` (any attribute when
        ``None``) the block's nodes make, as three parallel arrays
        sorted by holder pre rank: ``holders``, ``names`` and
        ``values`` — one entry per ``(name, value)`` that ``trial``
        returns for a *candidate* holder.

        A holder of the attribute is an AttrStep position's parent;
        selection also silently crosses the object boundary
        (auto-dereference) and looks through one-field marked-union
        tuples, so the holder's DEREF-chain ancestors and — behind one
        more AttrStep hop — the marked wrapper and *its* DEREF chain
        select the same value.  Oids whose dereference the restricted
        walk suppressed have no subtree here, yet a live selection
        still dereferences them: they (and their DEREF chains) are
        candidates too.  The candidates over-approximate; ``trial``
        applies the exact selection to each.  A candidate is an
        ancestor-or-self of the AttrStep position (or blocked oid) it
        was found from, so the entries of the subtree at ``pre`` — the
        slice between ``bisect_left(holders, pre)`` and
        ``bisect_left(holders, end[pre])`` — are exactly the
        selections made inside that subtree.

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
            seen: set[int] = set()
            candidates: list[int] = []
            steps = self.steps
            for j in (chain.from_iterable(self.attr_steps.values())
                      if name is None
                      else self.attr_steps.get(name, ())):
                holder = self.parent[j]
                self._climb_derefs(holder, seen, candidates)
                if type(steps[holder]) is AttrStep:
                    # the holder may be the payload of a marked union
                    self._climb_derefs(self.parent[holder], seen,
                                       candidates)
            for j in self.blocked_oids:
                self._climb_derefs(j, seen, candidates)
            candidates.sort()
            holders: list[int] = []
            names: list[str] = []
            values: list = []
            for position in candidates:
                for selected, value in trial(self.values[position]):
                    holders.append(position)
                    names.append(selected)
                    values.append(value)
            memo = self._selections[name] = (holders, names, values)
        return memo

    def _climb_derefs(self, i: int, seen: set[int],
                      out: list[int]) -> None:
        """``i`` and the oids whose DEREF steps lead to it."""
        while i not in seen:
            seen.add(i)
            out.append(i)
            if type(self.steps[i]) is not DerefStep:
                return
            i = self.parent[i]

    def matches_in(self, pre: int, probe: object) -> list[int] | None:
        """Pre ranks of the occurrences of ``probe`` inside the subtree
        at ``pre``, ascending, via :attr:`occurrences` — or ``None``
        when the probe's type has no slice (collections: their ``≡``
        has structural cases a hash bucket cannot model).  Dict-key
        equality is identity on oids and Python ``==`` on atoms —
        exactly the ``≡`` relation restricted to those values (1 ≡ 1.0
        ≡ True share a bucket), and never true between the two."""
        if not isinstance(probe, _SLICED_TYPES):
            return None
        positions = self.occurrences.get(probe, ())
        lo = bisect_left(positions, pre)
        hi = bisect_left(positions, self.end[pre], lo)
        return list(positions[lo:hi])


@contextmanager
def _collector_paused() -> Iterator[None]:
    """No cyclic collection while blocks are rebuilt.  A rebuild
    allocates tracked objects (the occurrence lists, the traversal's
    stack entries) and drops the old block's, so a
    collection that starts in the middle finds nothing to free — and
    once the objects promoted since the last full collection outgrow a
    quarter of what it found, CPython makes it a *full* collection, a
    traversal of the whole store (a whole-store rebuild on 300
    articles: ≈ 120 ms with the collector on, ≈ 65 ms paused).  The
    collector resumes, and sees the new blocks, when the rebuild is
    done; a caller that had it off keeps it off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _build_block(root_name: str, origin: object, instance: Any,
                 max_nodes: int | None) -> Block:
    """One depth-first fold of the value graph below ``origin`` into a
    :class:`Block`: the traversal of :func:`repro.paths.paths_from`
    under the restricted semantics — same order, same crossings — with
    each node's arrays filled where it is entered.

    A node is *closed* (its subtree end set) when the next node
    entered is not its descendant, so the stack holds only nodes to
    enter.  ``crossings`` maps each class whose object boundary an open
    oid crossed to that oid's pre; an oid of such a class is not
    dereferenced (the restricted semantics), and a fresh walk from any
    open node strictly below the crossing would dereference it, so
    those nodes are incomplete, and the oid is recorded in
    ``blocked_oids`` (pre order: it is entered in pre order).  Entering
    node ``max_nodes + 1`` abandons the block (truncated, empty)."""
    block = Block(root_name)
    values = block.values
    steps = block.steps
    levels = block.level
    parents = block.parent
    ends = block.end
    complete = block.complete
    occurrences = block.occurrences
    attr_steps = block.attr_steps
    blocked_oids = block.blocked_oids
    attr_interned: dict[str, AttrStep] = {}
    index_interned: list[IndexStep] = []
    open_nodes = [-1]                # -1, then the open nodes' pres
    crossings: dict[str, int] = {}   # class -> pre of the crossing oid
    crossing_oids: list[int] = []    # pres of the open crossing oids
    stack: list[tuple] = [(origin, -1, None)]
    pop = stack.pop
    while stack:
        value, parent, step = pop()
        pre = len(values)
        if pre == max_nodes:
            # node budget exceeded: an unusable (but well-formed) block
            return Block(root_name, truncated=True)
        while open_nodes[-1] != parent:
            closed = open_nodes.pop()
            ends[closed] = pre
            if crossing_oids and crossing_oids[-1] == closed:
                crossing_oids.pop()
                del crossings[values[closed].class_name]
        levels.append(len(open_nodes) - 1)
        open_nodes.append(pre)
        values.append(value)
        steps.append(step)
        parents.append(parent)
        ends.append(-1)
        complete.append(True)
        if type(step) is AttrStep:
            attr_steps[step.name].append(pre)
        kind = type(value)
        if kind is TupleValue:
            children = []
            for name, field in value.fields:
                interned = attr_interned.get(name)
                if interned is None:
                    interned = attr_interned[name] = AttrStep(name)
                    attr_steps.setdefault(name, [])
                children.append((field, pre, interned))
            children.reverse()
            stack.extend(children)
        elif kind is Oid:
            occurrences.setdefault(value, []).append(pre)
            marker = value.class_name
            crossing = crossings.get(marker)
            if crossing is None:
                crossings[marker] = pre
                crossing_oids.append(pre)
                stack.append((instance.deref(value), pre, DEREF))
            else:
                # a suppressed dereference: no subtree here, so the
                # fused attribute scans must re-check the oid live
                blocked_oids.append(pre)
                for open_pre in reversed(open_nodes):
                    if open_pre == crossing:
                        break
                    complete[open_pre] = False
        elif kind is ListValue:
            items = value.items
            for index in range(len(index_interned), len(items)):
                index_interned.append(IndexStep(index))
            stack.extend([(items[index], pre, index_interned[index])
                          for index in range(len(items) - 1, -1, -1)])
        elif kind is SetValue:
            stack.extend([(element, pre, ElemStep(element))
                          for element in reversed(value.items)])
        elif isinstance(value, _ATOM_TYPES):
            occurrences.setdefault(value, []).append(pre)
    size = len(values)
    for closed in open_nodes[1:]:
        ends[closed] = size
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
        # id(value) -> its first *complete* occurrence ``(block, pre)``
        # over the published blocks (in publication order), or None:
        # emptied on every publish, an oid is added by its first lookup,
        # every other node when the first non-oid source is missing
        # (``_every_node``).  The blocks' value arrays keep the located
        # objects alive, so an id names one object; an id no block
        # holds can only be reused by an object no block holds
        self._located: dict[int, tuple[Block, int] | None] = {}
        self._every_node = False
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
        occurrences hold the oid are stale (the TextIndex-style
        targeted maintenance).  An oid no block holds forces a full
        rebuild — the index cannot tell what the update touched."""
        with self._lock:
            touched = [name for name, block in self._blocks.items()
                       if oid in block.occurrences]
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
                # every root is rebuilt: start from no blocks
                pending = list(self.instance.root_names)
                self._blocks = {}
                self._all_dirty = False
                self._dirty.clear()
            elif self._dirty:
                pending = sorted(self._dirty)
                self._dirty.clear()
            else:
                return 0
            self._located = {}
            self._every_node = False
            rebuilt = 0
            with _collector_paused():
                for name in pending:
                    # a rebuilt block is published last
                    self._blocks.pop(name, None)
                    if self.instance.has_root(name):
                        self._rebuild_block(name)
                        rebuilt += 1
            return rebuilt

    def _rebuild_block(self, name: str) -> None:
        block = _build_block(name, self.instance.root(name),
                             self.instance, self.max_block_nodes)
        self._blocks[name] = block
        if self.metrics is not None:
            self.metrics.inc("structindex.block_rebuilds")
            self.metrics.inc("structindex.nodes_indexed", block.size)

    def _locate(self, source: object) -> tuple[Block, int] | None:
        """The first complete occurrence of a source :meth:`locate_all`
        has not located since the last publish, recorded for an oid
        (read off the blocks' occurrence slices); a non-oid source
        first adds every complete node.  Caller holds the lock."""
        located = self._located
        key = id(source)
        if key in located:
            return located[key]
        if type(source) is Oid:
            answer = None
            for block in self._blocks.values():
                complete = block.complete
                for pre in block.occurrences.get(source, ()):
                    if complete[pre]:
                        answer = block, pre
                        break
                if answer is not None:
                    break
            located[key] = answer
            return answer
        if not self._every_node:
            self._every_node = True
            for block in self._blocks.values():
                complete = block.complete
                for pre, value in enumerate(block.values):
                    if complete[pre]:
                        located.setdefault(id(value), (block, pre))
        return located.get(key)

    # -- lookups --------------------------------------------------------------

    def locate_all(self, sources: Sequence[object]
                   ) -> list[tuple[Block, int] | None]:
        """Per source, a *complete* occurrence as ``(block, pre)``, or
        ``None`` (unindexed value, or every occurrence truncated) —
        after one :meth:`refresh` and under one lock acquisition, what
        a structural operator asks once per batch.  Every node matches
        by identity (an oid is its own identity), so once a source has
        been located since the last publish its answer is one
        dictionary lookup.

        The lookups run under the index lock (a rebuild may be
        swapping blocks concurrently), but a returned :class:`Block`
        is immutable once published: the caller scans it lock-free, and
        a rebuild racing the scan installs a *new* block object — the
        held one keeps serving a consistent snapshot of the epoch it
        was built at (the serving layer's write fence decides whether
        that snapshot is current enough to return)."""
        self.refresh()
        with self._lock:
            found = list(map(self._located.get, map(id, sources)))
            if None in found:
                found = [self._locate(source) if answer is None else answer
                         for source, answer in zip(sources, found)]
        return found

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
                "synced_epoch": self._synced_epoch,
                "dirty": bool(self._all_dirty or self._dirty),
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StructuralIndex(blocks={len(self._blocks)}, "
                f"epoch={self._synced_epoch})")
