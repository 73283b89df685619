"""Compile algebra plans to SQL over the shredded accel tables.

The emitter walks a plan bottom-up in the raco ``compileme`` idiom:
every operator inside the relational subset contributes one named
subquery (a CTE chained off its child's CTE), and the whole supported
region composes into a *single* statement ``WITH q1 AS (...), ...
SELECT * FROM qN``.  Operators outside the subset are not rejected —
the backend keeps them as ordinary Python operators running on top of
the hydrated row stream (:mod:`repro.sqlbackend.backend`), so the SQL
configuration executes *every* plan the calculus accepts.

The relational encoding of a bound variable is a **descriptor**:

* :class:`ValCol` — a model value named by ``(root, pre)`` plus a
  one-character *mode*: ``'n'`` hydrates the node's own value, ``'h'``
  the one-field heterogeneous wrapper ``[name: value]`` the tuple-as-
  list view synthesizes (those wrappers are not nodes, so they are
  represented as "wrapper over node pre").
* :class:`PathCol` — a relative path: the node's path from its
  ancestor at level ``depth`` (:meth:`repro.structindex.Block.path`).
* :class:`IntCol` / :class:`StrCol` — a plain typed SQL column
  (unnest positions, matched attribute names).
* :class:`ConstCol` — a compile-time constant; no SQL column at all.

Semantics notes, mirrored operator by operator from
:mod:`repro.algebra.operators`:

* structural scans are pre/post interval range predicates
  (``d.pre >= s.pre AND d.pre < s.end_pre``) — the recursive path
  fan-out is already materialized in the shredded blocks (and the
  dereference closure in ``deref_base``), so no per-query recursion
  is needed;
* :class:`~repro.algebra.operators.IntervalJoinOp` becomes the same
  interval theta-join plus a sound ``vkey`` equality prefilter; the
  exact recheck atom always re-runs in Python (the operator documents
  scan + recheck as bit-for-bit equal to the probe path);
* ``contains`` selections gain a content-table prefilter: every
  *required literal word* of the pattern must occur as a substring
  (``instr``) of the candidate string atom — sound because pattern
  tokens are contiguous substrings of the text and literal-word NFA
  matching is exact and case-sensitive (SQLite ``LIKE`` is not, which
  is why ``instr`` is used) — followed by the exact Python recheck.

Intermediate streams may differ from the interpreter's in order and
multiplicity; that is harmless because every plan operator is a
per-row map/filter and the final :class:`ProjectOp` deduplicates.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.operators import (
    BindOp,
    IntervalJoinOp,
    SeedOp,
    SharedOp,
    StepOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
)
from repro.calculus.formulas import Pred
from repro.calculus.terms import Const, Name, Variable
from repro.errors import SQLUnsupportedError


class _Unsupported(Exception):
    """Internal: this operator (or a descendant) has no SQL image."""


# ---------------------------------------------------------------------------
# Column descriptors
# ---------------------------------------------------------------------------


class ValCol:
    """A model value: ``(root, pre)`` node reference + hydration mode."""

    __slots__ = ("root", "pre", "mode", "modes")

    def __init__(self, root: str, pre: str, mode: str,
                 modes: frozenset) -> None:
        self.root = root
        self.pre = pre
        self.mode = mode
        self.modes = modes


class PathCol:
    """A relative path: ``Block.path(node, depth)`` of the block of
    ``root``."""

    __slots__ = ("root", "depth", "node")

    def __init__(self, root: str, depth: str, node: str) -> None:
        self.root = root
        self.depth = depth
        self.node = node


class IntCol:
    """A plain integer column (e.g. an unnest position)."""

    __slots__ = ("col",)

    def __init__(self, col: str) -> None:
        self.col = col


class StrCol:
    """A plain string column (e.g. a matched attribute name)."""

    __slots__ = ("col",)

    def __init__(self, col: str) -> None:
        self.col = col


class ConstCol:
    """A compile-time constant; hydrates without touching the row."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


class Fragment:
    """One emitted CTE plus the variable -> descriptor environment."""

    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: dict) -> None:
        self.name = name
        self.columns = columns


class SQLProgram:
    """One executable statement: SQL + params + hydration environment."""

    __slots__ = ("sql", "params", "columns", "roots", "has_scans",
                 "prefilters")

    def __init__(self, sql: str, params: dict, columns: dict,
                 roots: frozenset, has_scans: bool,
                 prefilters: int) -> None:
        self.sql = sql
        self.params = params
        self.columns = columns
        self.roots = roots
        self.has_scans = has_scans
        self.prefilters = prefilters


_N = frozenset(("n",))
_H = frozenset(("h",))
_NH = frozenset(("n", "h"))


class Emitter:
    """Bottom-up plan -> SQL compilation state (one plan's worth).

    ``emit`` either returns a :class:`Fragment` or raises
    :class:`_Unsupported`; the backend's hybridizer catches the latter
    and keeps the operator in Python.  Emission is memoized by operator
    identity so shared (DAG) subplans compile to one CTE referenced by
    every consumer.
    """

    def __init__(self, root_names: Any = ()) -> None:
        self.root_names = set(root_names)
        self.ctes: list[tuple[str, str]] = []
        self.params: dict[str, object] = {}
        self.roots_used: set[str] = set()
        self.has_scans = False
        self.prefilters = 0
        self._counter = 0
        self._memo: dict[int, Fragment | None] = {}

    # -- naming ---------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _param(self, value: object) -> str:
        name = self._fresh("p")
        self.params[name] = value
        return f":{name}"

    def _cte(self, sql: str) -> str:
        name = self._fresh("q")
        self.ctes.append((name, sql))
        return name

    def _val(self) -> tuple[str, str, str]:
        base = self._fresh("v")
        return f"{base}r", f"{base}p", f"{base}m"

    # -- rendering ------------------------------------------------------------

    def render(self, fragment: Fragment) -> str:
        """The full statement for one fragment.  Every CTE emitted so
        far rides along in the prelude; SQLite evaluates CTEs on
        reference only, so unreferenced ones cost nothing."""
        with_clause = ",\n".join(f"{name} AS (\n{sql}\n)"
                                 for name, sql in self.ctes)
        return f"WITH {with_clause}\nSELECT * FROM {fragment.name}"

    def program(self, fragment: Fragment) -> SQLProgram:
        return SQLProgram(self.render(fragment), self.params,
                          dict(fragment.columns),
                          frozenset(self.roots_used), self.has_scans,
                          self.prefilters)

    # -- dispatch -------------------------------------------------------------

    def emit(self, op: Any) -> Fragment:
        key = id(op)
        if key in self._memo:
            cached = self._memo[key]
            if cached is None:
                raise _Unsupported(type(op).__name__)
            return cached
        try:
            fragment = self._emit(op)
        except _Unsupported:
            self._memo[key] = None
            raise
        self._memo[key] = fragment
        return fragment

    def _emit(self, op: Any) -> Fragment:
        if isinstance(op, SeedOp):
            return self._seed()
        if isinstance(op, BindOp):
            return self._bind(op)
        if isinstance(op, UnnestOp):
            return self._unnest(op)
        if isinstance(op, StructuralAttrScanOp):
            return self._attr_scan(op)
        if isinstance(op, IntervalJoinOp):
            raise _Unsupported("IntervalJoinOp emits via interval_join")
        if isinstance(op, StructuralScanOp):
            return self._scan(op)
        if isinstance(op, StepOp):
            return self._step(op)
        if isinstance(op, UnionOp):
            return self._union(op)
        if isinstance(op, SharedOp):
            # sharing relationally is free: the child's CTE is simply
            # referenced by every consumer of this fragment
            return self.emit(op.child)
        raise _Unsupported(type(op).__name__)

    # -- operators ------------------------------------------------------------

    def _seed(self) -> Fragment:
        name = self._cte("SELECT 0 AS seed0")
        return Fragment(name, {})

    def _bind(self, op: BindOp) -> Fragment:
        child = self.emit(op.child)
        term = op.term
        bound = op.variable in child.columns
        if isinstance(term, Variable) and term in child.columns \
                and not bound:
            columns = dict(child.columns)
            columns[op.variable] = child.columns[term]
            return Fragment(child.name, columns)
        if isinstance(term, Const) and not bound:
            columns = dict(child.columns)
            columns[op.variable] = ConstCol(term.value)
            return Fragment(child.name, columns)
        if isinstance(term, Name) and not bound:
            r, p, m = self._val()
            root = self._param(term.name)
            sql = (f"SELECT c.*, n.root AS {r}, n.pre AS {p}, "
                   f"'n' AS {m}\n"
                   f"FROM {child.name} AS c\n"
                   f"JOIN node AS n ON n.root = {root} AND n.pre = 0")
            self.roots_used.add(term.name)
            columns = dict(child.columns)
            columns[op.variable] = ValCol(r, p, m, _N)
            return Fragment(self._cte(sql), columns)
        raise _Unsupported("BindOp term outside the relational subset")

    # A mode column is a CASE only out of positional steps into
    # containers of unknown kind; everywhere else it is a literal.

    def _source(self, fragment: Fragment, variable: Any) -> ValCol:
        desc = fragment.columns.get(variable)
        if not isinstance(desc, ValCol):
            raise _Unsupported("source variable is not a node value")
        return desc

    def _name_source(self, fragment: Fragment,
                     name: str) -> tuple[Fragment, ValCol]:
        """A hidden source descriptor for a persistent-root term: the
        join against the root's node 0 drops rows exactly when the
        root does not exist (``eval_term`` raises and the row drops)."""
        r, p, m = self._val()
        root = self._param(name)
        sql = (f"SELECT c.*, n.root AS {r}, n.pre AS {p}, 'n' AS {m}\n"
               f"FROM {fragment.name} AS c\n"
               f"JOIN node AS n ON n.root = {root} AND n.pre = 0")
        self.roots_used.add(name)
        return (Fragment(self._cte(sql), dict(fragment.columns)),
                ValCol(r, p, m, _N))

    def _union_arms(self, arms: list[str], columns: dict) -> Fragment:
        if not arms:
            raise _Unsupported("no emittable arms")
        return Fragment(self._cte("\nUNION ALL\n".join(arms)), columns)

    def _unnest(self, op: UnnestOp) -> Fragment:
        child = self.emit(op.child)
        if op.element_var in child.columns:
            raise _Unsupported("unnest element already bound")
        if isinstance(op.collection_term, Variable):
            src = self._source(child, op.collection_term)
        elif isinstance(op.collection_term, Name):
            child, src = self._name_source(child,
                                           op.collection_term.name)
        else:
            raise _Unsupported("unnest over a non-variable term")
        base = self._fresh("v")
        ep, em = f"{base}p", f"{base}m"
        index_cond = ""
        ei = None
        produce_index = False
        if op.index_var is not None:
            bound_desc = child.columns.get(op.index_var)
            if bound_desc is None:
                produce_index = True
                ei = self._fresh("i")
            elif isinstance(bound_desc, IntCol):
                index_cond = f" AND {{pos}} = c.{bound_desc.col}"
            elif isinstance(bound_desc, ConstCol):
                value = bound_desc.value
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    index_cond = f" AND {{pos}} = {self._param(value)}"
                else:
                    # Python: row[index] != position for every position
                    index_cond = " AND 0 = 1"
            else:
                raise _Unsupported("bound unnest index of opaque type")

        def arm(joins: str, where: str, elem: str, mode: str,
                pos: str) -> str:
            extras = f"{elem} AS {ep}, {mode} AS {em}"
            if produce_index:
                extras += f", {pos} AS {ei}"
            cond = where + index_cond.format(pos=pos)
            return (f"SELECT c.*, {extras}\n"
                    f"FROM {child.name} AS c\n{joins}\nWHERE {cond}")

        sj = (f"JOIN node AS s ON s.root = c.{src.root} "
              f"AND s.pre = c.{src.pre}")
        arms: list[str] = []
        modes: frozenset = frozenset()
        if "n" in src.modes:
            if op.mode == "collection":
                arms.append(arm(
                    sj + "\nJOIN node AS e ON e.root = s.root "
                         "AND e.parent = s.pre",
                    f"c.{src.mode} = 'n' AND s.kind IN ('list', 'set')",
                    "e.pre", "'n'", "e.position"))
                modes |= _N
            elif op.mode == "set":
                arms.append(arm(
                    sj + "\nJOIN node AS b ON b.root = s.root "
                         "AND b.pre = s.deref_base"
                         "\nJOIN node AS e ON e.root = b.root "
                         "AND e.parent = b.pre",
                    f"c.{src.mode} = 'n' AND b.kind = 'set'",
                    "e.pre", "'n'", "e.position"))
                modes |= _N
            else:  # positions
                arms.append(arm(
                    sj + "\nJOIN node AS t ON t.root = s.root "
                         "AND t.pre = s.cont"
                         "\nJOIN node AS e ON e.root = t.root "
                         "AND e.parent = t.pre",
                    f"c.{src.mode} = 'n' "
                    "AND t.kind IN ('list', 'tuple')",
                    "e.pre",
                    "CASE WHEN t.kind = 'tuple' THEN 'h' ELSE 'n' END",
                    "e.position"))
                modes |= _NH
        if "h" in src.modes and op.mode == "positions":
            tj = (f"JOIN node AS t ON t.root = c.{src.root} "
                  f"AND t.pre = c.{src.pre}")
            # wrapper over a tuple node: positions run over the
            # payload's fields, each again a wrapper
            arms.append(arm(
                tj + "\nJOIN node AS e ON e.root = t.root "
                     "AND e.parent = t.pre",
                f"c.{src.mode} = 'h' AND t.kind = 'tuple'",
                "e.pre", "'h'", "e.position"))
            # wrapper over anything else: the het view of the wrapper
            # itself — a single element, the wrapper, at position 0
            arms.append(arm(
                tj, f"c.{src.mode} = 'h' AND t.kind != 'tuple'",
                f"c.{src.pre}", "'h'", "0"))
            modes |= _H
        columns = dict(child.columns)
        columns[op.element_var] = ValCol(src.root, ep, em,
                                         modes or _N)
        if produce_index:
            columns[op.index_var] = IntCol(ei)
        return self._union_arms(arms, columns)

    def _step(self, op: StepOp) -> Fragment:
        child = self.emit(op.child)
        if op.out_var in child.columns:
            raise _Unsupported("step output already bound")
        src = self._source(child, op.source_var)
        if op.kind in ("attr", "attr_by_var"):
            return self._step_attr(op, child, src)
        if op.kind in ("index", "index_by_var"):
            return self._step_index(op, child, src)
        if op.kind == "deref":
            return self._step_deref(op, child, src)
        raise _Unsupported(f"step kind {op.kind!r}")

    def _attr_expr(self, op: Any, child: Fragment) -> str:
        """The SQL expression for the attribute name argument, or
        ``None`` when the argument can never be a string (making the
        step drop every row)."""
        if op.kind in ("attr",):
            if not isinstance(op.argument, str):  # pragma: no cover
                raise _Unsupported("non-string attr argument")
            return self._param(op.argument)
        desc = child.columns.get(op.argument)
        if isinstance(desc, StrCol):
            return f"c.{desc.col}"
        if isinstance(desc, ConstCol):
            if isinstance(desc.value, str):
                return self._param(desc.value)
            return None
        raise _Unsupported("attr-by-var argument of opaque type")

    def _step_attr(self, op: StepOp, child: Fragment,
                   src: ValCol) -> Fragment:
        attr = self._attr_expr(op, child)
        _, o_p, o_m = self._val()
        if attr is None:
            # argument is never a string: every row drops
            sql = (f"SELECT c.*, 0 AS {o_p}, 'n' AS {o_m} "
                   f"FROM {child.name} AS c WHERE 0 = 1")
            columns = dict(child.columns)
            columns[op.out_var] = ValCol(src.root, o_p, o_m, _N)
            return Fragment(self._cte(sql), columns)

        def arm(joins: str, where: str, out: str) -> str:
            return (f"SELECT c.*, {out} AS {o_p}, 'n' AS {o_m}\n"
                    f"FROM {child.name} AS c\n{joins}\nWHERE {where}")

        arms: list[str] = []
        if "n" in src.modes:
            arms.append(arm(
                f"JOIN node AS s ON s.root = c.{src.root} "
                f"AND s.pre = c.{src.pre}\n"
                f"JOIN sel AS e ON e.root = s.root "
                f"AND e.base = s.deref_base AND e.name = {attr}",
                f"c.{src.mode} = 'n'", "e.target"))
        if "h" in src.modes:
            tj = (f"JOIN node AS t ON t.root = c.{src.root} "
                  f"AND t.pre = c.{src.pre}")
            # the wrapper's own (single) field matches: value = node
            arms.append(arm(
                tj, f"c.{src.mode} = 'h' AND t.name = {attr}",
                f"c.{src.pre}"))
            # unshadowed payload field of a tuple-valued wrapper
            arms.append(arm(
                tj + "\nJOIN node AS e ON e.root = t.root "
                     f"AND e.parent = t.pre AND e.name = {attr}",
                f"c.{src.mode} = 'h' AND t.kind = 'tuple' "
                f"AND t.name != {attr}",
                "e.pre"))
        columns = dict(child.columns)
        columns[op.out_var] = ValCol(src.root, o_p, o_m, _N)
        return self._union_arms(arms, columns)

    def _step_index(self, op: StepOp, child: Fragment,
                    src: ValCol) -> Fragment:
        if op.kind == "index":
            argument = op.argument
        else:
            desc = child.columns.get(op.argument)
            if isinstance(desc, IntCol):
                argument = desc
            elif isinstance(desc, ConstCol):
                argument = desc.value
            else:
                raise _Unsupported("index-by-var argument of opaque "
                                   "type")
        if isinstance(argument, IntCol):
            index = f"c.{argument.col}"
        elif isinstance(argument, int) and not isinstance(argument,
                                                          bool):
            index = self._param(argument)
        elif isinstance(argument, bool):
            index = self._param(int(argument))
        else:
            index = None  # Python: not isinstance(int) -> every row drops
        _, o_p, o_m = self._val()
        columns = dict(child.columns)
        if index is None:
            sql = (f"SELECT c.*, 0 AS {o_p}, 'n' AS {o_m} "
                   f"FROM {child.name} AS c WHERE 0 = 1")
            columns[op.out_var] = ValCol(src.root, o_p, o_m, _N)
            return Fragment(self._cte(sql), columns)

        def arm(joins: str, where: str, out: str, mode: str) -> str:
            return (f"SELECT c.*, {out} AS {o_p}, {mode} AS {o_m}\n"
                    f"FROM {child.name} AS c\n{joins}\nWHERE {where}")

        arms: list[str] = []
        modes: frozenset = frozenset()
        if "n" in src.modes:
            arms.append(arm(
                f"JOIN node AS s ON s.root = c.{src.root} "
                f"AND s.pre = c.{src.pre}\n"
                "JOIN node AS t ON t.root = s.root AND t.pre = s.cont\n"
                "JOIN node AS e ON e.root = t.root "
                f"AND e.parent = t.pre AND e.position = {index}",
                f"c.{src.mode} = 'n' AND t.kind IN ('list', 'tuple')",
                "e.pre",
                "CASE WHEN t.kind = 'tuple' THEN 'h' ELSE 'n' END"))
            modes |= _NH
        if "h" in src.modes:
            tj = (f"JOIN node AS t ON t.root = c.{src.root} "
                  f"AND t.pre = c.{src.pre}")
            arms.append(arm(
                tj + "\nJOIN node AS e ON e.root = t.root "
                     f"AND e.parent = t.pre AND e.position = {index}",
                f"c.{src.mode} = 'h' AND t.kind = 'tuple'",
                "e.pre", "'h'"))
            arms.append(arm(
                tj,
                f"c.{src.mode} = 'h' AND t.kind != 'tuple' "
                f"AND {index} = 0",
                f"c.{src.pre}", "'h'"))
            modes |= _H
        columns[op.out_var] = ValCol(src.root, o_p, o_m, modes or _N)
        return self._union_arms(arms, columns)

    def _step_deref(self, op: StepOp, child: Fragment,
                    src: ValCol) -> Fragment:
        _, o_p, o_m = self._val()
        arms: list[str] = []
        if "n" in src.modes:
            arms.append(
                f"SELECT c.*, e.pre AS {o_p}, 'n' AS {o_m}\n"
                f"FROM {child.name} AS c\n"
                f"JOIN node AS s ON s.root = c.{src.root} "
                f"AND s.pre = c.{src.pre}\n"
                "JOIN node AS e ON e.root = s.root "
                "AND e.parent = s.pre AND e.step = 'deref'\n"
                f"WHERE c.{src.mode} = 'n' AND s.kind = 'oid'")
        if not arms:
            # a wrapper is never an oid: every row drops
            arms.append(f"SELECT c.*, 0 AS {o_p}, 'n' AS {o_m} "
                        f"FROM {child.name} AS c WHERE 0 = 1")
        columns = dict(child.columns)
        columns[op.out_var] = ValCol(src.root, o_p, o_m, _N)
        return self._union_arms(arms, columns)

    # -- structural operators -------------------------------------------------

    def _scan_arms(self, child: Fragment, src: ValCol,
                   pd: str, pn: str, o_p: str, o_m: str,
                   extra: str = "", extra_cond: str = "",
                   wrapper_cond: str = "") -> list[str]:
        """The three structural-scan arms: subtree range over an
        ordinary node; the wrapper itself (relative path ε); the
        wrapper's payload subtree (relative paths start at the
        wrapper's field step, i.e. depth ``level - 1``).

        ``extra`` appends output columns, ``extra_cond`` a condition on
        the scanned node ``d`` (the interval-join vkey prefilter) and
        ``wrapper_cond`` its counterpart for the wrapper-ε arm."""
        arms = []
        if "n" in src.modes:
            arms.append(
                f"SELECT c.*, s.level AS {pd}, d.pre AS {pn}, "
                f"d.pre AS {o_p}, 'n' AS {o_m}{extra}\n"
                f"FROM {child.name} AS c\n"
                f"JOIN node AS s ON s.root = c.{src.root} "
                f"AND s.pre = c.{src.pre}\n"
                "JOIN node AS d ON d.root = s.root "
                "AND d.pre >= s.pre AND d.pre < s.end_pre\n"
                f"WHERE c.{src.mode} = 'n'{extra_cond}")
        if "h" in src.modes:
            tj = (f"JOIN node AS t ON t.root = c.{src.root} "
                  f"AND t.pre = c.{src.pre}")
            arms.append(
                f"SELECT c.*, t.level AS {pd}, t.pre AS {pn}, "
                f"c.{src.pre} AS {o_p}, 'h' AS {o_m}{extra}\n"
                f"FROM {child.name} AS c\n{tj}\n"
                f"WHERE c.{src.mode} = 'h'{wrapper_cond}")
            arms.append(
                f"SELECT c.*, t.level - 1 AS {pd}, d.pre AS {pn}, "
                f"d.pre AS {o_p}, 'n' AS {o_m}{extra}\n"
                f"FROM {child.name} AS c\n{tj}\n"
                "JOIN node AS d ON d.root = t.root "
                "AND d.pre >= t.pre AND d.pre < t.end_pre\n"
                f"WHERE c.{src.mode} = 'h'{extra_cond}")
        return arms

    def _scan(self, op: StructuralScanOp) -> Fragment:
        child = self.emit(op.child)
        if op.out_var in child.columns or op.path_var in child.columns:
            raise _Unsupported("scan output already bound")
        src = self._source(child, op.source_var)
        self.has_scans = True
        pd, pn = self._fresh("d"), self._fresh("n")
        _, o_p, o_m = self._val()
        arms = self._scan_arms(child, src, pd, pn, o_p, o_m)
        columns = dict(child.columns)
        columns[op.path_var] = PathCol(src.root, pd, pn)
        out_modes = _NH if "h" in src.modes else _N
        columns[op.out_var] = ValCol(src.root, o_p, o_m, out_modes)
        return self._union_arms(arms, columns)

    def interval_join(self, op: IntervalJoinOp) -> Fragment:
        """The scan arms constrained by a sound ``vkey`` prefilter.

        The caller (the hybridizer) re-applies ``op.recheck_atom`` as a
        Python selection on top — exactly the operator's documented
        fallback (scan + exact recheck), so the prefilter only has to
        never drop an equivalent pair: two values with non-NULL keys
        are equivalent only if the keys are equal, and a NULL on either
        side passes through to the recheck."""
        child = self.emit(op.child)
        if op.out_var in child.columns or op.path_var in child.columns:
            raise _Unsupported("join output already bound")
        src = self._source(child, op.source_var)
        probe = child.columns.get(op.probe_var)
        key = None
        if isinstance(probe, ValCol):
            key = (f"(SELECT p2.vkey FROM node AS p2 "
                   f"WHERE p2.root = c.{probe.root} "
                   f"AND p2.pre = c.{probe.pre} "
                   f"AND c.{probe.mode} = 'n')")
        elif isinstance(probe, ConstCol):
            from repro.sqlbackend.shred import value_key
            probe_key = value_key(probe.value)
            key = "NULL" if probe_key is None \
                else self._param(probe_key)
        elif isinstance(probe, IntCol):
            key = f"'n:' || CAST(c.{probe.col} AS TEXT)"
        elif isinstance(probe, StrCol):
            key = f"'s:' || c.{probe.col}"
        elif isinstance(probe, PathCol):
            key = "NULL"  # a path never equals a node value
        else:
            raise _Unsupported("interval-join probe is unbound")
        self.has_scans = True
        pd, pn = self._fresh("d"), self._fresh("n")
        _, o_p, o_m = self._val()
        cond = (f" AND ({key} IS NULL OR d.vkey IS NULL "
                f"OR d.vkey = {key})")
        # the wrapper arm's value is a tuple: only a NULL probe key
        # (collection / wrapper / absent) can still match it exactly
        wrapper_cond = f" AND {key} IS NULL"
        arms = self._scan_arms(child, src, pd, pn, o_p, o_m,
                               extra_cond=cond,
                               wrapper_cond=wrapper_cond)
        columns = dict(child.columns)
        columns[op.path_var] = PathCol(src.root, pd, pn)
        out_modes = _NH if "h" in src.modes else _N
        columns[op.out_var] = ValCol(src.root, o_p, o_m, out_modes)
        return self._union_arms(arms, columns)

    def _attr_scan(self, op: StructuralAttrScanOp) -> Fragment:
        child = self.emit(op.child)
        for produced in (op.path_var, op.out_var, op.value_var,
                         op.attr_var):
            if produced is not None and produced in child.columns:
                raise _Unsupported("attr-scan output already bound")
        src = self._source(child, op.source_var)
        attr = None
        if op.attr is not None:
            attr = self._param(op.attr)
        self.has_scans = True
        pd, pn = self._fresh("d"), self._fresh("n")
        _, o_p, o_m = self._val()
        _, v_p, v_m = self._val()
        an = self._fresh("w") if op.attr_var is not None else None

        def arm(joins: str, where: str, depth: str,
                node: str, out: str, out_mode: str, value: str,
                name: str) -> str:
            extras = (f"{depth} AS {pd}, {node} AS {pn}, "
                      f"{out} AS {o_p}, {out_mode} AS {o_m}, "
                      f"{value} AS {v_p}, 'n' AS {v_m}")
            if an is not None:
                extras += f", {name} AS {an}"
            return (f"SELECT c.*, {extras}\n"
                    f"FROM {child.name} AS c\n{joins}\nWHERE {where}")

        sel_name = f" AND e.name = {attr}" if attr is not None else ""
        arms: list[str] = []
        if "n" in src.modes:
            arms.append(arm(
                f"JOIN node AS s ON s.root = c.{src.root} "
                f"AND s.pre = c.{src.pre}\n"
                "JOIN node AS h ON h.root = s.root "
                "AND h.pre >= s.pre AND h.pre < s.end_pre\n"
                "JOIN sel AS e ON e.root = h.root "
                f"AND e.base = h.deref_base{sel_name}",
                f"c.{src.mode} = 'n'",
                "s.level", "h.pre", "h.pre", "'n'", "e.target",
                "e.name"))
        if "h" in src.modes:
            tj = (f"JOIN node AS t ON t.root = c.{src.root} "
                  f"AND t.pre = c.{src.pre}")
            # the wrapper holder, its own field matching
            direct = (f" AND t.name = {attr}" if attr is not None
                      else "")
            arms.append(arm(
                tj, f"c.{src.mode} = 'h'{direct}",
                "t.level", "t.pre", f"c.{src.pre}", "'h'", "t.pre",
                "t.name"))
            # the wrapper holder, unshadowed payload fields
            if attr is not None:
                payload = (f"AND e.name = {attr}",
                           f" AND t.name != {attr}")
            else:
                payload = ("AND e.name != t.name", "")
            arms.append(arm(
                tj + "\nJOIN node AS e ON e.root = t.root "
                     f"AND e.parent = t.pre {payload[0]}",
                f"c.{src.mode} = 'h' AND t.kind = 'tuple'"
                f"{payload[1]}",
                "t.level", "t.pre", f"c.{src.pre}", "'h'", "e.pre",
                "e.name"))
            # holders inside the payload subtree
            arms.append(arm(
                tj + "\nJOIN node AS h ON h.root = t.root "
                     "AND h.pre >= t.pre AND h.pre < t.end_pre\n"
                     "JOIN sel AS e ON e.root = h.root "
                     f"AND e.base = h.deref_base{sel_name}",
                f"c.{src.mode} = 'h'",
                "t.level - 1", "h.pre", "h.pre", "'n'", "e.target",
                "e.name"))
        columns = dict(child.columns)
        columns[op.path_var] = PathCol(src.root, pd, pn)
        out_modes = _NH if "h" in src.modes else _N
        columns[op.out_var] = ValCol(src.root, o_p, o_m, out_modes)
        columns[op.value_var] = ValCol(src.root, v_p, v_m, _N)
        if op.attr_var is not None:
            columns[op.attr_var] = StrCol(an)
        return self._union_arms(arms, columns)

    # -- union ----------------------------------------------------------------

    def _union(self, op: UnionOp) -> Fragment:
        fragments = [self.emit(branch) for branch in op.branches]
        variables = set(fragments[0].columns)
        for fragment in fragments[1:]:
            if set(fragment.columns) != variables:
                raise _Unsupported("union branches bind different "
                                   "variables")
        columns: dict = {}
        selects: list[list[str]] = [[] for _ in fragments]

        def add(alias: str, exprs: list[str]) -> None:
            for select, expr in zip(selects, exprs):
                select.append(f"{expr} AS {alias}")

        for variable in variables:
            descs = [f.columns[variable] for f in fragments]
            first = descs[0]
            if all(isinstance(d, ConstCol) for d in descs):
                values = [d.value for d in descs]
                if all(type(v) is type(values[0]) and v == values[0]
                       for v in values[1:]):
                    columns[variable] = ConstCol(values[0])
                    continue
                if all(isinstance(v, int) for v in values):
                    col = self._fresh("i")
                    add(col, [self._param(int(v)) for v in values])
                    columns[variable] = IntCol(col)
                    continue
                if all(isinstance(v, str) for v in values):
                    col = self._fresh("w")
                    add(col, [self._param(v) for v in values])
                    columns[variable] = StrCol(col)
                    continue
                raise _Unsupported("union of unequal constants")
            if isinstance(first, ValCol):
                if not all(isinstance(d, ValCol) for d in descs):
                    raise _Unsupported("union mixes descriptor kinds")
                r, p, m = self._val()
                add(r, [f"b.{d.root}" for d in descs])
                add(p, [f"b.{d.pre}" for d in descs])
                add(m, [f"b.{d.mode}" for d in descs])
                modes = frozenset().union(*(d.modes for d in descs))
                columns[variable] = ValCol(r, p, m, modes)
                continue
            if isinstance(first, PathCol):
                if not all(isinstance(d, PathCol) for d in descs):
                    raise _Unsupported("union mixes descriptor kinds")
                r = self._fresh("v") + "r"
                pd, pn = self._fresh("d"), self._fresh("n")
                add(r, [f"b.{d.root}" for d in descs])
                add(pd, [f"b.{d.depth}" for d in descs])
                add(pn, [f"b.{d.node}" for d in descs])
                columns[variable] = PathCol(r, pd, pn)
                continue
            if isinstance(first, IntCol):
                if not all(isinstance(d, IntCol) for d in descs):
                    raise _Unsupported("union mixes descriptor kinds")
                col = self._fresh("i")
                add(col, [f"b.{d.col}" for d in descs])
                columns[variable] = IntCol(col)
                continue
            if isinstance(first, StrCol):
                if not all(isinstance(d, StrCol) for d in descs):
                    raise _Unsupported("union mixes descriptor kinds")
                col = self._fresh("w")
                add(col, [f"b.{d.col}" for d in descs])
                columns[variable] = StrCol(col)
                continue
            raise _Unsupported("union mixes descriptor kinds")
        arms = []
        for fragment, select in zip(fragments, selects):
            exprs = ", ".join(select) if select else "0 AS seed0"
            arms.append(f"SELECT {exprs} FROM {fragment.name} AS b")
        return self._union_arms(arms, columns)

    # -- the contains prefilter -----------------------------------------------

    def contains_prefilter(self, fragment: Fragment,
                           atom: Any) -> Fragment | None:
        """A sound content-table probe for ``Select contains(X, p)``.

        Returns a narrowed fragment, or ``None`` when the atom is not
        of that shape / has no required literal words.  Sound to apply
        *below* the exact Python recheck: a row is dropped only when
        it binds ``X`` to a *string atom* (a ``content`` row exists
        for the node) missing a required literal word as a substring.
        Non-string subjects pass through untouched — the calculus
        ``contains`` routes them through the ``text()`` inverse
        mapping (:func:`repro.mapping.text_inverse.text_of`), whose
        collected text is not this node's own content row.  Matching
        is exact and case-sensitive — which is why ``instr``, not the
        case-folding ``LIKE``, probes."""
        if not isinstance(atom, Pred) or atom.predicate != "contains":
            return None
        if len(atom.arguments) != 2:
            return None
        subject, pattern_term = atom.arguments
        if not isinstance(subject, Variable):
            return None
        desc = fragment.columns.get(subject)
        if not isinstance(desc, ValCol):
            return None
        if not isinstance(pattern_term, Const):
            return None
        try:
            from repro.text.predicates import _as_expr
            words = _required_words(_as_expr(pattern_term.value))
        except Exception:
            return None
        if not words:
            return None
        probes = " AND ".join(
            "EXISTS (SELECT 1 FROM content AS t "
            f"WHERE t.root = c.{desc.root} AND t.pre = c.{desc.pre} "
            f"AND instr(t.value, {self._param(word)}) > 0)"
            for word in sorted(words))
        sql = (f"SELECT c.* FROM {fragment.name} AS c\n"
               f"WHERE c.{desc.mode} != 'n'\n"
               f"   OR NOT EXISTS (SELECT 1 FROM content AS t "
               f"WHERE t.root = c.{desc.root} AND t.pre = c.{desc.pre})\n"
               f"   OR ({probes})")
        self.prefilters += 1
        return Fragment(self._cte(sql), dict(fragment.columns))


def _required_words(expr: Any) -> set[str]:
    """Literal words every satisfying text must contain.  Disjunction
    and negation contribute nothing (their branches are optional)."""
    from repro.text.patterns import AndExpr, Pattern
    if isinstance(expr, Pattern):
        return set(expr.literal_words())
    if isinstance(expr, AndExpr):
        return _required_words(expr.left) | _required_words(expr.right)
    return set()


def emit_program(plan: Any, root_names: Any = ()) -> SQLProgram:
    """Compile one whole operator (sub)tree to a single statement.

    Raises :class:`~repro.errors.SQLUnsupportedError` when any
    operator falls outside the relational subset — callers that want
    partial emission use the backend's hybridizer instead."""
    emitter = Emitter(root_names)
    try:
        fragment = emitter.emit(plan)
    except _Unsupported as exc:
        raise SQLUnsupportedError(
            f"plan outside the relational subset: {exc}") from exc
    return emitter.program(fragment)
