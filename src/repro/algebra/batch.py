"""Column batches — what plan operators exchange.

A :class:`Batch` is a set of rows held column-major: ``size`` rows and
one list per variable.  An operator receives its input's whole batch
and returns one batch of its own; nothing is copied per row.  A batch
*derived* from another stores only the columns its operator adds, plus
(when rows were dropped or repeated) an index vector saying which row
of the other each of its rows continues.  Everything else is **late**:

* an inherited column is gathered through the index vector the first
  time someone asks for it, and cached;
* the index vector itself may be handed over as a thunk (with the
  batch's size): a scan's or an unnest's is built only when an
  inherited column is first read;
* an operator may hand over a column as a thunk — a scan's relative
  :class:`~repro.paths.steps.Path`, an alias of another column —
  which is built whole, once, on first use.

So a variable no ancestor reads is never gathered or built, and the
time a late column costs is spent (and profiled) in the operator that
reads it.

A row that does not bind a variable (the branches of a union need not
bind the same ones) holds :data:`MISSING` in that column;
:meth:`Batch.total` tells whether a column is free of such holes, so
the common hole-free case never tests for them.  Columns are shared
between batches and must never be mutated.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

Column = list[Any]
#: What an operator registers under a variable: the column, or a thunk
#: building it.
Late = Column | Callable[[], Column]


class _Missing:
    """The type of :data:`MISSING`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "MISSING"


#: Column entry of a row that leaves the variable unbound.
MISSING: Any = _Missing()


class Batch:
    """``size`` rows, one column per variable (see the module doc)."""

    __slots__ = ("size", "holes", "_columns", "_parent", "_index",
                 "_inherited")

    def __init__(self, size: int, columns: dict[Any, Late]) -> None:
        """A batch of its own: ``columns`` are all it binds."""
        self.size = size
        #: own variables with :data:`MISSING` entries (set by the one
        #: operator whose witnesses may bind different variables)
        self.holes: frozenset[Any] = frozenset()
        self._columns = columns
        self._parent: Batch | None = None
        self._index: Late | None = None
        self._inherited: dict[Any, Column] = {}

    def derive(self, columns: dict[Any, Late], index: Late | None = None,
               size: int | None = None) -> "Batch":
        """A batch continuing this one's rows: its row ``i`` is row
        ``index[i]`` (row ``i``, without an index) extended with — or,
        for a name this batch binds too, rebound to — ``columns``.
        ``index`` may be a thunk building the vector; ``size`` is then
        its length."""
        if size is None:
            size = self.size if index is None else len(index)
        derived = Batch(size, columns)
        derived._parent = self
        derived._index = index
        return derived

    def select(self, keep: list[int],
               columns: dict[Any, Late] | None = None) -> "Batch":
        """The rows ``keep`` (ascending row numbers) of this batch,
        extended with ``columns`` (one entry per kept row)."""
        return self.derive({} if columns is None else columns,
                           None if len(keep) == self.size else keep)

    def has(self, variable: Any) -> bool:
        """Does any row of the batch bind ``variable``?"""
        return (variable in self._columns
                or (self._parent is not None
                    and self._parent.has(variable)))

    def total(self, variable: Any) -> bool:
        """Does *every* row bind ``variable``?"""
        if variable in self._columns:
            return variable not in self.holes
        return self._parent is not None and self._parent.total(variable)

    def column(self, variable: Any) -> Column:
        """The variable's value per row (:data:`MISSING` where a row
        leaves it unbound); ``KeyError`` when no row binds it."""
        column = self._columns.get(variable)
        if column is not None:
            if not isinstance(column, list):
                column = self._columns[variable] = column()
            return column
        column = self._inherited.get(variable)
        if column is None:
            if self._parent is None:
                raise KeyError(variable)
            column = self._parent.column(variable)
            index = self._index
            if index is not None:
                if not isinstance(index, list):
                    index = self._index = index()
                column = list(map(column.__getitem__, index))
            self._inherited[variable] = column
        return column

    def envs(self, variables: Iterable[Any]) -> list[dict[Any, Any]]:
        """One fresh binding environment per row, over those of
        ``variables`` the row binds — what the calculus interpreter
        (``satisfy``/``eval_term``) is handed."""
        names = [v for v in variables if self.has(v)]
        if not names:
            return [{} for _ in range(self.size)]
        columns = [self.column(name) for name in names]
        if not all(self.total(name) for name in names):
            return [{name: value for name, value in zip(names, values)
                     if value is not MISSING}
                    for values in zip(*columns)]
        if len(names) == 1:
            name = names[0]
            return [{name: value} for value in columns[0]]
        return [dict(zip(names, values)) for values in zip(*columns)]


class _Concat(Batch):
    """The rows of several batches one after the other.  Nothing is
    enumerated up front — the branches of a union of plans bind
    thousands of fresh variables nobody above the union reads — so
    every question is put to the parts when it is asked."""

    __slots__ = ("_parts",)

    def __init__(self, parts: list[Batch]) -> None:
        super().__init__(sum(part.size for part in parts), {})
        self._parts = parts

    def has(self, variable: Any) -> bool:
        return any(part.has(variable) for part in self._parts)

    def total(self, variable: Any) -> bool:
        return all(part.total(variable) for part in self._parts)

    def column(self, variable: Any) -> Column:
        column = self._inherited.get(variable)
        if column is None:
            if not self.has(variable):
                raise KeyError(variable)
            column = []
            for part in self._parts:
                column.extend(part.column(variable) if part.has(variable)
                              else [MISSING] * part.size)
            self._inherited[variable] = column
        return column


def concat(parts: list[Batch]) -> Batch:
    """The rows of ``parts`` in order (a union's output); a variable
    some part does not bind holds :data:`MISSING` in that part's
    rows."""
    parts = [part for part in parts if part.size]
    return parts[0] if len(parts) == 1 else _Concat(parts)
