"""Relational backend: shred instances into SQLite, compile plans to SQL.

The paper's Section-6 thesis is that one algebra can serve multiple
physical realizations.  This package adds the relational one, layered
on the in-memory one rather than beside it — the instance is encoded
once, by :mod:`repro.structindex`, and shredded from that encoding:

* :mod:`repro.sqlbackend.dialect` — the thin SQL-dialect seam
  (:class:`SQLiteDialect` in-process today; Postgres can slot in
  behind the same interface),
* :mod:`repro.sqlbackend.shred` — projects the structural index's
  per-root pre/post blocks into ``node``/``sel``/``content``/``attr``
  tables (the accel layout, relationally), re-inserting only the roots
  whose blocks the index rebuilt,
* :mod:`repro.sqlbackend.emit` — the plan -> SQL emitter: every
  algebra operator contributes one named subquery (CTE), composed
  bottom-up into a single statement per plan; operators outside the
  relational subset become exact Python post-operators over the
  hydrated rows,
* :mod:`repro.sqlbackend.backend` — execution: freshness through the
  index's refresh, result shaping through the ordinary
  :func:`~repro.algebra.execute.execute_plan`, and ``sql.*`` counters.

Unsupported constructs raise
:class:`~repro.errors.SQLUnsupportedError` (a
:class:`~repro.errors.CompilationError`), so the engine falls back to
plan execution and diffcheck coarsens the rejection instead of
reporting a spurious divergence.
"""

from repro.sqlbackend.dialect import Dialect, SQLiteDialect
from repro.sqlbackend.shred import Shred, value_key

__all__ = [
    "Dialect",
    "SQLBackend",
    "SQLProgram",
    "SQLiteDialect",
    "Shred",
    "emit_program",
    "value_key",
]


def __getattr__(name: str) -> object:
    if name in ("SQLBackend",):
        from repro.sqlbackend.backend import SQLBackend
        return SQLBackend
    if name in ("SQLProgram", "emit_program"):
        from repro.sqlbackend import emit
        return getattr(emit, name)
    raise AttributeError(name)
