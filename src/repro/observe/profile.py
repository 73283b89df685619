"""Per-operator profiling of algebra plans, and observer installation.

:class:`PlanProfiler` meters each operator's
:meth:`~repro.algebra.operators.Operator.batch` call, recording

* ``rows_out`` — rows in the batches the operator returned (the
  EXPLAIN ANALYZE "actual rows", deterministic for a given corpus),
* ``pulls`` — how many times the operator was asked for its batch (a
  shared subtree is asked once per consuming branch, and computes it
  once),
* ``elapsed`` — inclusive wall-clock seconds of those calls (the
  operator plus its subtree; a late column is paid for by the operator
  that first reads it; informational only — never assert on it),
* ``self_time`` — ``elapsed`` minus the time of the operator calls made
  *inside* those calls: what the operator itself cost.  Taken call by
  call, so a shared subplan's time is charged once, to itself, and the
  self times of a plan's nodes add up to its root's ``elapsed``.

:func:`observed` temporarily installs a metrics registry, tracer and
profiler on an :class:`~repro.calculus.evaluator.EvalContext` — and on
the :func:`metered_layers` hanging off it — restoring the previous
observers on exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class OperatorStats:
    """Deterministic row counts plus elapsed time for one plan node."""

    __slots__ = ("rows_out", "pulls", "elapsed", "self_time")

    def __init__(self) -> None:
        self.rows_out = 0
        self.pulls = 0
        self.elapsed = 0.0
        self.self_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"OperatorStats(rows_out={self.rows_out}, "
                f"pulls={self.pulls}, elapsed={self.elapsed:.6f}, "
                f"self_time={self.self_time:.6f})")


class PlanProfiler:
    """Accumulates :class:`OperatorStats` keyed by plan-node identity."""

    def __init__(self) -> None:
        # id(op) -> stats; the operator object is kept alive alongside so
        # the id cannot be recycled while the profiler holds it.
        self._stats: dict[int, tuple[object, OperatorStats]] = {}
        # seconds spent in the metered calls made so far by the call
        # being metered (one profiler meters one thread's execution)
        self._inside = 0.0

    def stats_for(self, operator) -> OperatorStats:
        entry = self._stats.get(id(operator))
        if entry is None:
            entry = (operator, OperatorStats())
            self._stats[id(operator)] = entry
        return entry[1]

    def rows_out(self, operator) -> int:
        """Actual rows the operator yielded (0 when it never ran)."""
        entry = self._stats.get(id(operator))
        return entry[1].rows_out if entry is not None else 0

    def wrap(self, operator, produce, ctx):
        """Meter one ``produce(operator, ctx)`` call — the operator's
        own ``batch`` — and return its batch: one more pull, the
        call's elapsed time (inclusive of the subtree the call asks;
        without it, its self time), ``batch.size`` more rows."""
        stats = self.stats_for(operator)
        stats.pulls += 1
        outside, self._inside = self._inside, 0.0
        started = time.perf_counter()
        try:
            batch = produce(operator, ctx)
        finally:
            elapsed = time.perf_counter() - started
            stats.elapsed += elapsed
            stats.self_time += elapsed - self._inside
            self._inside = outside + elapsed
        stats.rows_out += batch.size
        return batch


def metered_layers(ctx, *owners) -> list:
    """The objects besides ``ctx`` whose ``metrics`` attribute a
    registry is installed on: the context's instance, text index and
    structural index, then ``owners`` (the engine adds its statistics
    manager, SQL backend and shred); absent ones are skipped."""
    return [layer for layer in (ctx.instance, ctx.text_index,
                                ctx.struct_index, *owners)
            if layer is not None]


@contextmanager
def observed(ctx, metrics=None, tracer=None, profiler=None, layers=None):
    """Install observers on an evaluation context, restore them on exit.

    ``ctx`` is an :class:`~repro.calculus.evaluator.EvalContext`; the
    metrics registry is propagated to ``layers`` (default:
    :func:`metered_layers` of ``ctx``) so dereference, index and
    statistics counters land in the same snapshot.
    """
    if layers is None:
        layers = metered_layers(ctx)
    saved = (ctx.metrics, ctx.tracer, ctx.profiler,
             [layer.metrics for layer in layers])
    if metrics is not None:
        ctx.metrics = metrics
        for layer in layers:
            layer.metrics = metrics
    if tracer is not None:
        ctx.tracer = tracer
    if profiler is not None:
        ctx.profiler = profiler
    try:
        yield ctx
    finally:
        ctx.metrics, ctx.tracer, ctx.profiler, layer_metrics = saved
        for layer, previous in zip(layers, layer_metrics):
            layer.metrics = previous
