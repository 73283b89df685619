"""Table statistics and the row model (what ``explain_analyze`` estimates
with).

The subsystem folds what the engine already measures — class/root
cardinalities, text-index posting sizes, structural-index node and
attribute counts — into an epoch-versioned :class:`Statistics`
snapshot, and estimates every algebra operator's output rows with
:func:`estimate`.  Only ``explain_analyze`` reads them: it takes a
snapshot inside its own observed scope and prints each node's
estimate beside the actual count.  No compile reads a snapshot and no
plan node carries an estimate; a union's provably empty branches are
skipped at run time by their index probes
(:class:`~repro.algebra.operators.UnionOp`).
"""

from repro.stats.cost import estimate
from repro.stats.manager import StatisticsManager, q_error
from repro.stats.statistics import Statistics

__all__ = [
    "Statistics",
    "StatisticsManager",
    "estimate",
    "q_error",
]
