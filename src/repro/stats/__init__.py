"""Table statistics: the counts ``DocumentStore.stats()`` reports.

The subsystem folds what the engine already measures — class/root
cardinalities, text-index key and vocabulary sizes, structural-index
node and attribute counts — into an epoch-versioned
:class:`Statistics` snapshot.  Nothing estimates rows from it: no
compile and no ``explain_analyze`` reads a snapshot, and a union's
provably empty branches are skipped at run time by their index probes
(:class:`~repro.algebra.operators.UnionOp`).
"""

from repro.stats.manager import StatisticsManager
from repro.stats.statistics import Statistics

__all__ = [
    "Statistics",
    "StatisticsManager",
]
