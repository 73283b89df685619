"""Table statistics and the row model (the cost stage's data).

The subsystem folds what the engine already measures — class/root
cardinalities, text-index posting sizes, structural-index node and
attribute counts — into an epoch-versioned :class:`Statistics`
snapshot, and estimates every algebra operator's output rows with
:func:`estimate`.  The optimizer's verifier-gated ``cost`` stage
(:func:`repro.algebra.optimizer.optimize` with ``stats=...``) reads
the snapshot to prune union branches that are provably empty before
any index probe runs, and stamps the ``est_rows`` that
``explain_analyze`` prints beside the actual counts.
"""

from repro.stats.cost import annotate_estimates, estimate
from repro.stats.manager import StatisticsManager, q_error
from repro.stats.statistics import CostEvidence, Statistics

__all__ = [
    "CostEvidence",
    "Statistics",
    "StatisticsManager",
    "annotate_estimates",
    "estimate",
    "q_error",
]
