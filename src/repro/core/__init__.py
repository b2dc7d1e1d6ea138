"""The paper's core contribution: layouts, cost model and search.

* :class:`Layout` — the ``x_ij`` fraction matrix with Definition-2
  validity;
* :class:`CostModel` / :class:`WorkloadCostEvaluator` — the Figure-7
  analytical I/O response-time model;
* constraints — co-location, availability, and incrementality
  (Section 2.3);
* searchers — FULL STRIPING, TS-GREEDY (Figure 9), exhaustive and
  random baselines;
* :class:`LayoutAdvisor` — the end-to-end facade matching Figure 3's
  architecture, with its search parameters in :class:`SearchOptions`.
"""

from repro.core.layout import Layout, stripe_fractions
from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.constraints import (
    AvailabilityRequirement,
    CoLocated,
    ConstraintSet,
    MaxDataMovement,
)
from repro.core.fullstripe import full_striping
from repro.core.partitioning import PartitionStats, partition_access_graph
from repro.core.greedy import GreedyStep, SearchResult, TsGreedySearch
from repro.core.exhaustive import exhaustive_search
from repro.core.annealing import annealing_search
from repro.core.random_layout import random_layout
from repro.core.advisor import LayoutAdvisor, Recommendation, SearchOptions
from repro.core.incremental import IncrementalSearch

__all__ = [
    "Layout",
    "stripe_fractions",
    "CostModel",
    "WorkloadCostEvaluator",
    "AvailabilityRequirement",
    "CoLocated",
    "ConstraintSet",
    "MaxDataMovement",
    "full_striping",
    "GreedyStep",
    "PartitionStats",
    "partition_access_graph",
    "SearchResult",
    "TsGreedySearch",
    "exhaustive_search",
    "annealing_search",
    "random_layout",
    "IncrementalSearch",
    "LayoutAdvisor",
    "Recommendation",
    "SearchOptions",
]
