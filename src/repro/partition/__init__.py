"""Hardware/software partitioning (paper section 3), as a pass pipeline.

* :mod:`profiles` -- maps simulator profiling results onto recovered loops
  (execution cycles, iterations, invocations per loop),
* :mod:`estimator` -- builds candidate hardware regions by synthesizing
  every profiled loop, and holds the kernel time model (FPGA, invocation
  and migration cycles),
* :mod:`graph` -- the partitioning IR: candidates as nodes with per-device
  costs from :func:`device_cost`,
* :mod:`costmodels` -- :func:`device_cost`, a candidate's time and area on
  a CPU, fabric or CGRA device,
* :mod:`passes` -- the pass-manager and the standard passes (filter,
  legalize, report), each timed and traced,
* :mod:`placement` -- placement algorithms as interchangeable passes: the
  paper's three-step 90-10 heuristic plus greedy, GCLP, annealing and the
  exhaustive reference,
* :mod:`legalize` -- the one shared budget/overlap validation and repair,
* :mod:`api` -- the single entry point :func:`partition`.
"""

from repro.partition.api import (
    PartitionOutcome,
    default_passes,
    partition,
)
from repro.partition.costmodels import DeviceCost, device_cost
from repro.partition.estimator import Candidate, build_candidates
from repro.partition.graph import (
    PartitionGraph,
    PartitionNode,
    build_graph,
)
from repro.partition.passes import (
    FilterPass,
    LegalizePass,
    PartitionPass,
    PassManager,
    ReportPass,
)
from repro.partition.placement import (
    PLACEMENTS,
    AnnealingPlacement,
    ExhaustivePlacement,
    GclpPlacement,
    GreedyPlacement,
    NinetyTenOptions,
    NinetyTenPlacement,
    PlacementPass,
)
from repro.partition.profiles import LoopProfile, ProgramProfile, build_profile
from repro.partition.result import PartitionResult, result_from_graph

__all__ = [
    "AnnealingPlacement",
    "Candidate",
    "DeviceCost",
    "ExhaustivePlacement",
    "FilterPass",
    "GclpPlacement",
    "GreedyPlacement",
    "LegalizePass",
    "LoopProfile",
    "NinetyTenOptions",
    "NinetyTenPlacement",
    "PLACEMENTS",
    "PartitionGraph",
    "PartitionNode",
    "PartitionOutcome",
    "PartitionPass",
    "PartitionResult",
    "PassManager",
    "PlacementPass",
    "ProgramProfile",
    "build_candidates",
    "build_graph",
    "build_profile",
    "default_passes",
    "device_cost",
    "partition",
    "result_from_graph",
]
