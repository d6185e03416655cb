"""Online (run-time) hardware/software partitioning -- "warp processing".

The companion study to the source paper (Lysecky & Vahid, "A Study of the
Speedups and Competitiveness of FPGA Soft Processor Cores using Dynamic
Hardware/Software Partitioning") runs the same decompile -> synthesize
machinery *at run time*: a small on-chip profiler watches backward branches,
on-chip CAD lifts the currently-hot loops to hardware, and the FPGA is
reconfigured while the application keeps running.  This package models that
flow end to end on one recorded sampled run per binary
(:func:`repro.stages.sample_stream`), which every consumer replays:

* :mod:`profiler` -- the on-chip profiler: an exponentially-decayed
  hot-target table fed from the simulator's per-site counters,
* :mod:`controller` -- the dynamic partition controller: interval-by-interval
  time/energy accounting, re-partition decisions from online profile data
  only, FPGA capacity management with eviction of cooled kernels, and
  explicit charging of CAD and reconfiguration overheads,
* :mod:`flow` -- :func:`run_dynamic_flow`, which replays the binary's
  recorded samples into a controller and reports the dynamic timeline next
  to the static (oracle-profile) partition the original paper computes,
* :mod:`multi` -- several applications, each replaying its own stream
  round-robin, sharing one fabric.
"""

from repro.dynamic.profiler import OnlineProfiler, ProfilerConfig
from repro.dynamic.controller import (
    DynamicConfig,
    DynamicPartitionController,
    DynamicTimeline,
    IntervalStats,
    RepartitionEvent,
)
from repro.dynamic.fabric import FabricState
from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flow, run_dynamic_flows
from repro.dynamic.multi import (
    AppSpec,
    MultiAppJob,
    MultiAppReport,
    run_multi_app_flow,
    run_multi_app_flows,
)

__all__ = [
    "AppSpec",
    "DynamicConfig",
    "DynamicFlowJob",
    "DynamicPartitionController",
    "DynamicTimeline",
    "FabricState",
    "IntervalStats",
    "MultiAppJob",
    "MultiAppReport",
    "OnlineProfiler",
    "ProfilerConfig",
    "RepartitionEvent",
    "run_dynamic_flow",
    "run_dynamic_flows",
    "run_multi_app_flow",
    "run_multi_app_flows",
]
