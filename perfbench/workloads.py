"""The three cold-sweep workloads and the per-flow output records.

Every flow has a key (``<benchmark>/O<level>/<platform>``) so results are
compared by key, never by position: the seed only shuffles the order in
which flows are submitted.

* ``static_suite`` -- 20 benchmarks x O0-O3 on the 200 MHz MIPS platform.
  Every flow has its own binary, so nothing a stage cache could reuse.
  O0 is stack-heavy (stack removal work), O3 unrolled (rerolling work).
* ``table_grid`` -- 20 benchmarks at O1 x the five Table 2/5 platforms.
  Each binary repeats five times and only the platform changes, so 80% of
  the compile, simulate and decompile calls are redundant.
* ``dynamic_suite`` -- 20 benchmarks at O1 x {hard 200 MHz, soft 85 MHz}
  through the online (warp-style) flow: the only workload that runs the
  sampled simulator path and the dynamic partition controller.
"""

from __future__ import annotations

import random

from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flows
from repro.flow import FlowJob, run_flows
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS, BENCHMARKS_BY_NAME

_GRID_PLATFORMS = ("mips40", "mips200", "mips400", "softcore85", "softcore50")
_DYNAMIC_PLATFORMS = ("mips200", "softcore85")


def _grid(workload: str) -> list[tuple[str, int, str]]:
    """(benchmark, opt level, platform name) for every flow of *workload*."""
    names = [bench.name for bench in ALL_BENCHMARKS]
    if workload == "static_suite":
        return [(name, level, "mips200") for name in names for level in range(4)]
    if workload == "table_grid":
        return [(name, 1, plat) for name in names for plat in _GRID_PLATFORMS]
    if workload == "dynamic_suite":
        return [(name, 1, plat) for name in names for plat in _DYNAMIC_PLATFORMS]
    raise ValueError(f"unknown workload {workload!r}")


def flow_key(name: str, level: int, platform: str) -> str:
    return f"{name}/O{level}/{platform}"


def make_jobs(workload: str, seed: int, subset: tuple[str, ...] | None = None):
    """``[(key, job)]`` for *workload*, shuffled by *seed*."""
    job_type = DynamicFlowJob if workload == "dynamic_suite" else FlowJob
    jobs = [
        (
            flow_key(name, level, plat),
            job_type(
                BENCHMARKS_BY_NAME[name].source,
                name,
                opt_level=level,
                platform=NAMED_PLATFORMS[plat],
            ),
        )
        for name, level, plat in _grid(workload)
        if subset is None or name in subset
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def run_one(workload: str, job):
    """Submit one job through the public sweep entry point and wait for it."""
    if workload == "dynamic_suite":
        return run_dynamic_flows([job], max_workers=1)[0]
    return run_flows([job], max_workers=1, cache=False)[0]


def output_record(workload: str, report) -> dict:
    """The outputs of one flow the golden record pins exactly."""
    if workload == "dynamic_suite":
        timeline = report.timeline
        return {
            "recovered": report.recovered,
            "warm_gap": report.warm_gap,
            "repartitions": len(timeline.events),
            "final_resident": list(timeline.final_resident),
            "dynamic_speedup": report.dynamic_speedup,
            "energy_savings": report.energy_savings,
        }
    return {
        "recovered": report.recovered,
        "steps": report.run.steps,
        "cycles": report.run.cycles,
        "kernels": len(report.metrics.kernels) if report.metrics else 0,
        "app_speedup": report.app_speedup,
        "kernel_speedup": report.kernel_speedup,
        "energy_savings": report.energy_savings,
        "area_gates": report.area_gates,
    }
