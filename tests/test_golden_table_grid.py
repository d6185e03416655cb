"""The ``table_grid`` goldens in Tier-1.

Runs every flow of the benchmark's ``table_grid`` workload -- the 20
programs at O1 on the five Table 2/5 platforms -- and compares the eight
pinned fields with ``perfbench/golden/table_grid.json``.  The golden file
is only read here; ``perfbench/run.py --record-golden`` owns it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.flow import FlowJob, run_flows
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS

GOLDEN = (Path(__file__).resolve().parents[1]
          / "perfbench" / "golden" / "table_grid.json")
PLATFORMS = ("mips40", "mips200", "mips400", "softcore85", "softcore50")


def _record(report) -> dict:
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


def test_table_grid_matches_the_golden_record():
    with open(GOLDEN) as handle:
        golden = json.load(handle)["flows"]
    keys, jobs = [], []
    for bench in ALL_BENCHMARKS:
        for platform in PLATFORMS:
            keys.append(f"{bench.name}/O1/{platform}")
            jobs.append(FlowJob(
                bench.source, bench.name, opt_level=1,
                platform=NAMED_PLATFORMS[platform],
            ))
    assert sorted(keys) == sorted(golden)
    reports = run_flows(jobs, max_workers=1)
    differ = [key for key, report in zip(keys, reports)
              if _record(report) != golden[key]]
    assert not differ, f"flows differ from {GOLDEN.name}: {differ}"
