"""The ``dynamic_suite`` goldens in Tier-1.

Runs every flow of the benchmark's ``dynamic_suite`` workload -- the 20
programs at O1 on the hard 200 MHz and soft 85 MHz platforms -- and
compares the six pinned fields with ``perfbench/golden/dynamic_suite.json``.
The golden file is only read here; ``perfbench/run.py --record-golden``
owns it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flows
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS

GOLDEN = (Path(__file__).resolve().parents[2]
          / "perfbench" / "golden" / "dynamic_suite.json")
PLATFORMS = ("mips200", "softcore85")


def _record(report) -> dict:
    timeline = report.timeline
    return {
        "recovered": report.recovered,
        "warm_gap": report.warm_gap,
        "repartitions": len(timeline.events),
        "final_resident": list(timeline.final_resident),
        "dynamic_speedup": report.dynamic_speedup,
        "energy_savings": report.energy_savings,
    }


def test_dynamic_suite_matches_the_golden_record():
    with open(GOLDEN) as handle:
        golden = json.load(handle)["flows"]
    keys, jobs = [], []
    for bench in ALL_BENCHMARKS:
        for platform in PLATFORMS:
            keys.append(f"{bench.name}/O1/{platform}")
            jobs.append(DynamicFlowJob(
                bench.source, bench.name, opt_level=1,
                platform=NAMED_PLATFORMS[platform],
            ))
    assert sorted(keys) == sorted(golden)
    reports = run_dynamic_flows(jobs, max_workers=1)
    differ = [key for key, report in zip(keys, reports)
              if _record(report) != golden[key]]
    assert not differ, f"flows differ from {GOLDEN.name}: {differ}"
