"""Goldens for the dynamic modes the ``dynamic_suite`` benchmark skips.

``golden_modes.json`` pins, for each flow or application, the dynamic
speedup, energy savings, final residency, repartition count, warm gap,
per-interval step counts and peak fabric use, and for each shared-fabric
scenario the fabric's high-water marks.  The modes:

* phase-adaptive sampling on the hard 200 MHz and soft 85 MHz platforms;
* concurrent on-chip CAD on a 4-region fabric with adaptive sampling;
* 2- and 3-application scenarios with fixed-interval, adaptive and
  share-capped (``max_fabric_share=0.5``, concurrent CAD) configurations,
  on monolithic and 4-region fabrics.

Regenerate (only for a reviewed, intended change of results) with
``PYTHONPATH=src python -m tests.dynamic.test_golden_modes``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.flow import run_dynamic_flow
from repro.dynamic.multi import AppSpec, run_multi_app_flow
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import get_benchmark

GOLDEN = Path(__file__).with_name("golden_modes.json")

#: recovering programs of varied shape, plus one whose recovery fails
BENCHMARKS = ("brev", "crc", "fir", "adpcm", "pocsag", "tblook")
FLOWS = {
    "adaptive": (DynamicConfig(adaptive_sampling=True), ("mips200", "softcore85"), 0),
    "adaptive-concurrent-regions": (
        DynamicConfig(adaptive_sampling=True, concurrent_cad=True),
        ("mips200", "softcore85"),
        4,
    ),
}
SCENARIOS = (("brev", "crc"), ("fir", "adpcm"), ("brev", "crc", "fir"),
             ("adpcm", "pocsag", "tblook"))
MULTI_CONFIGS = {
    "fixed": DynamicConfig(sample_interval=2_000),
    "adaptive": DynamicConfig(sample_interval=2_000, adaptive_sampling=True),
    "share-half-concurrent": DynamicConfig(
        sample_interval=2_000, max_fabric_share=0.5, concurrent_cad=True
    ),
}
MULTI_REGIONS = (0, 4)


def _platform(name: str, regions: int):
    platform = NAMED_PLATFORMS[name]
    return platform.with_regions(regions) if regions else platform


def _app_record(report) -> dict:
    timeline = report.timeline
    return {
        "dynamic_speedup": report.dynamic_speedup,
        "energy_savings": report.energy_savings,
        "final_resident": list(timeline.final_resident),
        "repartitions": len(timeline.events),
        "warm_gap": report.warm_gap,
        "interval_steps": [interval.steps for interval in timeline.intervals],
        "peak_area": max((event.area_used for event in timeline.events),
                         default=0.0),
    }


def _flow_keys() -> list[tuple[str, str, str, str]]:
    return [
        (f"{name}/{mode}/{platform}", name, mode, platform)
        for mode, (_, platforms, _) in FLOWS.items()
        for platform in platforms
        for name in BENCHMARKS
    ]


def _flow(name: str, mode: str, platform: str) -> dict:
    config, _, regions = FLOWS[mode]
    report = run_dynamic_flow(get_benchmark(name).source, name,
                              platform=_platform(platform, regions),
                              config=config)
    return _app_record(report)


def _scenario_keys() -> list[tuple[str, tuple[str, ...], str, int]]:
    return [
        (f"{'+'.join(apps)}/{mode}/regions{regions}", apps, mode, regions)
        for apps in SCENARIOS
        for mode in MULTI_CONFIGS
        for regions in MULTI_REGIONS
    ]


def _scenario(apps: tuple[str, ...], mode: str, regions: int) -> dict:
    result = run_multi_app_flow(
        [AppSpec(get_benchmark(name).source, name) for name in apps],
        platform=_platform("mips200", regions),
        config=MULTI_CONFIGS[mode],
    )
    return {
        "apps": {report.name: _app_record(report) for report in result.reports},
        "peak_area_gates": result.peak_area_gates,
        "peak_regions": result.peak_regions,
    }


def record() -> dict:
    return {
        "flows": {key: _flow(*rest) for key, *rest in _flow_keys()},
        "scenarios": {key: _scenario(*rest) for key, *rest in _scenario_keys()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_mode(golden):
    assert sorted(golden["flows"]) == sorted(key for key, *_ in _flow_keys())
    assert sorted(golden["scenarios"]) == sorted(
        key for key, *_ in _scenario_keys()
    )


@pytest.mark.parametrize("key,name,mode,platform", _flow_keys(),
                         ids=[key for key, *_ in _flow_keys()])
def test_flow_matches_golden(golden, key, name, mode, platform):
    assert _flow(name, mode, platform) == golden["flows"][key]


@pytest.mark.parametrize("key,apps,mode,regions", _scenario_keys(),
                         ids=[key for key, *_ in _scenario_keys()])
def test_scenario_matches_golden(golden, key, apps, mode, regions):
    assert _scenario(apps, mode, regions) == golden["scenarios"][key]


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
