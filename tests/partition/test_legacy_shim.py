"""Differential suite: the partition pipeline vs the frozen legacy code.

The pipeline's hard contract: on the two-device view
(:func:`~repro.partition.api.legacy_devices` with
``default_passes(algorithm, legacy=True)``), :func:`repro.partition.partition`
must reproduce the pre-pipeline :class:`PartitionResult` of the frozen
reference in ``_legacy_reference.py`` **bit-identically**: same kernels in
the same selection order, same per-step attribution, and float-equal area
accounting.  This holds over every benchmark in the suite on both the
hard-core and soft-core platforms, for all five algorithms.

``partitioning_seconds`` is wall clock and excluded; ``placements`` and
``pass_seconds`` are fields the legacy code never filled.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition import build_candidates, build_profile
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_executable

from tests.partition._legacy_reference import (
    LegacyNinetyTenPartitioner,
    legacy_annealing_partition,
    legacy_exhaustive_partition,
    legacy_gclp_partition,
    legacy_greedy_partition,
)
from tests.partition.conftest import legacy_partition

#: tblook/ttsprk fail CDFG recovery by design -- nothing to partition
_BENCHMARKS = [b for b in ALL_BENCHMARKS if not b.expect_recovery_failure]

_PLATFORMS = {"mips200": MIPS_200MHZ, "softcore85": SOFTCORE_85MHZ}

#: pipeline placement name -> frozen pre-pipeline implementation
_ALGORITHMS = {
    "90-10": lambda p, c, t: LegacyNinetyTenPartitioner(p).partition(c, t),
    "greedy": legacy_greedy_partition,
    "exhaustive": legacy_exhaustive_partition,
    "gclp": legacy_gclp_partition,
    "annealing": legacy_annealing_partition,
}

_cache: dict[str, tuple] = {}


def _candidates_for(name: str, platform_key: str):
    """(candidates, total_cycles) for one benchmark on one platform;
    compile/simulate once per benchmark, cost once per platform."""
    run_key = f"run:{name}"
    if run_key not in _cache:
        bench = next(b for b in _BENCHMARKS if b.name == name)
        exe = compile_source(bench.source, opt_level=1)
        program = decompile(exe)
        assert program.recovered, program.failures
        _, run = run_executable(exe, profile=True)
        profile = build_profile(exe, program, run)
        _cache[run_key] = (exe, program, profile)
    exe, program, profile = _cache[run_key]
    cand_key = f"cand:{name}:{platform_key}"
    if cand_key not in _cache:
        _cache[cand_key] = build_candidates(
            exe, program, profile, _PLATFORMS[platform_key]
        )
    return _cache[cand_key], profile.total_cycles


def _assert_bit_identical(legacy, pipeline, context: str) -> None:
    assert pipeline.names == legacy.names, context
    assert pipeline.step_of == legacy.step_of, context
    assert pipeline.area_used == legacy.area_used, context  # float bits
    assert pipeline.area_budget == legacy.area_budget, context
    assert pipeline.algorithm == legacy.algorithm, context
    # the pipeline additionally reports a total placement map
    assert set(pipeline.placements.values()) <= {"cpu", "fabric0"}, context
    placed = {n for n, d in pipeline.placements.items() if d != "cpu"}
    assert placed == set(pipeline.names), context


@pytest.mark.parametrize("platform_key", sorted(_PLATFORMS))
@pytest.mark.parametrize("bench", [b.name for b in _BENCHMARKS])
def test_shims_bit_identical(bench: str, platform_key: str):
    candidates, total_cycles = _candidates_for(bench, platform_key)
    platform = _PLATFORMS[platform_key]
    for algo, legacy_fn in _ALGORITHMS.items():
        legacy = legacy_fn(platform, candidates, total_cycles)
        pipeline = legacy_partition(platform, candidates, total_cycles, algo)
        _assert_bit_identical(
            legacy, pipeline, f"{bench}/{platform_key}/{algo}"
        )


def test_shim_reports_pass_timings():
    candidates, total_cycles = _candidates_for(_BENCHMARKS[0].name, "mips200")
    result = legacy_partition(MIPS_200MHZ, candidates, total_cycles, "greedy")
    assert list(result.pass_seconds) == [
        "filter", "annotate", "place", "legalize", "report"
    ]
    assert all(s >= 0 for s in result.pass_seconds.values())
    assert result.partitioning_seconds == sum(result.pass_seconds.values())
