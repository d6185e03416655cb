"""Golden placements: every placement algorithm over the benchmark suite.

``golden_placements.json`` pins what :func:`repro.partition.partition`
decides for each recoverable benchmark (-O1) on the hard 200 MHz and the
soft 85 MHz platform, under each of the five placement algorithms: the
placed kernels in placement order, the step that chose each one, and the
exact float bits of the area used.  A change to a cost model, the filter,
a placement algorithm or legalization that moves any decision fails here.

After an intended change, regenerate the file and review its diff::

    PYTHONPATH=src python tests/partition/test_golden_placements.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition import PLACEMENTS, build_candidates, build_profile, partition
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_executable

GOLDEN = Path(__file__).with_name("golden_placements.json")

#: tblook/ttsprk fail CDFG recovery by design -- nothing to partition
_BENCHMARKS = [b for b in ALL_BENCHMARKS if not b.expect_recovery_failure]

_PLATFORMS = {"mips200": MIPS_200MHZ, "softcore85": SOFTCORE_85MHZ}


_runs: dict[str, tuple] = {}


def _profiled(bench):
    """(exe, program, profile) for one benchmark; compiled, decompiled and
    simulated once per session, shared by both platforms."""
    if bench.name not in _runs:
        exe = compile_source(bench.source, opt_level=1)
        program = decompile(exe)
        assert program.recovered, program.failures
        _, run = run_executable(exe, profile=True)
        _runs[bench.name] = (exe, program, build_profile(exe, program, run))
    return _runs[bench.name]


def _results(bench, platform_key: str):
    """algorithm -> :class:`PartitionResult` for one benchmark on one
    platform."""
    exe, program, profile = _profiled(bench)
    platform = _PLATFORMS[platform_key]
    candidates = build_candidates(exe, program, profile, platform)
    return {
        algorithm: partition(
            candidates, platform=platform,
            total_cycles=profile.total_cycles, passes=algorithm,
        ).result
        for algorithm in PLACEMENTS
    }


def _decision(result) -> dict:
    return {
        "names": result.names,
        "step_of": result.step_of,
        "area_used": float(result.area_used).hex(),
    }


def _load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("platform_key", sorted(_PLATFORMS))
@pytest.mark.parametrize("bench", _BENCHMARKS, ids=lambda b: b.name)
def test_placements_match_golden(bench, platform_key):
    golden = _load()
    for algorithm, result in _results(bench, platform_key).items():
        key = f"{bench.name}/{platform_key}/{algorithm}"
        assert _decision(result) == golden[key], key
        assert result.algorithm == algorithm, key
        # the placement map agrees with the ordered selection
        assert set(result.placements.values()) <= {"cpu", "fabric0"}, key
        placed = {n for n, d in result.placements.items() if d != "cpu"}
        assert placed == set(result.names), key


def test_golden_covers_every_case():
    expected = {
        f"{b.name}/{p}/{a}"
        for b in _BENCHMARKS for p in _PLATFORMS for a in PLACEMENTS
    }
    assert set(_load()) == expected


def _write_golden() -> None:
    """One JSON line per case, so a regenerated file diffs case by case."""
    cases = {
        f"{bench.name}/{platform_key}/{algorithm}": _decision(result)
        for bench in _BENCHMARKS
        for platform_key in _PLATFORMS
        for algorithm, result in _results(bench, platform_key).items()
    }
    lines = [
        f" {json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
        for key in sorted(cases)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    _write_golden()
