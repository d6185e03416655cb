"""The in-process stage memo (:mod:`repro.stages`).

Platforms that share a binary share its compile, profiled run,
decompilation and kernels.  That must change no report: a flow served
from a warm memo equals the same flow run cold, for every program of the
suite, every option that keys the memo and any mix of memoised and new
jobs in one batch; the memoised artifacts are never mutated by the flows
that share them, the dynamic flow decompiles each binary once, and the
memo stays bounded, evicting the least recently used entry first.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

import repro.dynamic.controller
import repro.flow
from repro import stages
from repro.binary.image import Executable
from repro.compiler import CompilerOptions
from repro.decompile.decompiler import DecompilationOptions, decompile
from repro.dynamic.flow import run_dynamic_flow
from repro.flow import FlowJob, run_flow, run_flows
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import BENCHMARKS_BY_NAME, get_benchmark
from repro.synth.synthesizer import SynthesisOptions

#: the whole suite, the two whose jump tables defeat recovery included
SUITE = sorted(BENCHMARKS_BY_NAME)
GRID = ("mips40", "mips200", "mips400", "softcore85", "softcore50")
DYNAMIC = ("mips200", "softcore85")


def _static_record(report) -> tuple:
    return (
        report.run,
        report.recovered,
        report.failure_reason,
        report.summary_row(),
        report.app_speedup,
        report.kernel_speedup,
        report.energy_savings,
        report.area_gates,
        report.decompile_stats,
        [kernel.name for kernel in report.metrics.kernels] if report.metrics else [],
    )


def _dynamic_record(report) -> tuple:
    return (_static_record(report.static), report.summary_row(), report.timeline)


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


@pytest.mark.parametrize("name", SUITE)
def test_warm_static_flows_equal_cold_ones(name):
    source = get_benchmark(name).source
    cold = []
    for platform in GRID:
        stages.clear()
        cold.append(_static_record(run_flow(source, name, platform=NAMED_PLATFORMS[platform])))
    stages.clear()
    warm = [
        _static_record(run_flow(source, name, platform=NAMED_PLATFORMS[platform]))
        for platform in GRID
    ]
    assert stages.size() == 1
    assert warm == cold


@pytest.mark.parametrize("name", SUITE)
def test_warm_dynamic_flows_equal_cold_ones(name):
    source = get_benchmark(name).source
    cold = []
    for platform in DYNAMIC:
        stages.clear()
        cold.append(_dynamic_record(
            run_dynamic_flow(source, name, platform=NAMED_PLATFORMS[platform])
        ))
    stages.clear()
    warm = [
        _dynamic_record(run_dynamic_flow(source, name, platform=NAMED_PLATFORMS[platform]))
        for platform in DYNAMIC
    ]
    assert warm == cold


def test_memo_hit_flows_serialize_nothing(monkeypatch):
    """The memo keys on each binary's cached digest: the first flow of a
    binary serializes it once, a memo-hit flow not at all."""
    jobs = [
        FlowJob(get_benchmark("brev").source, "brev", platform=NAMED_PLATFORMS[name])
        for name in DYNAMIC
    ]
    cold = []
    for job in jobs:
        stages.clear()
        cold.append(_static_record(run_flows([job], max_workers=1)[0]))
    stages.clear()

    serialized: list[Executable] = []
    original = Executable.to_bytes

    def counting(self):
        serialized.append(self)
        return original(self)

    monkeypatch.setattr(Executable, "to_bytes", counting)
    first = run_flows([jobs[0]], max_workers=1)[0]
    assert serialized == [first.exe]
    second = run_flows([jobs[1]], max_workers=1)[0]
    assert serialized == [first.exe]
    assert second.exe is first.exe
    assert [_static_record(first), _static_record(second)] == cold


def test_options_are_part_of_the_keys():
    source = get_benchmark("fir").source
    variants = [
        {},
        {"decompile_options": DecompilationOptions.none()},
        {"synthesis_options": SynthesisOptions(pipeline=False)},
    ]
    cold = []
    for options in variants:
        stages.clear()
        cold.append(_static_record(run_flow(source, "fir", **options)))
    stages.clear()
    warm = [_static_record(run_flow(source, "fir", **options)) for options in variants]
    assert warm == cold
    assert cold[1] != cold[0] != cold[2]


def test_dynamic_flows_decompile_each_binary_once(monkeypatch):
    calls: list[bytes] = []

    def counting(original):
        def wrapper(exe, options=None):
            calls.append(exe.to_bytes())
            return original(exe, options)
        return wrapper

    for module in (repro.flow, repro.dynamic.controller):
        monkeypatch.setattr(module, "decompile", counting(module.decompile))
    for name in ("brev", "crc"):
        for platform in DYNAMIC:
            run_dynamic_flow(get_benchmark(name).source, name,
                             platform=NAMED_PLATFORMS[platform])
    assert len(calls) == 2
    assert len(set(calls)) == 2


def _program(value: int) -> str:
    return f"int checksum;\nint main() {{ checksum = {value}; return 0; }}\n"


def _compiled(value: int) -> Executable:
    return stages.compiled(
        _program(value), CompilerOptions.from_level(1), repro.flow.compile_source
    )


def test_memo_holds_at_most_the_shared_bound():
    for value in range(stages.MEMORY_CAP + 8):
        exe = _compiled(value)
        stages.decompiled(exe, None, decompile)
        assert stages.size() <= stages.MEMORY_CAP
    assert stages.size() == stages.MEMORY_CAP


def test_shared_artifacts_are_not_mutated_downstream():
    source = get_benchmark("crc").source
    first = run_flow(source, "crc", platform=NAMED_PLATFORMS[GRID[0]])
    exe, program, run = first.exe, first.program, first.run
    before = (exe.to_bytes(), _digest(program), _digest(run))
    for platform in GRID:
        report = run_flow(source, "crc", platform=NAMED_PLATFORMS[platform])
        assert report.exe is exe
        assert report.program is program
        assert report.run.pc_counts is run.pc_counts
    assert (exe.to_bytes(), _digest(program), _digest(run)) == before


@pytest.mark.parametrize("level", range(4))
def test_opt_level_is_part_of_the_compile_key(level):
    # the other levels' binaries in the memo must not serve this one
    source = get_benchmark("fir").source
    stages.clear()
    cold = _static_record(run_flow(source, "fir", opt_level=level))
    stages.clear()
    for other in range(4):
        if other != level:
            run_flow(source, "fir", opt_level=other)
    assert _static_record(run_flow(source, "fir", opt_level=level)) == cold


@pytest.mark.parametrize("max_workers", [1, 2])
def test_partly_memoised_batches_keep_job_order(max_workers):
    jobs = [
        FlowJob(get_benchmark(name).source, name, platform=NAMED_PLATFORMS[platform])
        for name in ("brev", "crc", "fir")
        for platform in DYNAMIC
    ]
    cold = []
    for job in jobs:
        stages.clear()
        cold.append(_static_record(run_flows([job], max_workers=1)[0]))
    stages.clear()
    run_flows([jobs[2]], max_workers=1)     # memoise crc's binary only
    reports = run_flows(jobs, max_workers=max_workers)
    assert [_static_record(report) for report in reports] == cold


def test_a_recently_compiled_source_survives_eviction():
    exes = [_compiled(value) for value in range(stages.MEMORY_CAP)]
    assert _compiled(0) is exes[0]          # a hit makes it the newest
    _compiled(stages.MEMORY_CAP)            # evicts the oldest: source 1
    assert _compiled(0) is exes[0]
    assert _compiled(1) is not exes[1]


def test_a_recently_used_binary_survives_eviction():
    exes = [_compiled(value) for value in range(stages.MEMORY_CAP + 1)]
    programs = [stages.decompiled(exe, None, decompile) for exe in exes[:-1]]
    assert stages.decompiled(exes[0], None, decompile) is programs[0]
    stages.decompiled(exes[-1], None, decompile)  # evicts binary 1
    assert stages.size() == stages.MEMORY_CAP
    assert stages.decompiled(exes[0], None, decompile) is programs[0]
    assert stages.decompiled(exes[1], None, decompile) is not programs[1]


def test_clear_forgets_every_memoised_artifact():
    exe = _compiled(0)
    program = stages.decompiled(exe, None, decompile)
    run = stages.profiled_run(exe, NAMED_PLATFORMS["mips200"].cpi, 10_000)
    stream = stages.sample_stream(exe, 10_000, 500)
    stages.clear()
    assert stages.size() == 0
    assert _compiled(0) is not exe
    assert stages.decompiled(exe, None, decompile) is not program
    assert stages.profiled_run(exe, NAMED_PLATFORMS["mips200"].cpi, 10_000) is not run
    assert stages.sample_stream(exe, 10_000, 500) is not stream
