"""Loop profiles: one CPU-model-free summary per binary, priced per platform.

:func:`build_profile` prices :func:`summarize_loops` summaries that the
stage memo keeps per (program, run) pair.  Pricing must equal the
per-address sum under every CPI model, and a summary must never serve a
program or run it was not made from.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import stages
from repro.compiler import compile_source
from repro.decompile import decompile
from repro.decompile.decompiler import DecompilationOptions
from repro.isa.encoding import decode_text
from repro.partition.profiles import block_ranges, build_profile
from repro.platform import NAMED_PLATFORMS
from repro.programs import get_benchmark
from repro.sim.cpu import _MNEMONIC_CLASS, run_executable


@pytest.fixture(scope="module")
def fir():
    exe = compile_source(get_benchmark("fir").source, opt_level=1)
    _, run = run_executable(exe, profile=True)
    return exe, decompile(exe), run


def _per_address_sw_cycles(exe, program, run, cpi) -> dict:
    """Each loop's software cycles, summed address by address."""
    taken_from: dict[int, int] = {}
    for (src, _dst), count in run.edge_counts.items():
        taken_from[src] = taken_from.get(src, 0) + count
    instructions = decode_text(exe.text_words)
    cycles = {}
    for func in program.functions.values():
        ranges = block_ranges(func, exe)
        for loop in func.loops:
            total = 0
            for index in loop.body:
                start, end = ranges[index]
                for pc in range(start, end, 4):
                    count = run.pc_counts.get(pc, 0)
                    klass = _MNEMONIC_CLASS[instructions[(pc - exe.text_base) >> 2].mnemonic]
                    total += count * cpi.cycles_for(klass)
                    if klass == "branch" and count:
                        total += cpi.taken_penalty * taken_from.get(pc, 0)
            cycles[(func.name, func.cfg.blocks[loop.header].start)] = total
    return cycles


@pytest.mark.parametrize("platform", sorted(NAMED_PLATFORMS))
def test_priced_summaries_equal_the_per_address_sum(fir, platform):
    exe, program, run = fir
    cpi = NAMED_PLATFORMS[platform].cpi
    profile = build_profile(exe, program, run.recost(cpi), cpi)
    expected = _per_address_sw_cycles(exe, program, run, cpi)
    assert {key: loop.sw_cycles for key, loop in profile.loops.items()} == expected
    assert profile.total_cycles == run.recost(cpi).cycles


def test_platforms_of_one_run_share_one_summary(fir):
    exe, program, run = fir
    stages.clear()
    for platform in NAMED_PLATFORMS.values():
        build_profile(exe, program, run.recost(platform.cpi), platform.cpi)
    assert len(stages._binary(exe).summaries) == 1


def test_a_summary_never_serves_another_run(fir):
    exe, program, run = fir
    stages.clear()
    once = build_profile(exe, program, run)
    doubled = replace(
        run,
        pc_counts={pc: 2 * count for pc, count in run.pc_counts.items()},
        edge_counts={edge: 2 * count for edge, count in run.edge_counts.items()},
    )
    twice = build_profile(exe, program, doubled)
    assert once.loops.keys() == twice.loops.keys()
    for key, loop in once.loops.items():
        other = twice.loops[key]
        assert other.sw_cycles == 2 * loop.sw_cycles
        assert other.iterations == 2 * loop.iterations
        assert other.block_counts == {s: 2 * c for s, c in loop.block_counts.items()}


def test_a_summary_never_serves_another_program(fir):
    exe, program, run = fir
    stages.clear()
    build_profile(exe, program, run)
    bare = decompile(exe, DecompilationOptions.none())
    fresh = build_profile(exe, bare, run)
    stages.clear()
    assert fresh == build_profile(exe, bare, run)
    assert len(stages._binary(exe).summaries) == 1


def test_profiles_are_not_shared_between_calls(fir):
    exe, program, run = fir
    first = build_profile(exe, program, run)
    second = build_profile(exe, program, run)
    for key, loop in first.loops.items():
        assert loop == second.loops[key]
        assert loop.block_counts is not second.loops[key].block_counts
        assert loop.block_starts is not second.loops[key].block_starts


def test_summaries_per_binary_are_bounded(fir):
    exe, program, run = fir
    stages.clear()
    for _ in range(stages.MEMORY_CAP + 4):
        fresh = replace(run, pc_counts=dict(run.pc_counts))
        build_profile(exe, program, fresh)
    assert len(stages._binary(exe).summaries) == stages.MEMORY_CAP
