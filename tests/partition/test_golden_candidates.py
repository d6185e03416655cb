"""Bit-identity gate for the candidate stage: loop profiles and kernels.

One sha256 per ``(benchmark, opt level)`` over the 80 binaries of the
``static_suite`` sweep (the 20 benchmarks at -O0..-O3).  Each digest covers
what the partitioner reads of the candidate stage:

* the :class:`ProgramProfile` of the profiled run under the ``mips200`` and
  the ``softcore85`` CPI models -- totals and every loop's fields;
* every recovered loop synthesized with the default
  :class:`SynthesisOptions` -- each :class:`HwKernel` field (area, clock,
  schedule length, II, localization, BRAM bytes, reroll multiplier,
  pipelining, per-block schedules and the VHDL text), or a marker where
  synthesis raised :class:`SynthesisError`.

The perfbench goldens pin only the kernels the partitioner selects, and
only through end-to-end figures; this file catches a change of any loop's
profile or kernel even when no table moves.

Regenerate (only after a reviewed change of profile or synthesis output)
with::

    PYTHONPATH=src python -m tests.partition.test_golden_candidates --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.errors import SynthesisError
from repro.partition.profiles import build_profile
from repro.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS
from repro.sim.cpu import run_executable
from repro.synth import Synthesizer

GOLDEN = Path(__file__).with_name("golden_candidates.json")
LEVELS = (0, 1, 2, 3)
CPI_MODELS = ("mips200", "softcore85")


def _profile_lines(label: str, profile) -> list[str]:
    lines = [f"profile {label} cycles={profile.total_cycles} "
             f"instructions={profile.total_instructions}"]
    for key in sorted(profile.loops):
        loop = profile.loops[key]
        lines.append(
            f"  loop {loop.function} {loop.header_address:#x} depth={loop.depth} "
            f"blocks={[hex(s) for s in loop.block_starts]} sw={loop.sw_cycles} "
            f"iterations={loop.iterations} invocations={loop.invocations} "
            f"counts={sorted(loop.block_counts.items())}"
        )
    return lines


def _kernel_line(kernel) -> str:
    return (
        f"kernel {kernel.name} {kernel.header_address:#x} "
        f"area={kernel.area_gates!r} clock={kernel.clock_mhz!r} "
        f"length={kernel.schedule_length} ii={kernel.ii} "
        f"localized={kernel.localized} bram={kernel.bram_bytes} "
        f"reroll={kernel.iterations_multiplier} pipelined={kernel.pipelined} "
        f"blocks={sorted(kernel.block_schedules.items())} "
        f"vhdl={hashlib.sha256(kernel.vhdl.encode()).hexdigest()}"
    )


def candidate_lines(exe) -> list[str]:
    """A canonical text rendering of *exe*'s candidate stage: its loop
    profiles under each CPI model of :data:`CPI_MODELS` and every loop's
    kernel, one item per line."""
    _, run = run_executable(exe, profile=True)
    program = decompile(exe)
    lines: list[str] = []
    for label in CPI_MODELS:
        cpi = NAMED_PLATFORMS[label].cpi
        lines += _profile_lines(label, build_profile(exe, program, run.recost(cpi), cpi))
    synthesizer = Synthesizer()
    for name in sorted(program.functions):
        func = program.functions[name]
        for loop in func.loops:
            try:
                lines.append(_kernel_line(synthesizer.synthesize_loop(func, loop, exe)))
            except SynthesisError as error:
                lines.append(f"synthesis-error {name} {loop.header} {error}")
    return lines


def digest(name: str, level: int) -> str:
    bench = next(b for b in ALL_BENCHMARKS if b.name == name)
    exe = compile_source(bench.source, opt_level=level)
    text = "\n".join(candidate_lines(exe)).encode()
    return hashlib.sha256(text).hexdigest()


def _keys() -> list[tuple[str, int]]:
    return [(bench.name, level) for bench in ALL_BENCHMARKS for level in LEVELS]


def test_golden_covers_the_static_suite():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{name}/O{level}" for name, level in _keys())


@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_candidate_stage_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    differ = [level for level in LEVELS
              if digest(name, level) != golden[f"{name}/O{level}"]]
    assert not differ, f"{name}: loop profiles or kernels moved at -O{differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.partition.test_golden_candidates --regen")
    record = {f"{name}/O{level}": digest(name, level) for name, level in _keys()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {GOLDEN}")
