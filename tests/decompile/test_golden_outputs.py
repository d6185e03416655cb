"""Per-pass bit-identity gate for the decompiler.

One sha256 per ``(benchmark, opt level)`` over the 80 binaries of the
``static_suite`` sweep (the 20 benchmarks at -O0..-O3), decompiled with the
full default pass set.  Each digest covers everything the later stages read
from a :class:`DecompiledProgram`: every function's printed ops with their
pc, width and access size, block starts, successors and predecessors,
``PassStats``, the ``StructureReport``, natural loops, reroll factors and
loop footprints, plus the recovery failures.  The perfbench goldens pin
only end-to-end numbers; this file catches a pass whose output moves even
when the flow's figures do not.

Regenerate (only after a reviewed change of decompiler output) with::

    PYTHONPATH=src python -m tests.decompile.test_golden_outputs --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.programs import ALL_BENCHMARKS

GOLDEN = Path(__file__).with_name("golden_outputs.json")
LEVELS = (0, 1, 2, 3)


def _loop_record(loop) -> list:
    return [loop.header, list(loop.latches), sorted(loop.body),
            sorted(child.header for child in loop.children), loop.depth]


def program_lines(program) -> list[str]:
    """A canonical text rendering of a decompiled program (no set order,
    no object identities), one item per line."""
    lines: list[str] = []
    for name in sorted(program.functions):
        func = program.functions[name]
        cfg = func.cfg
        lines.append(f"function {name} @{func.entry:#x}")
        lines.append(f"  stats {astuple(func.stats)}")
        for block in cfg.blocks:
            lines.append(f"  block{block.index} @{block.start:#x} "
                         f"succs={block.succs} preds={block.preds}")
            for op in block.ops:
                lines.append(f"    {op.pc:#x} w{op.width} s{op.size} {op}")
        lines.append(f"  calls {cfg.call_targets}")
        lines.append(f"  reroll {sorted(cfg.reroll_factors.items())}")
        for info in func.structure.loops:
            lines.append(f"  loop-info {info.kind} {info.header_address:#x} "
                         f"{info.blocks} {_loop_record(info.loop)}")
        for info in func.structure.branches:
            lines.append(f"  branch {info.block} {info.address:#x} {info.kind}")
        for loop in func.loops:
            lines.append(f"  loop {_loop_record(loop)}")
        for header in sorted(func.loop_footprints):
            accesses = [astuple(access)
                        for access in func.loop_footprints[header].accesses]
            lines.append(f"  footprint {header:#x} {accesses}")
    for failure in program.failures:
        lines.append(f"failure {failure.function} {failure.address:#x} "
                     f"{failure.reason}")
    return lines


def digest(name: str, level: int) -> str:
    bench = next(b for b in ALL_BENCHMARKS if b.name == name)
    program = decompile(compile_source(bench.source, opt_level=level))
    text = "\n".join(program_lines(program)).encode()
    return hashlib.sha256(text).hexdigest()


def _keys() -> list[tuple[str, int]]:
    return [(bench.name, level) for bench in ALL_BENCHMARKS for level in LEVELS]


def test_golden_covers_the_static_suite():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{name}/O{level}" for name, level in _keys())


@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_decompiler_output_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    differ = [level for level in LEVELS
              if digest(name, level) != golden[f"{name}/O{level}"]]
    assert not differ, f"{name}: decompiler output moved at -O{differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.decompile.test_golden_outputs --regen")
    record = {f"{name}/O{level}": digest(name, level) for name, level in _keys()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {GOLDEN}")
