"""Per-pass bit-identity gate for the decompiler.

One sha256 per ``(benchmark, opt level)`` over the 80 binaries of the
``static_suite`` sweep (the 20 benchmarks at -O0..-O3), decompiled with the
full default pass set, and one per benchmark for each of the four pass
ablations of ``benchmarks/bench_ablation_passes.py`` at the level it is
measured (keyed ``<benchmark>/O<level>/<ablation>``).  Each digest covers everything the later stages read
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
from repro.decompile import DecompilationOptions, decompile
from repro.programs import ALL_BENCHMARKS

GOLDEN = Path(__file__).with_name("golden_outputs.json")
LEVELS = (0, 1, 2, 3)
#: the single-pass ablations of benchmarks/bench_ablation_passes.py, each
#: with the level its effect is measured at
ABLATIONS = {
    "no-constprop": (
        DecompilationOptions(constant_propagation=False, stack_removal=False), 1),
    "no-stack-removal": (DecompilationOptions(stack_removal=False), 0),
    "no-strength-promotion": (DecompilationOptions(strength_promotion=False), 2),
    "no-rerolling": (DecompilationOptions(loop_rerolling=False), 3),
}


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


def _digest(program) -> str:
    return hashlib.sha256("\n".join(program_lines(program)).encode()).hexdigest()


def digests(name: str) -> dict[str, str]:
    """Every golden key of benchmark *name* with its digest; each level's
    binary is compiled once and decompiled in full and for the ablations
    measured at that level."""
    bench = next(b for b in ALL_BENCHMARKS if b.name == name)
    record: dict[str, str] = {}
    for level in LEVELS:
        exe = compile_source(bench.source, opt_level=level)
        record[f"{name}/O{level}"] = _digest(decompile(exe))
        for ablation, (options, at_level) in ABLATIONS.items():
            if at_level == level:
                record[f"{name}/O{level}/{ablation}"] = _digest(decompile(exe, options))
    return record


def _keys() -> list[str]:
    keys = []
    for bench in ALL_BENCHMARKS:
        keys += [f"{bench.name}/O{level}" for level in LEVELS]
        keys += [f"{bench.name}/O{level}/{ablation}"
                 for ablation, (_, level) in ABLATIONS.items()]
    return keys


def test_golden_covers_the_static_suite():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_keys())


@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_decompiler_output_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    differ = sorted(key for key, value in digests(name).items()
                    if value != golden[key])
    assert not differ, f"decompiler output moved: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.decompile.test_golden_outputs --regen")
    record = {key: value for bench in ALL_BENCHMARKS
              for key, value in digests(bench.name).items()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {GOLDEN}")
