"""Differential fuzzing of the decompiler against the simulator.

The seeded loop-rich generator of ``tests/sim/test_differential.py``
(loops, calls, switches that compile to jump tables, sub-word memory
traffic, multiplication and division) feeds the decompiler here.  Each
program is compiled at an opt level that rotates with the seed, decompiled
with jump-table recovery on, and the recovered CDFG is run by
:class:`CdfgInterpreter`: its ``checksum`` must equal the simulator's.

A few seeds also run the raw lift (``DecompilationOptions.none()``) and
every configuration with exactly one pass switched off, so a pass whose
output only looks right because a later pass cleans up after it still
shows.  Failures reproduce exactly from the printed seed.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.compiler import compile_source
from repro.decompile import DecompilationOptions, decompile
from repro.decompile.interp import CdfgInterpreter
from repro.sim import run_executable
from tests.sim.test_differential import random_program

#: the pass switches of DecompilationOptions
PASSES = (
    "constant_propagation", "copy_propagation", "dead_code_elimination",
    "stack_removal", "strength_promotion", "loop_rerolling", "size_reduction",
)

#: seeds 0-23 agree at their rotating opt level; 7, 17 and 19 are left
#: out only because their programs run longest (0.6-1 s each), which keeps
#: this file within ~6 s.  Each opt level keeps four or more seeds, and all
#: but four of the programs contain a jump-table switch.
SEEDS = [seed for seed in range(24) if seed not in (7, 17, 19)]

#: seeds whose programs run each single-pass-off configuration too
ABLATION_SEEDS = (1, 6)


def _simulated(exe) -> int:
    cpu, _ = run_executable(exe, max_steps=20_000_000)
    return cpu.read_word_global_signed("checksum")


def _decompiled(exe, options: DecompilationOptions) -> int:
    program = decompile(exe, options)
    assert program.recovered, program.failures
    interp = CdfgInterpreter(program)
    interp.run_main()
    value = interp.memory.read_u32(exe.symbols["checksum"].address)
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@pytest.mark.parametrize("seed", SEEDS)
def test_decompiled_program_matches_simulator(seed):
    source = random_program(seed)
    opt_level = seed % 4
    exe = compile_source(source, opt_level=opt_level)
    options = DecompilationOptions(recover_jump_tables=True)
    assert _decompiled(exe, options) == _simulated(exe), (
        f"seed={seed} -O{opt_level}\n{source}"
    )


@pytest.mark.parametrize("seed", ABLATION_SEEDS)
def test_pass_ablations_match_simulator(seed):
    source = random_program(seed)
    opt_level = seed % 4
    exe = compile_source(source, opt_level=opt_level)
    expected = _simulated(exe)
    full = DecompilationOptions(recover_jump_tables=True)
    configs = {"none": replace(DecompilationOptions.none(), recover_jump_tables=True)}
    configs.update({f"no {name}": replace(full, **{name: False}) for name in PASSES})
    wrong = [label for label, options in configs.items()
             if _decompiled(exe, options) != expected]
    assert not wrong, f"seed={seed} -O{opt_level}: {wrong}\n{source}"


def test_ablations_cover_every_pass():
    others = {"recover_jump_tables", "rounds"}
    assert set(PASSES) == {f.name for f in fields(DecompilationOptions)} - others
