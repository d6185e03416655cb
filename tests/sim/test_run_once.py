"""Blocks that statically run at most once get no generated code.

:func:`repro.sim.superblock.leaders.run_once_leaders` is only a
performance decision (a slot without a function is single-stepped), but
a block it names that runs many times would be single-stepped every
time.  These tests check the predicate against real runs: on every
``static_suite`` binary, each block it names runs at most once, and in
hand-written programs a function that can run twice keeps its code.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.isa import assemble
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_reference
from repro.sim.cpu import Cpu
from repro.sim.superblock.leaders import run_once_leaders

from tests.sim.test_differential import assert_identical


def run_once_addresses(cpu: Cpu) -> set[int]:
    """The text addresses of the leaders the predicate names for *cpu*."""
    sb, exe = cpu._sb, cpu.exe
    once = run_once_leaders(cpu._decoded, cpu._targets, sb.leaders, sb.suffix_len,
                            exe.entry, exe.text_base, exe.data)
    return {exe.text_base + (leader << 2) for leader in once}


def test_static_suite_run_once_blocks_run_at_most_once():
    classed = 0
    for benchmark in ALL_BENCHMARKS:
        for level in range(4):
            exe = compile_source(benchmark.source, opt_level=level)
            cpu = Cpu(exe, profile=True)
            once = run_once_addresses(cpu)
            counts = cpu.run().pc_counts
            many = {address: counts[address] for address in once
                    if counts.get(address, 0) > 1}
            assert not many, f"{benchmark.name}/O{level}: {many}"
            classed += len(once)
    # the suite's set-up code outside loops qualifies
    assert classed > 500


def _program(body: str, data: str = "cell: .word 0"):
    return assemble(f".text\n_start:\n{body}\n.data\n{data}\n")


_CALLEE = """f:
    addiu $s0, $s0, 1
    jr $ra
"""

#: programs whose function ``f`` can run more than once
KEEPS_CODE = {
    "two call sites": "    jal f\n    jal f\n    break\n" + _CALLEE,
    "call inside a loop": """    li $s1, 3
loop:
    jal f
    addiu $s1, $s1, -1
    bne $s1, $zero, loop
    break
""" + _CALLEE,
    "recursion": """    li $a0, 3
    jal f
    break
f:
    beq $a0, $zero, done
    addiu $sp, $sp, -4
    sw $ra, 0($sp)
    addiu $a0, $a0, -1
    jal f
    lw $ra, 0($sp)
    addiu $sp, $sp, 4
done:
    jr $ra
""",
    "function pointer": """    la $t0, f
    jalr $t0
    break
""" + _CALLEE,
    "jump table": """    jal f
    break
f:
    la $t0, table
    lw $t1, 0($t0)
    jr $t1
case0:
    addiu $s0, $s0, 1
    jr $ra
""",
}


@pytest.mark.parametrize("case", sorted(KEEPS_CODE))
def test_a_function_that_can_run_twice_keeps_its_code(case):
    data = "table: .word case0" if case == "jump table" else "cell: .word 0"
    exe = _program(KEEPS_CODE[case], data)
    cpu = Cpu(exe, profile=True)
    once = run_once_addresses(cpu)
    labels = [exe.symbols[name].address for name in ("f", "case0", "done")
              if name in exe.symbols]
    assert not once & set(labels), case
    assert_identical(cpu.run(), run_reference(exe, profile=True), case)


def test_a_callee_called_once_is_single_stepped_exactly():
    exe = _program("    jal f\n    break\n" + _CALLEE)
    cpu = Cpu(exe, profile=True)
    f = exe.symbols["f"].address
    assert f in run_once_addresses(cpu)
    # the entry unit fuses f's block; the return site keeps its unit
    assert cpu._sb.fns[(exe.entry - exe.text_base) >> 2] is None
    assert_identical(cpu.run(), run_reference(exe, profile=True))
    assert cpu.regs[16] == 1


def test_a_program_without_calls_keeps_its_code():
    exe = _program("    addiu $s0, $s0, 1\n    b next\nnext:\n    break\n")
    cpu = Cpu(exe, profile=True)
    assert not run_once_addresses(cpu)
    assert cpu._sb.fns[0] is not None
