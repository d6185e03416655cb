"""Simulator semantics tests: one behaviour per instruction family, plus
timing and profiling checks.  Programs are tiny assembly snippets whose
results land in a data word read back after HALT."""

import pytest

from repro.errors import MemoryFault, SimulationError
from repro.isa import assemble
from repro.sim import Cpu, CpiModel, run_executable


def run_asm(body: str, data: str = "result: .word 0", **kwargs):
    source = f".text\n_start:\n{body}\n    break\n.data\n{data}\n"
    exe = assemble(source)
    cpu, result = run_executable(exe, **kwargs)
    return cpu, result


def result_value(cpu, symbol: str = "result", index: int = 0) -> int:
    return cpu.read_word_global_signed(symbol, index)


def store_result(reg: str) -> str:
    return f"    la $t9, result\n    sw {reg}, 0($t9)"


class TestArithmetic:
    def test_addu_wraps(self):
        cpu, _ = run_asm(
            "    li $t0, 0x7FFFFFFF\n    li $t1, 1\n    addu $t2, $t0, $t1\n"
            + store_result("$t2")
        )
        assert result_value(cpu) == -0x8000_0000

    def test_subu(self):
        cpu, _ = run_asm("    li $t0, 5\n    li $t1, 9\n    subu $t2, $t0, $t1\n" + store_result("$t2"))
        assert result_value(cpu) == -4

    def test_slt_signed(self):
        cpu, _ = run_asm("    li $t0, -1\n    li $t1, 1\n    slt $t2, $t0, $t1\n" + store_result("$t2"))
        assert result_value(cpu) == 1

    def test_sltu_unsigned(self):
        cpu, _ = run_asm("    li $t0, -1\n    li $t1, 1\n    sltu $t2, $t0, $t1\n" + store_result("$t2"))
        assert result_value(cpu) == 0  # 0xFFFFFFFF is huge unsigned

    def test_slti(self):
        cpu, _ = run_asm("    li $t0, -5\n    slti $t1, $t0, -4\n" + store_result("$t1"))
        assert result_value(cpu) == 1


class TestLogicAndShifts:
    def test_nor(self):
        cpu, _ = run_asm("    li $t0, 0\n    li $t1, 0\n    nor $t2, $t0, $t1\n" + store_result("$t2"))
        assert result_value(cpu) == -1

    def test_sra_negative(self):
        cpu, _ = run_asm("    li $t0, -8\n    sra $t1, $t0, 1\n" + store_result("$t1"))
        assert result_value(cpu) == -4

    def test_srl_negative(self):
        cpu, _ = run_asm("    li $t0, -8\n    srl $t1, $t0, 1\n" + store_result("$t1"))
        assert result_value(cpu) == 0x7FFF_FFFC

    def test_variable_shift_uses_low_5_bits(self):
        cpu, _ = run_asm(
            "    li $t0, 1\n    li $t1, 33\n    sllv $t2, $t0, $t1\n" + store_result("$t2")
        )
        assert result_value(cpu) == 2


class TestMultDiv:
    def test_mult_lo_hi(self):
        cpu, _ = run_asm(
            "    li $t0, 0x10000\n    li $t1, 0x10000\n    mult $t0, $t1\n"
            "    mfhi $t2\n    mflo $t3\n"
            + store_result("$t2") + "\n    la $t9, result2\n    sw $t3, 0($t9)",
            data="result: .word 0\nresult2: .word 0",
        )
        assert result_value(cpu) == 1
        assert result_value(cpu, "result2") == 0

    def test_mult_negative(self):
        cpu, _ = run_asm(
            "    li $t0, -3\n    li $t1, 7\n    mult $t0, $t1\n    mflo $t2\n"
            + store_result("$t2")
        )
        assert result_value(cpu) == -21

    def test_div_truncates_toward_zero(self):
        cpu, _ = run_asm(
            "    li $t0, -7\n    li $t1, 2\n    div $t0, $t1\n    mflo $t2\n    mfhi $t3\n"
            + store_result("$t2") + "\n    la $t9, rem\n    sw $t3, 0($t9)",
            data="result: .word 0\nrem: .word 0",
        )
        assert result_value(cpu) == -3
        assert result_value(cpu, "rem") == -1

    def test_divu(self):
        cpu, _ = run_asm(
            "    li $t0, -1\n    li $t1, 16\n    divu $t0, $t1\n    mflo $t2\n"
            + store_result("$t2")
        )
        assert result_value(cpu) == 0x0FFF_FFFF


class TestMemoryInstructions:
    def test_lb_sign_extends(self):
        cpu, _ = run_asm(
            "    la $t0, bytes\n    lb $t1, 0($t0)\n" + store_result("$t1"),
            data="result: .word 0\nbytes: .byte 0x80",
        )
        assert result_value(cpu) == -128

    def test_lbu_zero_extends(self):
        cpu, _ = run_asm(
            "    la $t0, bytes\n    lbu $t1, 0($t0)\n" + store_result("$t1"),
            data="result: .word 0\nbytes: .byte 0x80",
        )
        assert result_value(cpu) == 128

    def test_lh_lhu(self):
        cpu, _ = run_asm(
            "    la $t0, halves\n    lh $t1, 0($t0)\n    lhu $t2, 0($t0)\n"
            + store_result("$t1") + "\n    la $t9, result2\n    sw $t2, 0($t9)",
            data="result: .word 0\nresult2: .word 0\nhalves: .half 0x8000",
        )
        assert result_value(cpu) == -32768
        assert result_value(cpu, "result2") == 32768

    def test_sb_truncates(self):
        cpu, _ = run_asm(
            "    li $t0, 0x1FF\n    la $t1, result\n    sb $t0, 0($t1)\n"
        )
        assert result_value(cpu) == 0xFF


class TestControlFlow:
    def test_loop_sum(self):
        cpu, _ = run_asm(
            """    li $t0, 0
    li $t1, 0
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, 1
    li $t2, 10
    bne $t0, $t2, loop
"""
            + store_result("$t1")
        )
        assert result_value(cpu) == 45

    def test_jal_jr(self):
        cpu, _ = run_asm(
            """    jal callee
    j after
callee:
    li $v0, 77
    jr $ra
after:
"""
            + store_result("$v0")
        )
        assert result_value(cpu) == 77

    def test_bltz_bgez(self):
        cpu, _ = run_asm(
            """    li $t0, -3
    li $t2, 0
    bltz $t0, neg
    j done
neg:
    li $t2, 1
done:
"""
            + store_result("$t2")
        )
        assert result_value(cpu) == 1


class TestExecutionControl:
    def test_max_steps_raises(self):
        with pytest.raises(SimulationError, match="max_steps"):
            run_asm("spin:\n    j spin", max_steps=100)

    @pytest.mark.parametrize("engine", ["superblock", "threaded"])
    @pytest.mark.parametrize("target", [
        "    li $t0, 0x10000000",
        # inside the text but not word-aligned
        "    la $t0, _start\n    addiu $t0, $t0, 6",
    ], ids=["outside", "misaligned"])
    def test_pc_escape_detected(self, target, engine):
        with pytest.raises(SimulationError, match="pc outside"):
            run_asm(f"{target}\n    jr $t0", engine=engine)

    def test_cycles_exceed_steps(self):
        _, result = run_asm("    li $t0, 1\n    la $t1, result\n    sw $t0, 0($t1)")
        assert result.cycles >= result.steps

    def test_custom_cpi_model(self):
        body = "    la $t1, result\n    lw $t0, 0($t1)\n    sw $t0, 0($t1)"
        _, cheap = run_asm(body, cpi=CpiModel(load=1, store=1))
        _, costly = run_asm(body, cpi=CpiModel(load=10, store=10))
        assert costly.cycles > cheap.cycles

    @pytest.mark.parametrize("field, bad", [
        ("load", -4), ("load", 1.5), ("alu", True), ("taken_penalty", -1),
        ("div", None), ("hilo", "1"), ("store", 2.0),
    ])
    def test_cpi_model_rejects_bad_cycle_counts(self, field, bad):
        # a negative or float cost used to flow into RunResult.cycles
        with pytest.raises(ValueError, match=field):
            CpiModel(**{field: bad})

    def test_cpi_model_accepts_zero_cost(self):
        body = "    la $t1, result\n    lw $t0, 0($t1)"
        _, free = run_asm(body, cpi=CpiModel(load=0))
        _, default = run_asm(body)
        assert free.cycles == default.cycles - CpiModel().load

    @pytest.mark.parametrize("engine", ["superblock", "threaded"])
    @pytest.mark.parametrize("option, bad", [
        ("max_steps", -5), ("max_steps", 2.5), ("max_steps", True),
        ("sample_interval", -1), ("sample_interval", 0.5),
        ("sample_interval", None),
    ])
    def test_run_rejects_bad_options(self, engine, option, bad):
        # a negative interval used to run unsampled without ever calling
        # back, and a negative budget to report "exceeded max_steps"
        calls = []
        cpu = Cpu(assemble(".text\n_start:\n    nop\n    break\n"), engine=engine)
        with pytest.raises(ValueError, match=option):
            cpu.run(**{option: bad}, on_sample=lambda c, t: calls.append(1))
        assert calls == []
        assert cpu.run().halted, "a rejected call must leave the Cpu usable"

    @pytest.mark.parametrize("engine", ["superblock", "threaded"])
    def test_zero_budget_is_exceeded_not_rejected(self, engine):
        cpu = Cpu(assemble(".text\n_start:\n    break\n"), engine=engine)
        with pytest.raises(SimulationError, match="exceeded max_steps=0"):
            cpu.run(max_steps=0)

    @pytest.mark.parametrize("engine", ["superblock", "threaded"])
    def test_hi_lo_hold_their_values_at_a_fault(self, engine):
        # a loop whose mult/mflo pair runs six times before its lh faults;
        # hi and lo used to keep the values from before the run
        from tests.sim.test_regions import _FAULTS

        threaded = Cpu(assemble(_FAULTS), engine="threaded")
        cpu = Cpu(assemble(_FAULTS), engine=engine)
        for each in (threaded, cpu):
            with pytest.raises(MemoryFault):
                each.run()
        assert threaded._hilo == [0, 4200]
        assert (cpu.hi, cpu.lo) == tuple(threaded._hilo)


class TestProfiling:
    def test_pc_counts_loop(self):
        source = """
.text
_start:
    li $t0, 0
loop:
    addiu $t0, $t0, 1
    li $t2, 5
    bne $t0, $t2, loop
    break
"""
        exe = assemble(source)
        cpu, result = run_executable(exe, profile=True)
        loop_pc = exe.symbols["loop"].address
        assert result.pc_counts[loop_pc] == 5

    def test_edge_counts_taken_branches(self):
        source = """
.text
_start:
    li $t0, 0
loop:
    addiu $t0, $t0, 1
    li $t2, 4
    bne $t0, $t2, loop
    break
"""
        exe = assemble(source)
        _, result = run_executable(exe, profile=True)
        loop_pc = exe.symbols["loop"].address
        back_edges = [
            count for (src, dst), count in result.edge_counts.items() if dst == loop_pc
        ]
        assert sum(back_edges) == 3  # taken 3 times, falls through once

    def test_mix_collected_when_profiling(self):
        _, result = run_asm("    li $t0, 1\n    la $t1, result\n    sw $t0, 0($t1)")
        assert not result.mix  # profiling off by default
