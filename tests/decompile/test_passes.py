"""Decompilation pass tests: each pass removes what the paper says it
removes, and the CDFG interpreter confirms semantics after every pass."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler import compile_source, CompilerOptions
from repro.decompile import decompile
from repro.decompile.decompiler import DecompilationOptions
from repro.decompile.interp import CdfgInterpreter
from repro.decompile.microop import Imm, Opcode
from repro.decompile.passes import constprop
from repro.errors import DecompilationError
from repro.sim import run_executable


def _decompiled(source: str, opt_level: int = 1, options=None):
    exe = compile_source(source, opt_level=opt_level)
    program = decompile(exe, options)
    assert program.recovered, program.failures
    return exe, program


def _equivalent(exe, program, symbol="checksum"):
    cpu, _ = run_executable(exe)
    expected = cpu.read_word_global_signed(symbol)
    interp = CdfgInterpreter(program)
    interp.run_main()
    value = interp.memory.read_u32(exe.symbols[symbol].address)
    value = value - 0x1_0000_0000 if value & 0x8000_0000 else value
    assert value == expected, f"decompiled {value} != simulated {expected}"


class TestConstantPropagation:
    def test_removes_register_move_idiom(self):
        # a chain of moves (addiu rd, rs, 0) collapses to nothing
        source = """
        int checksum;
        int pass_through(int x) { int a = x; int b = a; int c = b; return c; }
        int main(void) { checksum = pass_through(42); return 0; }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.moves_recovered > 0
        assert stats.final_ops < stats.lifted_ops
        _equivalent(exe, program)

    def test_address_materialization_folds_to_absolute(self):
        source = """
        int g;
        int checksum;
        int main(void) { g = 7; checksum = g; return 0; }
        """
        exe, program = _decompiled(source)
        main_cfg = program.functions["main"].cfg
        # lui/ori pairs became absolute-addressed loads/stores (Imm base)
        stores = [
            op for op in main_cfg.all_ops() if op.opcode is Opcode.STORE
        ]
        assert stores and all(isinstance(op.b, Imm) for op in stores)
        _equivalent(exe, program)

    def test_folds_constant_branches_dead_code(self):
        source = """
        int checksum;
        int main(void) {
            if (3 > 5) checksum = 111;
            else checksum = 222;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)  # keep the branch in the binary
        _equivalent(exe, program)

    def test_visit_cap_hit_is_a_recovery_failure(self, monkeypatch):
        # a solve stopped at its visit cap holds non-fixpoint states;
        # rewriting from them would be unsound, so the function fails
        # recovery instead
        source = """
        int checksum;
        int main(void) { int i; for (i = 0; i < 9; i++) checksum += i; return 0; }
        """
        exe = compile_source(source, opt_level=1)
        monkeypatch.setattr(constprop, "_VISIT_CAP", 0)
        program = decompile(exe)
        assert not program.recovered
        failure = next(f for f in program.failures if f.function == "main")
        assert "did not converge" in failure.reason
        assert failure.address == exe.symbols["main"].address
        assert "main" not in program.functions


def test_total_stats_hands_out_fresh_copies():
    _, program = _decompiled(
        "int checksum;\nint main(void) { int i; for (i = 0; i < 9; i++) "
        "checksum += i; return 0; }\n"
    )
    first = program.total_stats()
    expected = first.final_ops
    first.final_ops += 100
    second = program.total_stats()
    assert second is not first
    assert second.final_ops == expected == sum(
        func.stats.final_ops for func in program.functions.values()
    )


class TestOptions:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_rejected(self, rounds):
        with pytest.raises(DecompilationError, match="rounds"):
            DecompilationOptions(rounds=rounds)

    def test_one_round_accepted(self):
        assert DecompilationOptions(rounds=1).rounds == 1


class TestStackRemoval:
    def test_O0_frame_traffic_becomes_moves(self):
        source = """
        int checksum;
        int main(void) {
            int a = 1; int b = 2; int c = 3; int d = 4;
            checksum = a + b * c - d;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)
        stats = program.total_stats()
        assert stats.stack_ops_removed > 4
        main_cfg = program.functions["main"].cfg
        sp_loads = [
            op
            for op in main_cfg.all_ops()
            if op.opcode is Opcode.LOAD and getattr(op.a, "name", "") == "R29"
        ]
        assert not sp_loads  # every frame access was promoted
        _equivalent(exe, program)

    def test_local_array_blocks_promotion(self):
        source = """
        int checksum;
        int main(void) {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) a[i] = i * 3;
            checksum = a[2];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=1)
        # frame escapes via the array's address: function left untouched
        stats = program.total_stats()
        _equivalent(exe, program)

    def test_recursion_with_promoted_slots(self):
        source = """
        int checksum;
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main(void) { checksum = fib(12); return 0; }
        """
        exe, program = _decompiled(source, opt_level=1)
        _equivalent(exe, program)  # per-frame slots keep recursion correct


class TestStrengthPromotion:
    _SOURCE = """
    int checksum;
    int scale(int x) { return x * 58; }
    int main(void) { checksum = scale(13); return 0; }
    """

    def test_recovers_multiplication_from_o2_shifts(self):
        exe, program = _decompiled(self._SOURCE, opt_level=2)
        stats = program.total_stats()
        assert stats.muls_promoted >= 1
        muls = [
            op
            for op in program.functions["scale"].cfg.all_ops()
            if op.opcode is Opcode.MUL and isinstance(op.b, Imm)
        ]
        assert any((op.b.value & 0xFFFFFFFF) == 58 for op in muls)
        _equivalent(exe, program)

    def test_multiplicand_choice_ignores_hash_order(self):
        # without copy propagation, fir -O3 leaves several locations holding
        # the same multiplicand; which one the MUL reads must not depend on
        # set iteration order (it once followed the string-hash seed)
        probe = (
            "from repro.compiler import compile_source\n"
            "from repro.decompile import DecompilationOptions, decompile\n"
            "from repro.programs import get_benchmark\n"
            "exe = compile_source(get_benchmark('fir').source, opt_level=3)\n"
            "options = DecompilationOptions(copy_propagation=False)\n"
            "for func in decompile(exe, options).functions.values():\n"
            "    print(func.cfg.dump())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        dumps = {
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        }
        assert len(dumps) == 1

    def test_no_promotion_without_pass(self):
        options = DecompilationOptions(strength_promotion=False)
        exe = compile_source(self._SOURCE, opt_level=2)
        program = decompile(exe, options)
        assert program.total_stats().muls_promoted == 0

    def test_promotion_handles_offset_bases(self):
        # (i+1)*7 pattern: holder carries coeff 1 const 1
        source = """
        int out[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 15; i++) out[i] = (i + 1) * 7;
            checksum = out[14];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=2)
        _equivalent(exe, program)


class TestLoopRerolling:
    _SOURCE = """
    int data[64];
    int out[64];
    int checksum;
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) data[i] = i * 3 + 1;
        for (i = 0; i < 60; i++) out[i] = data[i] * 5;
        for (i = 0; i < 60; i++) checksum += out[i];
        return 0;
    }
    """

    def test_rerolls_O3_loops(self):
        exe, program = _decompiled(self._SOURCE, opt_level=3)
        stats = program.total_stats()
        assert stats.loops_rerolled >= 2
        factors = program.functions["main"].cfg.reroll_factors
        assert all(f == 4 for f in factors.values())
        _equivalent(exe, program)

    def test_no_reroll_at_O1(self):
        exe, program = _decompiled(self._SOURCE, opt_level=1)
        assert program.total_stats().loops_rerolled == 0
        _equivalent(exe, program)

    def test_reroll_shrinks_op_count(self):
        exe = compile_source(self._SOURCE, opt_level=3)
        with_reroll = decompile(exe)
        without = decompile(exe, DecompilationOptions(loop_rerolling=False))
        assert (
            with_reroll.total_stats().final_ops
            < without.total_stats().final_ops
        )

    def test_canonicalization_alone_is_safe(self):
        # accumulator loops at O3 exercise the rotation-collapse rewrites
        source = """
        int vals[40];
        int checksum;
        int main(void) {
            int i; int acc = 0; int prod = 1;
            for (i = 0; i < 40; i++) vals[i] = i + 1;
            for (i = 0; i < 36; i++) { acc += vals[i]; }
            for (i = 0; i < 8; i++) { prod *= vals[i]; }
            checksum = acc * 1000 + (prod & 1023);
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=3)
        _equivalent(exe, program)


class TestSizeReduction:
    def test_narrow_widths_annotated(self):
        source = """
        unsigned char bytes[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) bytes[i] = (unsigned char)(i * 3);
            for (i = 0; i < 16; i++) checksum += bytes[i] & 15;
            return 0;
        }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.ops_narrowed > 0
        assert stats.bits_saved > 0

    def test_width_annotation_bounds(self):
        source = "int checksum; int main(void) { checksum = 3 & 1; return 0; }"
        _, program = _decompiled(source)
        for func in program.functions.values():
            for op in func.cfg.all_ops():
                assert 1 <= op.width <= 32


class TestPipelineOrdering:
    def test_full_pipeline_equivalence_across_levels(self):
        source = """
        int table[32];
        int checksum;
        int hash_mix(int v) {
            v = v * 37 + 11;
            v ^= v >> 7;
            return v;
        }
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) table[i] = hash_mix(i);
            for (i = 0; i < 32; i++) checksum ^= table[i];
            return 0;
        }
        """
        for level in (0, 1, 2, 3):
            exe, program = _decompiled(source, opt_level=level)
            _equivalent(exe, program)
