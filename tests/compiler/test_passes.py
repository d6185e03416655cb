"""Compiler optimization pass tests: each pass does its job and levels
produce progressively better (or characteristically different) code."""

from dataclasses import astuple

import pytest

from repro.binary.loader import load_into_memory
from repro.compiler import CompilerOptions, compile_source, compile_to_asm, ir
from repro.compiler.irgen import generate_ir
from repro.compiler.parser import parse
from repro.compiler.passes import (
    eliminate_dead_code,
    fold_constants,
    fold_immediates,
    hoist_loop_invariants,
    local_cse,
    promote_slots,
    propagate_copies,
    reduce_strength,
    simplify_control_flow,
)
from repro.compiler.passes.ast_unroll import unroll_loops
from repro.compiler.passes.licm import find_loops
from repro.compiler.passes.strength import decompose_multiplier
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_executable
from repro.sim.cpu import STACK_TOP
from repro.sim.memory import Memory
from repro.sim.reference import _interpret


_LOOP_PROGRAM = """
int data[32];
int checksum;
int main(void) {
    int i;
    int base = 3;
    for (i = 0; i < 32; i++) {
        data[i] = (i + base) * 5;
    }
    for (i = 0; i < 32; i++) checksum += data[i];
    return 0;
}
"""


def _cycles(source: str, level: int) -> int:
    exe = compile_source(source, opt_level=level)
    _, result = run_executable(exe)
    return result.cycles


def _size(source: str, level: int) -> int:
    exe = compile_source(source, opt_level=level)
    return len(exe.text_words)


class TestLevelCharacteristics:
    def test_o1_beats_o0(self):
        assert _cycles(_LOOP_PROGRAM, 1) < _cycles(_LOOP_PROGRAM, 0)

    def test_o2_not_worse_than_o1(self):
        assert _cycles(_LOOP_PROGRAM, 2) <= _cycles(_LOOP_PROGRAM, 1) * 1.05

    def test_o3_grows_code(self):
        assert _size(_LOOP_PROGRAM, 3) > _size(_LOOP_PROGRAM, 2)

    def test_o0_uses_frame_heavily(self):
        asm0 = compile_to_asm(_LOOP_PROGRAM, CompilerOptions.from_level(0))
        asm1 = compile_to_asm(_LOOP_PROGRAM, CompilerOptions.from_level(1))
        sp_traffic_0 = sum(1 for l in asm0.splitlines() if "($sp)" in l)
        sp_traffic_1 = sum(1 for l in asm1.splitlines() if "($sp)" in l)
        assert sp_traffic_0 > 2 * sp_traffic_1

    def test_all_levels_agree(self):
        values = set()
        for level in (0, 1, 2, 3):
            exe = compile_source(_LOOP_PROGRAM, opt_level=level)
            cpu, _ = run_executable(exe)
            values.add(cpu.read_word_global_signed("checksum"))
        assert len(values) == 1


class TestStrengthReduction:
    def test_o2_emits_shift_add_for_constant_mult(self):
        source = """
        int checksum;
        int main(void) { int x = 7; checksum = x * 10; return 0; }
        """
        asm2 = compile_to_asm(source, CompilerOptions.from_level(2))
        # x*10 = (x<<3) + (x<<1): no mult instruction at O2
        assert "mult" not in asm2

    def test_o1_keeps_mult(self):
        source = """
        int checksum;
        int mul10(int x) { return x * 10; }
        int main(void) { checksum = mul10(7); return 0; }
        """
        asm1 = compile_to_asm(source, CompilerOptions.from_level(1))
        assert "mult" in asm1

    def test_div_by_power_of_two_has_no_div_at_o2(self):
        source = """
        int checksum;
        int main(void) { int x = -100; checksum = x / 8; return 0; }
        """
        asm2 = compile_to_asm(source, CompilerOptions.from_level(2))
        assert "div" not in asm2.replace("divu", "")

    def test_signed_division_correct_after_reduction(self):
        source = """
        int checksum;
        int helper(int x) { return x / 8 + x % 8; }
        int main(void) { checksum = helper(-100) * 1000 + helper(100); return 0; }
        """
        expected = (-12 + -4) * 1000 + (12 + 4)
        for level in (0, 1, 2, 3):
            exe = compile_source(source, opt_level=level)
            cpu, _ = run_executable(exe)
            assert cpu.read_word_global_signed("checksum") == expected


class TestDecomposeMultiplier:
    def test_power_of_two(self):
        assert decompose_multiplier(8) == [("+", 3)]

    def test_ten(self):
        terms = decompose_multiplier(10)
        assert terms is not None
        total = sum((1 if sign == "+" else -1) << shift for sign, shift in terms)
        assert total == 10

    def test_fifteen_uses_subtraction(self):
        terms = decompose_multiplier(15)
        assert terms is not None and len(terms) == 2
        total = sum((1 if sign == "+" else -1) << shift for sign, shift in terms)
        assert total == 15

    def test_dense_constant_rejected(self):
        assert decompose_multiplier(0b1010101010101) is None

    def test_values_round_trip(self):
        for value in range(1, 300):
            terms = decompose_multiplier(value)
            if terms is None:
                continue
            total = sum((1 if sign == "+" else -1) << shift for sign, shift in terms)
            assert total == value, value


class TestAstUnroll:
    def test_unrolls_simple_counted_loop(self):
        unit = parse(
            "int a[64]; int main(void) { int i;"
            " for (i = 0; i < 64; i++) a[i] = i; return 0; }"
        )
        assert unroll_loops(unit) == 1

    def test_skips_loop_with_break(self):
        unit = parse(
            "int a[64]; int main(void) { int i;"
            " for (i = 0; i < 64; i++) { if (i == 5) break; a[i] = i; } return 0; }"
        )
        assert unroll_loops(unit) == 0

    def test_skips_induction_write_in_body(self):
        unit = parse(
            "int a[64]; int main(void) { int i;"
            " for (i = 0; i < 64; i++) { a[i] = i; i = i + 1; } return 0; }"
        )
        assert unroll_loops(unit) == 0

    def test_skips_call_with_global_bound(self):
        unit = parse(
            "int n; int f(void) { return 1; }"
            " int a[64]; int main(void) { int i;"
            " for (i = 0; i < n; i++) a[i] = f(); return 0; }"
        )
        assert unroll_loops(unit) == 0

    def test_unrolls_innermost_only(self):
        unit = parse(
            "int a[64]; int main(void) { int i; int j;"
            " for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) a[i*8+j] = j; return 0; }"
        )
        assert unroll_loops(unit) == 1

    def test_remainder_loop_correct(self):
        # 10 iterations with factor 4: 8 in the main loop + 2 remainder
        source = """
        int total;
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) total += i;
            checksum = total;
            return 0;
        }
        """
        exe = compile_source(source, opt_level=3)
        cpu, _ = run_executable(exe)
        assert cpu.read_word_global_signed("checksum") == 45


_SINGLE_BLOCK_LOOP = """
int a[16];
int g = 6;
int checksum;
int main(void) {
    int i = 0;
    int k = 0;
    int m = g;
    if (m > 3) k = 5;
    do { a[i] = m * 7 + k; i++; } while (i < 16);
    checksum = a[3] + a[15];
    return 0;
}
"""


class TestLicmSingleBlockLoop:
    """A ``do ... while`` whose body is one block: the header is its own
    latch, so the loop is that block alone and its invariants move to the
    fall-through predecessor."""

    @staticmethod
    def _main_before_licm(level: int) -> ir.Function:
        options = CompilerOptions.from_level(level)
        unit = parse(_SINGLE_BLOCK_LOOP)
        if options.unroll:
            unroll_loops(unit, options.unroll_factor)
        module, _ = generate_ir(unit)
        func = module.functions["main"]
        promote_slots(func)
        while any([fold_constants(func), propagate_copies(func),
                   eliminate_dead_code(func), simplify_control_flow(func)]):
            pass
        return func

    @staticmethod
    def _checksum(level: int) -> int:
        exe = compile_source(_SINGLE_BLOCK_LOOP, opt_level=level)
        memory = Memory()
        load_into_memory(exe, memory)
        regs = [0] * 32
        regs[29] = STACK_TOP
        assert _interpret(exe, memory, regs, [0, 0]).halted
        return memory.read_u32(exe.symbols["checksum"].address)

    @pytest.mark.parametrize("level", [2, 3])
    def test_body_is_the_header_and_the_invariant_is_hoisted(self, level):
        func = self._main_before_licm(level)
        blocks = ir.build_cfg(func)
        (header, body), = find_loops(blocks)
        assert body == {header}
        label = blocks[header].label
        assert hoist_loop_invariants(func)
        at_header = func.instrs.index(ir.Label(label))
        muls = [position for position, instr in enumerate(func.instrs)
                if isinstance(instr, ir.BinOp) and instr.op == "mul"]
        assert muls and all(position < at_header for position in muls)

    @pytest.mark.parametrize("level", [2, 3])
    def test_checksum_matches_O0(self, level):
        assert self._checksum(level) == self._checksum(0) == 2 * (6 * 7 + 5)


class TestChangedFlagIsTruthful:
    """A pass that returns False must leave the function exactly as it was.

    The driver skips a cleanup pass whose last run returned False until
    some pass changes the function, which is sound only if this holds.
    Every IR pass runs here on every function of the 80 ``static_suite``
    builds in pipeline order, with no call skipped.
    """

    _CLEANUP = (fold_constants, propagate_copies, eliminate_dead_code,
                simplify_control_flow)

    @staticmethod
    def _state(func):
        return func.dump(), [astuple(slot) for slot in func.slots]

    def _run(self, transform, func, calls) -> bool:
        before = self._state(func)
        changed = transform(func)
        if not changed:
            assert self._state(func) == before, (
                f"{transform.__name__} changed {func.name} but returned False")
        calls.add(transform.__name__)
        return changed

    def _fixpoint(self, func, calls):
        for _ in range(12):
            changed = False
            for cleanup in self._CLEANUP:
                changed |= self._run(cleanup, func, calls)
            if not changed:
                break

    @pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
    def test_false_means_unchanged(self, name):
        source = next(b for b in ALL_BENCHMARKS if b.name == name).source
        calls: set[str] = set()
        for level in (0, 1, 2, 3):
            options = CompilerOptions.from_level(level)
            unit = parse(source)
            if options.unroll:
                unroll_loops(unit, options.unroll_factor)
            module, _ = generate_ir(unit)
            for func in module.functions.values():
                if options.mem2reg:
                    self._run(promote_slots, func, calls)
                if options.fold:
                    self._fixpoint(func, calls)
                for enabled, transform in ((options.licm, hoist_loop_invariants),
                                           (options.cse, local_cse),
                                           (options.strength_reduce, reduce_strength)):
                    if enabled:
                        self._run(transform, func, calls)
                        self._fixpoint(func, calls)
                if options.fold:
                    self._run(fold_immediates, func, calls)
                    self._run(eliminate_dead_code, func, calls)
        assert len(calls) == 9
