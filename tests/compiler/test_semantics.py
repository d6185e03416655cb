"""Language-feature semantics: compile, simulate, compare with expected
values.  Every test runs at all four optimization levels -- a compiler bug
at any level shows up as a level-specific failure."""

import pytest

from repro.binary.loader import load_into_memory
from repro.errors import CompileError
from repro.compiler import compile_source
from repro.sim.cpu import STACK_TOP
from repro.sim.memory import Memory
from repro.sim.reference import _interpret
from tests.conftest import checksum_of


def check_all_levels(source: str, expected: int, symbol: str = "checksum"):
    for level in (0, 1, 2, 3):
        got = checksum_of(source, level, symbol)
        assert got == expected, f"O{level}: got {got}, expected {expected}"


class TestArithmetic:
    def test_signed_division_negative(self):
        check_all_levels(
            "int checksum; int main(void) { int a = -17; int b = 5; checksum = a / b; return 0; }",
            -3,
        )

    def test_signed_modulo_negative(self):
        check_all_levels(
            "int checksum; int main(void) { int a = -17; int b = 5; checksum = a % 5; return 0; }",
            -2,
        )

    def test_unsigned_division(self):
        check_all_levels(
            "int checksum; int main(void) { unsigned int a = 0xFFFFFFF0; checksum = (int)(a / 16); return 0; }",
            0x0FFF_FFFF,
        )

    def test_multiplication_wraps(self):
        check_all_levels(
            "int checksum; int main(void) { int a = 0x10001; checksum = a * a; return 0; }",
            0x20001,
        )

    def test_shift_semantics(self):
        source = """
        int checksum;
        int main(void) {
            int s = -16;
            unsigned int u = 0xFFFFFFF0;
            checksum = (s >> 2) + (int)(u >> 28);
            return 0;
        }
        """
        check_all_levels(source, -4 + 15)

    def test_comparison_signedness(self):
        source = """
        int checksum;
        int main(void) {
            int s = -1;
            unsigned int u = 0xFFFFFFFF;
            checksum = (s < 1) * 10 + (u < 1u);
            return 0;
        }
        """
        check_all_levels(source, 10)


class TestNarrowTypes:
    def test_char_wraps(self):
        check_all_levels(
            "int checksum; int main(void) { char c = (char)200; checksum = c; return 0; }",
            200 - 256,
        )

    def test_unsigned_char_wraps(self):
        check_all_levels(
            "int checksum; int main(void) { unsigned char c = (unsigned char)300; checksum = c; return 0; }",
            44,
        )

    def test_short_global_store_load(self):
        source = """
        short s;
        int checksum;
        int main(void) { s = (short)40000; checksum = s; return 0; }
        """
        check_all_levels(source, 40000 - 65536)

    def test_char_array_elements(self):
        source = """
        char buf[4];
        int checksum;
        int main(void) {
            buf[0] = (char)130;
            buf[1] = 'A';
            checksum = buf[0] * 1000 + buf[1];
            return 0;
        }
        """
        check_all_levels(source, -126 * 1000 + 65)


class TestPointers:
    def test_pointer_walk(self):
        source = """
        int data[5] = {1, 2, 3, 4, 5};
        int checksum;
        int main(void) {
            int *p = data;
            int total = 0;
            while (p < data + 5) { total += *p; p++; }
            checksum = total;
            return 0;
        }
        """
        check_all_levels(source, 15)

    def test_pointer_difference(self):
        source = """
        int data[8];
        int checksum;
        int main(void) {
            int *a = data + 7;
            int *b = data + 2;
            checksum = (int)(a - b);
            return 0;
        }
        """
        check_all_levels(source, 5)

    def test_address_of_local(self):
        source = """
        int checksum;
        void bump(int *p) { *p += 9; }
        int main(void) { int x = 1; bump(&x); checksum = x; return 0; }
        """
        check_all_levels(source, 10)

    def test_pointer_into_short_array(self):
        source = """
        short vals[4] = {10, 20, 30, 40};
        int checksum;
        int main(void) {
            short *p = vals + 1;
            checksum = p[0] + p[2];
            return 0;
        }
        """
        check_all_levels(source, 60)


class TestControlFlow:
    def test_nested_loops_with_break_continue(self):
        source = """
        int checksum;
        int main(void) {
            int i; int j; int total = 0;
            for (i = 0; i < 5; i++) {
                for (j = 0; j < 5; j++) {
                    if (j == 3) break;
                    if (j == 1) continue;
                    total += i * 10 + j;
                }
            }
            checksum = total;
            return 0;
        }
        """
        # per i: j in {0, 2} -> contributes 2*(10i) + 2
        check_all_levels(source, sum(2 * (10 * i) + 2 for i in range(5)))

    def test_do_while_executes_once(self):
        source = """
        int checksum;
        int main(void) { int n = 0; do { n++; } while (0); checksum = n; return 0; }
        """
        check_all_levels(source, 1)

    def test_sparse_switch_compare_chain(self):
        source = """
        int checksum;
        int pick(int x) {
            switch (x) {
            case 1: return 10;
            case 100: return 20;
            case 1000: return 30;
            default: return -1;
            }
        }
        int main(void) { checksum = pick(100) + pick(7); return 0; }
        """
        check_all_levels(source, 19)

    def test_switch_fallthrough(self):
        source = """
        int checksum;
        int main(void) {
            int acc = 0;
            int x = 4;
            switch (x) {
            case 3: acc += 1;
            case 4: acc += 10;
            case 5: acc += 100; break;
            case 6: acc += 1000;
            default: acc += 10000;
            }
            checksum = acc;
            return 0;
        }
        """
        check_all_levels(source, 110)

    def test_short_circuit_side_effects(self):
        source = """
        int calls;
        int checksum;
        int bump(void) { calls++; return 1; }
        int main(void) {
            int a = 0 && bump();
            int b = 1 || bump();
            checksum = calls * 100 + a * 10 + b;
            return 0;
        }
        """
        check_all_levels(source, 1)

    def test_recursion(self):
        source = """
        int checksum;
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int main(void) { checksum = ack(2, 3); return 0; }
        """
        check_all_levels(source, 9)

    def test_comma_operator(self):
        source = """
        int checksum;
        int main(void) { int a; int b; a = (b = 3, b + 1); checksum = a * 10 + b; return 0; }
        """
        check_all_levels(source, 43)


class TestFunctions:
    def test_four_arguments(self):
        source = """
        int checksum;
        int combine(int a, int b, int c, int d) { return a + b * 10 + c * 100 + d * 1000; }
        int main(void) { checksum = combine(1, 2, 3, 4); return 0; }
        """
        check_all_levels(source, 4321)

    def test_global_state_across_calls(self):
        source = """
        int counter;
        int checksum;
        void tick(void) { counter += 3; }
        int main(void) { tick(); tick(); tick(); checksum = counter; return 0; }
        """
        check_all_levels(source, 9)

    def test_array_parameter(self):
        source = """
        int data[4] = {5, 6, 7, 8};
        int checksum;
        int total(int arr[], int n) {
            int i; int acc = 0;
            for (i = 0; i < n; i++) acc += arr[i];
            return acc;
        }
        int main(void) { checksum = total(data, 4); return 0; }
        """
        check_all_levels(source, 26)


class TestMultipleDeclarators:
    """``int i = 1, k = 2;`` declares both names in the enclosing scope."""

    @staticmethod
    def _reference_checksum(source: str, level: int) -> int:
        exe = compile_source(source, opt_level=level)
        memory = Memory()
        load_into_memory(exe, memory)
        regs = [0] * 32
        regs[29] = STACK_TOP
        assert _interpret(exe, memory, regs, [0, 0]).halted
        value = memory.read_u32(exe.symbols["checksum"].address)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("source, expected", [
        ("int checksum; int main(void) { int i = 1, k = 2; checksum = i + k; return 0; }", 3),
        ("""
        int checksum;
        int main(void) {
            int *p, q[3], r = 4;
            q[0] = r; q[1] = r * 2; q[2] = r * 3;
            p = q;
            checksum = p[0] + p[1] + p[2];
            return 0;
        }
        """, 24),
        ("""
        int checksum;
        int main(void) {
            for (int i = 0, k = 10; i < 5; i++) { checksum += i * k; k--; }
            return 0;
        }
        """, 0 * 10 + 1 * 9 + 2 * 8 + 3 * 7 + 4 * 6),
        # an unrolled loop's remainder loop still sees the init's name
        ("int checksum; int main(void) {"
         " for (int i = 0; i < 5; i++) checksum += i; return 0; }", 10),
    ])
    def test_names_reach_later_statements(self, source, expected, level):
        assert self._reference_checksum(source, level) == expected

    def test_for_init_names_stay_in_the_loop(self):
        with pytest.raises(CompileError, match="undeclared identifier 'k'"):
            compile_source(
                "int checksum; int main(void) {"
                " for (int i = 0, k = 1; i < 2; i++) checksum += k;"
                " return k; }"
            )

    def test_repeated_name_is_a_redeclaration(self):
        with pytest.raises(CompileError, match="redeclaration"):
            compile_source("int main(void) { int x = 1, x = 2; return x; }")


class TestCompileErrors:
    def test_undeclared_variable(self):
        with pytest.raises(CompileError, match="undeclared"):
            compile_source("int main(void) { return nope; }")

    def test_undeclared_function(self):
        with pytest.raises(CompileError, match="undeclared function"):
            compile_source("int main(void) { return g(); }")

    def test_wrong_arity(self):
        with pytest.raises(CompileError, match="arguments"):
            compile_source("int f(int a) { return a; } int main(void) { return f(); }")

    def test_too_many_params(self):
        with pytest.raises(CompileError, match="parameters"):
            compile_source(
                "int f(int a, int b, int c, int d, int e) { return 0; }"
                "int main(void) { return 0; }"
            )

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break"):
            compile_source("int main(void) { break; return 0; }")

    def test_missing_main(self):
        with pytest.raises(CompileError, match="main"):
            compile_source("int f(void) { return 0; }")

    def test_void_return_with_value(self):
        with pytest.raises(CompileError):
            compile_source("void f(void) { return 1; } int main(void) { return 0; }")

    def test_assign_to_array(self):
        with pytest.raises(CompileError):
            compile_source("int a[3]; int b[3]; int main(void) { a = b; return 0; }")

    def test_redeclaration(self):
        with pytest.raises(CompileError, match="redeclaration"):
            compile_source("int main(void) { int x; int x; return 0; }")
