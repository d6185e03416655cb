"""Edge cases of the flat stack and data windows.

Superblock-generated code serves ``lw``/``sw``/``lbu``/``sb`` from two
flat buffers installed in :class:`~repro.sim.memory.Memory` (a stack
window ending at ``0x8000_0000`` and a data window starting at the
page-aligned ``data_base``) and falls back to the ``Memory`` methods
outside them.  Every program here runs on the superblock engine, the
threaded engine (which always goes through ``Memory``) and the reference
interpreter: the run statistics, or the fault, must match the reference,
and the register file, HI/LO and every non-zero memory page must match
the threaded engine.

Each access is emitted in three modes: ``literal``, where the base
register holds a constant the code generator folds into a direct index;
``dynamic``, where a block boundary hides the base value, so the base is
the register's unit-entry value and the unit's entry guard covers the
access; and ``computed``, where the base is the sum of two entry values,
so the generated code carries the per-access masked window test.
:class:`TestEntryGuards` covers the guards' edges and their miss path.
"""

from __future__ import annotations

import sys

import pytest

from repro.compiler import compile_source
from repro.errors import MemoryFault, SimulationError
from repro.isa import assemble
from repro.isa.assembler import DATA_BASE
from repro.sim import run_reference
from repro.sim.cpu import STACK_TOP, STACK_WINDOW_BYTES, Cpu
from repro.sim.memory import Memory

from tests.sim.test_differential import assert_identical

STACK_BASE = 0x8000_0000 - STACK_WINDOW_BYTES
#: the data window of a program whose data section fits in one page
DATA_WINDOW = 0x1000
MODES = ("literal", "dynamic", "computed")
M = 0xFFFF_FFFF


class CountingMemory(Memory):
    """A ``Memory`` that counts calls of its word and byte accessors."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = {"read_u32": 0, "write_u32": 0, "read_u8": 0, "write_u8": 0}

    def read_u32(self, address: int) -> int:
        self.calls["read_u32"] += 1
        return super().read_u32(address)

    def write_u32(self, address: int, value: int) -> None:
        self.calls["write_u32"] += 1
        super().write_u32(address, value)

    def read_u8(self, address: int) -> int:
        self.calls["read_u8"] += 1
        return super().read_u8(address)

    def write_u8(self, address: int, value: int) -> None:
        self.calls["write_u8"] += 1
        super().write_u8(address, value)


def _pages(cpu: Cpu) -> dict[int, bytes]:
    """Every page of *cpu*'s memory that holds a non-zero byte."""
    return {index: bytes(page) for index, page in cpu.memory._pages.items()
            if any(page)}


def _run(cpu: Cpu, **kwargs):
    try:
        return cpu.run(**kwargs)
    except MemoryFault as fault:
        return fault


def run_engines(exe, **kwargs) -> Cpu:
    """Run *exe* on all three engines, check they agree, and return the
    superblock ``Cpu``."""
    blocks = Cpu(exe, profile=True)
    threaded = Cpu(exe, profile=True, engine="threaded")
    got = _run(blocks, **kwargs)
    expected = _run(threaded, **kwargs)
    try:
        reference = run_reference(exe, profile=True)
    except MemoryFault as fault:
        reference = fault
    for other in (expected, reference):
        if isinstance(other, MemoryFault):
            assert isinstance(got, MemoryFault), got
            assert (got.address, str(got)) == (other.address, str(other))
        else:
            assert_identical(got, other)
    assert blocks.regs == threaded.regs
    assert (blocks.hi, blocks.lo, blocks.pc) == (threaded.hi, threaded.lo, threaded.pc)
    assert _pages(blocks) == _pages(threaded)
    return blocks


def assemble_program(body: str, data: str = "cell: .word 0") -> object:
    return assemble(f".text\n_start:\n{body}\n    break\n.data\n{data}\n")


class _Program:
    """Builds an assembly body; ``split`` starts a new block."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.lines: list[str] = []
        self.labels = 0

    def __call__(self, *lines: str) -> None:
        self.lines.extend(f"    {line}" for line in lines)

    def split(self) -> None:
        """Outside ``literal`` mode, end the block so later code cannot
        know the registers' values at generation time."""
        if self.mode != "literal":
            self.labels += 1
            self.lines += [f"    b split{self.labels}", f"split{self.labels}:"]

    def base(self, reg: str, value: int) -> None:
        if self.mode == "computed":
            self(f"li $t8, {value & M}", "li $t9, 0")
            self.split()
            self(f"addu {reg}, $t8, $t9")
        else:
            self(f"li {reg}, {value & M}")
            self.split()

    @property
    def body(self) -> str:
        return "\n".join(self.lines)


def test_windows_are_installed_where_expected():
    cpu = Cpu(assemble_program("    nop"))
    (stack_base, stack), (data_base, data) = cpu._windows
    assert (stack_base, len(stack)) == (STACK_BASE, STACK_WINDOW_BYTES)
    assert stack_base + len(stack) == 0x8000_0000
    assert STACK_BASE <= STACK_TOP < 0x8000_0000
    assert (data_base, len(data)) == (DATA_BASE, DATA_WINDOW)


def test_data_window_covers_a_large_data_section():
    exe = assemble_program("    nop", data="big: .space 9000")
    (_, _), (base, buffer) = Cpu(exe)._windows
    assert base == DATA_BASE and len(buffer) == 0x4000


def test_big_endian_host_is_rejected(monkeypatch):
    exe = assemble_program("    nop")
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(SimulationError, match="little-endian"):
        Cpu(exe)


#: (base register, base value, immediate) of word accesses at and just
#: beyond each window's edges
_WORD_EDGES = [
    ("$sp", STACK_BASE, 0),                      # first stack word
    ("$sp", STACK_BASE + 16, -16),
    ("$fp", 0x7FFF_FFFC, 0),                     # last stack word
    ("$fp", STACK_TOP, 12),
    ("$sp", STACK_BASE, -4),                     # just below the stack window
    ("$fp", 0x8000_0000, 0),                     # just above it
    ("$t0", DATA_BASE, 0),                       # first data word
    ("$t0", DATA_BASE + DATA_WINDOW - 4, 0),     # last data word
    ("$t1", DATA_BASE + 8, DATA_WINDOW - 12),
    ("$t0", DATA_BASE, -4),                      # just below the data window
    ("$t1", DATA_BASE + DATA_WINDOW, 0),         # just above it
    ("$t0", DATA_BASE + DATA_WINDOW - 8, 8),
]


@pytest.mark.parametrize("mode", MODES)
def test_word_edges(mode):
    program = _Program(mode)
    expected = {}   # address -> the last word stored there
    total = 0
    for number, (reg, base, imm) in enumerate(_WORD_EDGES):
        value = 0x1111_1111 * (number + 1) & M
        total += value
        program(f"li $s1, {value}")
        program.base(reg, base)
        program(f"sw $s1, {imm}({reg})")
        program.split()
        program(f"lw $s2, {imm}({reg})", "addu $s0, $s0, $s2",
                "bne $s2, $s1, mismatch")
        expected[(base + imm) & M] = value
    program.lines += ["    j done", "mismatch:", "    li $v0, 1", "done:"]
    cpu = run_engines(assemble_program(program.body))
    assert cpu.regs[2] == 0, "a load did not return the stored word"
    assert cpu.regs[16] == total & M
    for address, value in expected.items():
        assert cpu.memory.read_u32(address) == value


#: (base register, base value, immediate) of byte accesses at the edges
_BYTE_EDGES = [
    ("$sp", STACK_BASE, 0), ("$fp", 0x7FFF_FFFF, 0), ("$sp", STACK_TOP, 15),
    ("$sp", STACK_BASE, -1), ("$fp", 0x8000_0000, 0),
    ("$t0", DATA_BASE, 0), ("$t0", DATA_BASE + DATA_WINDOW - 1, 0),
    ("$t0", DATA_BASE, -1), ("$t1", DATA_BASE + DATA_WINDOW, 0),
]


@pytest.mark.parametrize("mode", MODES)
def test_byte_edges_and_sb_masks_to_a_byte(mode):
    program = _Program(mode)
    expected = {}
    for number, (reg, base, imm) in enumerate(_BYTE_EDGES):
        # above 255 on purpose: sb stores the low byte only
        value = 0x1234_5600 + 17 * number + 100
        program(f"li $s1, {value}")
        program.base(reg, base)
        program(f"sb $s1, {imm}({reg})")
        program.split()
        program(f"lbu $s2, {imm}({reg})", "andi $s3, $s1, 255",
                "bne $s2, $s3, mismatch")
        expected[(base + imm) & M] = value & 255
    program.lines += ["    j done", "mismatch:", "    li $v0, 1", "done:"]
    cpu = run_engines(assemble_program(program.body))
    assert cpu.regs[2] == 0, "an lbu did not return the stored byte"
    for address, value in expected.items():
        assert cpu.memory.read_u8(address) == value
        # the neighbouring bytes of the word stay zero
        word = cpu.memory.read_u32(address & ~3)
        assert word == value << 8 * (address & 3)


@pytest.mark.parametrize("mode", MODES)
def test_sb_of_a_literal_above_255(mode):
    program = _Program(mode)
    program.base("$t0", DATA_BASE)
    program.base("$sp", STACK_TOP)
    program("li $s1, 0x1FF", "sb $s1, 1($t0)", "sb $s1, 2($sp)")
    cpu = run_engines(assemble_program(program.body))
    assert cpu.memory.read_u32(DATA_BASE) == 0xFF00
    assert cpu.memory.read_u32(STACK_TOP) == 0xFF_0000


_MISALIGNED = [
    ("lw $s2, 2({reg})", "$sp", STACK_TOP),
    ("sw $s1, 1({reg})", "$fp", STACK_BASE),
    ("lw $s2, 3({reg})", "$t0", DATA_BASE),
    ("sw $s1, -2({reg})", "$t1", DATA_BASE + 64),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("access, reg, base", _MISALIGNED)
def test_misaligned_access_faults_with_exact_registers(mode, access, reg, base):
    program = _Program(mode)
    program.base(reg, base)
    # registers touched twice are cached in unit locals; the fault must
    # still leave every one of them written back
    program("li $s1, 77", "addiu $s1, $s1, 1", "addiu $s4, $s4, 5",
            "addiu $s4, $s4, 6", "sll $s5, $s1, 3", access.format(reg=reg),
            "li $s6, 9")
    cpu = run_engines(assemble_program(program.body))
    assert cpu.regs[17] == 78 and cpu.regs[20] == 11 and cpu.regs[21] == 78 << 3
    assert cpu.regs[22] == 0, "the instruction after the fault ran"


@pytest.mark.parametrize("mode", MODES)
def test_effective_address_wraps_at_32_bits(mode):
    program = _Program(mode)
    program("li $s1, 0x5A5A5A5A")
    program.base("$t0", 0xFFFF_FFFC)
    program("sw $s1, 8($t0)")                 # wraps past 2^32 to 4
    program.base("$t1", 4)
    program("sw $s1, -8($t1)")                # wraps below 0 to 0xFFFFFFFC
    program.base("$sp", 0xFFFF_FFF8)
    program("sw $s1, 20($sp)", "lbu $s3, 9($sp)")   # 12 and 1
    program.base("$fp", 2)
    program("lw $s2, -6($fp)", "sb $s1, -3($fp)")   # 0xFFFFFFFC and 0xFFFFFFFF
    cpu = run_engines(assemble_program(program.body))
    mem = cpu.memory
    assert mem.read_u32(4) == mem.read_u32(12) == 0x5A5A_5A5A
    assert mem.read_u32(0xFFFF_FFFC) == 0x5A5A_5A5A
    assert cpu.regs[18] == 0x5A5A_5A5A and cpu.regs[19] == 0


_DEEP = """
int out;
int walk(int n) {
    int pad[6];
    int i;
    for (i = 0; i < 6; i++) pad[i] = n + i;
    if (n == 0) return pad[5];
    return walk(n - 1) + pad[n % 6];
}
int main(void) { out = walk(2500); return 0; }
"""


@pytest.mark.parametrize("opt_level", [0, 2])
def test_stack_deeper_than_the_window(opt_level):
    exe = compile_source(_DEEP, opt_level=opt_level)
    cpu = run_engines(exe)
    expected = 5 + sum(n + n % 6 for n in range(1, 2501))
    assert cpu.read_word_global("out") == expected
    # frames spilled past the window onto the sparse pages below it
    assert any(cpu.memory.read_bytes(STACK_BASE - 0x1000, 0x1000))


class TestAliasing:
    """The windows' pages are ``Memory``'s pages: one copy of storage."""

    _BODY = """    la $t0, cell
    li $t1, 0x12345678
    sw $t1, 0($t0)
    sw $t1, -4($sp)
    nop
    nop
    nop
    nop
    nop
    b next
next:
    lw $t2, 0($t0)
    lw $t3, -4($sp)
"""

    def test_threaded_store_is_read_by_generated_code(self):
        exe = assemble_program(self._BODY)
        memory = CountingMemory()
        cpu = Cpu(exe, memory=memory, profile=True)
        # the first block (12 instructions) is longer than a sample, so
        # it is single-stepped through the threaded handlers; the second
        # one starts a sample and runs as generated code
        first_block = (exe.symbols["next"].address - exe.text_base) // 4
        assert first_block == 12
        cpu.run(sample_interval=4, on_sample=lambda counts, taken: None)
        assert memory.calls == {"read_u32": 0, "write_u32": 2,
                                "read_u8": 0, "write_u8": 0}
        assert cpu.regs[10] == cpu.regs[11] == 0x1234_5678

    def test_generated_store_is_seen_through_memory(self):
        exe = assemble_program(self._BODY)
        memory = CountingMemory()
        cpu = Cpu(exe, memory=memory)
        cpu.run()
        assert not any(memory.calls.values())
        assert cpu.read_word_global("cell") == 0x1234_5678
        assert cpu.memory.read_u32(STACK_TOP - 4) == 0x1234_5678
        run_engines(exe)


def test_caller_memory_survives_window_installation():
    """Pages written before the ``Cpu`` exists are copied into the
    windows, and the caller's ``Memory`` stays the one storage."""
    body = """    lw $s1, -8($sp)
    la $t0, cell
    lw $s2, 64($t0)
    sw $s2, -12($sp)
    sw $s1, 68($t0)
"""
    exe = assemble_program(body)
    results = []
    for engine in ("superblock", "threaded"):
        memory = Memory()
        memory.write_u32(STACK_TOP - 8, 0xCAFE_BABE)
        memory.write_u32(DATA_BASE + 64, 0x0BAD_F00D)
        memory.write_u32(STACK_BASE - 4, 0x600D_CAFE)   # outside both windows
        cpu = Cpu(exe, memory=memory, engine=engine)
        cpu.run()
        assert cpu.memory is memory
        assert cpu.regs[17] == 0xCAFE_BABE and cpu.regs[18] == 0x0BAD_F00D
        assert memory.read_u32(STACK_TOP - 12) == 0x0BAD_F00D
        assert memory.read_u32(DATA_BASE + 68) == 0xCAFE_BABE
        assert memory.read_u32(STACK_BASE - 4) == 0x600D_CAFE
        results.append((cpu.regs, _pages(cpu)))
    assert results[0] == results[1]


class TestInstallWindow:
    @pytest.mark.parametrize("base, size", [
        (0x1000, 0x800),          # smaller than a page
        (0x1000, 0x3000),         # not a power of two
        (0x1800, 0x1000),         # base not page-aligned
        (0xFFFF_F000, 0x2000),    # past the 32-bit space
    ])
    def test_rejects_bad_geometry(self, base, size):
        with pytest.raises(ValueError):
            Memory().install_window(base, size)

    def test_pages_alias_the_buffer_both_ways(self):
        memory = Memory()
        memory.write_u32(0x2004, 0xDEAD_BEEF)
        buffer = memory.install_window(0x2000, 0x2000)
        assert buffer[4:8] == (0xDEAD_BEEF).to_bytes(4, "little")
        buffer[0x1000] = 0x7F
        assert memory.read_u8(0x3000) == 0x7F
        memory.write_u32(0x3ffc, 0x0102_0304)
        assert memory.read_u32(0x3ffc) == 0x0102_0304
        assert buffer[0x1ffc:] == bytes((4, 3, 2, 1))

    def test_reinstalling_returns_the_same_buffer(self):
        memory = Memory()
        buffer = memory.install_window(0x4000, 0x1000)
        assert memory.install_window(0x4000, 0x1000) is buffer

    def test_overlapping_window_takes_over_the_pages(self):
        memory = Memory()
        first = memory.install_window(0x4000, 0x1000)
        memory.write_u32(0x4010, 99)
        second = memory.install_window(0x4000, 0x2000)
        assert second is not first
        assert second[0x10] == 99
        memory.write_u32(0x4010, 7)
        assert second[0x10] == 7
        assert memory.install_window(0x4000, 0x2000) is second


def _unit_program(*lines: str):
    """A program of *lines*, one instruction or label each."""
    return assemble_program("\n".join(f"    {line}" for line in lines))


class TestEntryGuards:
    """A unit's window accesses whose base is a register's unit-entry
    value plus a constant sit behind one range-and-alignment test per
    entry register.  A failed test runs the unit through the threaded
    handlers, which must leave faults, registers and counters exact."""

    #: cached registers written before the access, checked after a fault
    _BUSY = ("li $s1, 77", "addiu $s1, $s1, 1", "addiu $s4, $s4, 5",
             "addiu $s4, $s4, 6")

    def test_misaligned_sp_faults_with_exact_registers(self):
        cpu = run_engines(_unit_program(
            f"li $sp, {STACK_TOP + 2}", "b unit", "unit:", *self._BUSY,
            "sw $s1, 8($sp)", "sll $s5, $s1, 3", "sw $s5, 4($sp)",
            "li $s6, 9"))
        assert cpu._sb.guard_misses == 1
        assert cpu.regs[17] == 78 and cpu.regs[20] == 11
        assert cpu.regs[21] == 0 and cpu.regs[22] == 0, "ran past the fault"

    @pytest.mark.parametrize("sp, offsets", [
        (STACK_BASE + 8, (4, 0, 8, -12)),         # last one below the window
        (0x7FFF_FFF0, (0, 12, 8, 16)),            # last one above it
    ])
    def test_only_the_last_access_leaves_the_window(self, sp, offsets):
        stores = [f"sw $s1, {offset}($sp)" for offset in offsets[:-1]]
        cpu = run_engines(_unit_program(
            f"li $sp, {sp}", "b unit", "unit:", *self._BUSY, *stores,
            "lw $s2, 0($sp)", "addiu $s4, $s4, 1", f"sb $s4, {offsets[-1]}($sp)"))
        assert cpu._sb.guard_misses == 1
        for offset in offsets[:-1]:
            assert cpu.memory.read_u32(sp + offset) == 78
        assert cpu.memory.read_u8(sp + offsets[-1]) == 12
        assert cpu.regs[18] == 78 and cpu.regs[20] == 12

    @pytest.mark.parametrize("sampled", [False, True])
    def test_break_in_a_unit_whose_guard_failed(self, sampled):
        # the unit ends in the program's break, with $sp below the window
        kwargs = {"sample_interval": 1000, "on_sample": lambda c, t: None} \
            if sampled else {}
        cpu = run_engines(_unit_program(
            f"li $sp, {STACK_BASE - 64}", "b unit", "unit:", *self._BUSY,
            "sw $s1, 0($sp)", "sb $s4, 3($sp)", "lw $s2, 0($sp)"), **kwargs)
        assert cpu._sb.guard_misses == 1
        assert cpu.pc == cpu.exe.text_base + 4 * (len(cpu.exe.text_words) - 1)
        assert cpu.regs[18] == cpu.memory.read_u32(STACK_BASE - 64) == 78 | 11 << 24

    @pytest.mark.parametrize("sp", [STACK_TOP, STACK_BASE])
    def test_access_through_addiu_from_sp_uses_the_stack_guard(self, sp):
        exe = _unit_program(
            f"li $sp, {sp}", "b unit", "unit:", "li $s1, 0x1234",
            "addiu $a0, $sp, -24", "move $a1, $a0", "sw $s1, 20($a0)",
            "sw $s1, 24($a1)", "lw $s2, 20($a0)", "lbu $s3, 25($a1)")
        memory = CountingMemory()
        cpu = Cpu(exe, memory=memory)
        cpu.run()
        missed = sp - 4 < STACK_BASE
        assert cpu._sb.guard_misses == missed
        # in the window, nothing reaches the Memory accessors: the data
        # window's guard would have missed on every call
        assert any(memory.calls.values()) == missed
        assert cpu.regs[18] == 0x1234 and cpu.regs[19] == 0x12
        run_engines(exe)

    #: (base register, address, access width) of each window's first and
    #: last word and byte
    _EDGES = [
        ("$sp", STACK_BASE, 4), ("$sp", STACK_BASE, 1),
        ("$fp", 0x8000_0000 - 4, 4), ("$fp", 0x8000_0000 - 1, 1),
        ("$t0", DATA_BASE, 4), ("$t0", DATA_BASE, 1),
        ("$a0", DATA_BASE + DATA_WINDOW - 4, 4),
        ("$a0", DATA_BASE + DATA_WINDOW - 1, 1),
    ]

    @pytest.mark.parametrize("inside", [True, False], ids=["edge", "beyond"])
    @pytest.mark.parametrize("reg, address, width", _EDGES)
    def test_window_edges(self, reg, address, width, inside):
        if not inside:
            # one access width past the edge, outward
            first = address in (STACK_BASE, DATA_BASE)
            address += -width if first else width
        store, load = ("sw", "lw") if width == 4 else ("sb", "lbu")
        # the register is an entry value; the unit reaches the address at
        # an offset from it, as frame code does
        exe = _unit_program(
            "li $s1, 0xA5C3E1F7", f"li {reg}, {address - 16}", "b unit",
            "unit:", f"{store} $s1, 16({reg})", f"{load} $s2, 16({reg})")
        memory = CountingMemory()
        cpu = Cpu(exe, memory=memory)
        cpu.run()
        assert cpu._sb.guard_misses == (not inside)
        assert any(memory.calls.values()) == (not inside)
        assert cpu.regs[18] == (0xA5C3E1F7 if width == 4 else 0xF7)
        run_engines(exe)


def test_static_suite_has_no_guard_miss_and_generates_no_unit():
    """Every unit the suite's binaries call is a dispatch entry, and
    every guard holds.  Profiling changes only the ``jr`` edge lines, so
    alternating it across opt levels covers both kinds of run."""
    from repro.programs import ALL_BENCHMARKS

    for benchmark in ALL_BENCHMARKS:
        for level in range(4):
            exe = compile_source(benchmark.source, opt_level=level)
            cpu = Cpu(exe, profile=bool(level & 1))
            cpu._sb.consume_stats()
            cpu.run()
            stats = cpu._sb.consume_stats()
            key = f"{benchmark.name}/O{level}"
            assert stats["guard_misses"] == 0, key
            assert stats["codegen_units"] == 0, key
