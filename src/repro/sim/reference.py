"""Straight-line reference interpreter for differential testing.

This is the original mnemonic-string-dispatch execution loop the threaded
interpreter in :mod:`repro.sim.cpu` replaced, kept as an executable
specification: it is trivially auditable against the MIPS-I manual.  It is
one of the simulator's two copies of the MIPS-I semantics, and the
independent one: the other, the code generator's templates in
:mod:`repro.sim.superblock.codegen`, builds both fast engines (the
threaded handlers and the superblock units).  ``tests/sim/test_threaded.py``
and the randomized harness in ``tests/sim/test_differential.py`` assert
bit-identical :class:`~repro.sim.cpu.RunResult` statistics on the whole
benchmark suite and on generated programs, and
``tests/sim/test_handler_shapes.py`` checks the final machine state of
every handler shape against it.

One deliberate difference from the seed implementation: ``jalr`` records its
taken edge under profiling, like every other control transfer (the seed
silently dropped indirect call edges from the profile the partitioner
consumes).  The threaded engine matches this *fixed* behaviour.
"""

from __future__ import annotations

from collections import Counter

from repro.binary.image import Executable
from repro.binary.loader import load_into_memory
from repro.errors import SimulationError
from repro.isa.encoding import decode
from repro.sim.cpu import _MNEMONIC_CLASS, STACK_TOP, CpiModel, RunResult
from repro.sim.memory import Memory


def run_reference(
    exe: Executable,
    profile: bool = False,
    max_steps: int = 100_000_000,
    cpi: CpiModel | None = None,
) -> RunResult:
    """Run *exe* to halt on the reference loop; return its statistics."""
    memory = Memory()
    load_into_memory(exe, memory)
    regs = [0] * 32
    regs[29] = STACK_TOP
    return _interpret(exe, memory, regs, [0, 0], profile, max_steps, cpi)


def _interpret(exe: Executable, memory: Memory, regs: list[int], hilo: list[int],
               profile: bool = False, max_steps: int = 100_000_000,
               cpi: CpiModel | None = None) -> RunResult:
    """The reference loop: run *exe*'s text from its entry point on
    *memory* (loaded by the caller), the register file *regs* and
    ``hilo == [hi, lo]``.

    *regs*, *hilo* and *memory* hold the final machine state when this
    returns, and the state at the failing instruction when it raises.
    """
    cpi = cpi if cpi is not None else CpiModel()
    decoded = [decode(word) for word in exe.text_words]
    text_base = exe.text_base
    text_len = len(decoded)
    mix: Counter = Counter()
    pc_counts: dict[int, int] = {}
    edge_counts: dict[tuple[int, int], int] = {}
    mnem_class = _MNEMONIC_CLASS

    pc = exe.entry
    steps = 0
    cycles = 0
    taken = 0
    halted = False
    mask = 0xFFFF_FFFF

    while steps < max_steps:
        index = (pc - text_base) >> 2
        if not 0 <= index < text_len or pc & 3:
            raise SimulationError(f"pc outside text section: 0x{pc:08x}")
        instr = decoded[index]
        mnem = instr.mnemonic
        steps += 1
        klass = mnem_class[mnem]
        cycles += cpi.cycles_for(klass)
        if profile:
            pc_counts[pc] = pc_counts.get(pc, 0) + 1
            mix[klass] += 1
        next_pc = pc + 4

        if mnem == "addiu" or mnem == "addi":
            regs[instr.rt] = (regs[instr.rs] + instr.imm) & mask
        elif mnem == "lw":
            regs[instr.rt] = memory.read_u32((regs[instr.rs] + instr.imm) & mask)
        elif mnem == "sw":
            memory.write_u32((regs[instr.rs] + instr.imm) & mask, regs[instr.rt])
        elif mnem == "addu" or mnem == "add":
            regs[instr.rd] = (regs[instr.rs] + regs[instr.rt]) & mask
        elif mnem == "subu" or mnem == "sub":
            regs[instr.rd] = (regs[instr.rs] - regs[instr.rt]) & mask
        elif mnem == "sll":
            regs[instr.rd] = (regs[instr.rt] << instr.shamt) & mask
        elif mnem == "srl":
            regs[instr.rd] = regs[instr.rt] >> instr.shamt
        elif mnem == "sra":
            value = regs[instr.rt]
            if value & 0x8000_0000:
                value -= 0x1_0000_0000
            regs[instr.rd] = (value >> instr.shamt) & mask
        elif mnem == "sllv":
            regs[instr.rd] = (regs[instr.rt] << (regs[instr.rs] & 31)) & mask
        elif mnem == "srlv":
            regs[instr.rd] = regs[instr.rt] >> (regs[instr.rs] & 31)
        elif mnem == "srav":
            value = regs[instr.rt]
            if value & 0x8000_0000:
                value -= 0x1_0000_0000
            regs[instr.rd] = (value >> (regs[instr.rs] & 31)) & mask
        elif mnem == "and":
            regs[instr.rd] = regs[instr.rs] & regs[instr.rt]
        elif mnem == "or":
            regs[instr.rd] = regs[instr.rs] | regs[instr.rt]
        elif mnem == "xor":
            regs[instr.rd] = regs[instr.rs] ^ regs[instr.rt]
        elif mnem == "nor":
            regs[instr.rd] = ~(regs[instr.rs] | regs[instr.rt]) & mask
        elif mnem == "slt":
            a, b = regs[instr.rs], regs[instr.rt]
            if a & 0x8000_0000:
                a -= 0x1_0000_0000
            if b & 0x8000_0000:
                b -= 0x1_0000_0000
            regs[instr.rd] = 1 if a < b else 0
        elif mnem == "sltu":
            regs[instr.rd] = 1 if regs[instr.rs] < regs[instr.rt] else 0
        elif mnem == "slti":
            a = regs[instr.rs]
            if a & 0x8000_0000:
                a -= 0x1_0000_0000
            regs[instr.rt] = 1 if a < instr.imm else 0
        elif mnem == "sltiu":
            regs[instr.rt] = 1 if regs[instr.rs] < (instr.imm & mask) else 0
        elif mnem == "andi":
            regs[instr.rt] = regs[instr.rs] & instr.imm
        elif mnem == "ori":
            regs[instr.rt] = regs[instr.rs] | instr.imm
        elif mnem == "xori":
            regs[instr.rt] = regs[instr.rs] ^ instr.imm
        elif mnem == "lui":
            regs[instr.rt] = (instr.imm << 16) & mask
        elif mnem == "lb":
            value = memory.read_u8((regs[instr.rs] + instr.imm) & mask)
            regs[instr.rt] = (value - 0x100 if value & 0x80 else value) & mask
        elif mnem == "lbu":
            regs[instr.rt] = memory.read_u8((regs[instr.rs] + instr.imm) & mask)
        elif mnem == "lh":
            value = memory.read_u16((regs[instr.rs] + instr.imm) & mask)
            regs[instr.rt] = (value - 0x1_0000 if value & 0x8000 else value) & mask
        elif mnem == "lhu":
            regs[instr.rt] = memory.read_u16((regs[instr.rs] + instr.imm) & mask)
        elif mnem == "sb":
            memory.write_u8((regs[instr.rs] + instr.imm) & mask, regs[instr.rt])
        elif mnem == "sh":
            memory.write_u16((regs[instr.rs] + instr.imm) & mask, regs[instr.rt])
        elif mnem in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
            a = regs[instr.rs]
            if mnem == "beq":
                cond = a == regs[instr.rt]
            elif mnem == "bne":
                cond = a != regs[instr.rt]
            elif mnem == "blez":
                cond = a == 0 or bool(a & 0x8000_0000)
            elif mnem == "bgtz":
                cond = a != 0 and not a & 0x8000_0000
            elif mnem == "bltz":
                cond = bool(a & 0x8000_0000)
            else:  # bgez
                cond = not a & 0x8000_0000
            if cond:
                next_pc = pc + 4 + (instr.imm << 2)
                cycles += cpi.taken_penalty
                taken += 1
                if profile:
                    key = (pc, next_pc)
                    edge_counts[key] = edge_counts.get(key, 0) + 1
        elif mnem == "j":
            next_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
            if profile:
                key = (pc, next_pc)
                edge_counts[key] = edge_counts.get(key, 0) + 1
        elif mnem == "jal":
            regs[31] = pc + 4
            next_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
            if profile:
                key = (pc, next_pc)
                edge_counts[key] = edge_counts.get(key, 0) + 1
        elif mnem == "jr":
            next_pc = regs[instr.rs]
            if profile:
                key = (pc, next_pc)
                edge_counts[key] = edge_counts.get(key, 0) + 1
        elif mnem == "jalr":
            if instr.rd:  # the link is written first, but never to $zero
                regs[instr.rd] = pc + 4
            next_pc = regs[instr.rs]
            if profile:
                key = (pc, next_pc)
                edge_counts[key] = edge_counts.get(key, 0) + 1
        elif mnem == "mult":
            a, b = regs[instr.rs], regs[instr.rt]
            if a & 0x8000_0000:
                a -= 0x1_0000_0000
            if b & 0x8000_0000:
                b -= 0x1_0000_0000
            product = (a * b) & 0xFFFF_FFFF_FFFF_FFFF
            hilo[:] = (product >> 32) & mask, product & mask
        elif mnem == "multu":
            product = regs[instr.rs] * regs[instr.rt]
            hilo[:] = (product >> 32) & mask, product & mask
        elif mnem == "div":
            a, b = regs[instr.rs], regs[instr.rt]
            if a & 0x8000_0000:
                a -= 0x1_0000_0000
            if b & 0x8000_0000:
                b -= 0x1_0000_0000
            if b == 0:
                hilo[:] = a & mask, mask  # MIPS leaves HI/LO undefined
            else:
                quotient = int(a / b)  # C-style truncation toward zero
                hilo[:] = (a - quotient * b) & mask, quotient & mask
        elif mnem == "divu":
            a, b = regs[instr.rs], regs[instr.rt]
            if b == 0:
                hilo[:] = a, mask
            else:
                hilo[:] = a % b, a // b
        elif mnem == "mfhi":
            regs[instr.rd] = hilo[0]
        elif mnem == "mflo":
            regs[instr.rd] = hilo[1]
        elif mnem == "mthi":
            hilo[0] = regs[instr.rs]
        elif mnem == "mtlo":
            hilo[1] = regs[instr.rs]
        elif mnem == "break":
            halted = True
            break
        elif mnem == "syscall":
            raise SimulationError(f"syscall executed at 0x{pc:08x}; benchmarks are I/O-free")
        else:  # pragma: no cover - the decoder only produces known mnemonics
            raise SimulationError(f"unimplemented mnemonic {mnem}")

        regs[0] = 0
        pc = next_pc

    if not halted and steps >= max_steps:
        raise SimulationError(f"exceeded max_steps={max_steps} (pc=0x{pc:08x})")
    if not profile:
        mix = Counter()
    return RunResult(
        steps=steps,
        cycles=cycles,
        halted=halted,
        exit_pc=pc,
        taken=taken,
        mix=mix,
        pc_counts=pc_counts,
        edge_counts=edge_counts,
    )
