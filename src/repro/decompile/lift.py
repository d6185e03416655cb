"""Binary parsing: MIPS machine words -> micro-operations.

One decoded :class:`~repro.isa.instructions.Instruction` lifts to one or two
micro-ops.  Note what is deliberately *not* done here: no move detection, no
constant folding, no pattern matching.  ``addiu rd, rs, 0`` lifts to a plain
ADD with immediate zero -- recognizing it as a register move is the job of
constant propagation (paper section 2), not of the parser.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DecompilationError
from repro.isa.instructions import Instruction
from repro.decompile.microop import (
    HI,
    Imm,
    LO,
    Loc,
    MicroOp,
    Opcode,
    REGS,
    RA,
)

_ALU_RR = {
    "addu": Opcode.ADD, "add": Opcode.ADD,
    "subu": Opcode.SUB, "sub": Opcode.SUB,
    "and": Opcode.AND, "or": Opcode.OR, "xor": Opcode.XOR, "nor": Opcode.NOR,
    "slt": Opcode.LT, "sltu": Opcode.LTU,
}

_ALU_SHIFT_VAR = {"sllv": Opcode.SHL, "srlv": Opcode.SHR, "srav": Opcode.SAR}
_ALU_SHIFT_IMM = {"sll": Opcode.SHL, "srl": Opcode.SHR, "sra": Opcode.SAR}

_ALU_IMM = {
    "addi": Opcode.ADD, "addiu": Opcode.ADD,
    "slti": Opcode.LT, "sltiu": Opcode.LTU,
    "andi": Opcode.AND, "ori": Opcode.OR, "xori": Opcode.XOR,
}

_LOADS = {
    "lb": (1, True), "lbu": (1, False),
    "lh": (2, True), "lhu": (2, False),
    "lw": (4, True),
}
_STORES = {"sb": 1, "sh": 2, "sw": 4}

_BRANCH_CMP = {"beq": "eq", "bne": "ne"}
_BRANCH_ZERO = {"blez": "le", "bgtz": "gt", "bltz": "lt", "bgez": "ge"}


def lift_instruction(instr: Instruction, pc: int) -> list[MicroOp]:
    """Lift one decoded instruction at address *pc* into micro-ops."""
    mnem = instr.mnemonic

    if mnem in _ALU_RR:
        return [
            MicroOp(_ALU_RR[mnem], dst=REGS[instr.rd],
                    a=REGS[instr.rs], b=REGS[instr.rt], pc=pc)
        ]
    if mnem in _ALU_SHIFT_IMM:
        return [
            MicroOp(_ALU_SHIFT_IMM[mnem], dst=REGS[instr.rd],
                    a=REGS[instr.rt], b=Imm(instr.shamt), pc=pc)
        ]
    if mnem in _ALU_SHIFT_VAR:
        return [
            MicroOp(_ALU_SHIFT_VAR[mnem], dst=REGS[instr.rd],
                    a=REGS[instr.rt], b=REGS[instr.rs], pc=pc)
        ]
    if mnem in _ALU_IMM:
        return [
            MicroOp(_ALU_IMM[mnem], dst=REGS[instr.rt],
                    a=REGS[instr.rs], b=Imm(instr.imm), pc=pc)
        ]
    if mnem == "lui":
        return [
            MicroOp(Opcode.CONST, dst=REGS[instr.rt],
                    a=Imm((instr.imm << 16) & 0xFFFF_FFFF), pc=pc)
        ]
    if mnem in _LOADS:
        size, signed = _LOADS[mnem]
        return [
            MicroOp(Opcode.LOAD, dst=REGS[instr.rt], a=REGS[instr.rs],
                    offset=instr.imm, size=size, signed=signed, pc=pc)
        ]
    if mnem in _STORES:
        return [
            MicroOp(Opcode.STORE, a=REGS[instr.rt], b=REGS[instr.rs],
                    offset=instr.imm, size=_STORES[mnem], pc=pc)
        ]
    if mnem in _BRANCH_CMP:
        return [
            MicroOp(Opcode.BRANCH, a=REGS[instr.rs], b=REGS[instr.rt],
                    cond=_BRANCH_CMP[mnem], target=instr.branch_target(pc), pc=pc)
        ]
    if mnem in _BRANCH_ZERO:
        return [
            MicroOp(Opcode.BRANCH, a=REGS[instr.rs], b=Imm(0),
                    cond=_BRANCH_ZERO[mnem], target=instr.branch_target(pc), pc=pc)
        ]
    if mnem == "j":
        return [MicroOp(Opcode.JUMP, target=instr.jump_target(pc), pc=pc)]
    if mnem == "jal":
        return [MicroOp(Opcode.CALL, target=instr.jump_target(pc), pc=pc)]
    if mnem == "jr":
        if instr.rs == 31:
            return [MicroOp(Opcode.RETURN, pc=pc)]
        return [MicroOp(Opcode.IJUMP, a=REGS[instr.rs], pc=pc)]
    if mnem == "jalr":
        # indirect call: same recovery problem as an indirect jump
        return [MicroOp(Opcode.IJUMP, a=REGS[instr.rs], pc=pc)]
    if mnem == "mult":
        return [
            MicroOp(Opcode.MUL, dst=LO, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
            MicroOp(Opcode.MULHI, dst=HI, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
        ]
    if mnem == "multu":
        return [
            MicroOp(Opcode.MUL, dst=LO, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
            MicroOp(Opcode.MULHIU, dst=HI, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
        ]
    if mnem == "div":
        return [
            MicroOp(Opcode.DIV, dst=LO, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
            MicroOp(Opcode.REM, dst=HI, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
        ]
    if mnem == "divu":
        return [
            MicroOp(Opcode.DIVU, dst=LO, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
            MicroOp(Opcode.REMU, dst=HI, a=REGS[instr.rs], b=REGS[instr.rt], pc=pc),
        ]
    if mnem == "mfhi":
        return [MicroOp(Opcode.MOVE, dst=REGS[instr.rd], a=HI, pc=pc)]
    if mnem == "mflo":
        return [MicroOp(Opcode.MOVE, dst=REGS[instr.rd], a=LO, pc=pc)]
    if mnem == "mthi":
        return [MicroOp(Opcode.MOVE, dst=HI, a=REGS[instr.rs], pc=pc)]
    if mnem == "mtlo":
        return [MicroOp(Opcode.MOVE, dst=LO, a=REGS[instr.rs], pc=pc)]
    if mnem == "break":
        return [MicroOp(Opcode.HALT, pc=pc)]
    if mnem == "syscall":
        raise DecompilationError(f"syscall at {pc:#x}: binaries are expected to be I/O-free")
    raise DecompilationError(f"cannot lift mnemonic {mnem!r} at {pc:#x}")


def lift_function(instrs: Sequence[Instruction], base: int) -> list[MicroOp]:
    """Lift a contiguous range of decoded instructions starting at address
    *base* (see :func:`repro.isa.encoding.decode_text`)."""
    out: list[MicroOp] = []
    for index, instr in enumerate(instrs):
        pc = base + 4 * index
        for op in lift_instruction(instr, pc):
            out.append(op)
    return out
