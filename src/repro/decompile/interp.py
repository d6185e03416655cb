"""CDFG interpreter: executes decompiled programs for validation.

The single most important correctness instrument in this reproduction: after
every decompilation pass (or any combination), the recovered CDFG is run on
the same initial memory as the original binary and must produce the same
data-section contents and return value as the cycle simulator.  This checks
constant propagation, stack removal, strength promotion and loop rerolling
*end to end* on real binaries, not just on unit fixtures.

Execution model:

* architectural registers are machine-global (calls save/restore callee-
  saved registers in code, exactly as the binary does),
* virtual slot locations (``S<k>``, created by stack operation removal) are
  per-call-frame, matching their origin as private frame memory,
* memory is a real :class:`~repro.sim.memory.Memory`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.passes.constfold import fold_ir_binop
from repro.errors import DecompilationError
from repro.decompile.microop import (
    ALU_OPS,
    Imm,
    Loc,
    MicroOp,
    Opcode,
    RA,
    SP,
    V0,
    ZERO,
)
from repro.sim.cpu import STACK_TOP
from repro.sim.memory import Memory
from repro.utils import to_signed32, to_unsigned32

_FOLD_NAME = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIV: "div", Opcode.DIVU: "divu", Opcode.REM: "rem", Opcode.REMU: "remu",
    Opcode.AND: "and", Opcode.OR: "or", Opcode.XOR: "xor",
    Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.SAR: "sar",
    Opcode.LT: "lt", Opcode.LTU: "ltu",
}

_COND = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: to_signed32(a) < to_signed32(b),
    "le": lambda a, b: to_signed32(a) <= to_signed32(b),
    "gt": lambda a, b: to_signed32(a) > to_signed32(b),
    "ge": lambda a, b: to_signed32(a) >= to_signed32(b),
    "ltu": lambda a, b: to_unsigned32(a) < to_unsigned32(b),
    "leu": lambda a, b: to_unsigned32(a) <= to_unsigned32(b),
    "gtu": lambda a, b: to_unsigned32(a) > to_unsigned32(b),
    "geu": lambda a, b: to_unsigned32(a) >= to_unsigned32(b),
}


@dataclass
class InterpResult:
    return_value: int
    ops_executed: int


class CdfgInterpreter:
    """Executes a :class:`DecompiledProgram`'s recovered CFGs."""

    def __init__(self, program, memory: Memory | None = None, max_ops: int = 50_000_000):
        from repro.binary.loader import load_into_memory

        self.program = program
        self.memory = memory if memory is not None else Memory()
        load_into_memory(program.exe, self.memory)
        self.regs: dict[Loc, int] = {SP: STACK_TOP}
        self.max_ops = max_ops
        self.ops_executed = 0

    # -- operand evaluation -------------------------------------------------

    def _read(self, operand, frame: dict[Loc, int]) -> int:
        if isinstance(operand, Imm):
            return operand.value & 0xFFFF_FFFF
        if operand == ZERO:
            return 0
        if operand.name.startswith("S"):
            return frame.get(operand, 0)
        return self.regs.get(operand, 0)

    def _write(self, loc: Loc, value: int, frame: dict[Loc, int]) -> None:
        if loc == ZERO:
            return
        value &= 0xFFFF_FFFF
        if loc.name.startswith("S"):
            frame[loc] = value
        else:
            self.regs[loc] = value

    # -- execution ------------------------------------------------------------

    def run_main(self, args: list[int] | None = None) -> InterpResult:
        main = self.program.functions.get("main")
        if main is None:
            raise DecompilationError("program has no recovered 'main'")
        from repro.decompile.microop import ARG_LOCS

        for index, value in enumerate(args or []):
            self.regs[ARG_LOCS[index]] = value & 0xFFFF_FFFF
        self.call_function(main, depth=0)
        return InterpResult(
            return_value=self.regs.get(V0, 0), ops_executed=self.ops_executed
        )

    def call_function(self, func, depth: int) -> None:
        if depth > 900:
            raise DecompilationError(f"interpreter recursion too deep in {func.name}")
        cfg = func.cfg
        frame: dict[Loc, int] = {}
        block_by_start = cfg.block_by_start  # a fresh dict on each read
        block = cfg.blocks[block_by_start[cfg.entry]]
        while True:
            next_index: int | None = None
            for op in block.ops:
                self.ops_executed += 1
                if self.ops_executed > self.max_ops:
                    raise DecompilationError("interpreter op budget exceeded")
                code = op.opcode
                if code is Opcode.CONST:
                    self._write(op.dst, op.a.value, frame)
                elif code is Opcode.MOVE:
                    self._write(op.dst, self._read(op.a, frame), frame)
                elif code in ALU_OPS:
                    self._exec_alu(op, frame)
                elif code is Opcode.LOAD:
                    address = (self._read(op.a, frame) + op.offset) & 0xFFFF_FFFF
                    self._write(op.dst, self._load(address, op.size, op.signed), frame)
                elif code is Opcode.STORE:
                    address = (self._read(op.b, frame) + op.offset) & 0xFFFF_FFFF
                    self._store(address, op.size, self._read(op.a, frame))
                elif code is Opcode.CALL:
                    callee = self.program.functions_by_entry.get(op.target)
                    if callee is None:
                        raise DecompilationError(
                            f"call at {op.pc:#x} targets unrecovered function "
                            f"{op.target:#x}"
                        )
                    self.call_function(callee, depth + 1)
                elif code is Opcode.BRANCH:
                    taken = _COND[op.cond](
                        self._read(op.a, frame), self._read(op.b, frame)
                    )
                    if taken:
                        next_index = block_by_start[op.target]
                    else:
                        fall = [
                            s for s in block.succs
                            if cfg.blocks[s].start != op.target
                        ]
                        if fall:
                            next_index = fall[0]
                        elif block.succs:
                            # both successors share the target address (degenerate)
                            next_index = block.succs[0]
                        else:
                            raise DecompilationError(
                                f"branch at {op.pc:#x} has no fall-through"
                            )
                elif code is Opcode.JUMP:
                    next_index = block_by_start[op.target]
                elif code is Opcode.IJUMP:
                    address = self._read(op.a, frame)
                    if address not in block_by_start:
                        raise DecompilationError(
                            f"indirect jump at {op.pc:#x} reached "
                            f"unrecovered target {address:#x}"
                        )
                    next_index = block_by_start[address]
                elif code is Opcode.RETURN:
                    return
                elif code is Opcode.HALT:
                    return
                else:  # pragma: no cover
                    raise DecompilationError(f"cannot interpret {op}")
            if next_index is None:
                # fall through to the lexically next block
                candidates = block.succs
                if not candidates:
                    return  # fell off the end (implicit return)
                next_index = candidates[0]
            block = cfg.blocks[next_index]

    def _exec_alu(self, op: MicroOp, frame: dict[Loc, int]) -> None:
        a = to_signed32(self._read(op.a, frame))
        b = to_signed32(self._read(op.b, frame))
        code = op.opcode
        if code in _FOLD_NAME:
            result = fold_ir_binop(_FOLD_NAME[code], a, b)
            if result is None:  # division by zero: match the simulator
                result = -1 if code in (Opcode.DIV, Opcode.DIVU) else a
        elif code is Opcode.NOR:
            result = ~(a | b)
        elif code is Opcode.MULHI:
            result = (a * b) >> 32
        elif code is Opcode.MULHIU:
            result = (to_unsigned32(a) * to_unsigned32(b)) >> 32
        else:  # pragma: no cover
            raise DecompilationError(f"unknown ALU op {code}")
        self._write(op.dst, result & 0xFFFF_FFFF, frame)

    def _load(self, address: int, size: int, signed: bool) -> int:
        if size == 4:
            return self.memory.read_u32(address)
        if size == 2:
            value = self.memory.read_u16(address)
            if signed and value & 0x8000:
                value -= 0x1_0000
            return value & 0xFFFF_FFFF
        value = self.memory.read_u8(address)
        if signed and value & 0x80:
            value -= 0x100
        return value & 0xFFFF_FFFF

    def _store(self, address: int, size: int, value: int) -> None:
        if size == 4:
            self.memory.write_u32(address, value)
        elif size == 2:
            self.memory.write_u16(address, value)
        else:
            self.memory.write_u8(address, value)
