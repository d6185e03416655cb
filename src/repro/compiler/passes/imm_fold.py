"""Immediate folding: turn register-register operations into MIPS I-format
immediate forms where the constant operand fits.

This is what makes -O1 binaries look like real compiler output (addiu/andi/
slti instead of li+addu).  Note that the -O0 path skips this pass entirely,
leaving the naive li+op sequences the paper's decompiler cleans up.
"""

from __future__ import annotations

from repro.compiler import ir
from repro.compiler.passes.constfold import _single_def_consts
from repro.utils import to_signed32

#: ops whose immediate form takes a signed 16-bit value
_SIGNED_IMM_OPS = {"add", "sub", "lt", "ltu"}
#: ops whose immediate form takes an unsigned 16-bit value
_UNSIGNED_IMM_OPS = {"and", "or", "xor"}
#: shifts take a 5-bit amount
_SHIFT_OPS = {"shl", "shr", "sar"}
#: comparisons we can rewrite via slti/sltiu after swapping; keep simple:
#: only eq/ne against a constant benefit codegen directly
_CMP_EQ_OPS = {"eq", "ne"}


def _fits_signed16(value: int) -> bool:
    return -0x8000 <= value <= 0x7FFF


def _fits_unsigned16(value: int) -> bool:
    return 0 <= value <= 0xFFFF


def fold_immediates(func: ir.Function) -> bool:
    consts = _single_def_consts(func)
    changed = False
    for instr in func.instrs:
        cls = type(instr)
        if cls is ir.BinOp:
            if isinstance(instr.b, ir.VReg) and instr.b in consts:
                value = to_signed32(consts[instr.b])
                if _immediate_legal(instr.op, value):
                    instr.b = ir.Imm(value)
                    changed = True
                    continue
            # commutative op with constant on the left: swap it to the right
            if (
                instr.op in ir.COMMUTATIVE_OPS
                and isinstance(instr.b, ir.VReg)
                and instr.a in consts
            ):
                value = to_signed32(consts[instr.a])
                if _immediate_legal(instr.op, value):
                    instr.a, instr.b = instr.b, ir.Imm(value)
                    changed = True
        elif cls is ir.Branch:
            if isinstance(instr.b, ir.VReg) and instr.b in consts:
                value = to_signed32(consts[instr.b])
                # branches against zero map to beq/bne/blez/... with $zero;
                # other small constants still help codegen (li into $at).
                if value == 0 or _fits_signed16(value):
                    instr.b = ir.Imm(value)
                    changed = True
    return changed


def _immediate_legal(op: str, value: int) -> bool:
    if op in _SIGNED_IMM_OPS:
        if op == "sub":
            return _fits_signed16(-value)
        return _fits_signed16(value)
    if op in _UNSIGNED_IMM_OPS:
        return _fits_unsigned16(value)
    if op in _SHIFT_OPS:
        return 0 <= value <= 31
    if op in _CMP_EQ_OPS:
        return _fits_signed16(value)
    return False
