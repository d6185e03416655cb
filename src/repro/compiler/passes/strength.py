"""Compiler-side strength reduction (enabled at -O2).

Replaces constant multiplications with shift/add/sub sequences and
power-of-two divisions/remainders with shift sequences, as gcc does.  This
is the optimization whose *output* the paper's decompiler must recognize and
undo with **strength promotion**: the shift/add series obscures the original
multiplication, and a synthesis tool should decide for itself whether a
hardware multiplier or an adder tree is the better implementation.
"""

from __future__ import annotations

from repro.compiler import ir
from repro.compiler.passes.constfold import _single_def_consts
from repro.utils import to_signed32

#: maximum number of shift/add/sub operations worth emitting for one multiply
MAX_MUL_OPS = 4


def decompose_multiplier(value: int) -> list[tuple[str, int]] | None:
    """Decompose multiplication by *value* into shift/add/sub terms.

    Returns a list of ('+'|'-', shift_amount) terms meaning
    ``result = sum(sign * (x << shift))``, or None if the decomposition
    needs more than MAX_MUL_OPS terms.  Uses the canonical signed-digit
    (Booth-like) recoding so values like 15 become (x<<4) - x.
    """
    if value <= 0:
        return None
    # non-adjacent form: minimal number of signed power-of-two digits
    terms: list[tuple[str, int]] = []
    shift = 0
    v = value
    while v:
        if v & 1:
            if v & 3 == 3:  # ...11 -> subtract here, carry upward
                terms.append(("-", shift))
                v += 1
            else:
                terms.append(("+", shift))
                v -= 1
        v >>= 1
        shift += 1
    if len(terms) > MAX_MUL_OPS:
        return None
    return terms


#: the operations strength reduction rewrites (by a suitable constant)
_REDUCED_OPS = frozenset({"mul", "div", "divu", "rem", "remu"})


def reduce_strength(func: ir.Function) -> bool:
    consts = _single_def_consts(func)
    changed = False
    new_instrs: list[ir.Instr] = []
    for instr in func.instrs:
        replacement = None
        if type(instr) is ir.BinOp and instr.op in _REDUCED_OPS:
            const_val = None
            reg_operand = None
            if isinstance(instr.b, ir.Imm):
                const_val, reg_operand = to_signed32(instr.b.value), instr.a
            elif isinstance(instr.b, ir.VReg) and instr.b in consts:
                const_val, reg_operand = to_signed32(consts[instr.b]), instr.a
            elif (
                instr.op == "mul"
                and instr.a in consts
                and isinstance(instr.b, ir.VReg)
            ):
                const_val, reg_operand = to_signed32(consts[instr.a]), instr.b
            if const_val is not None:
                if instr.op == "mul":
                    replacement = _expand_mul(func, instr.dst, reg_operand, const_val)
                elif instr.op in ("div", "divu") and const_val > 0 and _is_pow2(const_val):
                    replacement = _expand_div(
                        func, instr.dst, reg_operand, const_val, instr.op == "div"
                    )
                elif instr.op in ("rem", "remu") and const_val > 0 and _is_pow2(const_val):
                    replacement = _expand_rem(
                        func, instr.dst, reg_operand, const_val, instr.op == "rem"
                    )
        if replacement is not None:
            new_instrs.extend(replacement)
            changed = True
        else:
            new_instrs.append(instr)
    func.instrs = new_instrs
    return changed


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _expand_mul(
    func: ir.Function, dst: ir.VReg, src: ir.VReg, value: int
) -> list[ir.Instr] | None:
    negate = value < 0
    magnitude = -value if negate else value
    if magnitude == 0:
        return [ir.Const(dst, 0)]
    terms = decompose_multiplier(magnitude)
    if terms is None:
        return None
    out: list[ir.Instr] = []
    partials: list[tuple[str, ir.VReg]] = []
    for sign, shift in terms:
        if shift == 0:
            partials.append((sign, src))
        else:
            shifted = func.new_vreg()
            out.append(ir.BinOp(shifted, "shl", src, ir.Imm(shift)))
            partials.append((sign, shifted))
    # combine: positives first, then subtract negatives
    partials.sort(key=lambda item: item[0] == "-")
    if partials[0][0] == "-":
        return None  # cannot start from a negative partial cheaply
    acc = partials[0][1]
    for sign, reg in partials[1:]:
        combined = func.new_vreg()
        out.append(ir.BinOp(combined, "add" if sign == "+" else "sub", acc, reg))
        acc = combined
    if negate:
        negged = func.new_vreg()
        out.append(ir.UnOp(negged, "neg", acc))
        acc = negged
    if acc is src:
        out.append(ir.Copy(dst, src))
    else:
        _retarget_last(out, acc, dst)
    return out


def _retarget_last(instrs: list[ir.Instr], old: ir.VReg, dst: ir.VReg) -> None:
    """Make the final instruction write directly to *dst*."""
    last = instrs[-1]
    if isinstance(last, (ir.BinOp, ir.UnOp)) and last.dst is old:
        last.dst = dst
    else:  # pragma: no cover - defensive
        instrs.append(ir.Copy(dst, old))


def _expand_div(
    func: ir.Function, dst: ir.VReg, src: ir.VReg, value: int, signed: bool
) -> list[ir.Instr]:
    shift = value.bit_length() - 1
    if not signed:
        return [ir.BinOp(dst, "shr", src, ir.Imm(shift))]
    if shift == 0:
        return [ir.Copy(dst, src)]
    # signed round-toward-zero: add (value-1) when the operand is negative
    out: list[ir.Instr] = []
    sign = func.new_vreg()
    out.append(ir.BinOp(sign, "sar", src, ir.Imm(31)))
    bias = func.new_vreg()
    out.append(ir.BinOp(bias, "shr", sign, ir.Imm(32 - shift)))
    adjusted = func.new_vreg()
    out.append(ir.BinOp(adjusted, "add", src, bias))
    out.append(ir.BinOp(dst, "sar", adjusted, ir.Imm(shift)))
    return out


def _expand_rem(
    func: ir.Function, dst: ir.VReg, src: ir.VReg, value: int, signed: bool
) -> list[ir.Instr]:
    if not signed:
        return [ir.BinOp(dst, "and", src, ir.Imm(value - 1))]
    # x % 2^k == x - (x / 2^k) * 2^k with round-toward-zero division
    shift = value.bit_length() - 1
    quotient = func.new_vreg()
    out = _expand_div(func, quotient, src, value, signed=True)
    scaled = func.new_vreg()
    out.append(ir.BinOp(scaled, "shl", quotient, ir.Imm(shift)))
    out.append(ir.BinOp(dst, "sub", src, scaled))
    return out
