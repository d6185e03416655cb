"""Constant folding/propagation and block-local copy propagation.

Constants are propagated through *single-definition* virtual registers
(expression temporaries -- the overwhelming majority after lowering), which
is sound regardless of control flow.  Multi-definition registers (promoted
variables) are folded only when every reaching definition agrees, which we
approximate conservatively by not folding them at all; the combination with
copy propagation and DCE still converges to clean code in practice.
"""

from __future__ import annotations

from collections import Counter

from repro.compiler import ir
from repro.compiler.consteval import fold_binary, fold_binary_unsigned
from repro.errors import CompileError
from repro.utils import to_signed32

#: IR ops that fold with signed semantics via consteval.fold_binary
_SIGNED_FOLD = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
    "and": "&", "or": "|", "xor": "^",
    "shl": "<<", "sar": ">>",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}
_UNSIGNED_FOLD = {
    "divu": "/", "remu": "%", "shr": ">>",
    "ltu": "<", "leu": "<=", "gtu": ">", "geu": ">=",
}


def fold_ir_binop(op: str, left: int, right: int) -> int | None:
    """Evaluate an IR binary op on signed-32 ints; None if undefined (div 0)."""
    try:
        if op in _SIGNED_FOLD:
            return fold_binary(_SIGNED_FOLD[op], left, right)
        if op in _UNSIGNED_FOLD:
            return fold_binary_unsigned(_UNSIGNED_FOLD[op], left, right)
    except CompileError:
        return None
    raise ValueError(f"unknown IR op {op!r}")


def _single_def_consts(func: ir.Function) -> dict[ir.VReg, int]:
    """vregs defined exactly once, by a Const instruction."""
    instrs = func.instrs
    const_defs = {
        instr.dst: instr.value for instr in instrs if type(instr) is ir.Const
    }
    if const_defs:
        # (a Call without a result adds None, which no Const defines)
        dsts = [instr.dst for instr in instrs if type(instr) in ir.DEF_TYPES]
        redefined = {reg for reg, count in Counter(dsts).items() if count > 1}
        for reg in const_defs.keys() & redefined:
            del const_defs[reg]
    return const_defs


def fold_constants(func: ir.Function) -> bool:
    """One round of folding; returns True if anything changed."""
    consts = _single_def_consts(func)
    # (position, replacement or _NOP) of each folded instruction
    folds: list[tuple[int, object]] = []
    for position, instr in enumerate(func.instrs):
        cls = type(instr)
        if cls is ir.BinOp or cls is ir.Branch:
            # (only ``b`` can be an Imm; most operations have no constant)
            a_val = consts.get(instr.a)
            b = instr.b
            b_val = b.value if type(b) is ir.Imm else consts.get(b)
            if a_val is None and b_val is None:
                continue
            if a_val is not None:
                a_val = to_signed32(a_val)
            if b_val is not None:
                b_val = to_signed32(b_val)
            if cls is ir.Branch:
                if a_val is not None and b_val is not None:
                    taken = fold_ir_binop(instr.op, a_val, b_val)
                    folds.append((position, ir.Jump(instr.target) if taken else _NOP))
                continue
            replacement = None
            if a_val is not None and b_val is not None:
                folded = fold_ir_binop(instr.op, a_val, b_val)
                if folded is not None:
                    replacement = ir.Const(instr.dst, folded & 0xFFFF_FFFF)
            if replacement is None:
                replacement = _algebraic(instr, a_val, b_val)
            if replacement is not None:
                folds.append((position, replacement))
        elif cls is ir.UnOp:
            src_val = consts.get(instr.src)
            if src_val is not None:
                src_val = to_signed32(src_val)
                value = -src_val if instr.op == "neg" else ~src_val
                folds.append((position, ir.Const(instr.dst, value & 0xFFFF_FFFF)))
    if not folds:
        return False
    new_instrs = list(func.instrs)
    for position, replacement in reversed(folds):
        if replacement is _NOP:
            del new_instrs[position]
        else:
            new_instrs[position] = replacement
    func.instrs = new_instrs
    return True


_NOP = object()  # sentinel meaning "delete this instruction"


def _algebraic(
    instr: ir.BinOp, a_val: int | None, b_val: int | None
) -> ir.Instr | None:
    """Identity simplifications (x+0, x*1, x*0, x&0, x|0, x^0, shifts by 0)."""
    op = instr.op
    if b_val == 0:
        if op in ("add", "sub", "or", "xor", "shl", "shr", "sar"):
            return ir.Copy(instr.dst, instr.a)
        if op in ("mul", "and"):
            return ir.Const(instr.dst, 0)
    if b_val == 1 and op in ("mul", "div", "divu"):
        return ir.Copy(instr.dst, instr.a)
    if a_val == 0:
        if op in ("add", "or", "xor") and isinstance(instr.b, ir.VReg):
            return ir.Copy(instr.dst, instr.b)
        if op in ("mul", "and"):
            return ir.Const(instr.dst, 0)
    if a_val == 1 and op == "mul" and isinstance(instr.b, ir.VReg):
        return ir.Copy(instr.dst, instr.b)
    return None


def propagate_copies(func: ir.Function) -> bool:
    """Forward copy propagation within basic blocks.

    Within a block, after ``dst = src``, uses of ``dst`` become ``src`` until
    either register is redefined.  Block-local operation keeps it sound for
    multi-definition registers.  Blocks are the runs of the linear list that
    :func:`ir.build_cfg` would cut: a new one starts at every label and
    after every terminator.
    """
    changed = False
    reads = ir.reads
    available: dict[ir.VReg, ir.VReg] = {}
    #: src -> the dsts currently available as copies of it
    copies_of: dict[ir.VReg, list[ir.VReg]] = {}
    for instr in func.instrs:
        cls = type(instr)
        if cls is ir.Label:
            available.clear()
            copies_of.clear()
            continue
        if available:
            for reg in reads(instr):
                if reg in available:
                    instr.replace_uses(available)
                    changed = True
                    break
        if cls in ir.TERMINATOR_TYPES:
            available.clear()
            copies_of.clear()
            continue
        if cls in ir.DEF_TYPES:
            reg = instr.dst
            if reg is not None and available:
                src = available.pop(reg, None)
                if src is not None:
                    copies_of[src].remove(reg)
                # invalidate copies whose source was overwritten
                for dst in copies_of.pop(reg, ()):
                    del available[dst]
            if cls is ir.Copy and reg is not instr.src:
                available[reg] = instr.src
                copies_of.setdefault(instr.src, []).append(reg)
    return changed
