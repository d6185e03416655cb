"""Dataflow constant propagation over a micro-op CFG.

The paper singles this pass out: instruction sets force compilers to encode
register moves as "arithmetic instructions with an immediate value of zero";
synthesizing that arithmetic operator would waste area, so constant
propagation recognizes and removes the overhead.  Concretely this pass:

* tracks register constancy through the CFG (classic kill/gen lattice:
  UNDEF above, NAC below, constants in between; R0 is the constant 0),
* replaces constant register operands with immediates (this is what turns
  ``or rd, rs, r0`` and lui/ori address pairs into constants),
* folds fully-constant ALU ops into CONST,
* simplifies identities (``add x, #0`` -> MOVE and friends),
* folds always/never-taken branches, updating CFG edges.

Visit-order contract.  The solver's meet reads a location missing from
the incoming state as NAC (an unknown entry value), not as UNDEF, so it is
not a pure lattice meet and the fixpoint it reaches depends on the order in
which blocks are visited.  That order is part of the pass's output: a FIFO
worklist seeded with every block index in ascending order, where a
successor whose entry state changed is appended (in ``succs`` order) unless
it is already queued.  A sparse or SSA formulation would reach a different
fixpoint and move the recovered CDFGs.  A solve that needs more than
``_VISIT_CAP`` visits per block raises :class:`DecompilationError` rather
than rewriting from non-fixpoint states; the function then fails recovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.compiler.passes.constfold import fold_ir_binop
from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.errors import DecompilationError
from repro.decompile.microop import (
    ALU_OPS,
    Imm,
    Loc,
    MicroOp,
    Opcode,
    ZERO,
)
from repro.utils import to_signed32

# lattice: UNDEF (top) / int constant / NAC (bottom)
_UNDEF = object()
_NAC = object()

#: micro-op opcode -> compiler-IR op name (reuses the shared folder so the
#: decompiler always agrees with the simulator and the compiler)
_FOLD_NAME = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIV: "div", Opcode.DIVU: "divu", Opcode.REM: "rem", Opcode.REMU: "remu",
    Opcode.AND: "and", Opcode.OR: "or", Opcode.XOR: "xor",
    Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.SAR: "sar",
    Opcode.LT: "lt", Opcode.LTU: "ltu",
}

_COND_FOLD = {
    "eq": "eq", "ne": "ne", "lt": "lt", "le": "le", "gt": "gt", "ge": "ge",
    "ltu": "ltu", "leu": "leu", "gtu": "gtu", "geu": "geu",
}


@dataclass
class ConstPropStats:
    moves_recovered: int = 0      # arithmetic-with-zero -> MOVE
    operands_immediated: int = 0  # register operand replaced by constant
    ops_folded: int = 0           # ALU op replaced by CONST
    branches_folded: int = 0

    @property
    def total(self) -> int:
        return (
            self.moves_recovered
            + self.operands_immediated
            + self.ops_folded
            + self.branches_folded
        )


# one transfer step per op: (kind, dst, a, b, fold).  Operands are
# pre-read: an int is a known constant (an immediate, or R0), anything else
# a location looked up in the state, where a missing entry reads as NAC --
# entry values are unknown (states never hold UNDEF).
_COPY, _ALU, _CLOBBER = range(3)


def _operand(operand) -> object:
    if operand.__class__ is Imm:
        return to_signed32(operand.value)
    if operand is ZERO:
        return 0
    return operand


def _steps(ops: list[MicroOp]) -> list[tuple]:
    """The transfer steps of *ops*."""
    steps = []
    for op in ops:
        code = op.opcode
        if code is Opcode.CONST:
            steps.append((_COPY, op.dst, to_signed32(op.a.value), None, None))
        elif code is Opcode.MOVE:
            steps.append((_COPY, op.dst, _operand(op.a), None, None))
        elif code in ALU_OPS:
            steps.append((_ALU, op.dst, _operand(op.a), _operand(op.b),
                          _FOLD_NAME.get(code, code)))
        else:
            steps.append((_CLOBBER, op.defs(), None, None, None))
    return steps


def _transfer(steps, state: dict[Loc, object]) -> None:
    """Advance *state* over *steps*."""
    get = state.get
    for kind, dst, a, b, fold in steps:
        if kind == _CLOBBER:
            for loc in dst:
                state[loc] = _NAC
            continue
        if a.__class__ is not int:
            a = get(a, _NAC)
        if kind == _COPY:
            state[dst] = a
            continue
        if b.__class__ is not int:
            b = get(b, _NAC)
        if a is _NAC or b is _NAC:
            state[dst] = _NAC
        elif fold.__class__ is str:
            folded = fold_ir_binop(fold, a, b)
            state[dst] = folded if folded is not None else _NAC
        elif fold is Opcode.NOR:
            state[dst] = to_signed32(~(a | b))
        else:
            state[dst] = _NAC


#: a solve may visit each block at most this many times on average; the
#: benchmark suite at -O0..-O3 and the fuzz programs need at most 3.7
_VISIT_CAP = 50


def _solve(cfg: ControlFlowGraph) -> tuple[list[dict[Loc, object]], list[list[tuple]]]:
    """Fixpoint constant states at block entry, and each block's steps.

    Visits blocks in the order the module docstring fixes.
    """
    blocks = cfg.blocks
    steps = [_steps(block.ops) for block in blocks]
    in_states: list[dict[Loc, object]] = [{} for _ in blocks]
    # entry: everything unknown (NAC) except the hardwired zero register
    in_states[cfg.block_by_start[cfg.entry]] = {ZERO: 0}
    work = deque(range(len(blocks)))
    queued = set(work)
    visits = 0
    limit = _VISIT_CAP * max(1, len(blocks))
    while work:
        if visits >= limit:
            raise DecompilationError(
                f"constant propagation in {cfg.name!r} did not converge "
                f"within {limit} block visits"
            )
        visits += 1
        index = work.popleft()
        queued.discard(index)
        out = dict(in_states[index])
        _transfer(steps[index], out)
        out_items = out.items()
        for succ in blocks[index].succs:
            # meet only where the states differ: a key new to the
            # successor takes the incoming value, any other difference
            # (including a key the incoming state lacks) lowers to NAC
            state = in_states[succ]
            changes = {}
            for key, value in out_items - state.items():
                old = state.get(key, _UNDEF)
                if old is _UNDEF:
                    changes[key] = value
                elif old is not _NAC:
                    changes[key] = _NAC
            for key in state.keys() - out.keys():
                if state[key] is not _NAC:
                    changes[key] = _NAC
            if changes:
                state.update(changes)
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    return in_states, steps


def _const_of(operand, state: dict[Loc, object]) -> int | None:
    operand = _operand(operand)
    if operand.__class__ is int:
        return operand
    value = state.get(operand, _NAC)
    return None if value is _NAC else value


def propagate_constants(cfg: ControlFlowGraph) -> ConstPropStats:
    """Run constant propagation and rewrite *cfg* in place."""
    stats = ConstPropStats()
    in_states, steps = _solve(cfg)

    for block in cfg.blocks:
        state = in_states[block.index]
        new_ops: list[MicroOp] = []
        for op, step in zip(block.ops, steps[block.index]):
            code = op.opcode
            rewritten = op
            if code in ALU_OPS or code is Opcode.MOVE:
                # substitute constant register operands with immediates
                changed = False
                a, b = op.a, op.b
                if a.__class__ is Loc and a is not ZERO:
                    value = _const_of(a, state)
                    if value is not None:
                        a = Imm(value & 0xFFFF_FFFF)
                        changed = True
                if b.__class__ is Loc and b is not ZERO:
                    value = _const_of(b, state)
                    if value is not None:
                        b = Imm(value & 0xFFFF_FFFF)
                        changed = True
                if changed:
                    rewritten = op.clone(a=a, b=b)
                    stats.operands_immediated += 1
                rewritten = self_simplify(rewritten, stats)
            elif code is Opcode.LOAD and op.a.__class__ is Loc:
                base_const = _const_of(op.a, state)
                if base_const is not None and op.a is not ZERO:
                    # absolute-address load: keep base as immediate 0 + offset
                    rewritten = op.clone(a=Imm(0), offset=op.offset + base_const)
                    stats.operands_immediated += 1
            elif code is Opcode.STORE:
                base_const = _const_of(op.b, state)
                if base_const is not None and op.b.__class__ is Loc and op.b is not ZERO:
                    rewritten = op.clone(b=Imm(0), offset=op.offset + base_const)
                    stats.operands_immediated += 1
                value_const = _const_of(rewritten.a, state)
                if (value_const is not None and rewritten.a.__class__ is Loc
                        and rewritten.a is not ZERO):
                    rewritten = rewritten.clone(a=Imm(value_const & 0xFFFF_FFFF))
                    stats.operands_immediated += 1
            elif code is Opcode.BRANCH:
                a, b = _const_of(op.a, state), _const_of(op.b, state)
                if a is not None and b is not None:
                    taken = fold_ir_binop(_COND_FOLD[op.cond], a, b)
                    stats.branches_folded += 1
                    if taken:
                        rewritten = MicroOp(Opcode.JUMP, target=op.target, pc=op.pc)
                        _retarget(cfg, block, [_succ_of_target(cfg, op.target)])
                    else:
                        rewritten = None
                        fall = [s for s in block.succs if cfg.blocks[s].start != op.target]
                        _retarget(cfg, block, fall[:1] or block.succs[:1])
            _transfer((step,), state)  # advance on the ORIGINAL op (same effect)
            if rewritten is not None:
                new_ops.append(rewritten)
        block.ops = new_ops
    return stats


def self_simplify(op: MicroOp, stats: ConstPropStats) -> MicroOp:
    """Identity simplification on one (possibly immediated) ALU op."""
    if op.opcode is Opcode.MOVE:
        if isinstance(op.a, Imm):
            return MicroOp(Opcode.CONST, dst=op.dst, a=op.a, pc=op.pc)
        if op.a is ZERO:
            return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(0), pc=op.pc)
        return op
    a_imm = op.a.value if isinstance(op.a, Imm) else None
    b_imm = op.b.value if isinstance(op.b, Imm) else None
    if op.a is ZERO:
        a_imm = 0
    if op.b is ZERO:
        b_imm = 0

    # fully constant -> CONST
    if a_imm is not None and b_imm is not None and op.opcode in _FOLD_NAME:
        folded = fold_ir_binop(
            _FOLD_NAME[op.opcode], to_signed32(a_imm), to_signed32(b_imm)
        )
        if folded is not None:
            stats.ops_folded += 1
            return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(folded & 0xFFFF_FFFF), pc=op.pc)
    if op.opcode is Opcode.NOR and a_imm is not None and b_imm is not None:
        stats.ops_folded += 1
        return MicroOp(
            Opcode.CONST, dst=op.dst, a=Imm(~(a_imm | b_imm) & 0xFFFF_FFFF), pc=op.pc
        )

    # the register-move idioms: arithmetic with zero immediate
    if b_imm == 0 and op.opcode in (
        Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR
    ):
        stats.moves_recovered += 1
        source = op.a if isinstance(op.a, Loc) else Imm(a_imm & 0xFFFF_FFFF)
        if isinstance(source, Imm):
            return MicroOp(Opcode.CONST, dst=op.dst, a=source, pc=op.pc)
        return MicroOp(Opcode.MOVE, dst=op.dst, a=source, pc=op.pc)
    if a_imm == 0 and op.opcode in (Opcode.ADD, Opcode.OR, Opcode.XOR) and isinstance(op.b, Loc):
        stats.moves_recovered += 1
        return MicroOp(Opcode.MOVE, dst=op.dst, a=op.b, pc=op.pc)
    # x & 0 / x * 0 -> 0
    if (a_imm == 0 or b_imm == 0) and op.opcode in (Opcode.AND, Opcode.MUL):
        stats.ops_folded += 1
        return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(0), pc=op.pc)
    # x * 1 -> move
    if op.opcode is Opcode.MUL and (b_imm == 1 or a_imm == 1):
        stats.moves_recovered += 1
        source = op.a if b_imm == 1 else op.b
        if isinstance(source, Loc):
            return MicroOp(Opcode.MOVE, dst=op.dst, a=source, pc=op.pc)
    return op


def _succ_of_target(cfg: ControlFlowGraph, target: int) -> int:
    return cfg.block_by_start[target]


def _retarget(cfg: ControlFlowGraph, block: MicroBlock, new_succs: list[int]) -> None:
    for old in block.succs:
        if old not in new_succs:
            cfg.blocks[old].preds = [p for p in cfg.blocks[old].preds if p != block.index]
    for new in new_succs:
        if new not in block.succs:
            cfg.blocks[new].preds.append(block.index)
    block.succs = list(new_succs)
