"""Dataflow constant propagation over a micro-op CFG.

The paper singles this pass out: instruction sets force compilers to encode
register moves as "arithmetic instructions with an immediate value of zero";
synthesizing that arithmetic operator would waste area, so constant
propagation recognizes and removes the overhead.  Concretely this pass:

* tracks register constancy through the CFG (R0 is the constant 0),
* replaces constant register operands with immediates (this is what turns
  ``or rd, rs, r0`` and lui/ori address pairs into constants),
* folds fully-constant ALU ops into CONST,
* simplifies identities (``add x, #0`` -> MOVE and friends),
* folds always/never-taken branches, updating CFG edges.

The lattice.  A block's entry state maps each location known to hold one
constant there to that constant; a location missing from a state is not
constant (it may hold different values on different paths, or an unknown
entry value).  A block no path from the function entry has reached yet
has no state at all: it is the top element, which adds nothing to a meet.
The entry block starts from ``{R0: 0}``, since every other entry value is
unknown.  The meet of two states keeps the locations they agree on, so a
state only ever loses keys, and the transfer through a block is monotone
(fewer constants in, fewer constants out, never a different constant).
The solver therefore reaches the maximal fixpoint of the dataflow
equations, which is unique: any visit order that runs until no state
changes ends there.  The worklist takes blocks in reverse postorder from
the entry only because that needs few visits.  A block is queued again
only when a meet deleted a key of its state, so the solve ends without a
visit cap.  The rewrite reads the same entry states.

Idempotence.  Run again on its own output, the pass rewrites nothing
unless it folded a branch or an ``x & 0``/``x * 0`` with ``x`` not
constant, so the cleanup rounds skip that second run
(:class:`~repro.decompile.decompiler.Decompiler`).  A location operand is
rewritten to the constant the fixpoint gives it, and a reached block's
state only ever loses keys, so every solver visit that reads that operand
already saw the same constant there; every other rewrite (an identity, a
fold, ``MOVE #imm`` -> CONST) keeps the op's transfer on every state.  A
second solve therefore passes through the same states to the same
fixpoint, where no rewritable operand is left and every rewritten op is a
fixpoint of :func:`self_simplify`.  The two exceptions give the next run
work: a folded branch deletes an edge, and the meet at its old target may
then keep more constants; and ``x & 0``/``x * 0`` becomes ``CONST 0``,
whose transfer knows a constant the original op's did not
(:attr:`ConstPropStats.zero_products`).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.compiler.passes.constfold import fold_ir_binop
from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.microop import (
    ALU_OPS,
    Imm,
    Loc,
    MicroOp,
    Opcode,
    ZERO,
)
from repro.utils import graph, to_signed32

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
    #: of ``ops_folded``, ``x & 0`` and ``x * 0`` with ``x`` not constant:
    #: the one rewrite whose op knows a constant the solve did not, so like
    #: a folded branch it may give the next run work
    zero_products: int = 0

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
# a location looked up in the state, where a missing entry is not constant.
# A clobber's dst is the tuple of locations the op defines.
_COPY, _ALU, _CLOBBER = range(3)


def _operand(operand) -> object:
    if operand.__class__ is Imm:
        return to_signed32(operand.value)
    if operand is ZERO:
        return 0
    return operand


def transfer_steps(ops: list[MicroOp]) -> list[tuple]:
    """The transfer steps of *ops*, one per op."""
    steps = []
    append = steps.append
    for op in ops:
        code = op.opcode
        if code is Opcode.CONST:
            append((_COPY, op.dst, to_signed32(op.a.value), None, None))
        elif code is Opcode.MOVE:
            append((_COPY, op.dst, _operand(op.a), None, None))
        elif code in ALU_OPS:
            append((_ALU, op.dst, _operand(op.a), _operand(op.b),
                    _FOLD_NAME.get(code, code)))
        else:
            append((_CLOBBER, op.defs(), None, None, None))
    return steps


def _transfer(steps, state: dict[Loc, int]) -> None:
    """Advance *state* over *steps*."""
    get, pop = state.get, state.pop
    for kind, dst, a, b, fold in steps:
        if kind == _CLOBBER:
            for loc in dst:
                pop(loc, None)
            continue
        if a.__class__ is not int:
            a = get(a)
            if a is None:
                pop(dst, None)
                continue
        if kind == _COPY:
            state[dst] = a
            continue
        if b.__class__ is not int:
            b = get(b)
            if b is None:
                pop(dst, None)
                continue
        if fold.__class__ is str:
            folded = fold_ir_binop(fold, a, b)
            if folded is None:
                pop(dst, None)
            else:
                state[dst] = folded
        elif fold is Opcode.NOR:
            state[dst] = to_signed32(~(a | b))
        else:
            pop(dst, None)


def _solve(
    cfg: ControlFlowGraph, steps: list[list[tuple]] | None = None
) -> list[dict[Loc, int] | None]:
    """Each block's entry state at the maximal fixpoint (``None`` for a
    block the entry does not reach); *steps* are the blocks'
    :func:`transfer_steps`."""
    blocks = cfg.blocks
    if steps is None:
        steps = [transfer_steps(block.ops) for block in blocks]
    entry = cfg.entry_index
    order = graph.reverse_postorder([block.succs for block in blocks], entry)
    rank = [0] * len(blocks)
    for position, index in enumerate(order):
        rank[index] = position
    states: list[dict[Loc, int] | None] = [None] * len(blocks)
    states[entry] = {ZERO: 0}
    queued = [False] * len(blocks)
    queued[entry] = True
    work = [0]  # ranks of the queued blocks
    while work:
        index = order[heappop(work)]
        queued[index] = False
        out = states[index].copy()
        _transfer(steps[index], out)
        out_items = out.items()
        for succ in blocks[index].succs:
            state = states[succ]
            if state is None:
                states[succ] = out.copy()
            else:
                stale = state.items() - out_items
                if not stale:
                    continue
                for key, _ in stale:
                    del state[key]
            if not queued[succ]:
                queued[succ] = True
                heappush(work, rank[succ])
    return states


def _const_of(operand, state: dict[Loc, int]) -> int | None:
    operand = _operand(operand)
    if operand.__class__ is int:
        return operand
    return state.get(operand)


def propagate_constants(cfg: ControlFlowGraph, steps_of=None) -> ConstPropStats:
    """Run constant propagation and rewrite *cfg* in place.

    A block whose ops all stay as they are keeps its op list object; a
    rewritten op is a new op.  *steps_of* maps an op list to its
    :func:`transfer_steps`, for a caller that keeps them across calls
    (:class:`~repro.decompile.cfg.OpListMemo`).
    """
    stats = ConstPropStats()
    steps = [(steps_of or transfer_steps)(block.ops) for block in cfg.blocks]
    in_states = _solve(cfg, steps)
    for block in cfg.blocks:
        # the state advances in place; a block the entry does not reach is
        # rewritten knowing nothing
        state = in_states[block.index] or {}
        get, pop = state.get, state.pop
        new_ops: list[MicroOp] = []
        changed = False
        for op, (kind, dst, a, b, fold) in zip(block.ops, steps[block.index]):
            # rewrite *op* from the state before it, then advance the state
            # over the original op (the rewrite has the same effect there)
            rewritten = op
            if kind == _CLOBBER:
                code = op.opcode
                if code is Opcode.LOAD:
                    value = _const_loc(op.a, state)
                    if value is not None:
                        # absolute-address load: base is immediate 0 + offset
                        rewritten = op.clone(a=Imm(0), offset=op.offset + value)
                        stats.operands_immediated += 1
                elif code is Opcode.STORE:
                    value = _const_loc(op.b, state)
                    if value is not None:
                        rewritten = op.clone(b=Imm(0), offset=op.offset + value)
                        stats.operands_immediated += 1
                    value = _const_loc(op.a, state)
                    if value is not None:
                        rewritten = rewritten.clone(a=Imm(value & 0xFFFF_FFFF))
                        stats.operands_immediated += 1
                elif code is Opcode.BRANCH:
                    rewritten = _fold_branch(cfg, block, op, state, stats)
                for loc in dst:
                    pop(loc, None)
            elif kind == _COPY:
                va = a if a.__class__ is int else get(a)
                if op.opcode is Opcode.MOVE and va is not None:
                    if a.__class__ is not int:
                        rewritten = op.clone(a=Imm(va & 0xFFFF_FFFF))
                        stats.operands_immediated += 1
                    rewritten = self_simplify(rewritten, stats)
                if va is None:
                    pop(dst, None)
                else:
                    state[dst] = va
            else:
                va = a if a.__class__ is int else get(a)
                vb = b if b.__class__ is int else get(b)
                if (va is not None and a.__class__ is not int) or (
                        vb is not None and b.__class__ is not int):
                    rewritten = op.clone(
                        a=op.a if a.__class__ is int or va is None else Imm(va & 0xFFFF_FFFF),
                        b=op.b if b.__class__ is int or vb is None else Imm(vb & 0xFFFF_FFFF),
                    )
                    stats.operands_immediated += 1
                    rewritten = self_simplify(rewritten, stats)
                elif (a.__class__ is int and b.__class__ is int) or a in _IDENTITY \
                        or b in _IDENTITY:
                    # an immediate (or R0) operand: maybe a foldable identity
                    rewritten = self_simplify(op, stats)
                if va is None or vb is None:
                    pop(dst, None)
                elif fold.__class__ is str:
                    folded = fold_ir_binop(fold, va, vb)
                    if folded is None:
                        pop(dst, None)
                    else:
                        state[dst] = folded
                elif fold is Opcode.NOR:
                    state[dst] = to_signed32(~(va | vb))
                else:
                    pop(dst, None)
            if rewritten is not op:
                changed = True
                if rewritten is None:
                    continue
            new_ops.append(rewritten)
        if changed:
            block.ops = new_ops
    return stats


#: the literal operands :func:`self_simplify` may act on when no operand is
#: replaced (both literal, or one of these); any other op comes back as it is
_IDENTITY = frozenset({0, 1})


def _const_loc(operand, state: dict[Loc, int]) -> int | None:
    """The constant a location operand other than R0 holds, if any."""
    if operand.__class__ is Loc and operand is not ZERO:
        return state.get(operand)
    return None


def _fold_branch(
    cfg: ControlFlowGraph, block: MicroBlock, op: MicroOp,
    state: dict[Loc, int], stats: ConstPropStats,
) -> MicroOp | None:
    """*op* itself, or a JUMP (always taken) or None (never taken) with the
    block's edges updated to match."""
    a, b = _const_of(op.a, state), _const_of(op.b, state)
    if a is None or b is None:
        return op
    stats.branches_folded += 1
    if fold_ir_binop(_COND_FOLD[op.cond], a, b):
        _retarget(cfg, block, [_succ_of_target(cfg, op.target)])
        return MicroOp(Opcode.JUMP, target=op.target, pc=op.pc)
    fall = [s for s in block.succs if cfg.blocks[s].start != op.target]
    _retarget(cfg, block, fall[:1] or block.succs[:1])
    return None


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
    # x & 0 / x * 0 -> 0, where x is not constant (else folded above)
    if (a_imm == 0 or b_imm == 0) and op.opcode in (Opcode.AND, Opcode.MUL):
        stats.ops_folded += 1
        stats.zero_products += 1
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
