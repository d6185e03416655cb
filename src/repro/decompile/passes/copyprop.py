"""Block-local copy propagation for micro-ops.

After constant propagation turns move idioms into MOVE ops, this pass
forwards the sources through uses so DCE can delete the moves entirely.
Block-local operation keeps it trivially sound.
"""

from __future__ import annotations

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.microop import Loc, MicroOp, Opcode, ZERO


def propagate_copies(
    cfg: ControlFlowGraph, seen: dict[int, list[MicroOp]] | None = None
) -> int:
    """Returns the number of operand substitutions performed.

    A changed op is replaced by a new op in a new list for its block; an
    unchanged block keeps its list.  *seen* holds, by id, the op lists this
    pass has left, for a caller that runs it again while every other pass
    also replaces a list it changes: a block whose list it holds is
    skipped, since a second pass over a block substitutes nothing (a
    MOVE's source is substituted before the MOVE is recorded, so no
    recorded source is itself a recorded destination).
    """
    substitutions = 0
    for block in cfg.blocks:
        if seen is not None and id(block.ops) in seen:
            continue
        available: dict[Loc, Loc] = {}
        new_ops: list[MicroOp] | None = None
        for position, op in enumerate(block.ops):
            if available:
                # substitute uses
                a = available.get(op.a, op.a) if op.a.__class__ is Loc else op.a
                b = available.get(op.b, op.b) if op.b.__class__ is Loc else op.b
                if a is not op.a or b is not op.b:
                    substitutions += (a is not op.a) + (b is not op.b)
                    op = op.clone(a=a, b=b)
                    if new_ops is None:
                        new_ops = block.ops[:position]
                # kill mappings invalidated by this op's defs
                for loc in op.defs():
                    available.pop(loc, None)
                    if loc in available.values():
                        stale = [dst for dst, src in available.items() if src is loc]
                        for dst in stale:
                            del available[dst]
            if new_ops is not None:
                new_ops.append(op)

            if (
                op.opcode is Opcode.MOVE
                and op.a.__class__ is Loc
                and op.dst is not op.a
                and op.a is not ZERO
            ):
                available[op.dst] = op.a
        if new_ops is not None:
            block.ops = new_ops
        if seen is not None:
            seen[id(block.ops)] = block.ops
    return substitutions
