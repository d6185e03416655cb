"""Block-local copy propagation for micro-ops.

After constant propagation turns move idioms into MOVE ops, this pass
forwards the sources through uses so DCE can delete the moves entirely.
Block-local operation keeps it trivially sound.
"""

from __future__ import annotations

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.microop import Loc, Opcode, ZERO


def propagate_copies(cfg: ControlFlowGraph) -> int:
    """Returns the number of operand substitutions performed."""
    substitutions = 0
    for block in cfg.blocks:
        available: dict[Loc, Loc] = {}
        for op in block.ops:
            if available:
                # substitute uses
                if op.a.__class__ is Loc and op.a in available:
                    op.a = available[op.a]
                    substitutions += 1
                if op.b.__class__ is Loc and op.b in available:
                    op.b = available[op.b]
                    substitutions += 1
                # kill mappings invalidated by this op's defs
                for loc in op.defs():
                    available.pop(loc, None)
                    if loc in available.values():
                        stale = [dst for dst, src in available.items() if src is loc]
                        for dst in stale:
                            del available[dst]

            if (
                op.opcode is Opcode.MOVE
                and op.a.__class__ is Loc
                and op.dst is not op.a
                and op.a is not ZERO
            ):
                available[op.dst] = op.a
    return substitutions
