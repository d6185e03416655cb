"""Liveness-based dead code elimination for micro-op CFGs.

Removes pure operations whose results are never consumed: the residue of
constant propagation (dead CONST/MOVE chains, dead HI halves of multiplies,
dead address materializations).  Iterates with fresh liveness until stable,
so its output is its own fixpoint: run again on an unchanged CFG it removes
nothing, which is why a cleanup iteration whose propagation passes changed
no block skips it (:class:`~repro.decompile.decompiler.Decompiler`).
"""

from __future__ import annotations

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.dataflow import liveness, ops_use_def
from repro.decompile.microop import ALU_OPS, Loc, MicroOp, Opcode

_PURE = frozenset({Opcode.CONST, Opcode.MOVE, Opcode.LOAD}) | ALU_OPS


def eliminate_dead_code(cfg: ControlFlowGraph, use_def_of=None) -> int:
    """Remove dead pure ops; returns the number of ops deleted.

    Each round sweeps only the blocks whose live-out set moved since their
    last sweep (a block's sweep is idempotent for a fixed live-out), and
    recomputes use/def sets only for the blocks a sweep shrank, each of
    which gets a new op list.  *use_def_of* maps an op list to its
    :func:`~repro.decompile.dataflow.ops_use_def`, for a caller that keeps
    them across calls (:class:`~repro.decompile.cfg.OpListMemo`).
    """
    use_def_of = use_def_of or ops_use_def
    blocks = cfg.blocks
    use_def = [use_def_of(block.ops) for block in blocks]
    swept_with: list[set[Loc] | None] = [None] * len(blocks)
    removed_total = 0
    while True:
        _, live_out = liveness(cfg, use_def)
        removed = 0
        for block in blocks:
            index = block.index
            if live_out[index] == swept_with[index]:
                continue
            swept_with[index] = live_out[index]
            live: set[Loc] = set(live_out[index])
            kept_reversed: list[MicroOp] = []
            for op in reversed(block.ops):
                if op.opcode in _PURE and op.dst is not None and op.dst not in live:
                    continue
                live.difference_update(op.defs())
                live.update(op.uses())
                kept_reversed.append(op)
            if len(kept_reversed) != len(block.ops):
                removed += len(block.ops) - len(kept_reversed)
                kept_reversed.reverse()
                block.ops = kept_reversed
                use_def[index] = use_def_of(block.ops)
        removed_total += removed
        if removed == 0:
            return removed_total
