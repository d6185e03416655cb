"""Liveness-based dead code elimination for micro-op CFGs.

Removes pure operations whose results are never consumed: the residue of
constant propagation (dead CONST/MOVE chains, dead HI halves of multiplies,
dead address materializations).  Iterates with fresh liveness until stable,
so its output is its own fixpoint: run again on an unchanged CFG it removes
nothing.  The cleanup rounds (:class:`~repro.decompile.decompiler.Decompiler`)
rely on that: after a round's first iteration they run DCE only when
constant or copy propagation gave some block a new op list, the one way
either pass changes a block.  Deleting an op creates no work for constant
propagation either: the op's result reaches no use, so no state a use reads
changes.

The per-block kernels (:func:`sweep` here,
:func:`~repro.decompile.dataflow.ops_use_def` for the use/def sets liveness
starts from) read an op's ``dst``, ``a`` and ``b`` and the ``CALL_CLOBBERED``
and ``IMPLICIT_USES`` tables of :mod:`~repro.decompile.microop` directly,
instead of building the tuples of :meth:`MicroOp.uses`/:meth:`MicroOp.defs`
per op; the tables stay the one definition of what an op reads and writes.
"""

from __future__ import annotations

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.dataflow import liveness, ops_use_def
from repro.decompile.microop import (
    ALU_OPS,
    CALL_CLOBBERED,
    IMPLICIT_USES,
    Loc,
    MicroOp,
    Opcode,
)

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
            kept = sweep(block.ops, live_out[index])
            if kept is not block.ops:
                removed += len(block.ops) - len(kept)
                block.ops = kept
                use_def[index] = use_def_of(kept)
        removed_total += removed
        if removed == 0:
            return removed_total


def sweep(ops: list[MicroOp], live_out: set[Loc]) -> list[MicroOp]:
    """*ops* without the pure ops whose result is dead, given the locations
    live after the last op: a new list, or *ops* itself when none is dead.

    Liveness is folded backwards over :meth:`MicroOp.defs` then
    :meth:`MicroOp.uses`, inlined as in
    :func:`~repro.decompile.dataflow.ops_use_def`.
    """
    live = set(live_out)
    kept: list[MicroOp] = []
    implicit_uses = IMPLICIT_USES.get
    for op in reversed(ops):
        dst = op.dst
        if dst is not None:
            if dst not in live and op.opcode in _PURE:
                continue
            live.discard(dst)
        elif op.opcode is Opcode.CALL:
            live.difference_update(CALL_CLOBBERED)
        if op.a.__class__ is Loc:
            live.add(op.a)
        if op.b.__class__ is Loc:
            live.add(op.b)
        implicit = implicit_uses(op.opcode)
        if implicit:
            live.update(implicit)
        kept.append(op)
    if len(kept) == len(ops):
        return ops
    kept.reverse()
    return kept
