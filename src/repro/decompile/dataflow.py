"""Data-flow analyses over micro-op CFGs.

Provides the machinery every later stage leans on: block-level liveness,
dominators and natural-loop detection, the standard algorithms from the
decompilation literature the paper builds on (Cifuentes et al.), over the
ISA-independent micro-ops.  Dominator trees and loop bodies come from the
shared graph toolkit, :mod:`repro.utils.graph`, which also fixes the
convention for unreachable blocks; the functions here apply it to a CFG's
block indices.  A back edge is an edge whose target dominates its source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.microop import (
    CALL_CLOBBERED,
    IMPLICIT_USES,
    Loc,
    MicroOp,
    Opcode,
)
from repro.utils import graph


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


def ops_use_def(ops: list[MicroOp]) -> tuple[set[Loc], set[Loc]]:
    """(upward-exposed uses, definitions) of a block's op list.

    A fold of :meth:`MicroOp.defs` then :meth:`MicroOp.uses` over the ops
    in reverse, inlined: it reads ``dst``, ``a``, ``b`` and the tables of
    :mod:`~repro.decompile.microop` instead of building two tuples per op.
    """
    uses: set[Loc] = set()
    defs: set[Loc] = set()
    implicit_uses = IMPLICIT_USES.get
    for op in reversed(ops):
        dst = op.dst
        if dst is not None:
            uses.discard(dst)
            defs.add(dst)
        elif op.opcode is Opcode.CALL:
            uses.difference_update(CALL_CLOBBERED)
            defs.update(CALL_CLOBBERED)
        if op.a.__class__ is Loc:
            uses.add(op.a)
        if op.b.__class__ is Loc:
            uses.add(op.b)
        implicit = implicit_uses(op.opcode)
        if implicit:
            uses.update(implicit)
    return uses, defs


def liveness(
    cfg: ControlFlowGraph,
    use_def: list[tuple[set[Loc], set[Loc]]] | None = None,
) -> tuple[list[set[Loc]], list[set[Loc]]]:
    """Backward liveness; returns (live_in, live_out) per block.

    *use_def* is each block's :func:`ops_use_def`, for a caller that
    keeps it current itself.  The result is the least fixpoint, which is
    unique, so the worklist order does not matter.
    """
    blocks = cfg.blocks
    count = len(blocks)
    if use_def is None:
        use_def = [ops_use_def(block.ops) for block in blocks]
    preds: list[list[int]] = [[] for _ in range(count)]
    for block in blocks:
        for succ in block.succs:
            preds[succ].append(block.index)
    live_in: list[set[Loc]] = [set() for _ in range(count)]
    live_out: list[set[Loc]] = [set() for _ in range(count)]
    work = list(range(count))  # popped from the end: backward order first
    queued = [True] * count
    while work:
        index = work.pop()
        queued[index] = False
        out: set[Loc] = set()
        for succ in blocks[index].succs:
            out |= live_in[succ]
        live_out[index] = out
        gen, kill = use_def[index]
        new_in = gen | (out - kill)
        if new_in != live_in[index]:
            live_in[index] = new_in
            for pred in preds[index]:
                if not queued[pred]:
                    queued[pred] = True
                    work.append(pred)
    return live_in, live_out


# ---------------------------------------------------------------------------
# dominators and loops
# ---------------------------------------------------------------------------


def dominator_tree(cfg: ControlFlowGraph) -> graph.Tree:
    """The CFG's dominator tree over block indices, from which
    :func:`dominators` and :func:`immediate_dominators` both read."""
    blocks = cfg.blocks
    return graph.dominator_tree(
        [block.succs for block in blocks],
        [block.preds for block in blocks],
        cfg.entry_index,
    )


def dominators(
    cfg: ControlFlowGraph, tree: graph.Tree | None = None
) -> list[set[int]]:
    """dom[i] = set of blocks dominating block i (including itself); an
    unreachable block is dominated only by itself.  *tree* is
    ``dominator_tree(cfg)``, for a caller that already has it."""
    return graph.dominator_sets(*(tree or dominator_tree(cfg)))


def immediate_dominators(
    cfg: ControlFlowGraph, tree: graph.Tree | None = None
) -> dict[int, int | None]:
    """idom[i] = the closest strict dominator of block i (``None`` for the
    entry and for unreachable blocks).  *tree* is ``dominator_tree(cfg)``,
    for a caller that already has it."""
    return dict(enumerate((tree or dominator_tree(cfg))[0]))


@dataclass
class NaturalLoop:
    """One natural loop: header block plus body block indices."""

    header: int
    latches: list[int]
    body: set[int] = field(default_factory=set)
    #: loops whose headers sit inside this loop's body (filled by nesting)
    children: list["NaturalLoop"] = field(default_factory=list)
    depth: int = 1

    def __contains__(self, block_index: int) -> bool:
        return block_index in self.body


def natural_loops(
    cfg: ControlFlowGraph, dom: list[set[int]] | None = None
) -> list[NaturalLoop]:
    """Find natural loops via back edges; merges loops sharing a header.

    *dom* is ``dominators(cfg)``, for a caller that already has it.
    """
    if dom is None:
        dom = dominators(cfg)
    preds = [block.preds for block in cfg.blocks]
    by_header: dict[int, NaturalLoop] = {}
    for block in cfg.blocks:
        for succ in block.succs:
            if succ in dom[block.index]:  # back edge block -> succ
                loop = by_header.setdefault(succ, NaturalLoop(header=succ, latches=[]))
                loop.latches.append(block.index)
                loop.body |= graph.natural_loop(preds, succ, block.index)
    loops = list(by_header.values())
    _assign_nesting(loops)
    return sorted(loops, key=lambda lp: (lp.depth, lp.header))


def _assign_nesting(loops: list[NaturalLoop]) -> None:
    for loop in loops:
        loop.children = []
    for inner in loops:
        parents = [
            outer
            for outer in loops
            if outer is not inner and inner.header in outer.body and inner.body <= outer.body
        ]
        # natural loops with distinct headers nest or are disjoint, so the
        # loops holding this one form a chain
        inner.depth = 1 + len(parents)
        if parents:
            direct = min(parents, key=lambda lp: len(lp.body))
            direct.children.append(inner)
