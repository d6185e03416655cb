"""Data-flow analyses over micro-op CFGs.

Provides the machinery every later stage leans on: block-level liveness,
dominator sets and natural-loop detection.  These are
the standard algorithms from the decompilation literature the paper builds
on (Cifuentes et al.), implemented over the ISA-independent micro-ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.microop import Loc, MicroOp


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


def block_use_def(block: MicroBlock) -> tuple[set[Loc], set[Loc]]:
    """(upward-exposed uses, definitions) for one block."""
    uses: set[Loc] = set()
    defs: set[Loc] = set()
    for op in block.ops:
        for loc in op.uses():
            if loc not in defs:
                uses.add(loc)
        defs.update(op.defs())
    return uses, defs


def liveness(
    cfg: ControlFlowGraph,
    use_def: list[tuple[set[Loc], set[Loc]]] | None = None,
) -> tuple[list[set[Loc]], list[set[Loc]]]:
    """Backward liveness; returns (live_in, live_out) per block.

    *use_def* is each block's :func:`block_use_def`, for a caller that
    keeps it current itself.  The result is the least fixpoint, which is
    unique, so the worklist order does not matter.
    """
    blocks = cfg.blocks
    count = len(blocks)
    if use_def is None:
        use_def = [block_use_def(block) for block in blocks]
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


def dominators(cfg: ControlFlowGraph) -> list[set[int]]:
    """dom[i] = set of blocks dominating block i (including itself)."""
    count = len(cfg.blocks)
    entry = cfg.block_by_start[cfg.entry]
    everything = set(range(count))
    dom: list[set[int]] = [everything.copy() for _ in range(count)]
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for index in range(count):
            if index == entry:
                continue
            preds = cfg.blocks[index].preds
            if preds:
                new = set.intersection(*(dom[p] for p in preds)) | {index}
            else:
                new = {index}
            if new != dom[index]:
                dom[index] = new
                changed = True
    return dom


def immediate_dominators(
    cfg: ControlFlowGraph, dom: list[set[int]] | None = None
) -> dict[int, int | None]:
    """idom[i] = the unique closest strict dominator of block i.

    *dom* is ``dominators(cfg)``, for a caller that already has it.
    """
    if dom is None:
        dom = dominators(cfg)
    idom: dict[int, int | None] = {}
    for index, dom_set in enumerate(dom):
        strict = dom_set - {index}
        best: int | None = None
        for candidate in strict:
            # the immediate dominator is the strict dominator that every
            # other strict dominator dominates
            if all(other == candidate or other in dom[candidate] for other in strict):
                best = candidate
                break
        idom[index] = best
    return idom


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
    by_header: dict[int, NaturalLoop] = {}
    for block in cfg.blocks:
        for succ in block.succs:
            if succ in dom[block.index]:  # back edge block -> succ
                loop = by_header.setdefault(succ, NaturalLoop(header=succ, latches=[]))
                loop.latches.append(block.index)
                loop.body |= _loop_body(cfg, succ, block.index)
    loops = list(by_header.values())
    _assign_nesting(loops)
    return sorted(loops, key=lambda lp: (lp.depth, lp.header))


def _loop_body(cfg: ControlFlowGraph, header: int, latch: int) -> set[int]:
    body = {header, latch}
    stack = [latch]
    while stack:
        index = stack.pop()
        if index == header:
            continue
        for pred in cfg.blocks[index].preds:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def _assign_nesting(loops: list[NaturalLoop]) -> None:
    for loop in loops:
        loop.depth = 1
        loop.children = []
    for inner in loops:
        parents = [
            outer
            for outer in loops
            if outer is not inner and inner.header in outer.body and inner.body <= outer.body
        ]
        if parents:
            direct = min(parents, key=lambda lp: len(lp.body))
            direct.children.append(inner)
    # depth by repeated propagation (loop forests are tiny)
    changed = True
    while changed:
        changed = False
        for outer in loops:
            for child in outer.children:
                if child.depth <= outer.depth:
                    child.depth = outer.depth + 1
                    changed = True
