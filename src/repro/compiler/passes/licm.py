"""Loop-invariant code motion (enabled at -O2).

Finds natural loops (back edges to a dominator; block 0 is the entry, and
dominators and loop bodies come from :mod:`repro.utils.graph`), then
hoists pure, single-definition computations whose operands are defined
outside the loop to just before the loop header label.  A single-block
loop (a ``do ... while`` whose header is its own latch) is that one block.
Because the IR generator produces single-entry loops entered by
fall-through, placing hoisted instructions immediately before the header
label executes them exactly once on entry and never on the back edge.
"""

from __future__ import annotations

from repro.compiler import ir
from repro.utils import graph

_HOISTABLE = (ir.Const, ir.LoadAddr, ir.SlotAddr, ir.BinOp, ir.UnOp, ir.Copy)


def find_loops(blocks: list[ir.Block]) -> list[tuple[int, set[int]]]:
    """Return (header_index, loop_blocks) for each natural loop, innermost last."""
    succs = [block.succs for block in blocks]
    preds = [block.preds for block in blocks]
    dom = graph.dominator_sets(*graph.dominator_tree(succs, preds, 0))
    loops: dict[int, set[int]] = {}
    for index, block in enumerate(blocks):
        for succ in block.succs:
            if succ in dom[index]:  # back edge index -> succ
                loops.setdefault(succ, set()).update(graph.natural_loop(preds, succ, index))
    return sorted(loops.items(), key=lambda item: len(item[1]), reverse=True)


def hoist_loop_invariants(func: ir.Function) -> bool:
    blocks = ir.build_cfg(func)
    loops = find_loops(blocks)
    if not loops:
        return False

    # definition counts across the whole function (single-def check)
    def_counts: dict[ir.VReg, int] = {}
    for instr in func.instrs:
        for reg in instr.defs():
            def_counts[reg] = def_counts.get(reg, 0) + 1

    changed = False
    for header, loop_blocks in loops:
        header_block = blocks[header]
        # single-entry check: every non-back-edge predecessor must be the
        # lexically preceding block (our irgen guarantees this shape)
        outside_preds = [p for p in header_block.preds if p not in loop_blocks]
        if outside_preds != [header - 1] or header == 0:
            continue

        defined_in_loop: set[ir.VReg] = set()
        for index in loop_blocks:
            for instr in blocks[index].instrs:
                defined_in_loop.update(instr.defs())

        has_call = any(
            isinstance(instr, ir.Call)
            for index in loop_blocks
            for instr in blocks[index].instrs
        )

        hoisted: list[ir.Instr] = []
        hoisted_regs: set[ir.VReg] = set()
        for index in sorted(loop_blocks):
            block = blocks[index]
            kept: list[ir.Instr] = []
            for instr in block.instrs:
                if _is_invariant(
                    instr, defined_in_loop, hoisted_regs, def_counts, has_call
                ):
                    hoisted.append(instr)
                    hoisted_regs.update(instr.defs())
                    changed = True
                else:
                    kept.append(instr)
            block.instrs = kept

        if hoisted:
            # place at the end of the fall-through predecessor (runs once on
            # entry, skipped by back edges); keep any terminator last
            preheader = blocks[header - 1]
            if preheader.instrs and isinstance(preheader.instrs[-1], ir.TERMINATORS):
                position = len(preheader.instrs) - 1
                preheader.instrs[position:position] = hoisted
            else:
                preheader.instrs.extend(hoisted)

    func.instrs = ir.flatten_cfg(blocks)
    return changed


def _is_invariant(
    instr: ir.Instr,
    defined_in_loop: set[ir.VReg],
    hoisted_regs: set[ir.VReg],
    def_counts: dict[ir.VReg, int],
    has_call: bool,
) -> bool:
    if not isinstance(instr, _HOISTABLE):
        return False
    defs = instr.defs()
    if len(defs) != 1 or def_counts.get(defs[0], 0) != 1:
        return False
    for reg in instr.uses():
        if reg in defined_in_loop and reg not in hoisted_regs:
            return False
        if def_counts.get(reg, 0) != 1:
            return False
    if isinstance(instr, ir.BinOp) and instr.op in ("div", "divu", "rem", "remu"):
        # division can fault conceptually; keep it where it was
        return False
    return True
