"""Promote non-address-taken scalar stack slots to virtual registers.

Because a mini-C local is a single mutable cell, mapping each promotable
slot to one dedicated virtual register preserves semantics exactly without
SSA construction: ``LoadSlot`` becomes a copy *from* the register and
``StoreSlot`` a copy *to* it.  Register allocation later handles the live
ranges.  This pass is what separates -O0 (everything in the frame) from
-O1 and above.
"""

from __future__ import annotations

from repro.compiler import ir


def promote_slots(func: ir.Function) -> bool:
    promotable = {
        slot.index: slot
        for slot in func.slots
        if not slot.is_array and not slot.address_taken and slot.size == 4
    }
    if not promotable:
        return False

    slot_regs: dict[int, ir.VReg] = {
        index: func.new_vreg(slot.name or f"slot{index}")
        for index, slot in promotable.items()
    }

    changed = False
    new_instrs: list[ir.Instr] = []
    for instr in func.instrs:
        cls = type(instr)
        if cls is ir.LoadSlot and instr.slot.index in slot_regs:
            new_instrs.append(ir.Copy(instr.dst, slot_regs[instr.slot.index]))
            changed = True
        elif cls is ir.StoreSlot and instr.slot.index in slot_regs:
            new_instrs.append(ir.Copy(slot_regs[instr.slot.index], instr.src))
            changed = True
        else:
            new_instrs.append(instr)
    func.instrs = new_instrs
    if changed:
        func.slots = [slot for slot in func.slots if slot.index not in slot_regs]
    return changed
