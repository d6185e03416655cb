"""Dead-code elimination: unused pure instructions and dead slot stores.

One pass over use counts with a worklist.  A pure instruction dies once
its destination has no uses left; a ``StoreSlot`` dies once its slot has
no ``LoadSlot`` left (and is neither an array nor address-taken).  Each
death releases the uses it held, which can kill further definitions --
the same fixed point as rescanning the function until nothing changes,
since removing instructions only ever removes uses.
"""

from __future__ import annotations

from collections import Counter

from repro.compiler import ir

_SLOT_REFS = frozenset({ir.LoadSlot, ir.StoreSlot, ir.SlotAddr})


def eliminate_dead_code(func: ir.Function) -> bool:
    instrs = func.instrs
    pinned_slots = {
        slot.index for slot in func.slots if slot.address_taken or slot.is_array
    }
    uses: list[ir.VReg] = []
    reads = ir.reads
    # pure definitions: the first one of each register, and every one of a
    # register that has several (most have one, so no list per register)
    first_def: dict[ir.VReg, int] = {}
    more_defs: dict[ir.VReg, list[int]] = {}
    loads: dict[int, int] = {}
    stores: dict[int, list[int]] = {}
    for position, instr in enumerate(instrs):
        uses += reads(instr)
        cls = type(instr)
        if cls in ir.PURE_DEF_TYPES:  # Load too: no volatile semantics in mini-C
            if cls is ir.LoadSlot:
                index = instr.slot.index
                loads[index] = loads.get(index, 0) + 1
            reg = instr.dst
            first = first_def.setdefault(reg, position)
            if first != position:
                more_defs.setdefault(reg, [first]).append(position)
        elif cls is ir.StoreSlot and instr.slot.index not in pinned_slots:
            stores.setdefault(instr.slot.index, []).append(position)
    use_count = Counter(uses)

    def defs_of(reg: ir.VReg) -> list[int]:
        return more_defs.get(reg) or [first_def[reg]]

    # (key-view set algebra reuses the stored hashes)
    worklist: list[int] = []
    for reg in first_def.keys() - use_count.keys():
        worklist += defs_of(reg)
    for index in stores.keys() - loads.keys():
        worklist += stores[index]
    dead = set(worklist)

    while worklist:
        instr = instrs[worklist.pop()]
        for reg in reads(instr):
            use_count[reg] -= 1
            if not use_count[reg] and reg in first_def:
                for position in defs_of(reg):
                    if position not in dead:
                        dead.add(position)
                        worklist.append(position)
        if type(instr) is ir.LoadSlot:
            index = instr.slot.index
            loads[index] -= 1
            if not loads[index]:
                for position in stores.get(index, ()):
                    if position not in dead:
                        dead.add(position)
                        worklist.append(position)

    if dead:
        func.instrs = instrs = [
            instr for position, instr in enumerate(instrs) if position not in dead
        ]
    # drop slots that are no longer referenced at all
    if not func.slots:
        return bool(dead)
    referenced = {
        instr.slot.index for instr in instrs if type(instr) in _SLOT_REFS
    }
    before = len(func.slots)
    func.slots = [slot for slot in func.slots if slot.index in referenced]
    return bool(dead) or len(func.slots) != before
