"""Linear-scan register allocation over virtual registers.

Liveness is computed block-wise (iterative backward dataflow), then each
virtual register gets one conservative live interval over the linearized
instruction order.  Intervals crossing a call site must receive a
callee-saved register ($s0-$s7) or spill; others prefer caller-saved
($t0-$t7).  $t8/$t9 are reserved as spill scratch, $at as branch-compare
scratch, so the allocator never touches them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from repro.compiler import ir
from repro.isa.registers import Reg

#: allocatable caller-saved registers (jal-clobbered)
T_REGS = [int(r) for r in (Reg.T0, Reg.T1, Reg.T2, Reg.T3, Reg.T4, Reg.T5, Reg.T6, Reg.T7)]
#: allocatable callee-saved registers
S_REGS = [int(r) for r in (Reg.S0, Reg.S1, Reg.S2, Reg.S3, Reg.S4, Reg.S5, Reg.S6, Reg.S7)]
_S_REG_SET = frozenset(S_REGS)


@dataclass
class Interval:
    vreg: ir.VReg
    start: int
    end: int
    crosses_call: bool = False


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    #: vreg -> physical register number
    reg_of: dict[ir.VReg, int] = field(default_factory=dict)
    #: vreg -> spill slot ordinal (codegen assigns frame offsets)
    spill_of: dict[ir.VReg, int] = field(default_factory=dict)
    used_callee_saved: list[int] = field(default_factory=list)

    @property
    def spill_count(self) -> int:
        return len(set(self.spill_of.values()))


def compute_block_liveness(
    blocks: list[ir.Block],
) -> tuple[list[set[ir.VReg]], list[set[ir.VReg]]]:
    """Iterative live-in/live-out per block."""
    count = len(blocks)
    reads, def_types = ir.reads, ir.DEF_TYPES
    gen: list[set[ir.VReg]] = []
    kill: list[set[ir.VReg]] = []
    for block in blocks:
        use_set: set[ir.VReg] = set()
        def_set: set[ir.VReg] = set()
        for instr in block.instrs:
            for reg in reads(instr):
                if reg not in def_set:
                    use_set.add(reg)
            if type(instr) in def_types and instr.dst is not None:
                def_set.add(instr.dst)
        gen.append(use_set)
        kill.append(def_set)

    live_in: list[set[ir.VReg]] = [set() for _ in range(count)]
    live_out: list[set[ir.VReg]] = [set() for _ in range(count)]
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            out: set[ir.VReg] = set()
            for succ in blocks[index].succs:
                out |= live_in[succ]
            new_in = gen[index] | (out - kill[index])
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return live_in, live_out


def build_intervals(func: ir.Function) -> tuple[list[Interval], list[int]]:
    """Conservative live intervals over the linear instruction order."""
    blocks = ir.build_cfg(func)
    live_in, live_out = compute_block_liveness(blocks)

    # indices are visited in nondecreasing order, so an interval starts at
    # its register's first touch and ends at its last
    starts: dict[ir.VReg, int] = {}
    ends: dict[ir.VReg, int] = {}
    call_sites: list[int] = []
    reads, def_types = ir.reads, ir.DEF_TYPES

    # parameters are defined by the prologue: pin their interval to entry
    for param in func.params:
        starts.setdefault(param, 0)
        ends[param] = 0

    # a live-in register is used in its block or live out of it, so only
    # its start can come from the block's first index; every live-out
    # register is defined in the block or live in, so already started
    index = 0
    for block_index, block in enumerate(blocks):
        for reg in live_in[block_index]:
            if reg not in starts:
                starts[reg] = index
        for instr in block.instrs:
            for reg in reads(instr):
                starts.setdefault(reg, index)
                ends[reg] = index
            cls = type(instr)
            if cls in def_types:
                reg = instr.dst
                if reg is not None:
                    starts.setdefault(reg, index)
                    ends[reg] = index
                if cls is ir.Call:
                    call_sites.append(index)
            index += 1
        # (fromkeys over a set reuses the stored hashes)
        ends.update(dict.fromkeys(live_out[block_index], index - 1))

    intervals = []
    for reg, start in starts.items():
        end = ends[reg]
        # the first call site after the start decides whether one lies inside
        first_after = bisect_right(call_sites, start)
        crosses = first_after < len(call_sites) and call_sites[first_after] < end
        intervals.append(Interval(reg, start, end, crosses))
    intervals.sort(key=attrgetter("start", "end"))
    return intervals, call_sites


def allocate(func: ir.Function) -> Allocation:
    """Run linear scan; every vreg ends up in reg_of or spill_of."""
    intervals, _ = build_intervals(func)
    allocation = Allocation()

    free_t = list(T_REGS)
    free_s = list(S_REGS)
    active: list[Interval] = []
    used_s: set[int] = set()
    next_spill = 0

    for interval in intervals:
        # expire the active intervals that ended before this one starts
        start = interval.start
        if active:
            still_active = []
            for other in active:
                if other.end < start:
                    reg = allocation.reg_of[other.vreg]
                    (free_s if reg in _S_REG_SET else free_t).append(reg)
                else:
                    still_active.append(other)
            active = still_active
        reg: int | None = None
        if interval.crosses_call:
            if free_s:
                reg = free_s.pop(0)
                used_s.add(reg)
        else:
            if free_t:
                reg = free_t.pop(0)
            elif free_s:
                reg = free_s.pop(0)
                used_s.add(reg)
        if reg is None:
            # classic linear-scan heuristic: evict the compatible active
            # interval that ends furthest away if it outlasts the current one
            candidates = [
                other
                for other in active
                if other.end > interval.end
                and (interval.crosses_call <= (allocation.reg_of[other.vreg] in S_REGS))
            ]
            if candidates:
                victim = max(candidates, key=lambda iv: iv.end)
                reg = allocation.reg_of.pop(victim.vreg)
                allocation.spill_of[victim.vreg] = next_spill
                next_spill += 1
                active.remove(victim)
                allocation.reg_of[interval.vreg] = reg
                active.append(interval)
            else:
                allocation.spill_of[interval.vreg] = next_spill
                next_spill += 1
        else:
            allocation.reg_of[interval.vreg] = reg
            active.append(interval)

    allocation.used_callee_saved = sorted(used_s)
    return allocation
