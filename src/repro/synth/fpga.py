"""Xilinx Virtex-II technology model.

Substitutes for running Xilinx ISE on generated VHDL: per-operator
equivalent-gate areas and combinational delays, width-scaled the way the
paper's *operator size reduction* expects (an 8-bit adder is a quarter of a
32-bit one), plus the device capacity table used as the partitioner's area
constraint.

The constants are calibrated against classic synthesis folklore (ripple
adders ~10 gates/bit, array multipliers ~10 gates/bit^2, Virtex-II -5 carry
chains ~0.05 ns/bit) -- good enough to reproduce *relative* behaviour: who
wins, what dominates area, where the clock lands.  Absolute gate counts are
reported as "equivalent logic gates" exactly like the paper's Table data
(avg 26,261 gates across its benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.decompile.microop import Imm, MicroOp, Opcode

_SHIFTS = (Opcode.SHL, Opcode.SHR, Opcode.SAR)


@dataclass(frozen=True)
class FpgaDevice:
    """One device of the hypothetical platform's FPGA family."""

    name: str
    capacity_gates: int     # usable equivalent logic gates
    bram_bytes: int         # on-chip block RAM available for localized data
    max_clock_mhz: float    # device ceiling regardless of datapath


#: Virtex-II family (capacities follow the marketing "system gates" scaled
#: to a usable-logic estimate; BRAM sizes from the data sheet)
VIRTEX2_DEVICES: dict[str, FpgaDevice] = {
    "xc2v40": FpgaDevice("xc2v40", 18_000, 8 * 1024, 210.0),
    "xc2v250": FpgaDevice("xc2v250", 100_000, 48 * 1024, 210.0),
    "xc2v1000": FpgaDevice("xc2v1000", 400_000, 80 * 1024, 210.0),
    "xc2v4000": FpgaDevice("xc2v4000", 1_600_000, 216 * 1024, 210.0),
}

DEFAULT_DEVICE = VIRTEX2_DEVICES["xc2v250"]


@dataclass(frozen=True)
class OpCost:
    """Synthesis cost of one operation instance."""

    area_gates: float
    delay_ns: float   # per-cycle combinational delay
    cycles: int       # pipeline latency in cycles
    unit_class: str   # resource class for scheduling ('alu','mul','mem','div','wire')


class TechnologyModel:
    """Maps micro-ops (with bit-width annotations) to area/delay/latency."""

    #: register cost per bit (a slice flip-flop pair, routing included)
    REGISTER_GATES_PER_BIT = 8.0
    #: 2-to-1 mux cost per bit; an n-input mux costs (n-1) of these
    MUX_GATES_PER_BIT = 3.0
    #: FSM controller: per-state and base costs
    CONTROLLER_BASE_GATES = 120.0
    CONTROLLER_GATES_PER_STATE = 14.0
    #: clock overhead: register clk->q + setup + routing slack (ns)
    CLOCK_OVERHEAD_NS = 1.6
    #: memory interface latencies
    BRAM_ACCESS_NS = 3.0
    BUS_ACCESS_CYCLES = 4  # non-localized access through the system bus

    def __init__(self) -> None:
        #: priced costs by (opcode, width, shift by immediate, localized):
        #: all that :meth:`op_cost` reads of an op
        self._costs: dict[tuple, OpCost] = {}

    def op_cost(self, op: MicroOp, localized_memory: bool = True) -> OpCost:
        return self.op_costs((op,), localized_memory)[0]

    def _price(
        self, code: Opcode, width: int, constant_shift: bool, localized_memory: bool
    ) -> OpCost:
        width = max(1, min(32, width))
        if code in (Opcode.CONST, Opcode.MOVE):
            return OpCost(0.0, 0.15, 1, "wire")
        if code in (Opcode.ADD, Opcode.SUB):
            return OpCost(10.0 * width, 1.4 + 0.05 * width, 1, "alu")
        if code in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR):
            # single-LUT-level logic: cheaper than the multiplexer needed to
            # share it, so instances are never shared ('logic' class is
            # unconstrained in scheduling; area is charged per instance)
            return OpCost(2.5 * width, 0.9, 1, "logic")
        if code in (Opcode.LT, Opcode.LTU):
            return OpCost(6.0 * width, 1.4 + 0.05 * width, 1, "alu")
        if code in _SHIFTS:
            if constant_shift:
                return OpCost(0.0, 0.15, 1, "wire")  # constant shift = wiring
            return OpCost(11.0 * width, 2.6, 1, "alu")  # barrel shifter
        if code is Opcode.MUL:
            # two pipeline stages on embedded MULT18x18-style resources
            return OpCost(10.0 * width * width / 2.0, 5.6, 2, "mul")
        if code in (Opcode.MULHI, Opcode.MULHIU):
            return OpCost(10.0 * width * width / 2.0, 5.6, 2, "mul")
        if code in (Opcode.DIV, Opcode.DIVU, Opcode.REM, Opcode.REMU):
            # serial non-restoring divider: one bit per cycle
            return OpCost(28.0 * width + 700.0, 2.2, width, "div")
        if code is Opcode.LOAD:
            if localized_memory:
                return OpCost(60.0, self.BRAM_ACCESS_NS, 2, "mem")
            return OpCost(120.0, self.BRAM_ACCESS_NS, self.BUS_ACCESS_CYCLES, "mem")
        if code is Opcode.STORE:
            if localized_memory:
                return OpCost(40.0, self.BRAM_ACCESS_NS, 1, "mem")
            return OpCost(90.0, self.BRAM_ACCESS_NS, self.BUS_ACCESS_CYCLES, "mem")
        # control ops have no datapath cost
        return OpCost(0.0, 0.0, 1, "wire")

    def op_costs(self, ops: list[MicroOp], localized_memory: bool = True) -> list[OpCost]:
        """:meth:`op_cost` of each op of *ops*, in order."""
        known = self._costs
        costs = []
        for op in ops:
            code = op.opcode
            key = (code, op.width, code in _SHIFTS and isinstance(op.b, Imm),
                   localized_memory)
            cost = known.get(key)
            if cost is None:
                cost = known[key] = self._price(*key)
            costs.append(cost)
        return costs

    def clock_period_ns(self, ops: list[MicroOp], localized_memory: bool = True) -> float:
        """Achievable clock period: slowest single-cycle stage + overhead."""
        return self.period_of(self.op_costs(ops, localized_memory))

    def clock_mhz(
        self,
        ops: list[MicroOp],
        device: FpgaDevice = DEFAULT_DEVICE,
        localized_memory: bool = True,
    ) -> float:
        return self.clock_mhz_of(self.op_costs(ops, localized_memory), device)

    def chain_budget_ns(
        self,
        ops: list[MicroOp],
        device: FpgaDevice = DEFAULT_DEVICE,
        localized_memory: bool = True,
    ) -> float:
        """Combinational time available inside one cycle for operator
        chaining: the achievable clock period minus register overhead.
        When every op is fast the device clock ceiling sets the period, so
        several LUT levels fit in a cycle."""
        return self.chain_budget_of(self.op_costs(ops, localized_memory), device)

    # the same three figures from already-priced ops (:meth:`op_costs`)

    def period_of(self, costs: Iterable[OpCost]) -> float:
        worst = 1.0
        for cost in costs:
            if cost.delay_ns > worst:
                worst = cost.delay_ns
        return worst + self.CLOCK_OVERHEAD_NS

    def clock_mhz_of(
        self, costs: Iterable[OpCost], device: FpgaDevice = DEFAULT_DEVICE
    ) -> float:
        return min(1000.0 / self.period_of(costs), device.max_clock_mhz)

    def chain_budget_of(
        self, costs: Iterable[OpCost], device: FpgaDevice = DEFAULT_DEVICE
    ) -> float:
        period = 1000.0 / self.clock_mhz_of(costs, device)
        return max(period - self.CLOCK_OVERHEAD_NS, 0.1)

    def register_gates(self, bits: int) -> float:
        return self.REGISTER_GATES_PER_BIT * bits

    def mux_gates(self, inputs: int, width: int) -> float:
        if inputs <= 1:
            return 0.0
        return self.MUX_GATES_PER_BIT * (inputs - 1) * width

    def controller_gates(self, states: int) -> float:
        return self.CONTROLLER_BASE_GATES + self.CONTROLLER_GATES_PER_STATE * states
