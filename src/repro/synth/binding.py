"""Resource binding and datapath area accounting.

After scheduling, operations sharing a cycle-disjoint lifetime share a
functional unit (left-edge over start cycles per resource class).  Values
crossing cycle boundaries occupy registers; units fed from multiple sources
grow input multiplexers.  The sum -- functional units + registers + muxes +
FSM controller -- is the "equivalent logic gates" number the experiments
report, the same metric the paper reports (avg 26,261 gates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cdfg import Dfg
from repro.decompile.microop import Opcode
from repro.synth.fpga import OpCost, TechnologyModel
from repro.synth.scheduling import Schedule


@dataclass
class FunctionalUnit:
    unit_class: str
    width: int
    area_gates: float
    ops: list[int] = field(default_factory=list)  # node indices served


@dataclass
class BindingResult:
    units: list[FunctionalUnit] = field(default_factory=list)
    register_bits: int = 0
    mux_gates: float = 0.0
    unit_gates: float = 0.0
    register_gates: float = 0.0
    controller_gates: float = 0.0

    @property
    def total_gates(self) -> float:
        return (
            self.unit_gates + self.register_gates + self.mux_gates + self.controller_gates
        )


def bind(
    dfg: Dfg,
    schedule: Schedule,
    tech: TechnologyModel | None = None,
    localized: bool = True,
) -> BindingResult:
    tech = tech or TechnologyModel()
    return bind_priced(dfg, schedule, tech.op_costs(dfg.ops, localized), tech)


def bind_priced(
    dfg: Dfg, schedule: Schedule, costs: list[OpCost], tech: TechnologyModel
) -> BindingResult:
    """:func:`bind` of *dfg*, whose ops cost *costs*."""
    result = BindingResult()
    if not dfg.ops:
        result.controller_gates = tech.controller_gates(1)
        return result

    # --- functional unit binding (left edge per class) --------------------
    # 'logic' ops are deliberately unshared: a 2:1 mux costs more than the
    # gate it would save, so each instance is its own "unit" with no mux
    by_class: dict[str, list[int]] = {}
    for index, cost in enumerate(costs):
        if cost.unit_class == "wire":
            continue
        if cost.unit_class == "logic":
            result.units.append(
                FunctionalUnit("logic", max(1, min(32, dfg.ops[index].width)),
                               cost.area_gates, [index])
            )
            continue
        by_class.setdefault(cost.unit_class, []).append(index)

    start_cycle, latency = schedule.start_cycle, schedule.latency
    for unit_class, nodes in sorted(by_class.items()):
        nodes.sort(key=start_cycle.__getitem__)
        units: list[tuple[FunctionalUnit, int]] = []  # (unit, busy_until)
        for node in nodes:
            start = start_cycle[node]
            finish = start + latency[node]
            width = max(1, min(32, dfg.ops[node].width))
            placed = False
            for slot, (unit, busy_until) in enumerate(units):
                if busy_until <= start:
                    unit.ops.append(node)
                    unit.width = max(unit.width, width)
                    unit.area_gates = max(
                        unit.area_gates, costs[node].area_gates
                    )
                    units[slot] = (unit, finish)
                    placed = True
                    break
            if not placed:
                unit = FunctionalUnit(unit_class, width, costs[node].area_gates, [node])
                units.append((unit, finish))
        result.units.extend(unit for unit, _ in units)

    result.unit_gates = sum(unit.area_gates for unit in result.units)

    # --- multiplexers: one per shared-unit input -------------------------
    for unit in result.units:
        if len(unit.ops) > 1:
            # two operand ports, each muxing between len(ops) sources
            result.mux_gates += 2 * tech.mux_gates(len(unit.ops), unit.width)

    # --- registers: values alive across a cycle boundary ------------------
    register_bits = 0
    succs = dfg.adjacency()[1]
    for index, op in enumerate(dfg.ops):
        if op.dst is None:
            continue
        finish = start_cycle[index] + latency[index]
        consumers = succs[index]
        crosses = any(start_cycle[c] >= finish for c in consumers)
        live_out = not consumers  # block outputs stay in registers
        if crosses or live_out:
            register_bits += max(1, min(32, op.width))
    # block inputs arrive in registers as well
    register_bits += 32 * len(dfg.inputs)
    result.register_bits = register_bits
    result.register_gates = tech.register_gates(register_bits)

    # --- controller --------------------------------------------------------
    result.controller_gates = tech.controller_gates(max(1, schedule.length))
    return result
