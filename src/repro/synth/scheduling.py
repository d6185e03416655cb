"""Operation scheduling for behavioral synthesis.

Implements the classic trio over a basic block's DFG:

* ASAP -- earliest start respecting data/memory dependencies,
* ALAP -- latest start within the ASAP critical path (gives mobility),
* resource-constrained list scheduling -- mobility-prioritized, limited by
  the number of functional units per resource class.

Latencies are multi-cycle (divider = width cycles, multiplier = 2, BRAM
load = 2), so the schedule is in *cycles* and directly becomes the FSM's
states in the VHDL backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cdfg import Dfg
from repro.errors import ResourceConstraintError
from repro.synth.fpga import TechnologyModel


@dataclass(frozen=True)
class ResourceConstraints:
    """Functional-unit budget per resource class.

    'wire' (constant shifts, moves) and 'logic' (and/or/xor/nor -- cheaper
    than the mux that would share them) are unconstrained.
    """

    alu: int = 6
    mul: int = 2
    mem: int = 2   # BRAM is dual-ported
    div: int = 1

    def limit(self, unit_class: str) -> int:
        if unit_class in ("wire", "logic"):
            return 10**9
        return getattr(self, unit_class)


@dataclass
class Schedule:
    """Result of scheduling one DFG."""

    start_cycle: dict[int, int] = field(default_factory=dict)  # node -> cycle
    latency: dict[int, int] = field(default_factory=dict)      # node -> cycles
    length: int = 0  # total schedule length in cycles


def _latencies(dfg: Dfg, tech: TechnologyModel, localized: bool) -> dict[int, int]:
    return {
        index: tech.op_cost(op, localized).cycles
        for index, op in enumerate(dfg.ops)
    }


def _predecessors(dfg: Dfg) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {index: [] for index in range(len(dfg.ops))}
    for edge in dfg.edges:
        preds[edge.dst].append(edge.src)
    return preds


def asap_schedule(
    dfg: Dfg, tech: TechnologyModel | None = None, localized: bool = True
) -> Schedule:
    tech = tech or TechnologyModel()
    latency = _latencies(dfg, tech, localized)
    preds = _predecessors(dfg)
    schedule = Schedule(latency=latency)
    for index in range(len(dfg.ops)):  # ops are in dependency order
        earliest = 0
        for pred in preds[index]:
            earliest = max(earliest, schedule.start_cycle[pred] + latency[pred])
        schedule.start_cycle[index] = earliest
    schedule.length = max(
        (schedule.start_cycle[i] + latency[i] for i in range(len(dfg.ops))),
        default=0,
    )
    return schedule


def alap_schedule(
    dfg: Dfg,
    length: int | None = None,
    tech: TechnologyModel | None = None,
    localized: bool = True,
) -> Schedule:
    tech = tech or TechnologyModel()
    latency = _latencies(dfg, tech, localized)
    if length is None:
        length = asap_schedule(dfg, tech, localized).length
    succs: dict[int, list[int]] = {index: [] for index in range(len(dfg.ops))}
    for edge in dfg.edges:
        succs[edge.src].append(edge.dst)
    schedule = Schedule(latency=latency, length=length)
    for index in range(len(dfg.ops) - 1, -1, -1):
        latest = length - latency[index]
        for succ in succs[index]:
            latest = min(latest, schedule.start_cycle[succ] - latency[index])
        schedule.start_cycle[index] = max(0, latest)
    return schedule


def list_schedule(
    dfg: Dfg,
    constraints: ResourceConstraints | None = None,
    tech: TechnologyModel | None = None,
    localized: bool = True,
) -> Schedule:
    """Mobility-prioritized, chaining-aware list scheduling.

    Operator *chaining* packs dependent single-cycle operations into the
    same cycle as long as their accumulated combinational delay fits the
    clock period (set by the slowest single-cycle stage).  This is what
    real behavioral synthesis does -- a shift feeding an AND feeding an OR
    is one cycle of wiring and LUTs, not three FSM states.  Multi-cycle
    units (multiplier, divider, BRAM) always start at a register boundary.
    """
    tech = tech or TechnologyModel()
    constraints = constraints or ResourceConstraints()
    count = len(dfg.ops)
    if count == 0:
        return Schedule()
    latency = _latencies(dfg, tech, localized)
    costs = {index: tech.op_cost(op, localized) for index, op in enumerate(dfg.ops)}
    unit_class = {index: cost.unit_class for index, cost in costs.items()}
    for index, klass in unit_class.items():
        if constraints.limit(klass) <= 0:
            raise ResourceConstraintError(
                f"no units of class {klass!r} available for {dfg.ops[index]}"
            )

    # chain budget: the achievable clock period (slowest stage or device
    # ceiling) minus register overhead; dependent chains fitting under it
    # share a cycle
    chain_budget = tech.chain_budget_ns(dfg.ops, localized_memory=localized)

    asap = asap_schedule(dfg, tech, localized)
    alap = alap_schedule(dfg, asap.length, tech, localized)
    mobility = {
        index: alap.start_cycle[index] - asap.start_cycle[index]
        for index in range(count)
    }
    preds = _predecessors(dfg)

    schedule = Schedule(latency=latency)
    finish_ns: dict[int, float] = {}  # combinational completion within cycle
    unscheduled = set(range(count))
    cycle = 0
    guard = 0
    while unscheduled:
        guard += 1
        if guard > 100_000:  # pragma: no cover - defensive
            raise ResourceConstraintError("list scheduler failed to converge")
        busy: dict[str, int] = {}
        for index, start in schedule.start_cycle.items():
            if start <= cycle < start + latency[index]:
                busy[unit_class[index]] = busy.get(unit_class[index], 0) + 1

        progress = True
        while progress:
            progress = False
            ready: list[tuple[int, float]] = []
            for index in unscheduled:
                arrival = 0.0
                ok = True
                for pred in preds[index]:
                    if pred not in schedule.start_cycle:
                        ok = False
                        break
                    pred_end = schedule.start_cycle[pred] + latency[pred]
                    if pred_end > cycle + 1:
                        ok = False  # pred still computing in a later cycle
                        break
                    if pred_end == cycle + 1:
                        # pred completes during *this* cycle: chaining needed
                        if schedule.start_cycle[pred] == cycle and latency[pred] == 1:
                            arrival = max(arrival, finish_ns.get(pred, 0.0))
                        else:
                            ok = False  # multi-cycle pred ends at next boundary
                            break
                if ok:
                    ready.append((index, arrival))
            ready.sort(key=lambda item: (mobility[item[0]], item[0]))
            for index, arrival in ready:
                cost = costs[index]
                klass = unit_class[index]
                if busy.get(klass, 0) >= constraints.limit(klass):
                    continue
                if latency[index] > 1 or klass in ("mem", "mul", "div"):
                    # register boundary required: no chained inputs
                    if arrival > 0.0:
                        continue
                    finish = cost.delay_ns
                elif arrival + cost.delay_ns > chain_budget:
                    continue  # would exceed the clock period; wait a cycle
                else:
                    finish = arrival + cost.delay_ns
                schedule.start_cycle[index] = cycle
                finish_ns[index] = finish
                busy[klass] = busy.get(klass, 0) + 1
                unscheduled.discard(index)
                progress = True
        cycle += 1
    schedule.length = max(
        schedule.start_cycle[i] + latency[i] for i in range(count)
    )
    return schedule
