"""Operation scheduling for behavioral synthesis.

Implements the classic trio over a basic block's DFG:

* ASAP -- earliest start respecting data/memory dependencies,
* ALAP -- latest start within the ASAP critical path (gives mobility),
* resource-constrained list scheduling -- mobility-prioritized, limited by
  the number of functional units per resource class.

Latencies are multi-cycle (divider = width cycles, multiplier = 2, BRAM
load = 2), so the schedule is in *cycles* and directly becomes the FSM's
states in the VHDL backend.

Each op is priced once per schedule (:meth:`TechnologyModel.op_costs`,
memoised on the technology model by everything a price depends on), and
the DFG's predecessor and successor lists are built once
(:meth:`Dfg.adjacency`).  List scheduling then runs over per-op arrays --
latency, unit class, delay, whether the op needs a register boundary --
with a running count of busy units per class, so a cycle costs the ops
that become ready in it rather than a scan of the whole DFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cdfg import Dfg
from repro.errors import ResourceConstraintError
from repro.synth.fpga import DEFAULT_DEVICE, FpgaDevice, OpCost, TechnologyModel


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

    def __post_init__(self) -> None:
        for name in ("alu", "mul", "mem", "div"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"{name} units must be a non-negative int, got {value!r}"
                )

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


def _latencies(costs: list[OpCost]) -> dict[int, int]:
    return {index: cost.cycles for index, cost in enumerate(costs)}


def _asap(latency: dict[int, int], preds: list[list[int]]) -> tuple[list[int], int]:
    """ASAP start of each op, and the schedule length."""
    starts: list[int] = []
    length = 0
    for index, node_preds in enumerate(preds):  # ops are in dependency order
        earliest = 0
        for pred in node_preds:
            end = starts[pred] + latency[pred]
            if end > earliest:
                earliest = end
        starts.append(earliest)
        if earliest + latency[index] > length:
            length = earliest + latency[index]
    return starts, length


def _alap_starts(
    length: int, latency: dict[int, int], succs: list[list[int]]
) -> list[int]:
    starts = [0] * len(succs)
    for index in range(len(succs) - 1, -1, -1):
        own = latency[index]
        latest = length - own
        for succ in succs[index]:
            if starts[succ] - own < latest:
                latest = starts[succ] - own
        starts[index] = latest if latest > 0 else 0
    return starts


def asap_schedule(
    dfg: Dfg, tech: TechnologyModel | None = None, localized: bool = True
) -> Schedule:
    tech = tech or TechnologyModel()
    latency = _latencies(tech.op_costs(dfg.ops, localized))
    starts, length = _asap(latency, dfg.adjacency()[0])
    return Schedule(dict(enumerate(starts)), latency, length)


def alap_schedule(
    dfg: Dfg,
    length: int | None = None,
    tech: TechnologyModel | None = None,
    localized: bool = True,
) -> Schedule:
    tech = tech or TechnologyModel()
    latency = _latencies(tech.op_costs(dfg.ops, localized))
    preds, succs = dfg.adjacency()
    if length is None:
        length = _asap(latency, preds)[1]
    starts = _alap_starts(length, latency, succs)
    return Schedule(
        {i: starts[i] for i in range(len(starts) - 1, -1, -1)}, latency, length
    )


def list_schedule(
    dfg: Dfg,
    constraints: ResourceConstraints | None = None,
    tech: TechnologyModel | None = None,
    localized: bool = True,
    device: FpgaDevice = DEFAULT_DEVICE,
) -> Schedule:
    """Mobility-prioritized, chaining-aware list scheduling.

    Operator *chaining* packs dependent single-cycle operations into the
    same cycle as long as their accumulated combinational delay fits the
    clock period on *device* (set by the slowest single-cycle stage or the
    device's clock ceiling) minus register overhead.  This is what real
    behavioral synthesis does -- a shift feeding an AND feeding an OR is one
    cycle of wiring and LUTs, not three FSM states.  Multi-cycle units
    (multiplier, divider, BRAM) always start at a register boundary.

    Each cycle fills in rounds: a round takes the ops that became ready
    (every predecessor placed; a multi-cycle predecessor finished, a
    single-cycle one at most chained) in ``(mobility, index)`` order and
    places each one that has a free unit and fits the chain budget.  An op
    a round passes over stays unplaceable for the rest of the cycle --
    units only fill up and its chain arrival is fixed -- so the next round
    looks only at the ops the round just enabled.
    """
    tech = tech or TechnologyModel()
    costs = tech.op_costs(dfg.ops, localized)
    return list_schedule_priced(
        dfg, costs, constraints or ResourceConstraints(),
        tech.chain_budget_of(costs, device),
    )


def list_schedule_priced(
    dfg: Dfg,
    costs: list[OpCost],
    constraints: ResourceConstraints,
    chain_budget: float,
) -> Schedule:
    """:func:`list_schedule` of *dfg*, whose ops cost *costs*, chaining
    under *chain_budget* nanoseconds per cycle."""
    count = len(dfg.ops)
    if count == 0:
        return Schedule()
    latency: dict[int, int] = {}
    klass: list[str] = []
    delay: list[float] = []
    # a multi-cycle unit (or any multiplier, divider, memory port) starts at
    # a register boundary: it takes no chained inputs
    registered: list[bool] = []
    limit: dict[str, int] = {}
    for index, cost in enumerate(costs):
        name = cost.unit_class
        if name not in limit:
            limit[name] = constraints.limit(name)
        if limit[name] <= 0:
            raise ResourceConstraintError(
                f"no units of class {name!r} available for {dfg.ops[index]}"
            )
        latency[index] = cost.cycles
        klass.append(name)
        delay.append(cost.delay_ns)
        registered.append(cost.cycles > 1 or name in ("mem", "mul", "div"))

    preds, succs = dfg.adjacency()
    asap, length = _asap(latency, preds)
    alap = _alap_starts(length, latency, succs)
    # ready ops go in (mobility, index) order, which is the order of
    # mobility * count + index, as 0 <= index < count
    priority = [
        (alap[index] - asap[index]) * count + index for index in range(count)
    ]
    # a class with at least as many units as ops can never run out
    scarce = [limit[name] < count for name in klass]

    schedule = Schedule(latency=latency)
    start = schedule.start_cycle
    finish_ns = [0.0] * count        # combinational completion within cycle
    waiting = [len(p) for p in preds]  # predecessors not yet placed
    earliest = [0] * count           # first cycle every multi-cycle pred is done
    pending = [index for index in range(count) if not waiting[index]]
    busy = dict.fromkeys(limit, 0)   # units occupied in the current cycle
    releases: dict[int, list[str]] = {}  # cycle -> classes freed then
    placed = 0
    cycle = 0
    while placed < count:
        if cycle > 100_000:  # pragma: no cover - defensive
            raise ResourceConstraintError("list scheduler failed to converge")
        for name in releases.pop(cycle, ()):
            busy[name] -= 1
        later = []
        ready = []
        for index in pending:
            (ready if earliest[index] <= cycle else later).append(index)
        pending = later
        while ready:
            ready.sort(key=priority.__getitem__)
            enabled = []
            for index in ready:
                name = klass[index]
                if scarce[index] and busy[name] >= limit[name]:
                    pending.append(index)
                    continue
                arrival = 0.0
                for pred in preds[index]:
                    if start[pred] == cycle and latency[pred] == 1 \
                            and finish_ns[pred] > arrival:
                        arrival = finish_ns[pred]
                if registered[index]:
                    if arrival > 0.0:
                        pending.append(index)
                        continue
                    finish = delay[index]
                elif arrival + delay[index] > chain_budget:
                    pending.append(index)  # past the clock period; wait a cycle
                    continue
                else:
                    finish = arrival + delay[index]
                start[index] = cycle
                finish_ns[index] = finish
                placed += 1
                end = cycle + latency[index]
                if scarce[index]:
                    busy[name] += 1
                    releases.setdefault(end, []).append(name)
                multi_cycle = end > cycle + 1
                for succ in succs[index]:
                    if multi_cycle and end > earliest[succ]:
                        earliest[succ] = end
                    waiting[succ] -= 1
                    if not waiting[succ]:
                        # ready now only if chained to this cycle's ops
                        (enabled if earliest[succ] <= cycle else pending).append(succ)
            ready = enabled
        cycle += 1
    schedule.length = max(start[i] + latency[i] for i in range(count))
    return schedule
