"""Loop pipelining: initiation-interval estimation.

The hardware time model for a pipelined loop is

    cycles = iterations * II + (schedule_length - II)     (fill/drain)

with II bounded below by resources (ops per class / units per class) and by
recurrences (loop-carried dependence cycles: an accumulator's add must
finish before the next iteration's add may start).  The recurrence bound is
computed exactly on the body DFG: for each location that is both consumed
from the previous iteration and redefined (loop-carried), take the longest
latency path from any consumer of the carried value to its redefinition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decompile.cdfg import Dfg
from repro.errors import ResourceConstraintError
from repro.synth.fpga import OpCost, TechnologyModel
from repro.synth.scheduling import ResourceConstraints


@dataclass(frozen=True)
class IiEstimate:
    ii: int
    resource_bound: int
    recurrence_bound: int


def _longest_paths_to(
    succs: list[list[int]], target: int, latency: list[int]
) -> dict[int, int]:
    """Longest latency path from each node to *target* (latency of path
    includes the source node's latency, excludes the target's)."""
    memo: dict[int, int] = {target: 0}
    # nodes are topologically ordered by construction (program order)
    for node in range(len(succs) - 1, -1, -1):
        if node == target:
            continue
        best = None
        for succ in succs[node]:
            if succ in memo:
                candidate = latency[node] + memo[succ]
                if best is None or candidate > best:
                    best = candidate
        if best is not None:
            memo[node] = best
    return memo


def initiation_interval(
    dfg: Dfg,
    constraints: ResourceConstraints | None = None,
    tech: TechnologyModel | None = None,
    localized: bool = True,
) -> IiEstimate:
    """The II bounds of *dfg* as a loop body.

    Raises :class:`~repro.errors.ResourceConstraintError` when an op needs a
    unit class that *constraints* gives no units, as
    :func:`~repro.synth.scheduling.list_schedule` does.
    """
    tech = tech or TechnologyModel()
    return initiation_interval_priced(
        dfg, tech.op_costs(dfg.ops, localized), constraints or ResourceConstraints()
    )


def initiation_interval_priced(
    dfg: Dfg, costs: list[OpCost], constraints: ResourceConstraints
) -> IiEstimate:
    """:func:`initiation_interval` of *dfg*, whose ops cost *costs*."""
    if not dfg.ops:
        return IiEstimate(1, 1, 1)

    latency = [cost.cycles for cost in costs]

    # resource bound: pipelined units (ALUs, multipliers, memory ports)
    # accept one new operation per cycle regardless of latency, so they are
    # charged issue slots; the serial divider is not pipelined and blocks
    # its unit for its full latency
    counts: dict[str, int] = {}
    for index, cost in enumerate(costs):
        klass = cost.unit_class
        if klass in ("wire", "logic"):
            continue  # unconstrained classes never bound the II
        if constraints.limit(klass) <= 0:
            raise ResourceConstraintError(
                f"no units of class {klass!r} available for {dfg.ops[index]}"
            )
        slots = latency[index] if klass == "div" else 1
        counts[klass] = counts.get(klass, 0) + slots
    resource_bound = 1
    for klass, slots_needed in counts.items():
        limit = constraints.limit(klass)
        resource_bound = max(resource_bound, -(-slots_needed // limit))

    # recurrence bound: carried locations = inputs that are also redefined
    recurrence_bound = 1
    last_def: dict = {}
    for index, op in enumerate(dfg.ops):
        if op.dst is not None:
            last_def[op.dst] = index
    carried = [loc for loc in dfg.inputs if loc in last_def]
    succs = dfg.adjacency()[1]
    for loc in carried:
        def_node = last_def[loc]
        paths = _longest_paths_to(succs, def_node, latency)
        # consumers of the carried value: nodes that read loc before its redef
        for index, op in enumerate(dfg.ops):
            if index > def_node:
                break
            if loc in op.uses() and index in paths:
                cycle_length = paths[index] + latency[def_node]
                recurrence_bound = max(recurrence_bound, cycle_length)
            if op.dst == loc and index == def_node:
                break

    return IiEstimate(
        ii=max(resource_bound, recurrence_bound),
        resource_bound=resource_bound,
        recurrence_bound=recurrence_bound,
    )
