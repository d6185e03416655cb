"""Capacity and overlap legality: the one shared implementation.

:func:`graph_feasible` and :func:`repair_graph` are what the legalize pass
runs after every placement algorithm.  Repair policy: keep placements in
descending saved-seconds order, dropping to software anything that no
longer fits its device or overlaps a kept node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.graph import PartitionGraph


def graph_feasible(graph: "PartitionGraph") -> bool:
    """Every device within capacity, no two placed nodes overlapping."""
    for device in graph.hw_devices:
        placed = graph.placed(device)
        area = sum(node.area_on(device) for node in placed)
        if area > device.capacity_gates:
            return False
    placed = graph.placed_indices
    return all(graph.overlapping[i] & placed <= {i} for i in placed)


def repair_graph(graph: "PartitionGraph") -> int:
    """Re-legalize a placed graph in place; returns how many placements
    were dropped back to software.

    Placements are revisited in descending saved-seconds order (each node
    judged on its assigned device) and kept only while their device stays
    within capacity and no kept node overlaps them.
    """
    order = list(graph.placement_order)
    order.sort(key=lambda i: -graph.nodes[i].saved_on(graph.nodes[i].device))
    used: dict[str, float] = {d.name: 0.0 for d in graph.hw_devices}
    capacity: dict[str, float] = {
        d.name: d.capacity_gates for d in graph.hw_devices
    }
    kept: list[int] = []
    dropped: list[int] = []
    for index in order:
        node = graph.nodes[index]
        device = node.device
        area = node.area_on(device)
        if used[device] + area <= capacity[device] \
                and graph.overlapping[index].isdisjoint(kept):
            kept.append(index)
            used[device] += area
        else:
            dropped.append(index)
    for index in dropped:
        graph.unplace(index)
    graph.placement_order[:] = kept
    return len(dropped)
