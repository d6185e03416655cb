"""The partitioning IR: candidate kernels as nodes, structure as edges.

The pass-manager operates on this graph, never on raw candidate lists:

* **nodes** -- one per candidate hardware region, annotated with per-device
  :class:`~repro.partition.costmodels.DeviceCost` entries and (after
  placement) the chosen device name,
* **overlap edges** -- two candidates share blocks (nested loops); they can
  never both be implemented,
* **alias edges** -- two candidates touch the same memory symbols (from the
  decompiler's loop footprints); the 90-10 algorithm's step 2 pulls
  alias-coupled regions into hardware together.

``graph.assignment()`` is the product: a *total* node -> device map (every
node lands somewhere; the CPU is the fallback), which the legalize pass
keeps inside every device's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.partition.costmodels import DeviceCost, device_cost
from repro.platform.devices import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.platform.platform import Platform

OVERLAP = "overlap"
ALIAS = "alias"


@dataclass
class PartitionNode:
    """One candidate kernel in the partition graph."""

    candidate: "Candidate"
    #: device name -> implementation cost, one entry per graph device
    #: (filled from the cost-model registry by :func:`build_graph`)
    costs: dict[str, DeviceCost] = field(default_factory=dict)
    #: where placement put this node (None until a placement pass ran;
    #: "cpu" means stay in software)
    device: str | None = None
    #: which algorithm step chose the node (90-10's 1/2/3; 0 otherwise)
    step: int = 0
    #: set by the filter pass: excluded from placement (stays software)
    pruned: bool = False

    @property
    def name(self) -> str:
        return self.candidate.name

    def cost_on(self, device: DeviceSpec | str) -> DeviceCost:
        name = device if isinstance(device, str) else device.name
        return self.costs[name]

    def saved_on(self, device: DeviceSpec | str) -> float:
        """Seconds saved by implementing this node on *device* vs the CPU."""
        return self.costs["cpu"].seconds - self.cost_on(device).seconds

    def area_on(self, device: DeviceSpec | str) -> float:
        return self.cost_on(device).area_gates


@dataclass(frozen=True)
class PartitionEdge:
    """An undirected relation between two nodes (by node index)."""

    kind: str   # OVERLAP | ALIAS
    a: int
    b: int
    #: shared memory symbols (alias edges only)
    symbols: frozenset[str] = frozenset()


@dataclass
class PartitionGraph:
    """Everything one partitioning decision needs, in one place."""

    platform: "Platform"
    devices: tuple[DeviceSpec, ...]
    total_cycles: int
    nodes: list[PartitionNode] = field(default_factory=list)
    edges: list[PartitionEdge] = field(default_factory=list)
    #: node indices in the order placement chose them; this is the order of
    #: ``PartitionResult.selected`` and of its ``area_used`` float sum
    placement_order: list[int] = field(default_factory=list)

    def place(self, index: int, device: DeviceSpec | str, step: int = 0) -> None:
        """Record one placement decision (appends to the placement order)."""
        node = self.nodes[index]
        node.device = device if isinstance(device, str) else device.name
        node.step = step
        self.placement_order.append(index)

    def unplace(self, index: int) -> None:
        """Drop a node back to software (used by legalization repair)."""
        node = self.nodes[index]
        node.device = None
        node.step = 0
        if index in self.placement_order:
            self.placement_order.remove(index)

    @property
    def cpu(self) -> DeviceSpec:
        for device in self.devices:
            if device.is_cpu:
                return device
        raise ValueError("device list has no CPU entry")

    @property
    def hw_devices(self) -> tuple[DeviceSpec, ...]:
        """Placement targets other than the CPU, in declaration order."""
        return tuple(d for d in self.devices if not d.is_cpu)

    def device_named(self, name: str) -> DeviceSpec:
        for device in self.devices:
            if device.name == name:
                return device
        raise KeyError(name)

    def edges_of(self, index: int, kind: str | None = None) -> list[PartitionEdge]:
        return [
            e for e in self.edges
            if index in (e.a, e.b) and (kind is None or e.kind == kind)
        ]

    def assignment(self) -> dict[str, str]:
        """Total node -> device-name map; unplaced nodes are software."""
        return {
            node.name: node.device if node.device is not None else "cpu"
            for node in self.nodes
        }

    def placed(self, device: DeviceSpec | str | None = None) -> list[PartitionNode]:
        """Nodes placed on *device* (default: on any non-CPU device)."""
        if device is None:
            return [
                n for n in self.nodes
                if n.device is not None and n.device != "cpu"
            ]
        name = device if isinstance(device, str) else device.name
        return [n for n in self.nodes if n.device == name]

    def area_used(self, device: DeviceSpec | str) -> float:
        name = device if isinstance(device, str) else device.name
        return sum(n.area_on(name) for n in self.placed(name))


def _footprint_symbols(candidate: "Candidate") -> frozenset[str]:
    footprint = candidate.function.loop_footprints.get(
        candidate.profile.header_address
    )
    if footprint is None:
        return frozenset()
    return frozenset(footprint.symbols)


def build_graph(
    candidates: Iterable["Candidate"],
    platform: "Platform",
    devices: tuple[DeviceSpec, ...] | None = None,
    total_cycles: int = 0,
) -> PartitionGraph:
    """Lower a candidate list onto the partition graph.

    Nodes keep the candidates' hotness order (the estimator sorts by
    software cycles) and carry every device's cost from the cost-model
    registry -- the one place a candidate's time and area are computed.
    Overlap and alias edges are derived from the candidates' block sets
    and memory footprints.
    """
    devices = tuple(devices) if devices is not None else platform.devices
    graph = PartitionGraph(
        platform=platform, devices=devices, total_cycles=total_cycles,
        nodes=[
            PartitionNode(candidate=c, costs={
                device.name: device_cost(platform, device, c)
                for device in devices
            })
            for c in candidates
        ],
    )
    symbols = [_footprint_symbols(n.candidate) for n in graph.nodes]
    for i, node in enumerate(graph.nodes):
        for j in range(i + 1, len(graph.nodes)):
            other = graph.nodes[j]
            if node.candidate.overlaps(other.candidate):
                graph.edges.append(PartitionEdge(kind=OVERLAP, a=i, b=j))
                continue
            shared = symbols[i] & symbols[j]
            if shared:
                graph.edges.append(
                    PartitionEdge(kind=ALIAS, a=i, b=j, symbols=shared)
                )
    return graph
