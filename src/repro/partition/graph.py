"""The partitioning IR: candidate kernels as nodes.

The pass-manager operates on this graph, never on raw candidate lists:
one node per candidate hardware region, annotated with per-device
:class:`~repro.partition.costmodels.DeviceCost` entries and (after
placement) the chosen device name.  Overlap between candidates (nested
loops) is read from the candidates themselves where placement and
legalization need it.

``graph.assignment()`` is the product: a *total* node -> device map (every
node lands somewhere; the CPU is the fallback), which the legalize pass
keeps inside every device's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from repro.partition.costmodels import DeviceCost, device_cost
from repro.platform.devices import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.platform.platform import Platform


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


@dataclass
class PartitionGraph:
    """Everything one partitioning decision needs, in one place.

    The device views (:attr:`cpu`, :attr:`hw_devices`, :attr:`hw_spots`)
    and the overlap index (:attr:`overlapping`) are computed once per
    graph, so neither ``devices`` nor the node list may change once it is
    built.  :meth:`place` and :meth:`unplace` are the only ways to move a
    node: they keep the set of hardware-placed nodes that
    :meth:`conflicts` reads.
    """

    platform: "Platform"
    devices: tuple[DeviceSpec, ...]
    total_cycles: int
    nodes: list[PartitionNode] = field(default_factory=list)
    #: node indices in the order placement chose them; this is the order of
    #: ``PartitionResult.selected`` and of its ``area_used`` float sum
    placement_order: list[int] = field(default_factory=list)
    #: placement targets other than the CPU, in declaration order
    hw_devices: tuple[DeviceSpec, ...] = field(init=False, repr=False, compare=False)
    #: ``(name, capacity_gates)`` of each of :attr:`hw_devices`
    hw_spots: tuple[tuple[str, float], ...] = field(
        init=False, repr=False, compare=False
    )
    #: per node, the indices of the nodes its candidate overlaps -- the
    #: relation of :meth:`~repro.partition.estimator.Candidate.overlaps`:
    #: same function and a block in common, so itself too unless it has
    #: no blocks
    overlapping: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )
    #: indices of the nodes placed on a non-CPU device, kept by
    #: :meth:`place` and :meth:`unplace` (read-only elsewhere)
    placed_indices: set[int] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.hw_devices = tuple(d for d in self.devices if not d.is_cpu)
        self.hw_spots = tuple((d.name, d.capacity_gates) for d in self.hw_devices)
        regions = [
            (node.candidate.function.name, frozenset(node.candidate.profile.block_starts))
            for node in self.nodes
        ]
        self.overlapping = tuple(
            frozenset(
                j for j, (other, other_blocks) in enumerate(regions)
                if other == function and not blocks.isdisjoint(other_blocks)
            )
            for function, blocks in regions
        )

    def place(self, index: int, device: DeviceSpec | str, step: int = 0) -> None:
        """Record one placement decision (appends to the placement order)."""
        node = self.nodes[index]
        node.device = device if isinstance(device, str) else device.name
        node.step = step
        self.placement_order.append(index)
        if node.device == "cpu":
            self.placed_indices.discard(index)
        else:
            self.placed_indices.add(index)

    def unplace(self, index: int) -> None:
        """Drop a node back to software (used by legalization repair)."""
        node = self.nodes[index]
        node.device = None
        node.step = 0
        if index in self.placement_order:
            self.placement_order.remove(index)
        self.placed_indices.discard(index)

    @cached_property
    def cpu(self) -> DeviceSpec:
        for device in self.devices:
            if device.is_cpu:
                return device
        raise ValueError("device list has no CPU entry")

    def conflicts(self, index: int) -> bool:
        """True if node *index* overlaps a node placed in hardware."""
        return not self.overlapping[index].isdisjoint(self.placed_indices)

    def assignment(self) -> dict[str, str]:
        """Total node -> device-name map; unplaced nodes are software."""
        return {
            node.name: node.device if node.device is not None else "cpu"
            for node in self.nodes
        }

    def placed(self, device: DeviceSpec | str | None = None) -> list[PartitionNode]:
        """Nodes placed on *device* (default: on any non-CPU device), in
        node order."""
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
    """
    devices = tuple(devices) if devices is not None else platform.devices
    return PartitionGraph(
        platform=platform, devices=devices, total_cycles=total_cycles,
        nodes=[
            PartitionNode(candidate=c, costs={
                device.name: device_cost(platform, device, c)
                for device in devices
            })
            for c in candidates
        ],
    )
