"""Property tests for N-device placement.

Seeded random candidate sets drive every placement algorithm over
multi-device platforms (CPU + 2-3 fabric regions, optionally a CGRA slot),
asserting the invariants every pipeline run must hold:

* per-device capacity is respected after legalization,
* the assignment map is total -- every candidate lands on a device or
  "cpu", no orphans,
* no two placed candidates overlap,
* legalization repairs a deliberately infeasible placement.
"""

from __future__ import annotations

import random

import pytest

from repro.partition import legalize
from repro.partition.api import partition
from repro.partition.graph import build_graph
from repro.partition.placement import PLACEMENTS
from repro.platform.devices import cgra_device, cpu_device, fabric_device
from repro.platform.platform import Platform
from repro.synth.fpga import FpgaDevice

from tests.partition.test_baseline_properties import (
    _random_candidates,
    rng_size,
)


def _platform(seed: int) -> Platform:
    rng = random.Random(seed * 7919)
    capacity = rng.choice([9_000, 25_000, 60_000, 100_000])
    device = FpgaDevice(f"prop{capacity}", capacity, 48 * 1024, 210.0)
    return Platform(name=f"prop-{capacity}", cpu_clock_mhz=200.0, device=device)


def _device_list(seed: int, platform: Platform):
    """CPU + 2-3 uneven fabric regions, sometimes a CGRA slot."""
    rng = random.Random(seed * 104729)
    regions = rng.randint(2, 3)
    devices = [cpu_device(platform.cpu_clock_mhz)]
    for i in range(regions):
        devices.append(
            fabric_device(
                i,
                platform.capacity_gates * rng.uniform(0.2, 0.7),
                platform.device.max_clock_mhz,
            )
        )
    if rng.random() < 0.5:
        devices.append(
            cgra_device(0, platform.capacity_gates * rng.uniform(0.2, 0.5))
        )
    return tuple(devices)


@pytest.mark.parametrize("algorithm", sorted(PLACEMENTS))
@pytest.mark.parametrize("seed", range(8))
class TestMultiDevicePlacement:
    def _run(self, seed, algorithm):
        candidates = _random_candidates(seed, n=rng_size(seed))
        platform = _platform(seed)
        devices = _device_list(seed, platform)
        total_cycles = sum(c.profile.sw_cycles for c in candidates) or 1
        outcome = partition(
            candidates, devices, platform=platform,
            total_cycles=total_cycles, passes=algorithm,
        )
        return candidates, devices, outcome

    def test_per_device_capacity(self, seed, algorithm):
        _, devices, outcome = self._run(seed, algorithm)
        for device in devices:
            if device.is_cpu:
                continue
            used = outcome.graph.area_used(device)
            assert used <= device.capacity_gates + 1e-9, device.name

    def test_assignment_is_total(self, seed, algorithm):
        candidates, devices, outcome = self._run(seed, algorithm)
        names = {d.name for d in devices} | {"cpu"}
        assignment = outcome.placements
        assert set(assignment) == {c.name for c in candidates}  # no orphans
        assert set(assignment.values()) <= names

    def test_no_overlapping_placements(self, seed, algorithm):
        _, _, outcome = self._run(seed, algorithm)
        placed = outcome.graph.placed()
        for i, a in enumerate(placed):
            for b in placed[i + 1:]:
                assert not a.candidate.overlaps(b.candidate)

    def test_result_area_accounts_selected(self, seed, algorithm):
        _, _, outcome = self._run(seed, algorithm)
        result = outcome.result
        assert result.area_used == pytest.approx(
            sum(
                outcome.graph.nodes[i].area_on(outcome.graph.nodes[i].device)
                for i in outcome.graph.placement_order
            )
        )
        assert set(result.names) == {
            n for n, d in result.placements.items() if d != "cpu"
        }


@pytest.mark.parametrize("seed", range(8))
def test_legalize_repairs_infeasible_placement(seed):
    """Cram everything onto one undersized region; legalization must end
    feasible and keep only non-overlapping placements within capacity."""
    candidates = _random_candidates(seed, n=8)
    platform = _platform(seed)
    devices = (
        cpu_device(platform.cpu_clock_mhz),
        fabric_device(0, 10_000.0, platform.device.max_clock_mhz),
        fabric_device(1, 10_000.0, platform.device.max_clock_mhz),
    )
    graph = build_graph(candidates, platform, devices=devices,
                        total_cycles=1_000_000)
    for index in range(len(graph.nodes)):
        graph.place(index, devices[1])
    assert not legalize.graph_feasible(graph)
    dropped = legalize.repair_graph(graph)
    assert dropped > 0
    assert legalize.graph_feasible(graph)
    placed = graph.placed()
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            assert not a.candidate.overlaps(b.candidate)
    assert graph.area_used(devices[1]) <= devices[1].capacity_gates


def test_repair_prefers_higher_savings():
    """When two placements conflict, repair keeps the one saving more."""
    candidates = _random_candidates(3, n=6)
    platform = _platform(3)
    devices = (
        cpu_device(platform.cpu_clock_mhz),
        fabric_device(0, 1e12, platform.device.max_clock_mhz),
    )
    graph = build_graph(candidates, platform, devices=devices,
                        total_cycles=1_000_000)
    for index in range(len(graph.nodes)):
        graph.place(index, devices[1])
    legalize.repair_graph(graph)
    kept = {n.name for n in graph.placed()}
    for node in graph.nodes:
        if node.name in kept:
            continue
        # every dropped node overlaps some kept node that saves >= as much
        rivals = [
            k for k in graph.placed()
            if k.candidate.overlaps(node.candidate)
        ]
        assert rivals
        # capacity is unbounded, so the only drop reason is overlap, and
        # repair visits placements in descending saved order
        assert max(r.saved_on("fabric0") for r in rivals) >= node.saved_on("fabric0")


@pytest.mark.parametrize("seed", range(8))
def test_overlap_index_and_conflicts_follow_the_candidates(seed):
    """The graph's overlap index is the candidates' pairwise overlap
    relation, and ``conflicts`` tracks every place/unplace."""
    candidates = _random_candidates(seed, n=8)
    platform = _platform(seed)
    devices = _device_list(seed, platform)
    graph = build_graph(candidates, platform, devices=devices,
                        total_cycles=1_000_000)
    for i, a in enumerate(candidates):
        assert graph.overlapping[i] == {
            j for j, b in enumerate(candidates) if a.overlaps(b)
        }
    assert graph.hw_devices == tuple(d for d in devices if not d.is_cpu)
    assert graph.hw_spots == tuple(
        (d.name, d.capacity_gates) for d in graph.hw_devices
    )

    def rescan(index: int) -> bool:
        return any(candidates[index].overlaps(n.candidate) for n in graph.placed())

    rng = random.Random(seed)
    for _ in range(24):
        index = rng.randrange(len(candidates))
        action = rng.choice(("hw", "cpu", "unplace"))
        if action == "hw":
            graph.place(index, devices[1])
        elif action == "cpu":
            graph.place(index, "cpu")
        else:
            graph.unplace(index)
        for i in range(len(candidates)):
            assert graph.conflicts(i) == rescan(i)
