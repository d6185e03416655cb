"""Pass-manager, graph-building and per-pass observability tests."""

from __future__ import annotations

import pytest

from repro import obs
from repro.partition.api import PartitionOutcome, partition
from repro.partition.costmodels import cost_model_for
from repro.partition.graph import build_graph
from repro.partition.passes import FilterPass, PartitionPass, PassManager
from repro.platform.devices import cgra_device, cpu_device, fabric_device
from repro.platform.platform import MIPS_200MHZ

from tests.partition.test_baseline_properties import _random_candidates


class TestGraphBuilding:
    @pytest.mark.parametrize("platform", [
        MIPS_200MHZ,
        # partial-reconfiguration regions are run-time residency, not
        # placement targets: placement still sees one monolithic fabric
        MIPS_200MHZ.with_regions(8),
    ], ids=["monolithic", "8-regions"])
    def test_default_devices_from_platform(self, platform):
        graph = build_graph(_random_candidates(1, 4), platform)
        assert [d.name for d in graph.devices] == ["cpu", "fabric0"]
        assert graph.cpu.is_cpu
        assert graph.hw_devices[0].capacity_gates == MIPS_200MHZ.capacity_gates

    def test_assignment_total_before_placement(self):
        candidates = _random_candidates(2, 5)
        graph = build_graph(candidates, MIPS_200MHZ)
        assignment = graph.assignment()
        assert set(assignment) == {c.name for c in candidates}
        assert set(assignment.values()) == {"cpu"}


class TestCosts:
    def test_costs_filled_for_every_device(self):
        candidates = _random_candidates(3, 4)
        devices = (
            cpu_device(200.0),
            fabric_device(0, 50_000.0, 210.0),
            cgra_device(0, 30_000.0),
        )
        graph = build_graph(candidates, MIPS_200MHZ, devices=devices)
        for node in graph.nodes:
            assert set(node.costs) == {"cpu", "fabric0", "cgra0"}
            assert node.costs["cpu"].area_gates == 0.0
            # CGRA packs tighter than fine-grained fabric
            assert (
                node.costs["cgra0"].area_gates
                < node.costs["fabric0"].area_gates
            )

    def test_unknown_kind_raises_with_help(self):
        with pytest.raises(KeyError, match="register_cost_model"):
            cost_model_for("quantum")


class TestPassManager:
    def test_passes_run_in_order(self):
        ran = []

        class Probe(PartitionPass):
            def __init__(self, name):
                self.name = name

            def run(self, graph):
                ran.append(self.name)

        graph = build_graph([], MIPS_200MHZ)
        report = PassManager([Probe("a"), Probe("b"), Probe("c")]).run(graph)
        assert ran == ["a", "b", "c"]
        assert list(report.pass_seconds) == ["a", "b", "c"]
        assert report.passes_run == 3
        assert report.total_seconds == sum(report.pass_seconds.values())

    def test_repeated_pass_names_accumulate(self):
        class Sleepy(PartitionPass):
            name = "again"

            def run(self, graph):
                pass

        graph = build_graph([], MIPS_200MHZ)
        report = PassManager([Sleepy(), Sleepy()]).run(graph)
        assert report.passes_run == 2
        assert list(report.pass_seconds) == ["again"]

    def test_obs_counters_and_histogram(self, telemetry):
        candidates = _random_candidates(5, 6)
        outcome = partition(
            candidates, platform=MIPS_200MHZ, total_cycles=1_000_000,
            passes="greedy",
        )
        assert isinstance(outcome, PartitionOutcome)
        assert list(outcome.pass_seconds) == [
            "filter", "place", "legalize", "report"
        ]
        assert outcome.result.partitioning_seconds == sum(
            outcome.pass_seconds.values()
        )
        snap = obs.snapshot()
        assert snap["partition.pass_runs_total"]["value"] == 4
        assert snap["partition.pass_seconds"]["count"] == 4
        for name in ("filter", "place", "legalize", "report"):
            assert snap[f"partition.pass.{name}.runs_total"]["value"] == 1
        assert snap["partition.nodes_total"]["value"] == len(candidates)
        assert "partition.area_used.fabric0" in snap

    def test_filter_prunes_oversized(self):
        candidates = _random_candidates(7, 5)
        devices = (cpu_device(200.0), fabric_device(0, 1.0, 210.0))
        graph = build_graph(candidates, MIPS_200MHZ, devices=devices)
        FilterPass().run(graph)
        assert all(node.pruned for node in graph.nodes)


class TestApi:
    def test_algorithm_shorthand(self):
        candidates = _random_candidates(4, 5)
        outcome = partition(
            candidates, platform=MIPS_200MHZ, total_cycles=1_000_000,
            passes="annealing",
        )
        assert outcome.algorithm == "annealing"
        assert outcome.result.algorithm == "annealing"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown placement algorithm"):
            partition(
                [], platform=MIPS_200MHZ, total_cycles=1, passes="bogus",
            )

    def test_candidates_require_platform(self):
        with pytest.raises(ValueError, match="platform"):
            partition([], passes="greedy")

    def test_device_mismatch_rejected(self):
        graph = build_graph([], MIPS_200MHZ)
        with pytest.raises(ValueError, match="disagrees"):
            partition(graph, (cpu_device(100.0),), passes="greedy")

    def test_by_device_covers_all_devices(self):
        candidates = _random_candidates(6, 6)
        devices = (
            cpu_device(200.0),
            fabric_device(0, 60_000.0, 210.0),
            fabric_device(1, 60_000.0, 210.0),
        )
        outcome = partition(
            candidates, devices, platform=MIPS_200MHZ,
            total_cycles=1_000_000, passes="greedy",
        )
        groups = outcome.by_device()
        assert set(groups) == {"cpu", "fabric0", "fabric1"}
        assert sorted(n for names in groups.values() for n in names) == sorted(
            c.name for c in candidates
        )
