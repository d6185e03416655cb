"""Pass-manager, graph-building and per-pass observability tests."""

from __future__ import annotations

import pytest

from repro import obs
from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition.api import PartitionOutcome, partition
from repro.partition.estimator import build_candidates
from repro.partition.graph import build_graph
from repro.partition.passes import FilterPass, PartitionPass, PassManager
from repro.partition.profiles import build_profile
from repro.platform.devices import (
    DeviceSpec,
    cgra_device,
    cpu_device,
    fabric_device,
)
from repro.platform.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import get_benchmark
from repro.sim.cpu import run_executable

from tests.partition.test_baseline_properties import _random_candidates

#: exact ``(seconds, area_gates)`` of every candidate of two suite binaries
#: at -O1 on (cpu, fabric0, cgra0): the only check on the CGRA costs, which
#: no golden covers.  fir has pipelined and unpipelined kernels, crc one
#: that localizes no data (nothing to migrate).
DEVICE_COST_PINS = {
    ("fir", "mips200"): {
        "fir_loop_400068": (
            (0.00242284, 0.0),
            (0.0008788767999999998, 9702.0),
            (0.0008142666666666667, 4365.900000000001),
        ),
        "fir_loop_400088": (
            (0.0023278, 0.0),
            (0.0002881823999999999, 9632.0),
            (0.00027709333333333333, 4334.400000000001),
        ),
        "main_loop_40018c": (
            (1.527e-05, 0.0),
            (3.291904761904762e-06, 2884.0),
            (3.5166666666666667e-06, 1297.8),
        ),
        "init_loop_400010": (
            (1.4735e-05, 0.0),
            (3.6603999999999997e-06, 7455.0),
            (3.59e-06, 3354.75),
        ),
    },
    ("fir", "softcore85"): {
        "fir_loop_400068": (
            (0.005360470588235294, 0.0),
            (0.0008878603294117645, 9702.0),
            (0.0008232501960784314, 4365.900000000001),
        ),
        "fir_loop_400088": (
            (0.005136847058823529, 0.0),
            (0.00047553769411764704, 9632.0),
            (0.0004644486274509804, 4334.400000000001),
        ),
        "main_loop_40018c": (
            (3.5929411764705884e-05, 0.0),
            (6.985434173669468e-06, 2884.0),
            (7.210196078431373e-06, 1297.8),
        ),
        "init_loop_400010": (
            (3.1658823529411766e-05, 0.0),
            (7.326870588235294e-06, 7455.0),
            (7.256470588235294e-06, 3354.75),
        ),
    },
    ("crc", "mips200"): {
        "crc32_loop_4000d8": (
            (0.00086052, 0.0),
            (0.00021502857142857143, 3622.0),
            (0.00029704000000000004, 1629.9),
        ),
        "init_loop_400010": (
            (0.000209935, 0.0),
            (8.765799999999998e-05, 8486.0),
            (8.164999999999999e-05, 3818.7000000000003),
        ),
        "init_loop_40002c": (
            (0.00016768, 0.0),
            (8.35047619047619e-05, 1116.0),
            (0.00010154666666666666, 502.2),
        ),
    },
    ("crc", "softcore85"): {
        "crc32_loop_4000d8": (
            (0.0020247529411764704, 0.0),
            (0.0002285579831932773, 3622.0),
            (0.0003105694117647059, 1629.9),
        ),
        "init_loop_400010": (
            (0.00048794117647058823, 0.0),
            (9.651976470588233e-05, 8486.0),
            (9.051176470588234e-05, 3818.7000000000003),
        ),
        "init_loop_40002c": (
            (0.00039454117647058824, 0.0),
            (0.0001354577030812325, 1116.0),
            (0.00015349960784313724, 502.2),
        ),
    },
}


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

    @pytest.mark.parametrize("name,label", sorted(DEVICE_COST_PINS))
    def test_suite_costs_are_pinned(self, name, label):
        platform = {"mips200": MIPS_200MHZ, "softcore85": SOFTCORE_85MHZ}[label]
        exe = compile_source(get_benchmark(name).source, opt_level=1)
        _, run = run_executable(exe, profile=True)
        program = decompile(exe)
        profile = build_profile(exe, program, run.recost(platform.cpi),
                                platform.cpi)
        candidates = build_candidates(exe, program, profile, platform)
        devices = (
            cpu_device(platform.cpu_clock_mhz),
            fabric_device(0, 50_000.0, 210.0),
            cgra_device(0, 30_000.0),
        )
        graph = build_graph(candidates, platform, devices=devices)
        costs = {
            node.name: tuple(
                (node.costs[d.name].seconds, node.costs[d.name].area_gates)
                for d in devices
            )
            for node in graph.nodes
        }
        assert costs == DEVICE_COST_PINS[name, label]

    def test_unknown_kind_raises_with_help(self):
        # the error names the known kinds
        with pytest.raises(ValueError, match="known: cpu, fabric, cgra"):
            DeviceSpec(name="quantum0", kind="quantum", capacity_gates=1.0,
                       clock_mhz=100.0)


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
