"""Partitioning tests: profiles, the 90-10 algorithm, and baselines."""

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.flow import run_flow
from repro.partition import build_candidates, build_profile
from repro.platform import MIPS_200MHZ, Platform
from repro.sim import run_executable
from repro.synth.fpga import FpgaDevice

from tests.partition.conftest import legacy_partition

_TWO_KERNELS = """
int a[128];
int b[128];
int checksum;
void hot(void) {
    int i; int r;
    for (r = 0; r < 30; r++)
        for (i = 0; i < 128; i++) a[i] = (a[i] * 3 + r) & 1023;
}
void warm(void) {
    int i;
    for (i = 0; i < 128; i++) b[i] += a[i];
}
int main(void) {
    int r;
    hot();
    for (r = 0; r < 4; r++) warm();
    checksum = a[5] + b[9];
    return 0;
}
"""


@pytest.fixture(scope="module")
def setup():
    exe = compile_source(_TWO_KERNELS, opt_level=1)
    program = decompile(exe)
    assert program.recovered
    _, run = run_executable(exe, profile=True)
    profile = build_profile(exe, program, run)
    candidates = build_candidates(exe, program, profile, MIPS_200MHZ)
    return exe, program, profile, candidates


class TestProfiles:
    def test_total_cycles_positive(self, setup):
        _, _, profile, _ = setup
        assert profile.total_cycles > 0

    def test_hot_loop_ranked_first(self, setup):
        _, _, profile, _ = setup
        hottest = profile.hot_loops()[0]
        assert hottest.function == "hot"

    def test_iterations_and_invocations(self, setup):
        _, _, profile, _ = setup
        inner = [
            lp for lp in profile.loops.values()
            if lp.function == "hot" and lp.depth == 2
        ]
        assert inner
        assert inner[0].iterations == 30 * 128
        assert inner[0].invocations == 30

    def test_loop_cycles_bounded_by_total(self, setup):
        _, _, profile, _ = setup
        for lp in profile.loops.values():
            assert 0 <= lp.sw_cycles <= profile.total_cycles


class TestCandidates:
    def test_candidates_exist_for_hot_loops(self, setup):
        *_, candidates = setup
        assert any(c.function.name == "hot" for c in candidates)
        assert any(c.function.name == "warm" for c in candidates)

    def test_costs_positive(self, setup):
        *_, candidates = setup
        for c in candidates:
            assert c.area > 0
            assert c.hw_seconds > 0
            assert c.sw_seconds > 0


class TestNinetyTen:
    def test_respects_area_budget(self, setup):
        _, _, profile, candidates = setup
        tiny_device = FpgaDevice("tiny", 9_000, 8 * 1024, 210.0)
        platform = Platform(name="tiny", cpu_clock_mhz=200.0, device=tiny_device)
        result = legacy_partition(platform, candidates, profile.total_cycles)
        assert result.area_used <= tiny_device.capacity_gates

    def test_hot_loop_selected_in_step_one(self, setup):
        _, _, profile, candidates = setup
        result = legacy_partition(MIPS_200MHZ, candidates, profile.total_cycles)
        step1 = [n for n, s in result.step_of.items() if s == 1]
        assert any("hot" in n for n in step1)

    def test_no_overlapping_selection(self, setup):
        _, _, profile, candidates = setup
        result = legacy_partition(MIPS_200MHZ, candidates, profile.total_cycles)
        for i, a in enumerate(result.selected):
            for b in result.selected[i + 1:]:
                assert not a.overlaps(b)

    def test_alias_step_pulls_shared_array_region(self, setup):
        _, _, profile, candidates = setup
        result = legacy_partition(MIPS_200MHZ, candidates, profile.total_cycles)
        # warm() reads a[] which hot() writes: step 2 (or 1/3) must take it
        assert any("warm" in n for n in result.names)

    def test_runtime_recorded(self, setup):
        _, _, profile, candidates = setup
        result = legacy_partition(MIPS_200MHZ, candidates, profile.total_cycles)
        assert result.partitioning_seconds > 0


class TestBaselines:
    def test_all_feasible(self, setup):
        _, _, profile, candidates = setup
        budget = MIPS_200MHZ.device.capacity_gates
        for algo in ("greedy", "exhaustive", "gclp", "annealing"):
            result = legacy_partition(
                MIPS_200MHZ, candidates, profile.total_cycles, algo
            )
            assert result.area_used <= budget, algo
            for i, a in enumerate(result.selected):
                for b in result.selected[i + 1:]:
                    assert not a.overlaps(b), algo

    def test_exhaustive_at_least_as_good(self, setup):
        _, _, profile, candidates = setup
        best = legacy_partition(
            MIPS_200MHZ, candidates, profile.total_cycles, "exhaustive"
        )
        ninety = legacy_partition(MIPS_200MHZ, candidates, profile.total_cycles)
        saved_best = sum(c.saved_seconds for c in best.selected)
        saved_ninety = sum(c.saved_seconds for c in ninety.selected)
        assert saved_best >= saved_ninety * 0.999

    def test_annealing_deterministic(self, setup):
        _, _, profile, candidates = setup
        one = legacy_partition(
            MIPS_200MHZ, candidates, profile.total_cycles, "annealing"
        )
        two = legacy_partition(
            MIPS_200MHZ, candidates, profile.total_cycles, "annealing"
        )
        assert one.names == two.names


class TestFlowIntegration:
    def test_flow_report_consistent(self):
        report = run_flow(_TWO_KERNELS, "two_kernels", opt_level=1)
        assert report.recovered
        assert report.app_speedup > 1.0
        assert 0.0 <= report.energy_savings < 1.0
        assert report.metrics.area_gates <= report.platform.device.capacity_gates
        assert report.metrics.kernel_fraction <= 1.0

    def test_flow_failure_path(self):
        source = """
        int checksum;
        int pick(int x) {
            switch (x) {
            case 0: return 1; case 1: return 2; case 2: return 3;
            case 3: return 4; case 4: return 5; default: return 0;
            }
        }
        int main(void) { checksum = pick(2); return 0; }
        """
        report = run_flow(source, "fails", opt_level=1)
        assert not report.recovered
        assert "indirect jump" in report.failure_reason
        assert report.app_speedup == 1.0
        assert report.energy_savings == 0.0
