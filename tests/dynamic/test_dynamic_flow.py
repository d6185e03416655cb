"""Dynamic flow end-to-end: accounting invariants, convergence, soft cores."""

import pytest

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.flow import run_dynamic_flow
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ

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
    int i; int r;
    for (r = 0; r < 20; r++)
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

_SWITCHY = """
int checksum;
int pick(int x) {
    switch (x) {
    case 0: return 1; case 1: return 2; case 2: return 3;
    case 3: return 4; case 4: return 5; default: return 0;
    }
}
int main(void) { checksum = pick(2); return 0; }
"""

_CONFIG = DynamicConfig(sample_interval=2_000, repartition_samples=2)


@pytest.fixture(scope="module")
def report():
    return run_dynamic_flow(
        _TWO_KERNELS, "two_kernels", opt_level=1,
        platform=MIPS_200MHZ, config=_CONFIG,
    )


class TestAccounting:
    def test_interval_cycles_sum_to_run(self, report):
        total = sum(iv.cycles for iv in report.timeline.intervals)
        assert total == report.static.run.cycles

    def test_interval_steps_sum_to_run(self, report):
        total = sum(iv.steps for iv in report.timeline.intervals)
        assert total == report.static.run.steps

    def test_software_seconds_match_platform_arithmetic(self, report):
        expected = MIPS_200MHZ.cpu_seconds(report.static.run.cycles)
        assert report.timeline.software_seconds == pytest.approx(expected)

    def test_moved_cycles_bounded(self, report):
        for interval in report.timeline.intervals:
            assert 0 <= interval.moved_cycles <= interval.cycles

    def test_overheads_charged(self, report):
        assert report.timeline.events
        charged = sum(ev.overhead_cycles for ev in report.timeline.events)
        in_intervals = sum(iv.overhead_cycles for iv in report.timeline.intervals)
        assert charged == in_intervals
        assert charged > 0

    def test_wall_time_exceeds_pure_acceleration(self, report):
        # dynamic can never beat an overhead-free oracle of itself
        for interval in report.timeline.intervals:
            assert interval.wall_seconds > 0


class TestConvergence:
    def test_speedup_profile(self, report):
        assert report.recovered
        assert report.dynamic_speedup > 1.0
        assert report.warm_speedup > 1.0
        # bounded gap once profiling warmed up (the acceptance criterion)
        assert report.warm_gap <= 0.35

    def test_kernels_placed(self, report):
        assert report.timeline.final_resident
        assert len(report.timeline.events) >= 1

    def test_area_respects_capacity(self, report):
        assert report.timeline.area_used <= MIPS_200MHZ.capacity_gates
        for event in report.timeline.events:
            assert event.area_used <= MIPS_200MHZ.capacity_gates

    def test_summary_row_shape(self, report):
        row = report.summary_row()
        assert row["benchmark"] == "two_kernels"
        assert row["recovered"] is True
        assert row["kernels"] == len(report.timeline.final_resident)


class TestSoftCore:
    def test_soft_core_capacity_reduced(self):
        assert SOFTCORE_85MHZ.capacity_gates \
            == SOFTCORE_85MHZ.device.capacity_gates - SOFTCORE_85MHZ.core_area_gates
        assert SOFTCORE_85MHZ.capacity_gates < MIPS_200MHZ.capacity_gates

    def test_soft_core_dynamic_flow(self):
        soft = run_dynamic_flow(
            _TWO_KERNELS, "two_kernels", opt_level=1,
            platform=SOFTCORE_85MHZ, config=_CONFIG,
        )
        assert soft.recovered
        assert soft.dynamic_speedup > 1.0
        assert soft.timeline.area_used <= SOFTCORE_85MHZ.capacity_gates
        # a slower CPU against the same fabric: hardware helps at least as
        # much as on the hard core
        hard = run_dynamic_flow(
            _TWO_KERNELS, "two_kernels", opt_level=1,
            platform=MIPS_200MHZ, config=_CONFIG,
        )
        assert soft.static_speedup >= hard.static_speedup


class TestUnrecoverable:
    def test_software_only_fallback(self):
        report = run_dynamic_flow(
            _SWITCHY, "switchy", opt_level=1,
            platform=MIPS_200MHZ, config=_CONFIG,
        )
        assert not report.recovered
        assert report.dynamic_speedup == 1.0
        assert report.warm_speedup == 1.0
        assert report.warm_gap == 0.0
        assert report.timeline.final_resident == []
        assert report.timeline.events == []
        # the fabric is power-gated: no energy penalty vs all-software
        assert report.energy_savings == pytest.approx(0.0)


class TestAdaptiveSampling:
    _ADAPTIVE = DynamicConfig(
        sample_interval=1_000, repartition_samples=2,
        adaptive_sampling=True, settle_samples=2, max_interval_factor=8,
    )

    def _run(self, config):
        return run_dynamic_flow(
            _TWO_KERNELS, "two_kernels", opt_level=1,
            platform=MIPS_200MHZ, config=config,
        )

    def test_intervals_coarsen_once_stable(self):
        report = self._run(self._ADAPTIVE)
        steps = [iv.steps for iv in report.timeline.intervals]
        # the run starts at the base interval and ends with coarse chunks
        assert steps[0] == 1_000
        assert max(steps) > 1_000
        # coarsening never exceeds the configured ceiling
        assert max(steps) <= 8 * 1_000

    def test_accounting_still_exact(self):
        report = self._run(self._ADAPTIVE)
        total = sum(iv.cycles for iv in report.timeline.intervals)
        assert total == report.static.run.cycles
        assert sum(iv.steps for iv in report.timeline.intervals) == \
            report.static.run.steps

    def test_fewer_samples_than_fixed_interval(self):
        fixed = self._run(DynamicConfig(
            sample_interval=1_000, repartition_samples=2,
        ))
        adaptive = self._run(self._ADAPTIVE)
        # duty-cycling the profiler is the point: measurably fewer samples
        assert len(adaptive.timeline.intervals) < len(fixed.timeline.intervals)
        # and the result still converges to hardware
        assert adaptive.timeline.final_resident
        assert adaptive.dynamic_speedup > 1.0

    def test_deterministic(self):
        one = self._run(self._ADAPTIVE)
        two = self._run(self._ADAPTIVE)
        assert one.summary_row() == two.summary_row()
        assert [iv.steps for iv in one.timeline.intervals] == \
            [iv.steps for iv in two.timeline.intervals]


class TestDeterminism:
    def test_same_inputs_same_timeline(self):
        one = run_dynamic_flow(
            _TWO_KERNELS, "two_kernels", platform=MIPS_200MHZ, config=_CONFIG
        )
        two = run_dynamic_flow(
            _TWO_KERNELS, "two_kernels", platform=MIPS_200MHZ, config=_CONFIG
        )
        assert one.summary_row() == two.summary_row()
        assert [iv.wall_seconds for iv in one.timeline.intervals] == \
            [iv.wall_seconds for iv in two.timeline.intervals]
        assert [ev.placed for ev in one.timeline.events] == \
            [ev.placed for ev in two.timeline.events]
