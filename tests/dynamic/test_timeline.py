"""DynamicTimeline edge cases and the finish() accounting (hand-computed).

The warm-window/overhead properties feed every dynamic-vs-static table, so
their corner cases (empty runs, never-settled controllers, overhead landing
in the last interval) are pinned here against hand-written timelines, and
``finish()``'s trailing-overhead flush is asserted against hand-computed
energy -- including the fabric static term the PR 3 implementation forgot.
"""

from types import SimpleNamespace

import pytest

from repro import stages
from repro.compiler.driver import CompilerOptions, compile_source
from repro.dynamic.controller import (
    DynamicPartitionController,
    DynamicTimeline,
    IntervalStats,
)
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.synth.synthesizer import HwKernel

_TINY = """
int checksum;
int main(void) {
    int i;
    for (i = 0; i < 8; i++) checksum += i;
    return 0;
}
"""


def interval(index, overhead=0, wall=1.0, sw=1.0, cycles=1000, energy=1.0):
    return IntervalStats(
        index=index, steps=cycles, cycles=cycles, moved_cycles=0,
        overhead_cycles=overhead, wall_seconds=wall, sw_only_seconds=sw,
        fpga_seconds=0.0, energy_mj=energy, sw_energy_mj=energy,
    )


class TestWarmWindow:
    def test_empty_timeline(self):
        timeline = DynamicTimeline()
        assert timeline.warm_window() == []
        assert timeline.warm_speedup == 1.0

    def test_no_overhead_whole_run_is_steady(self):
        timeline = DynamicTimeline(intervals=[interval(i) for i in range(4)])
        assert timeline.warm_window() == timeline.intervals

    def test_never_settled_falls_back_to_last(self):
        # every interval carries overhead: the controller never stopped
        # adapting, so the "steady state" degrades to the final interval
        timeline = DynamicTimeline(
            intervals=[interval(i, overhead=100) for i in range(5)]
        )
        assert timeline.warm_window() == timeline.intervals[-1:]

    def test_overhead_only_in_last_interval(self):
        # a repartition right at the end: nothing *after* the change is
        # overhead-free, so the window is the last interval itself
        intervals = [interval(0), interval(1), interval(2, overhead=100)]
        timeline = DynamicTimeline(intervals=intervals)
        assert timeline.warm_window() == intervals[-1:]

    def test_longest_quiet_run_wins_ties_to_latest(self):
        intervals = [
            interval(0, overhead=100),
            interval(1), interval(2),               # quiet run A (len 2)
            interval(3, overhead=100),
            interval(4), interval(5),               # quiet run B (len 2)
        ]
        timeline = DynamicTimeline(intervals=intervals)
        assert timeline.warm_window() == intervals[4:6]

    def test_window_starts_after_first_change(self):
        intervals = [
            interval(0), interval(1),               # pre-change: not steady
            interval(2, overhead=100),
            interval(3), interval(4), interval(5),
        ]
        timeline = DynamicTimeline(intervals=intervals)
        assert timeline.warm_window() == intervals[3:6]


class TestOverheadSeconds:
    def test_zero_total_cycles(self):
        # an (artificial) timeline whose intervals ran zero software
        # cycles must not divide by zero
        timeline = DynamicTimeline(
            intervals=[interval(0, overhead=100, cycles=0)]
        )
        assert timeline.overhead_seconds == 0.0

    def test_empty_timeline(self):
        assert DynamicTimeline().overhead_seconds == 0.0

    def test_proportional_to_charged_cycles(self):
        timeline = DynamicTimeline(intervals=[
            interval(0, overhead=500, cycles=1000, wall=2.0, sw=1.0),
            interval(1, overhead=0, cycles=1000, wall=1.0, sw=1.0),
        ])
        # 500 overhead cycles out of 2000 total, at the software clock
        # implied by sw/total: 500 * (2.0 / 2000)
        assert timeline.overhead_seconds == pytest.approx(0.5)


def _controller(platform):
    exe = compile_source(_TINY, CompilerOptions.from_level(1))
    stream = stages.sample_stream(exe, 1_000_000, 4_000)
    return DynamicPartitionController(stream.sites(platform.cpi), exe, platform)


def _kernel(area=5_000.0):
    return HwKernel(
        name="k", header_address=0x400000, area_gates=area, clock_mhz=100.0,
        schedule_length=3, ii=1, localized=False, bram_bytes=0,
        iterations_multiplier=1, pipelined=True,
    )


@pytest.mark.parametrize("platform", [MIPS_200MHZ, SOFTCORE_85MHZ],
                         ids=["hard", "soft"])
class TestFinishAccounting:
    CARRY = 20_000

    def test_flush_with_resident_kernels_includes_fabric_static(self, platform):
        controller = _controller(platform)
        controller.timeline.intervals.append(interval(0, energy=3.0))
        controller._carry_overhead = self.CARRY
        # a resident kernel: the fabric is configured, so the trailing
        # stall burns CPU active power *and* fabric static power
        controller.fabric.place(controller, 0x400000, _kernel())
        controller._resident[0x400000] = SimpleNamespace(name="k")

        timeline = controller.finish()

        last = timeline.intervals[-1]
        extra_seconds = self.CARRY / (platform.cpu_clock_mhz * 1e6)
        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        expected = (active_mw + platform.fpga_power.static_mw) * extra_seconds
        assert last.overhead_cycles == self.CARRY
        assert last.wall_seconds == pytest.approx(1.0 + extra_seconds)
        assert last.energy_mj == pytest.approx(3.0 + expected)
        assert timeline.final_resident == ["k"]

    def test_flush_without_residents_charges_cpu_only(self, platform):
        controller = _controller(platform)
        controller.timeline.intervals.append(interval(0, energy=3.0))
        controller._carry_overhead = self.CARRY

        timeline = controller.finish()

        extra_seconds = self.CARRY / (platform.cpu_clock_mhz * 1e6)
        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        assert timeline.intervals[-1].energy_mj == pytest.approx(
            3.0 + active_mw * extra_seconds
        )

    def test_finish_and_on_sample_share_one_energy_helper(self, platform):
        # the regression that motivated the fix: the flush must price a
        # stall second exactly like on_sample prices a CPU-only second
        controller = _controller(platform)
        controller.fabric.place(controller, 0x400000, _kernel())
        controller._resident[0x400000] = SimpleNamespace(name="k")
        one_second = controller._interval_energy_mj(1.0, 0.0)
        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        assert one_second == pytest.approx(
            active_mw + platform.fpga_power.static_mw
        )

    def test_no_carry_leaves_timeline_untouched(self, platform):
        controller = _controller(platform)
        controller.timeline.intervals.append(interval(0, energy=3.0))
        timeline = controller.finish()
        assert timeline.intervals[-1].energy_mj == 3.0
        assert timeline.intervals[-1].wall_seconds == 1.0

    def test_carry_with_no_intervals_is_dropped(self, platform):
        controller = _controller(platform)
        controller._carry_overhead = self.CARRY
        timeline = controller.finish()
        assert timeline.intervals == []
