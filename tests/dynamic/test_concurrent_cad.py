"""Concurrent on-chip CAD: placements arrive late, CAD is never billed."""

from types import SimpleNamespace

import pytest

from repro import obs, stages
from repro.dynamic.controller import (
    DynamicConfig,
    DynamicPartitionController,
    PlannedPlacement,
    RepartitionEvent,
)
from repro.dynamic.flow import run_dynamic_flow
from repro.platform import MIPS_200MHZ
from repro.synth.synthesizer import HwKernel

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


def _run(concurrent, latency=2):
    config = DynamicConfig(
        sample_interval=2_000, repartition_samples=2,
        concurrent_cad=concurrent, cad_latency_samples=latency,
    )
    return run_dynamic_flow(
        _TWO_KERNELS, "two_kernels", opt_level=1,
        platform=MIPS_200MHZ, config=config,
    )


@pytest.fixture(scope="module")
def concurrent():
    return _run(concurrent=True)


@pytest.fixture(scope="module")
def inline():
    return _run(concurrent=False)


class TestConcurrentCharging:
    def test_cad_recorded_but_never_billed(self, concurrent):
        events = concurrent.timeline.events
        arrivals = [ev for ev in events if ev.placed]
        assert arrivals
        for event in arrivals:
            assert event.concurrent
            assert event.cad_cycles > 0
            assert event.charged_cycles == \
                event.reconfig_cycles + event.migration_cycles
        charged = sum(ev.charged_cycles for ev in events)
        billed = sum(iv.overhead_cycles for iv in concurrent.timeline.intervals)
        assert charged == billed
        # the CAD cycles exist in the events but not in the intervals
        assert sum(ev.cad_cycles for ev in events) > 0

    def test_inline_bills_everything(self, inline):
        events = inline.timeline.events
        assert all(not ev.concurrent for ev in events)
        charged = sum(ev.overhead_cycles for ev in events)
        billed = sum(iv.overhead_cycles for iv in inline.timeline.intervals)
        assert charged == billed
        assert sum(ev.cad_cycles for ev in events) > 0

    def test_billed_overhead_strictly_lower_when_concurrent(
        self, concurrent, inline
    ):
        # same program, same decisions available: the co-processor variant
        # bills strictly fewer stall cycles (CAD dropped out)
        concurrent_billed = sum(
            iv.overhead_cycles for iv in concurrent.timeline.intervals
        )
        inline_billed = sum(
            iv.overhead_cycles for iv in inline.timeline.intervals
        )
        assert concurrent_billed < inline_billed


class TestArrivalTiming:
    def test_placements_land_k_samples_after_the_decision(self, concurrent):
        config = concurrent.config
        for event in concurrent.timeline.events:
            if event.placed:
                # decisions fire on the repartition cadence; arrivals k
                # samples later (and never on the decision sample itself)
                assert (event.sample - config.cad_latency_samples) \
                    % config.repartition_samples == 0

    def test_longer_latency_defers_first_arrival(self):
        early = _run(concurrent=True, latency=1)
        late = _run(concurrent=True, latency=4)
        first = lambda rep: next(
            ev.sample for ev in rep.timeline.events if ev.placed
        )
        assert first(late) - first(early) == 3

    def test_still_converges_to_hardware(self, concurrent):
        assert concurrent.recovered
        assert concurrent.timeline.final_resident
        assert concurrent.dynamic_speedup > 1.0
        assert concurrent.warm_speedup > 1.0


class TestStalePlans:
    """A CAD result that no longer fits must be dropped *whole*: its
    displacement evictions must not destroy the kernels it meant to
    replace (the fabric can move under the plan in a multi-app run)."""

    @staticmethod
    def _controller():
        from repro.compiler.driver import CompilerOptions, compile_source

        exe = compile_source(
            "int main(void) { return 0; }", CompilerOptions.from_level(1)
        )
        stream = stages.sample_stream(exe, 1_000_000, 4_000)
        return DynamicPartitionController(
            stream.sites(MIPS_200MHZ.cpi), exe, MIPS_200MHZ
        )

    @staticmethod
    def _kernel(area, name="k"):
        return HwKernel(
            name=name, header_address=0x400000, area_gates=area,
            clock_mhz=100.0, schedule_length=3, ii=1, localized=False,
            bram_bytes=0, iterations_multiplier=1, pipelined=True,
        )

    def _install_resident(self, controller, address, area, name):
        site = SimpleNamespace(name=name, header_address=address,
                               kernel=self._kernel(area, name))
        controller.fabric.place(controller, address, site.kernel)
        controller._resident[address] = site
        return site

    def test_unfitting_plan_keeps_displaced_kernel(self):
        controller = self._controller()
        fabric = controller.fabric
        resident = self._install_resident(
            controller, 0x400000, 4_000.0, "old"
        )
        # another application grabs (almost) the whole fabric while the
        # CAD job is in flight
        rival = object()
        fabric.place(rival, 0x500000,
                     self._kernel(fabric.capacity_gates - 4_000.0, "rival"))
        too_big = SimpleNamespace(
            name="new", header_address=0x400040,
            kernel=self._kernel(8_000.0, "new"),
        )
        plan = [PlannedPlacement(site=too_big, evict=[0x400000], cad_cycles=0)]
        event = RepartitionEvent(sample=0)
        controller._apply_plan(plan, event)
        # the stale placement was dropped -- and its eviction with it
        assert event.placed == []
        assert event.evicted == []
        assert controller._resident[0x400000] is resident
        assert fabric.units_of(controller, 0x400000) == 4_000.0

    def test_fitting_plan_still_replaces(self):
        controller = self._controller()
        self._install_resident(controller, 0x400000, 4_000.0, "old")
        upgrade = SimpleNamespace(
            name="new", header_address=0x400040,
            kernel=self._kernel(8_000.0, "new"),
        )
        plan = [PlannedPlacement(site=upgrade, evict=[0x400000], cad_cycles=0)]
        event = RepartitionEvent(sample=0)
        controller._apply_plan(plan, event)
        assert event.placed == ["new"]
        assert event.evicted == ["old"]
        assert 0x400040 in controller._resident
        assert 0x400000 not in controller._resident


class TestPlanningLeavesTheLiveFabric:
    """Planning admits candidates on a private copy of the fabric ledger:
    with concurrent CAD the live fabric -- its placements, high-water marks
    and ``fabric.*`` counters -- changes only when the pending plan
    activates (decisions may still evict, which needs no CAD)."""

    @pytest.fixture()
    def metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.delenv(obs.ENABLE_ENV, raising=False)
        obs.clear_metrics()
        obs.enable(metrics=True, tracing=False)
        yield
        obs.disable()
        obs.clear_metrics()

    @staticmethod
    def _live(fabric):
        registry = obs.registry()
        placed = registry.get("fabric.placements_total")
        return (
            dict(fabric._placements), fabric.peak_area_gates,
            fabric.peak_regions, placed.value if placed is not None else 0,
        )

    @pytest.mark.parametrize("regions", [0, 4])
    def test_only_activation_places(self, metrics, monkeypatch, regions):
        seen = {"plans": 0, "activations": 0}
        cls = DynamicPartitionController
        plan, repartition, activate = (
            cls._plan, cls._repartition, cls._activate_pending
        )

        def live(controller):
            return self._live(controller.fabric)

        def checked_plan(controller, *args):
            before = live(controller)
            result = plan(controller, *args)
            assert live(controller) == before
            seen["plans"] += bool(result)
            return result

        def checked_repartition(controller, *args):
            placements, peak_area, peak_regions, placed = live(controller)
            changed = repartition(controller, *args)
            after = live(controller)
            # evictions only: no new placement, no new high-water mark
            assert after[0].items() <= placements.items()
            assert after[1:] == (peak_area, peak_regions, placed)
            return changed

        def checked_activate(controller):
            placed = live(controller)[3]
            changed = activate(controller)
            if changed and controller.timeline.events[-1].placed:
                assert live(controller)[3] > placed
                seen["activations"] += 1
            return changed

        monkeypatch.setattr(cls, "_plan", checked_plan)
        monkeypatch.setattr(cls, "_repartition", checked_repartition)
        monkeypatch.setattr(cls, "_activate_pending", checked_activate)
        config = DynamicConfig(sample_interval=2_000, repartition_samples=2,
                               concurrent_cad=True)
        platform = (MIPS_200MHZ.with_regions(regions) if regions
                    else MIPS_200MHZ)
        report = run_dynamic_flow(_TWO_KERNELS, "two_kernels", opt_level=1,
                                  platform=platform, config=config)
        assert report.timeline.final_resident
        assert seen["plans"] > 0 and seen["activations"] > 0


class TestDeterminism:
    def test_identical_timelines_across_runs(self):
        one = _run(concurrent=True)
        two = _run(concurrent=True)
        assert one.summary_row() == two.summary_row()
        assert [iv.wall_seconds for iv in one.timeline.intervals] == \
            [iv.wall_seconds for iv in two.timeline.intervals]
        assert [(ev.sample, ev.placed, ev.evicted, ev.concurrent)
                for ev in one.timeline.events] == \
            [(ev.sample, ev.placed, ev.evicted, ev.concurrent)
             for ev in two.timeline.events]
