"""Regression: a resident kernel crowded out of the profiler table must
not be evicted while its loop is still iterating.

``OnlineProfiler.sample`` keeps only ``table_size`` entries -- the modeled
hardware cache.  When a program's live-loop count exceeds the table, a
placed kernel's back-edge target can be crowded out by hotter loops, at
which point ``_site_heat`` reports 0.0 for it.  PR 3's eviction step
trusted the table alone and threw such kernels away (then immediately
re-lifted them, paying CAD + reconfiguration every cycle of the thrash).
The fix floors eviction decisions with the site's own per-interval
back-edge deltas, which the controller already computes for every
resident kernel.
"""

import pytest

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.flow import run_dynamic_flow
from repro.dynamic.profiler import ProfilerConfig
from repro.platform import MIPS_200MHZ

#: five live loops (small + three heavy + the phase-2 driver): more than
#: the 3-entry table below can hold
_CROWDED = """
int a[64]; int b[64]; int c[64]; int d[64]; int checksum;
void small(int r) {
    int i;
    for (i = 0; i < 16; i++) a[i] = (a[i] * 3 + r) & 1023;
}
void heavy(void) {
    int i;
    for (i = 0; i < 64; i++) b[i] += a[i & 15] * 2;
    for (i = 0; i < 64; i++) c[i] += b[i] * 3;
    for (i = 0; i < 64; i++) d[i] += c[i] * 5;
}
int main(void) {
    int r;
    for (r = 0; r < 40; r++) small(r);
    for (r = 0; r < 60; r++) { small(r); heavy(); }
    checksum = a[1] + b[2] + c[3] + d[4];
    return 0;
}
"""

#: the kernel placed during phase 1 that keeps iterating through phase 2
_SMALL = "small_loop_400018"


def _run(table_size):
    config = DynamicConfig(
        sample_interval=1_000,
        repartition_samples=2,
        profiler=ProfilerConfig(table_size=table_size),
    )
    return run_dynamic_flow(
        _CROWDED, "crowded", opt_level=1,
        platform=MIPS_200MHZ, config=config,
    )


class TestEvictionGuard:
    def test_scenario_places_the_small_kernel_first(self):
        report = _run(table_size=3)
        assert report.recovered
        first_placed = next(
            ev for ev in report.timeline.events if ev.placed
        )
        assert _SMALL in first_placed.placed

    def test_crowded_out_kernel_survives_while_hot(self):
        # table_size=3 < 5 live loops: phase 2's heavy loops (64 back-edges
        # per call each) crowd `small` (16) out of the table.  Its own
        # interval deltas still show it iterating, so it must stay.
        report = _run(table_size=3)
        evicted = [name for ev in report.timeline.events for name in ev.evicted]
        assert _SMALL not in evicted
        assert _SMALL in report.timeline.final_resident

    def test_no_thrash_under_tiny_table(self):
        # the pre-fix controller evicted and re-lifted the crowded-out
        # kernel on nearly every re-partition (~90 events on this trace),
        # burning CAD and reconfiguration cycles each time
        report = _run(table_size=3)
        assert len(report.timeline.events) <= 10

    def test_large_table_agrees_on_survival(self):
        # with the table comfortably larger than the live-loop count the
        # guard is a no-op: same survival verdict straight from the table
        report = _run(table_size=32)
        evicted = [name for ev in report.timeline.events for name in ev.evicted]
        assert _SMALL not in evicted
        assert _SMALL in report.timeline.final_resident

    def test_genuinely_cold_kernels_still_evicted(self):
        # the guard must not keep dead kernels alive: phase-1-only loops
        # (the phase-1 driver in main) stop iterating and do get evicted
        report = _run(table_size=3)
        evicted = [name for ev in report.timeline.events for name in ev.evicted]
        assert evicted, "cool-down eviction disabled entirely"
        assert all(name != _SMALL for name in evicted)
