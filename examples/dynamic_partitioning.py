#!/usr/bin/env python3
"""Walkthrough: online (warp-style) hardware/software partitioning.

The static flow (see ``quickstart.py``) partitions a binary at design time
with oracle profile data.  This example shows the *dynamic* alternative
modeled on Lysecky & Vahid's soft-core study: the application starts running
all-software, an on-chip profiler watches its backward branches, and a
dynamic partition controller lifts the currently-hot loops to hardware
while the program runs -- paying for decompilation/CAD, reconfiguration and
data migration as it goes, and evicting kernels again when they cool down.

Run:  PYTHONPATH=src python examples/dynamic_partitioning.py
"""

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.flow import run_dynamic_flow
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ

# A program with phases: an image is smoothed (hot loop 1), then histogram
# equalized (hot loop 2).  A static partitioner sees both; the dynamic
# partitioner has to discover each phase as it happens.
SOURCE = """
int image[256];
int hist[64];
int checksum;

void smooth(void) {
    int pass; int i;
    for (pass = 0; pass < 60; pass++)
        for (i = 1; i < 255; i++)
            image[i] = (image[i - 1] + 2 * image[i] + image[i + 1]) / 4;
}

void histogram(void) {
    int pass; int i;
    for (pass = 0; pass < 60; pass++)
        for (i = 0; i < 256; i++)
            hist[(image[i] >> 2) & 63] += 1;
}

int main(void) {
    int i;
    for (i = 0; i < 256; i++) image[i] = (i * 37) & 255;
    smooth();
    histogram();
    checksum = image[100] + hist[10];
    return 0;
}
"""


def describe(report) -> None:
    timeline = report.timeline
    print(f"\n===== {report.platform.name} =====")
    print(f"static (oracle) speedup : {report.static_speedup:6.2f}x")
    print(f"dynamic whole-run       : {report.dynamic_speedup:6.2f}x "
          f"(CAD + reconfiguration warm-up included)")
    print(f"dynamic steady state    : {report.warm_speedup:6.2f}x "
          f"(gap vs static {100 * report.warm_gap:.1f}%)")
    print(f"dynamic energy savings  : {100 * report.energy_savings:6.1f}%")
    print(f"re-partition events     : {len(timeline.events)}")
    for event in timeline.events:
        placed = ", ".join(event.placed) or "-"
        evicted = ", ".join(event.evicted) or "-"
        print(f"  sample {event.sample:3d}: +[{placed}]  -[{evicted}]  "
              f"overhead {event.overhead_cycles:,} cycles")
    print(f"resident at exit        : {', '.join(timeline.final_resident) or '-'}"
          f"  ({timeline.area_used:,.0f} gates)")


def main() -> None:
    config = DynamicConfig(sample_interval=4_000, repartition_samples=2)
    for platform in (MIPS_200MHZ, SOFTCORE_85MHZ):
        report = run_dynamic_flow(
            SOURCE, "phased", opt_level=1, platform=platform, config=config
        )
        describe(report)

    print("\nThe phase change shows up as a re-partition: the smoothing "
          "kernel is evicted\nonce its loop cools down and the histogram "
          "kernel takes its fabric.")

    # -- the deployment-story variants ----------------------------------

    # 1. a CAD co-processor: decisions cost nothing, kernels arrive two
    #    sampling intervals later, only the reconfiguration stall is billed
    warp = run_dynamic_flow(
        SOURCE, "phased", opt_level=1, platform=MIPS_200MHZ,
        config=DynamicConfig(sample_interval=4_000, concurrent_cad=True,
                             cad_latency_samples=2),
    )
    billed = sum(iv.overhead_cycles for iv in warp.timeline.intervals)
    cad = sum(ev.cad_cycles for ev in warp.timeline.events)
    print(f"\nconcurrent CAD: {billed:,} cycles billed to the application; "
          f"{cad:,} CAD cycles ran\non the co-processor for free "
          f"(whole-run speedup {warp.dynamic_speedup:.2f}x)")

    # 2. partial reconfiguration: the fabric split into 8 regions, kernels
    #    occupy whole regions, reconfig charged per changed region
    regioned = run_dynamic_flow(
        SOURCE, "phased", opt_level=1,
        platform=MIPS_200MHZ.with_regions(8), config=config,
    )
    changed = sum(ev.regions_changed for ev in regioned.timeline.events)
    print(f"partial reconfig: {changed} region rewrites across "
          f"{len(regioned.timeline.events)} events")

    # 3. two applications time-sharing one fabric (each on its own core),
    #    capped at 60% of the fabric each
    from repro.dynamic import AppSpec, run_multi_app_flow
    shared = run_multi_app_flow(
        [AppSpec(SOURCE, "phased"), AppSpec(SOURCE, "phased-2")],
        platform=MIPS_200MHZ,
        config=DynamicConfig(sample_interval=4_000, max_fabric_share=0.6),
    )
    print("two apps, one fabric: peak use "
          f"{shared.peak_area_gates:,.0f} gates; "
          + "; ".join(f"{r.name} warm {r.warm_speedup:.2f}x"
                      for r in shared.reports))


if __name__ == "__main__":
    main()
