"""Experiment T1: decompilation-based partitioning of the 20 benchmarks.

Regenerates the paper's headline results (section 4, -O1 binaries, 200 MHz
MIPS + Virtex-II):

    "The decompilation-based approach showed consistently good application
    speedups and energy savings, averaging 5.4 and 69%, compared to a MIPS
    processor running at 200 MHz.  The average kernel speedup was 44.8.
    The average area required was an equivalent of 26,261 logic gates."

The printed table lists per-benchmark rows; the asserted *shape* claims:
hardware wins consistently (average application speedup well above 1),
kernels speed up far more than applications (Amdahl), two EEMBC benchmarks
fail CDFG recovery, and average area is in the paper's range.

The ``benchmark`` target times one full flow (the unit of work a dynamic
partitioning system would re-run).
"""

from __future__ import annotations

from repro.programs import ALL_BENCHMARKS, get_benchmark

from _tables import render_table

PAPER = {"app_speedup": 5.4, "energy_pct": 69.0, "kernel_speedup": 44.8, "area": 26_261}


def _collect(flows):
    return [flows.report(b.name, opt_level=1, cpu_mhz=200.0) for b in ALL_BENCHMARKS]


def test_table1_report(flows):
    reports = _collect(flows)
    rows = []
    for report in reports:
        if not report.recovered:
            rows.append([report.name, "FAILED (indirect jump)", "-", "-", "-", "-"])
            continue
        rows.append(
            [
                report.name,
                f"{report.app_speedup:.2f}",
                f"{report.kernel_speedup:.1f}",
                f"{100 * report.energy_savings:.1f}",
                f"{report.area_gates:.0f}",
                len(report.metrics.kernels),
            ]
        )
    ok = [r for r in reports if r.recovered]
    n = len(ok)
    avg_speedup = sum(r.app_speedup for r in ok) / n
    avg_kernel = sum(r.kernel_speedup for r in ok) / n
    avg_energy = 100 * sum(r.energy_savings for r in ok) / n
    avg_area = sum(r.area_gates for r in ok) / n
    rows.append(["AVERAGE", f"{avg_speedup:.2f}", f"{avg_kernel:.1f}",
                 f"{avg_energy:.1f}", f"{avg_area:.0f}", ""])
    rows.append(["paper", f"{PAPER['app_speedup']}", f"{PAPER['kernel_speedup']}",
                 f"{PAPER['energy_pct']}", f"{PAPER['area']}", ""])
    print()
    print(render_table(
        "T1: per-benchmark partitioning results (-O1, 200 MHz MIPS, Virtex-II)",
        ["benchmark", "app speedup", "kernel speedup", "energy savings %", "area (gates)", "kernels"],
        rows,
        note=f"recovered {n}/20 benchmarks (paper: 18/20)",
    ))

    # --- shape assertions -------------------------------------------------
    assert n == 18, "exactly the two jump-table benchmarks must fail"
    assert avg_speedup > 3.0, "hardware must win consistently"
    assert avg_kernel > avg_speedup, "kernels speed up more than applications"
    assert 40.0 <= avg_energy <= 90.0, "large energy savings"
    assert 10_000 <= avg_area <= 60_000, "area in the paper's ballpark"
    assert all(r.app_speedup >= 1.0 for r in ok)


def test_every_recovered_benchmark_gets_hardware(flows):
    for report in _collect(flows):
        if report.recovered:
            assert report.metrics.kernels, f"{report.name}: no kernels selected"
            assert report.area_gates <= report.platform.device.capacity_gates


def test_bench_single_flow(benchmark):
    """Times one complete flow run (compile->simulate->decompile->partition),
    cold: each round starts from an empty stage memo."""
    from repro import stages
    from repro.flow import run_flow

    bench = get_benchmark("fir")
    result = benchmark.pedantic(
        lambda: run_flow(bench.source, "fir", opt_level=1),
        setup=stages.clear,
        iterations=1,
        rounds=3,
    )
    assert result.recovered
