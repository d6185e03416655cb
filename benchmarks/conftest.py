"""Shared infrastructure for the experiment harness.

Each bench file regenerates one table/figure of the paper (see DESIGN.md
section 4 and EXPERIMENTS.md).  Flow runs are expensive (full compile ->
simulate -> decompile -> partition per benchmark per platform), so results
are computed once per session and shared across bench files; the
``benchmark`` fixture then times a representative unit of the pipeline so
``pytest benchmarks/ --benchmark-only`` also reports meaningful runtimes.
"""

from __future__ import annotations

import pytest

from repro.flow import FlowJob, FlowReport, run_flows
from repro.platform import MIPS_200MHZ, MIPS_400MHZ, MIPS_40MHZ, Platform
from repro.programs import ALL_BENCHMARKS, get_benchmark

PLATFORMS: dict[float, Platform] = {
    40.0: MIPS_40MHZ,
    200.0: MIPS_200MHZ,
    400.0: MIPS_400MHZ,
}


class FlowCache:
    """Session-wide cache of flow reports keyed by (benchmark, level, MHz).

    Reports are fetched through :func:`repro.flow.run_flows`, whose stage
    memo shares each binary's upstream artifacts across clock rates.
    Nothing outlives the session: each benchmark session starts cold.
    """

    def __init__(self) -> None:
        self._reports: dict[tuple[str, int, float], FlowReport] = {}

    def report(self, name: str, opt_level: int = 1, cpu_mhz: float = 200.0) -> FlowReport:
        key = (name, opt_level, cpu_mhz)
        if key not in self._reports:
            bench = get_benchmark(name)
            [report] = run_flows([
                FlowJob(
                    source=bench.source,
                    name=name,
                    opt_level=opt_level,
                    platform=PLATFORMS[cpu_mhz],
                )
            ])
            self._reports[key] = report
        return self._reports[key]

    def all_reports(self, opt_level: int = 1, cpu_mhz: float = 200.0) -> list[FlowReport]:
        missing = [
            bench
            for bench in ALL_BENCHMARKS
            if (bench.name, opt_level, cpu_mhz) not in self._reports
        ]
        if missing:
            jobs = [
                FlowJob(
                    source=bench.source,
                    name=bench.name,
                    opt_level=opt_level,
                    platform=PLATFORMS[cpu_mhz],
                )
                for bench in missing
            ]
            for bench, report in zip(missing, run_flows(jobs)):
                self._reports[(bench.name, opt_level, cpu_mhz)] = report
        return [
            self._reports[(bench.name, opt_level, cpu_mhz)]
            for bench in ALL_BENCHMARKS
        ]


@pytest.fixture(scope="session")
def flows() -> FlowCache:
    return FlowCache()


def render_table(title: str, headers: list[str], rows: list[list], note: str = "") -> str:
    """Fixed-width table rendering for the experiment printouts."""
    widths = [len(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if note:
        lines.append(note)
    return "\n".join(lines)
