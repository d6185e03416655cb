"""Experiment A2 (ablation): the 90-10 partitioner vs classic algorithms.

The paper (section 3) chose the simple three-step heuristic over standard
approaches [Henkel'99 simulated annealing; Kalavade & Lee'94 GCLP]
explicitly to keep partitioning *runtime* small enough for dynamic
(on-line) partitioning.  This ablation runs all partitioners on the same
candidate sets and reports solution quality (estimated time saved) and
partitioning runtime.

Asserted shape: the 90-10 heuristic is within a few percent of the
exhaustive reference on quality while being orders of magnitude faster
than simulated annealing.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition import build_candidates, build_profile, partition
from repro.platform import MIPS_200MHZ
from repro.programs import get_benchmark
from repro.sim import run_executable

from _tables import render_table

_BENCHMARKS = ["fir", "sobel", "adpcm", "canrdr", "jpegdct", "bcnt"]


@pytest.fixture(scope="module")
def candidate_sets():
    sets = {}
    for name in _BENCHMARKS:
        bench = get_benchmark(name)
        exe = compile_source(bench.source, opt_level=1)
        program = decompile(exe)
        assert program.recovered
        _, run = run_executable(exe, profile=True)
        profile = build_profile(exe, program, run)
        candidates = build_candidates(exe, program, profile, MIPS_200MHZ)
        sets[name] = (profile, candidates)
    return sets


def _run(algorithm, candidates, total_cycles):
    """*algorithm* over the platform's CPU + fabric device list."""
    return partition(
        candidates, platform=MIPS_200MHZ, total_cycles=total_cycles,
        passes=algorithm,
    )


#: table label -> placement algorithm
_ALGORITHMS = {
    "90-10 (paper)": "90-10",
    "greedy density": "greedy",
    "GCLP": "gclp",
    "annealing": "annealing",
    "exhaustive": "exhaustive",
}


def test_ablation_report(candidate_sets):
    quality: dict[str, float] = {a: 0.0 for a in _ALGORITHMS}
    runtime: dict[str, float] = {a: 0.0 for a in _ALGORITHMS}
    place_runtime: dict[str, float] = {a: 0.0 for a in _ALGORITHMS}
    pass_totals: dict[str, dict[str, float]] = {a: {} for a in _ALGORITHMS}
    reference: dict[str, float] = {}
    for name, (profile, candidates) in candidate_sets.items():
        for algo, algorithm in _ALGORITHMS.items():
            outcome = _run(algorithm, candidates, profile.total_cycles)
            result, graph = outcome.result, outcome.graph
            # time saved as the graph's cost models estimate it, summed in
            # placement order
            quality[algo] += sum(
                graph.nodes[i].saved_on(graph.nodes[i].device)
                for i in graph.placement_order
            )
            # per-pass wall clock from the pipeline: "partitioning runtime"
            # is the sum of every pass, and the placement pass is broken
            # out so algorithm cost is not conflated with shared
            # filter/legalize work
            runtime[algo] += result.partitioning_seconds
            place_runtime[algo] += result.pass_seconds.get("place", 0.0)
            for pass_name, seconds in result.pass_seconds.items():
                pass_totals[algo][pass_name] = (
                    pass_totals[algo].get(pass_name, 0.0) + seconds
                )
        reference[name] = quality["exhaustive"]

    rows = []
    best = quality["exhaustive"] or 1e-12
    for algo in _ALGORITHMS:
        rows.append(
            [
                algo,
                f"{1000 * quality[algo]:.3f}",
                f"{100 * quality[algo] / best:.1f}%",
                f"{1000 * runtime[algo]:.2f}",
                f"{1000 * place_runtime[algo]:.2f}",
            ]
        )
    print()
    print(render_table(
        "A2: partitioner comparison over six benchmarks (200 MHz)",
        ["algorithm", "time saved (ms)", "vs exhaustive",
         "pipeline runtime (ms)", "placement pass (ms)"],
        rows,
        note="paper: the simple heuristic was chosen for small partitioning time "
             "(dynamic partitioning); quality is expected to be comparable",
    ))

    pass_names = list(pass_totals["90-10 (paper)"])
    print(render_table(
        "A2b: per-pass wall clock (ms, summed over six benchmarks)",
        ["algorithm"] + pass_names,
        [
            [algo] + [
                f"{1000 * pass_totals[algo].get(p, 0.0):.3f}"
                for p in pass_names
            ]
            for algo in _ALGORITHMS
        ],
        note="filter/legalize/report are shared pipeline passes; "
             "only 'place' differs between algorithms",
    ))

    # --- shape assertions -------------------------------------------------
    assert quality["90-10 (paper)"] >= 0.90 * quality["exhaustive"]
    assert runtime["90-10 (paper)"] < runtime["annealing"] / 10.0
    assert place_runtime["90-10 (paper)"] < place_runtime["annealing"] / 10.0
    for algo in _ALGORITHMS:
        assert set(pass_totals[algo]) == {
            "filter", "place", "legalize", "report"
        }, algo


def test_all_partitioners_feasible(candidate_sets):
    budget = MIPS_200MHZ.device.capacity_gates
    for name, (profile, candidates) in candidate_sets.items():
        for algo, algorithm in _ALGORITHMS.items():
            result = _run(algorithm, candidates, profile.total_cycles).result
            assert result.area_used <= budget, (name, algo)


def test_bench_ninety_ten_speed(benchmark, candidate_sets):
    """Times one 90-10 partitioning run (must be fast: it is the paper's
    argument for the heuristic)."""
    profile, candidates = candidate_sets["jpegdct"]
    outcome = benchmark(lambda: _run("90-10", candidates, profile.total_cycles))
    assert outcome.result.selected
