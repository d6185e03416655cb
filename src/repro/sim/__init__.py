"""Cycle-level MIPS simulator, profiler and instruction-mix statistics.

This package plays the role of the paper's execution platform for the
software side: it runs the compiled binaries, produces the execution-time
numbers for the "software only" baseline, and produces the *profiling
results* (per-address and per-edge execution counts) that drive the paper's
90-10 partitioning heuristic.
"""

from repro.sim.memory import Memory
from repro.sim.cpu import Cpu, CpiModel, RunResult, run_executable
from repro.sim.reference import run_reference

__all__ = [
    "Cpu", "CpiModel", "Memory", "RunResult", "SuperblockTable",
    "run_executable", "run_reference",
]


def __getattr__(name: str):
    # the code generator loads with the first Cpu, not with the package
    if name == "SuperblockTable":
        from repro.sim.superblock import SuperblockTable

        return SuperblockTable
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
