"""Cycle-level MIPS simulator, profiler and instruction-mix statistics.

This package plays the role of the paper's execution platform for the
software side: it runs the compiled binaries, produces the execution-time
numbers for the "software only" baseline, and produces the *profiling
results* (per-address and per-edge execution counts) that drive the paper's
90-10 partitioning heuristic.
"""

from repro.surface import lazy_surface

#: where each public name lives; a name's module loads on first access
#: (PEP 562), so the reference interpreter and the code generator load only
#: in sessions that use them
_EXPORTS = {
    "Cpu": "repro.sim.cpu",
    "CpiModel": "repro.sim.cpu",
    "Memory": "repro.sim.memory",
    "RunResult": "repro.sim.cpu",
    "SuperblockTable": "repro.sim.superblock",
    "run_executable": "repro.sim.cpu",
    "run_reference": "repro.sim.reference",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
