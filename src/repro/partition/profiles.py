"""Mapping simulator profiles onto recovered loops.

The paper's partitioner runs off "profiling results [identifying] the most
frequent few loops".  The simulator gives per-address execution counts and
taken-edge counts on the *original* binary; decompiled blocks keep their
original start addresses, so counts transfer directly onto the recovered
CDFG: a loop's software cost is the cycle-weighted sum of its body's
address range, its iteration count is the sum of back-edge counts into the
header, and its invocation count is header executions minus back entries.

The work splits the way :meth:`~repro.sim.cpu.RunResult.recost` splits a
run, because a loop's cost depends on the CPU model only through
class-weighted counts:

* :func:`summarize_loops` -- once per binary, program and run -- walks each
  loop's body for its executed instructions per instruction class, its
  taken branches, back edges, invocations and block counts;
* :func:`build_profile` prices those summaries under one
  :class:`~repro.sim.cpu.CpiModel`:
  ``sw_cycles = sum(count_k * cpi.cycles_for(k)) + cpi.taken_penalty * taken``,
  exactly the per-address sum, since every CPI field is an ``int``.

The summaries are memoised with the binary's other artifacts
(:func:`repro.stages.loop_summaries`), so each platform of a binary pays
only the pricing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro import stages
from repro.binary.image import Executable
from repro.decompile.decompiler import DecompiledFunction, DecompiledProgram
from repro.isa.encoding import decode_text
from repro.sim.cpu import CpiModel, RunResult, _MNEMONIC_CLASS


@dataclass
class LoopProfile:
    """Software execution profile of one recovered natural loop."""

    function: str
    header_address: int
    depth: int
    block_starts: list[int]
    sw_cycles: int = 0
    iterations: int = 0
    invocations: int = 0
    block_counts: dict[int, int] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, int]:
        return (self.function, self.header_address)


@dataclass
class ProgramProfile:
    """Whole-program profile plus per-loop attribution."""

    total_cycles: int
    total_instructions: int
    loops: dict[tuple[str, int], LoopProfile] = field(default_factory=dict)

    def hot_loops(self) -> list[LoopProfile]:
        """Loops sorted by software cycles, hottest first."""
        return sorted(self.loops.values(), key=lambda lp: -lp.sw_cycles)


@dataclass(frozen=True, slots=True)
class LoopSummary:
    """The CPU-model-free part of one loop's profile.  Its fields are
    immutable, so one summary can serve every flow of its binary."""

    function: str
    header_address: int
    depth: int
    block_starts: tuple[int, ...]
    #: executed instructions over the body, per instruction class
    class_counts: tuple[tuple[str, int], ...]
    #: taken conditional branches in the body
    taken: int
    iterations: int
    invocations: int
    #: (block start, executions) of each body block
    block_counts: tuple[tuple[int, int], ...]

    def price(self, cpi: CpiModel) -> LoopProfile:
        """This loop's profile under *cpi* (a fresh, unshared object)."""
        sw_cycles = cpi.taken_penalty * self.taken
        for klass, count in self.class_counts:
            sw_cycles += count * cpi.cycles_for(klass)
        return LoopProfile(
            function=self.function,
            header_address=self.header_address,
            depth=self.depth,
            block_starts=list(self.block_starts),
            sw_cycles=sw_cycles,
            iterations=self.iterations,
            invocations=self.invocations,
            block_counts=dict(self.block_counts),
        )


def block_ranges(func: DecompiledFunction, exe: Executable) -> dict[int, tuple[int, int]]:
    """Original [start, end) address range of each block, by block index."""
    starts = sorted(block.start for block in func.cfg.blocks)
    _, func_end = exe.function_bounds(func.name)
    ranges: dict[int, tuple[int, int]] = {}
    for block in func.cfg.blocks:
        later = bisect_right(starts, block.start)
        end = starts[later] if later < len(starts) else func_end
        ranges[block.index] = (block.start, end)
    return ranges


def summarize_loops(
    exe: Executable, program: DecompiledProgram, result: RunResult
) -> tuple[LoopSummary, ...]:
    """Every recovered loop's summary of the profiled *result*."""
    text_base = exe.text_base
    instructions = decode_text(exe.text_words)
    pc_counts = result.pc_counts
    taken_from: dict[int, int] = {}
    edges_into: dict[int, list[tuple[int, int]]] = {}
    for (src, dst), count in result.edge_counts.items():
        taken_from[src] = taken_from.get(src, 0) + count
        edges_into.setdefault(dst, []).append((src, count))

    summaries: list[LoopSummary] = []
    for func in program.functions.values():
        ranges = block_ranges(func, exe)
        for loop in func.loops:
            header = func.cfg.blocks[loop.header].start
            body_ranges = [ranges[index] for index in loop.body]
            class_counts: dict[str, int] = {}
            taken = 0
            block_counts: dict[int, int] = {}
            for start, end in body_ranges:
                for pc in range(start, end, 4):
                    count = pc_counts.get(pc, 0)
                    if not count:
                        continue
                    klass = _MNEMONIC_CLASS[instructions[(pc - text_base) >> 2].mnemonic]
                    class_counts[klass] = class_counts.get(klass, 0) + count
                    if klass == "branch":
                        taken += taken_from.get(pc, 0)
                block_counts[start] = pc_counts.get(start, 0)
            back_edges = 0
            for src, count in edges_into.get(header, ()):
                if any(start <= src < end for start, end in body_ranges):
                    back_edges += count
            summaries.append(LoopSummary(
                function=func.name,
                header_address=header,
                depth=loop.depth,
                block_starts=tuple(func.cfg.blocks[i].start for i in sorted(loop.body)),
                class_counts=tuple(class_counts.items()),
                taken=taken,
                iterations=back_edges,
                invocations=max(0, pc_counts.get(header, 0) - back_edges),
                block_counts=tuple(block_counts.items()),
            ))
    return tuple(summaries)


def build_profile(
    exe: Executable,
    program: DecompiledProgram,
    result: RunResult,
    cpi: CpiModel | None = None,
) -> ProgramProfile:
    """Attribute the run's cycles to each recovered loop.

    The loop summaries are memoised by the identity of *program* and of
    *result*'s count dictionaries, so neither may change after the call.
    """
    cpi = cpi or CpiModel()
    profile = ProgramProfile(
        total_cycles=result.cycles, total_instructions=result.steps
    )
    for summary in stages.loop_summaries(exe, program, result, summarize_loops):
        loop_profile = summary.price(cpi)
        profile.loops[loop_profile.key] = loop_profile
    return profile
