"""Mapping simulator profiles onto recovered loops.

The paper's partitioner runs off "profiling results [identifying] the most
frequent few loops".  The simulator gives per-address execution counts and
taken-edge counts on the *original* binary; decompiled blocks keep their
original start addresses, so counts transfer directly onto the recovered
CDFG: a loop's software cost is the cycle-weighted sum of its body's
address range, its iteration count is the sum of back-edge counts into the
header, and its invocation count is header executions minus back entries.

Where each loop sits in the text is computed once per decompiled program,
by :func:`loop_index`: its header, depth, the body's maximal text-index
runs, its block starts and its family of overlapping loops.  The dynamic
controller's loop sites read the same index.  The pricing splits the way
:meth:`~repro.sim.cpu.RunResult.recost` splits a run, because a loop's
cost depends on the CPU model only through class-weighted counts:

* :func:`summarize_loops` -- once per binary, program and run -- walks each
  loop's index runs for its executed instructions per instruction class,
  its taken branches, back edges, invocations and block counts;
* :func:`build_profile` prices those summaries under one
  :class:`~repro.sim.cpu.CpiModel`:
  ``sw_cycles = sum(count_k * cpi.cycles_for(k)) + cpi.taken_penalty * taken``,
  exactly the per-address sum, since every CPI field is an ``int``.

The index and the summaries are memoised with the binary's other
artifacts (:func:`repro.stages.loop_index`,
:func:`repro.stages.loop_summaries`), so each platform of a binary pays
only the pricing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro import stages
from repro.binary.image import Executable
from repro.decompile.dataflow import NaturalLoop
from repro.decompile.decompiler import DecompiledFunction, DecompiledProgram
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


@dataclass(frozen=True, eq=False)
class LoopEntry:
    """Where one recovered loop sits in the text: all that the static
    profile (:func:`summarize_loops`) and the dynamic controller's loop
    sites read of its geometry.  Shared through the stage memo, so nothing
    may mutate it (``block_starts`` included)."""

    function: DecompiledFunction
    loop: NaturalLoop
    header_address: int
    #: the header's text index
    header_index: int
    depth: int
    #: the body's text indices as maximal runs ``[a, b)``, in address order
    runs: tuple[tuple[int, int], ...]
    #: the body's text indices
    body: frozenset[int]
    #: body block start address -> its text index, in address order
    block_starts: dict[int, int]
    #: header addresses of this loop and of every loop of its function whose
    #: body overlaps it, in index order
    family: tuple[int, ...]

    def profile(self, sw_cycles: int, iterations: int, invocations: int,
                block_counts) -> LoopProfile:
        """This loop's profile from its counts (*block_counts* in
        ``block_starts`` order): a fresh, unshared object."""
        return LoopProfile(
            self.function.name, self.header_address, self.depth,
            list(self.block_starts), sw_cycles=sw_cycles, iterations=iterations,
            invocations=invocations,
            block_counts=dict(zip(self.block_starts, block_counts)),
        )


@dataclass(frozen=True, slots=True)
class LoopSummary:
    """The CPU-model-free part of one loop's profile.  Its fields are
    immutable, so one summary can serve every flow of its binary."""

    entry: LoopEntry
    #: executed instructions over the body, per instruction class
    class_counts: tuple[tuple[str, int], ...]
    #: taken conditional branches in the body
    taken: int
    iterations: int
    invocations: int
    #: executions of each body block, in ``entry.block_starts`` order
    block_counts: tuple[int, ...]

    def price(self, cpi: CpiModel) -> LoopProfile:
        """This loop's profile under *cpi* (a fresh, unshared object)."""
        sw_cycles = cpi.taken_penalty * self.taken
        for klass, count in self.class_counts:
            sw_cycles += count * cpi.cycles_for(klass)
        return self.entry.profile(
            sw_cycles, self.iterations, self.invocations, self.block_counts
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


def loop_index(exe: Executable, program: DecompiledProgram) -> tuple[LoopEntry, ...]:
    """Every recovered loop of *program* placed in *exe*'s text, in program
    order: functions, then each function's loops."""
    text_base = exe.text_base
    entries: list[LoopEntry] = []
    for func in program.functions.values():
        ranges = block_ranges(func, exe)
        placed = []   # (loop, runs, body, block starts) of this function
        for loop in func.loops:
            runs: list[tuple[int, int]] = []
            block_starts: dict[int, int] = {}
            for start, end in sorted(ranges[index] for index in loop.body):
                a, b = (start - text_base) >> 2, (end - text_base) >> 2
                block_starts[start] = a
                if runs and runs[-1][1] == a:
                    a = runs.pop()[0]
                runs.append((a, b))
            body = frozenset(i for a, b in runs for i in range(a, b))
            placed.append((loop, tuple(runs), body, block_starts))
        for loop, runs, body, block_starts in placed:
            header = func.cfg.blocks[loop.header].start
            family = tuple(
                func.cfg.blocks[other.header].start
                for other, _, other_body, _ in placed
                if other is loop or other_body & body
            )
            entries.append(LoopEntry(
                func, loop, header, (header - text_base) >> 2, loop.depth,
                runs, body, block_starts, family,
            ))
    return tuple(entries)


def summarize_loops(
    exe: Executable, program: DecompiledProgram, result: RunResult
) -> tuple[LoopSummary, ...]:
    """Every recovered loop's summary of the profiled *result*."""
    text_base = exe.text_base
    instructions = exe.instructions
    pc_counts = result.pc_counts
    taken_from: dict[int, int] = {}
    edges_into: dict[int, list[tuple[int, int]]] = {}
    for (src, dst), count in result.edge_counts.items():
        taken_from[src] = taken_from.get(src, 0) + count
        edges_into.setdefault(dst, []).append((src, count))

    summaries: list[LoopSummary] = []
    for entry in stages.loop_index(exe, program, loop_index):
        class_counts: dict[str, int] = {}
        taken = 0
        for a, b in entry.runs:
            for index in range(a, b):
                pc = text_base + 4 * index
                count = pc_counts.get(pc, 0)
                if not count:
                    continue
                klass = _MNEMONIC_CLASS[instructions[index].mnemonic]
                class_counts[klass] = class_counts.get(klass, 0) + count
                if klass == "branch":
                    taken += taken_from.get(pc, 0)
        # every taken edge into the header from the body, the simulator's
        # jr/jalr edges included
        back_edges = sum(
            count for src, count in edges_into.get(entry.header_address, ())
            if (src - text_base) >> 2 in entry.body
        )
        summaries.append(LoopSummary(
            entry,
            class_counts=tuple(class_counts.items()),
            taken=taken,
            iterations=back_edges,
            invocations=max(0, pc_counts.get(entry.header_address, 0) - back_edges),
            block_counts=tuple(pc_counts.get(start, 0) for start in entry.block_starts),
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
