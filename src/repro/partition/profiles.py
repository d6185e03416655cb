"""Mapping simulator profiles onto recovered loops.

The paper's partitioner runs off "profiling results [identifying] the most
frequent few loops".  The simulator gives per-address execution counts and
taken-edge counts on the *original* binary; decompiled blocks keep their
original start addresses, so counts transfer directly onto the recovered
CDFG: a loop's software cost is the cycle-weighted sum of its body's
address range, its iteration count is the sum of back-edge counts into the
header, and its invocation count is header executions minus back entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.binary.image import Executable
from repro.decompile.decompiler import DecompiledFunction, DecompiledProgram
from repro.isa.encoding import decode
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


def _per_address_cycles(
    exe: Executable, result: RunResult, cpi: CpiModel
) -> dict[int, int]:
    """CPU cycles attributable to each instruction address."""
    taken_from: dict[int, int] = {}
    for (src, _dst), count in result.edge_counts.items():
        taken_from[src] = taken_from.get(src, 0) + count
    cycles: dict[int, int] = {}
    for index, word in enumerate(exe.text_words):
        pc = exe.text_base + 4 * index
        count = result.pc_counts.get(pc, 0)
        if count == 0:
            continue
        mnemonic = decode(word).mnemonic
        klass = _MNEMONIC_CLASS[mnemonic]
        total = count * cpi.cycles_for(klass)
        if klass == "branch":
            total += cpi.taken_penalty * taken_from.get(pc, 0)
        cycles[pc] = total
    return cycles


def block_ranges(func: DecompiledFunction, exe: Executable) -> dict[int, tuple[int, int]]:
    """Original [start, end) address range of each block, by block index."""
    starts = sorted(block.start for block in func.cfg.blocks)
    _, func_end = exe.function_bounds(func.name)
    ranges: dict[int, tuple[int, int]] = {}
    for block in func.cfg.blocks:
        later = [s for s in starts if s > block.start]
        end = min(later) if later else func_end
        ranges[block.index] = (block.start, end)
    return ranges


def build_profile(
    exe: Executable,
    program: DecompiledProgram,
    result: RunResult,
    cpi: CpiModel | None = None,
) -> ProgramProfile:
    """Attribute the run's cycles to each recovered loop."""
    cpi = cpi or CpiModel()
    cycles_at = _per_address_cycles(exe, result, cpi)
    profile = ProgramProfile(
        total_cycles=result.cycles, total_instructions=result.steps
    )

    for func in program.functions.values():
        ranges = block_ranges(func, exe)
        for loop in func.loops:
            header = func.cfg.blocks[loop.header]
            body_ranges = [ranges[index] for index in loop.body]
            sw_cycles = 0
            block_counts: dict[int, int] = {}
            for start, end in body_ranges:
                pc = start
                while pc < end:
                    sw_cycles += cycles_at.get(pc, 0)
                    pc += 4
                block_counts[start] = result.pc_counts.get(start, 0)
            back_edges = 0
            for (src, dst), count in result.edge_counts.items():
                if dst != header.start:
                    continue
                if any(start <= src < end for start, end in body_ranges):
                    back_edges += count
            header_count = result.pc_counts.get(header.start, 0)
            loop_profile = LoopProfile(
                function=func.name,
                header_address=header.start,
                depth=loop.depth,
                block_starts=[func.cfg.blocks[i].start for i in sorted(loop.body)],
                sw_cycles=sw_cycles,
                iterations=back_edges,
                invocations=max(0, header_count - back_edges),
                block_counts=block_counts,
            )
            profile.loops[loop_profile.key] = loop_profile
    return profile
