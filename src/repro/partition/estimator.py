"""Candidate hardware regions: every profiled loop, synthesized.

A candidate bundles the loop's software profile with its synthesized
hardware implementation.  What it costs on each device (time, area) is
the cost-model registry's answer (:mod:`repro.partition.costmodels`),
filled into the partition graph when it is built; placement passes then
just pick assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.image import Executable
from repro.decompile.decompiler import DecompiledFunction, DecompiledProgram
from repro.errors import SynthesisError
from repro.partition.profiles import LoopProfile, ProgramProfile
from repro.platform.platform import Platform
from repro.synth.synthesizer import HwKernel, SynthesisOptions, Synthesizer


@dataclass
class Candidate:
    """One loop considered for hardware implementation."""

    function: DecompiledFunction
    profile: LoopProfile
    kernel: HwKernel

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def area(self) -> float:
        return self.kernel.area_gates

    def overlaps(self, other: "Candidate") -> bool:
        """Two candidates conflict if their block sets intersect (nesting)."""
        if self.function.name != other.function.name:
            return False
        return bool(
            set(self.profile.block_starts) & set(other.profile.block_starts)
        )


def kernel_fpga_cycles(kernel: HwKernel, profile: LoopProfile) -> float:
    """FPGA cycles for *kernel* to perform the profiled work (no CPU side).

    Shared by the fabric and CGRA cost models and the dynamic controller's
    interval accounting, so placement decisions and timeline arithmetic can
    never drift apart.
    """
    if kernel.pipelined:
        iterations = profile.iterations * kernel.iterations_multiplier
        fill = max(0, kernel.schedule_length - kernel.ii)
        return iterations * kernel.ii + profile.invocations * fill
    fpga_cycles = 0.0
    for start, length in kernel.block_schedules.items():
        count = profile.block_counts.get(start, 0)
        fpga_cycles += count * length * kernel.iterations_multiplier
    return fpga_cycles


def kernel_hw_seconds(
    platform: Platform, kernel: HwKernel, profile: LoopProfile
) -> float:
    """Wall-clock seconds for *kernel* to perform the profiled work."""
    fpga_hz = kernel.clock_mhz * 1e6
    fpga_cycles = kernel_fpga_cycles(kernel, profile)
    overhead_cycles = profile.invocations * platform.invocation_overhead_cycles
    migration_cycles = 0.0
    if kernel.localized and kernel.bram_bytes:
        # move the region in before the first use and back once at the end
        migration_cycles = 2 * (kernel.bram_bytes / 4) * platform.migration_cycles_per_word
    cpu_side = (overhead_cycles + migration_cycles) / (platform.cpu_clock_mhz * 1e6)
    return fpga_cycles / fpga_hz + cpu_side


def build_candidates(
    exe: Executable,
    program: DecompiledProgram,
    profile: ProgramProfile,
    platform: Platform,
    synthesis: SynthesisOptions | None = None,
    min_cycles_fraction: float = 0.005,
) -> list[Candidate]:
    """Synthesize every loop worth considering (>0.5 % of execution)."""
    synthesis = synthesis or SynthesisOptions(device=platform.device)
    synthesizer = Synthesizer(synthesis)
    threshold = profile.total_cycles * min_cycles_fraction
    candidates: list[Candidate] = []
    for func in program.functions.values():
        for loop in func.loops:
            key = (func.name, func.cfg.blocks[loop.header].start)
            loop_profile = profile.loops.get(key)
            if loop_profile is None or loop_profile.sw_cycles <= threshold:
                continue
            if loop_profile.iterations <= 0:
                continue
            try:
                kernel = synthesizer.synthesize_loop(func, loop, exe)
            except SynthesisError:
                continue
            candidates.append(
                Candidate(function=func, profile=loop_profile, kernel=kernel)
            )
    candidates.sort(key=lambda c: -c.profile.sw_cycles)
    return candidates
