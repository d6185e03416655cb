"""Candidate hardware regions and the kernel time model.

A candidate bundles the loop's software profile with its synthesized
hardware implementation.  :func:`kernel_cycles` is the one place a
kernel's hardware time is decided: the FPGA cycles of the profiled work
plus the CPU-side cycles of invoking the kernel and migrating its
localized data.  Device costing
(:func:`repro.partition.costmodels.device_cost`), the application
metrics (:func:`repro.platform.metrics.evaluate_partition`) and the
dynamic controller's accounting all read it, so placement decisions and
timeline arithmetic cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro import stages
from repro.binary.image import Executable
from repro.decompile.decompiler import (
    DecompilationOptions,
    DecompiledFunction,
    DecompiledProgram,
)
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
    """FPGA cycles for *kernel* to perform the profiled work (no CPU side)."""
    if kernel.pipelined:
        iterations = profile.iterations * kernel.iterations_multiplier
        fill = max(0, kernel.schedule_length - kernel.ii)
        return iterations * kernel.ii + profile.invocations * fill
    fpga_cycles = 0.0
    for start, length in kernel.block_schedules.items():
        count = profile.block_counts.get(start, 0)
        fpga_cycles += count * length * kernel.iterations_multiplier
    return fpga_cycles


def invocation_cycles(platform: Platform, profile: LoopProfile) -> int:
    """CPU cycles to start the kernel and collect its results, for every
    invocation *profile* records."""
    return profile.invocations * platform.invocation_overhead_cycles


def migration_cycles(platform: Platform, kernel: HwKernel) -> float:
    """CPU cycles to move *kernel*'s localized data region into block RAM
    before its first use and back once at the end (0.0 when it localizes
    nothing)."""
    if kernel.localized and kernel.bram_bytes:
        return 2 * (kernel.bram_bytes / 4) * platform.migration_cycles_per_word
    return 0.0


class KernelCycles(NamedTuple):
    """A kernel's time for one profile, split by who spends it."""

    fpga: float        # FPGA cycles at the device clock
    invocation: int    # CPU cycles starting the kernel and collecting results
    migration: float   # CPU cycles moving its localized data in and out

    @property
    def cpu(self) -> float:
        """The CPU-side cycles: invocation plus migration."""
        return self.invocation + self.migration

    def seconds(self, fpga_mhz: float, cpu_mhz: float) -> float:
        """Wall-clock seconds with the FPGA at *fpga_mhz*, the CPU at
        *cpu_mhz*."""
        return self.fpga / (fpga_mhz * 1e6) + self.cpu / (cpu_mhz * 1e6)


def kernel_cycles(
    platform: Platform, kernel: HwKernel, profile: LoopProfile
) -> KernelCycles:
    """The kernel time model: *kernel*'s FPGA, invocation-overhead and
    migration cycles for the work *profile* records on *platform*.

    A caller that needs only some of the three (the dynamic controller's
    per-sample accounting) calls their functions directly."""
    return KernelCycles(
        kernel_fpga_cycles(kernel, profile),
        invocation_cycles(platform, profile),
        migration_cycles(platform, kernel),
    )


def kernel_hw_seconds(
    platform: Platform, kernel: HwKernel, profile: LoopProfile
) -> float:
    """Wall-clock seconds for *kernel* to perform the profiled work on
    fine-grained fabric, at the kernel's own clock."""
    return kernel_cycles(platform, kernel, profile).seconds(
        kernel.clock_mhz, platform.cpu_clock_mhz
    )


def build_candidates(
    exe: Executable,
    program: DecompiledProgram,
    profile: ProgramProfile,
    platform: Platform,
    synthesis: SynthesisOptions | None = None,
    min_cycles_fraction: float = 0.005,
    decompile_options: DecompilationOptions | None = None,
) -> list[Candidate]:
    """Synthesize every loop worth considering (>0.5 % of execution).

    *program* is *exe* decompiled with *decompile_options*; its kernels
    come from the stage memo (:func:`repro.stages.kernels`), so each loop
    is synthesized once per binary and option set.
    """
    synthesize = stages.kernels(
        exe,
        decompile_options,
        Synthesizer(synthesis or SynthesisOptions(device=platform.device)),
    )
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
            kernel = synthesize(func, loop)
            if kernel is None:
                continue
            candidates.append(
                Candidate(function=func, profile=loop_profile, kernel=kernel)
            )
    candidates.sort(key=lambda c: -c.profile.sw_cycles)
    return candidates
