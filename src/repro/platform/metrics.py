"""Speedup and energy arithmetic for a partitioned application.

Turns (simulated software cycles, selected hardware kernels) into the
paper's reported metrics: application speedup, kernel speedup, energy
savings, and total hardware area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.platform.platform import Platform

if TYPE_CHECKING:  # avoid a circular import; Candidate is only a type here
    from repro.partition.estimator import Candidate


@dataclass
class KernelMetrics:
    name: str
    function: str
    header_address: int
    sw_seconds: float
    hw_seconds: float
    area_gates: float
    clock_mhz: float
    localized: bool
    iterations: int
    invocations: int
    partition_step: int = 0

    @property
    def speedup(self) -> float:
        return self.sw_seconds / self.hw_seconds if self.hw_seconds > 0 else 0.0


@dataclass
class ApplicationMetrics:
    platform_name: str
    cpu_clock_mhz: float
    sw_seconds: float
    hw_seconds: float
    kernels: list[KernelMetrics] = field(default_factory=list)
    energy_sw_mj: float = 0.0
    energy_hw_mj: float = 0.0
    area_gates: float = 0.0

    @property
    def app_speedup(self) -> float:
        return self.sw_seconds / self.hw_seconds if self.hw_seconds > 0 else 1.0

    @property
    def kernel_speedup(self) -> float:
        """Combined kernel speedup (total kernel sw time / hw time)."""
        sw = sum(k.sw_seconds for k in self.kernels)
        hw = sum(k.hw_seconds for k in self.kernels)
        return sw / hw if hw > 0 else 1.0

    @property
    def energy_savings(self) -> float:
        if self.energy_sw_mj <= 0:
            return 0.0
        return 1.0 - self.energy_hw_mj / self.energy_sw_mj

    @property
    def kernel_fraction(self) -> float:
        """Fraction of software time covered by the hardware partition."""
        if self.sw_seconds <= 0:
            return 0.0
        return sum(k.sw_seconds for k in self.kernels) / self.sw_seconds


def evaluate_partition(
    platform: Platform,
    total_cycles: int,
    selected: list[Candidate],
    step_of: dict[str, int] | None = None,
) -> ApplicationMetrics:
    """Compute application metrics for a chosen partition."""
    from repro.partition.estimator import kernel_cycles

    step_of = step_of or {}
    sw_seconds = platform.cpu_seconds(total_cycles)

    kernels: list[KernelMetrics] = []
    fpga_busy_seconds = 0.0
    cpu_overhead_cycles = 0.0
    fpga_dynamic_mj = 0.0
    total_area = 0.0
    kernel_sw_cycles = 0.0

    for candidate in selected:
        cycles = kernel_cycles(platform, candidate.kernel, candidate.profile)
        hw_seconds = cycles.seconds(
            candidate.kernel.clock_mhz, platform.cpu_clock_mhz
        )
        metrics = KernelMetrics(
            name=candidate.name,
            function=candidate.function.name,
            header_address=candidate.profile.header_address,
            sw_seconds=platform.cpu_seconds(candidate.profile.sw_cycles),
            hw_seconds=hw_seconds,
            area_gates=candidate.kernel.area_gates,
            clock_mhz=candidate.kernel.clock_mhz,
            localized=candidate.kernel.localized,
            iterations=candidate.profile.iterations,
            invocations=candidate.profile.invocations,
            partition_step=step_of.get(candidate.name, 0),
        )
        kernels.append(metrics)
        kernel_sw_cycles += candidate.profile.sw_cycles
        total_area += candidate.kernel.area_gates

        # split the kernel's wall time into FPGA-busy and CPU-overhead parts
        overhead_cycles = cycles.cpu
        cpu_overhead_cycles += overhead_cycles
        fpga_busy = hw_seconds - overhead_cycles / (platform.cpu_clock_mhz * 1e6)
        fpga_busy_seconds += max(0.0, fpga_busy)
        dynamic_mw = platform.fpga_power.power_mw(
            candidate.kernel.area_gates, candidate.kernel.clock_mhz
        ) - platform.fpga_power.static_mw
        fpga_dynamic_mj += dynamic_mw * max(0.0, fpga_busy)  # mW x s = mJ

    cpu_active_cycles = total_cycles - kernel_sw_cycles + cpu_overhead_cycles
    cpu_active_seconds = platform.cpu_seconds(cpu_active_cycles)
    hw_seconds_total = cpu_active_seconds + fpga_busy_seconds

    active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
    idle_mw = platform.cpu_power.idle_mw(platform.cpu_clock_mhz)

    energy_sw_mj = active_mw * sw_seconds  # mW x s = mJ
    energy_hw_mj = (
        active_mw * cpu_active_seconds
        + idle_mw * fpga_busy_seconds
        + fpga_dynamic_mj
        + platform.fpga_power.static_mw * hw_seconds_total
    )

    return ApplicationMetrics(
        platform_name=platform.name,
        cpu_clock_mhz=platform.cpu_clock_mhz,
        sw_seconds=sw_seconds,
        hw_seconds=hw_seconds_total,
        kernels=kernels,
        energy_sw_mj=energy_sw_mj,
        energy_hw_mj=energy_hw_mj,
        area_gates=total_area,
    )
