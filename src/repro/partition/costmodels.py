"""What a candidate costs on each kind of device.

:func:`device_cost` answers "what does this candidate cost on that
device?" for the three device kinds
(:data:`repro.platform.devices.KINDS`); building the partition graph
asks it once per candidate and device, so placement algorithms never
price anything themselves.  Hardware time comes from the kernel time
model (:func:`repro.partition.estimator.kernel_cycles`), the one the
application metrics and the dynamic controller read too.
Every cost is deterministic and derives from the numbers the flow already
computed (profiles + synthesized kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.partition.estimator import kernel_cycles, kernel_hw_seconds
from repro.platform.devices import CPU, FABRIC, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.platform.platform import Platform


@dataclass(frozen=True)
class DeviceCost:
    """What one candidate costs when implemented on one device."""

    seconds: float     # wall-clock per program run on this device
    area_gates: float  # device area the implementation occupies


#: CGRA word-level packing: ~45% of the fine-grained equivalent-gate area
CGRA_AREA_FACTOR = 0.45


def device_cost(
    platform: "Platform", device: DeviceSpec, candidate: "Candidate"
) -> DeviceCost:
    """*candidate*'s cost on *device*.

    * ``cpu`` -- software: the profiled cycles at the CPU clock; no area.
    * ``fabric`` -- fine-grained FPGA fabric: the synthesized kernel as-is,
      at its own clock.
    * ``cgra`` -- a coarse-grained reconfigurable array (Galanis et al.
      style): word-level ALU grids amortize the per-bit LUT overhead, so
      the kernel packs into fewer equivalent gates (:data:`CGRA_AREA_FACTOR`)
      but runs at the grid's fixed word-level clock (``device.clock_mhz``)
      rather than its datapath's, so a kernel that out-clocked the grid on
      LUTs slows down and a slow LUT datapath speeds up.  The CPU-side
      invocation and migration cycles are the fabric's: the bus does not
      care what sits behind it.
    """
    kernel, profile = candidate.kernel, candidate.profile
    if device.kind == CPU:
        return DeviceCost(
            seconds=platform.cpu_seconds(profile.sw_cycles), area_gates=0.0
        )
    if device.kind == FABRIC:
        return DeviceCost(
            seconds=kernel_hw_seconds(platform, kernel, profile),
            area_gates=kernel.area_gates,
        )
    return DeviceCost(
        seconds=kernel_cycles(platform, kernel, profile).seconds(
            device.clock_mhz, platform.cpu_clock_mhz
        ),
        area_gates=kernel.area_gates * CGRA_AREA_FACTOR,
    )
