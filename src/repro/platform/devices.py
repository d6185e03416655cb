"""Device inventory of a platform: the units placement can target.

The paper's platform is a binary CPU/FPGA pair, but the partitioning
pipeline places kernels over an explicit *device list*: the CPU plus one
or more fabric regions, CGRA datapaths or extra soft-core slots -- they
are just more entries.  :class:`DeviceSpec` is the placement-facing view
of one such unit; :attr:`repro.platform.platform.Platform.devices` is the
paper's pair (the CPU plus one fabric carrying the whole kernel budget),
and :func:`repro.partition.costmodels.device_cost` prices a candidate by
:attr:`DeviceSpec.kind`, one of :data:`KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the device kinds :func:`repro.partition.costmodels.device_cost` prices
CPU = "cpu"
FABRIC = "fabric"
CGRA = "cgra"
KINDS = (CPU, FABRIC, CGRA)


@dataclass(frozen=True)
class DeviceSpec:
    """One placement target: the CPU, a fabric region, a CGRA grid, ...

    ``capacity_gates`` is the area budget placement must respect on this
    device; the CPU carries 0.0 (software costs no fabric) and is always
    the fallback target for unplaced kernels.
    """

    name: str              # unique within one platform: "cpu", "fabric0", ...
    kind: str              # one of KINDS: "cpu" | "fabric" | "cgra"
    capacity_gates: float  # area budget for kernels (0.0 for the CPU)
    clock_mhz: float       # device clock ceiling (CPU clock for the CPU)
    bram_bytes: int = 0    # on-chip RAM reachable from this device
    index: int = 0         # ordinal among same-kind devices (fabric0, 1, ..)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown device kind {self.kind!r} "
                f"(known: {', '.join(KINDS)})"
            )

    @property
    def is_cpu(self) -> bool:
        return self.kind == CPU

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_cpu:
            return f"{self.name} ({self.clock_mhz:.0f} MHz)"
        return (f"{self.name} ({self.kind}, "
                f"{self.capacity_gates:,.0f} gates)")


def cpu_device(clock_mhz: float) -> DeviceSpec:
    return DeviceSpec(name=CPU, kind=CPU, capacity_gates=0.0,
                      clock_mhz=clock_mhz)


def fabric_device(
    index: int, capacity_gates: float, clock_mhz: float, bram_bytes: int = 0
) -> DeviceSpec:
    return DeviceSpec(
        name=f"fabric{index}", kind=FABRIC, capacity_gates=capacity_gates,
        clock_mhz=clock_mhz, bram_bytes=bram_bytes, index=index,
    )


def cgra_device(
    index: int, capacity_gates: float, clock_mhz: float = 150.0
) -> DeviceSpec:
    """A coarse-grained reconfigurable array slot (word-level ALU grid).

    Galanis et al. style: word-level datapaths amortize the per-bit LUT
    overhead, so the same kernel packs into fewer equivalent gates and the
    grid clocks at a fixed word-level rate rather than the datapath-limited
    LUT clock.  :func:`repro.partition.costmodels.device_cost` applies
    those curves; the spec just carries the budget.
    """
    return DeviceSpec(
        name=f"cgra{index}", kind=CGRA, capacity_gates=capacity_gates,
        clock_mhz=clock_mhz, index=index,
    )
