"""Platform definition: CPU clock, FPGA device, communication costs.

Two core families are modeled:

* **hard cores** -- the paper's hypothetical ASIC MIPS next to a Virtex-II
  fabric (40/200/400 MHz), and
* **soft cores** -- MicroBlaze/Nios-style processors synthesized *into* the
  FPGA fabric, following Lysecky & Vahid's dynamic-partitioning study of
  soft processor cores.  A soft core runs much slower (tens of MHz), has no
  hardware divider (serial divide), and -- crucially for partitioning --
  occupies part of the FPGA itself, so less fabric is left for kernels.
  :attr:`Platform.capacity_gates` is the partitioners' area budget and
  already nets out the core's own footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cpu import CpiModel
from repro.synth.fpga import DEFAULT_DEVICE, FpgaDevice
from repro.platform.devices import DeviceSpec, cpu_device, fabric_device
from repro.platform.power import CpuPowerModel, FpgaPowerModel


@dataclass(frozen=True)
class Platform:
    """One configuration of the hypothetical MIPS/Virtex-II platform."""

    name: str
    cpu_clock_mhz: float
    device: FpgaDevice = DEFAULT_DEVICE
    cpi: CpiModel = field(default_factory=CpiModel)
    cpu_power: CpuPowerModel = field(default_factory=CpuPowerModel)
    fpga_power: FpgaPowerModel = field(default_factory=FpgaPowerModel)
    #: CPU cycles to start a kernel and collect its results (register
    #: handshake over the on-chip bus)
    invocation_overhead_cycles: int = 30
    #: one-time CPU cycles per word to migrate a localized data region into
    #: FPGA block RAM (and dirty regions back) per kernel *activation phase*
    migration_cycles_per_word: int = 2
    #: "hard" (ASIC CPU next to the FPGA) or "soft" (CPU in the fabric)
    core: str = "hard"
    #: fabric consumed by the soft core itself (0 for hard cores)
    core_area_gates: float = 0.0
    #: partial-reconfiguration regions the kernel fabric is split into.
    #: 0 models a monolithic fabric (the PR 3 behavior: reconfiguration is
    #: charged once per placed kernel); N > 0 splits :attr:`capacity_gates`
    #: into N equal regions -- a kernel occupies whole regions, and the
    #: dynamic controller charges ``reconfig_cycles`` per *changed region*
    #: instead of per kernel.
    fabric_regions: int = 0

    def cpu_seconds(self, cycles: float) -> float:
        return cycles / (self.cpu_clock_mhz * 1e6)

    @property
    def capacity_gates(self) -> float:
        """FPGA area available to kernels: the device minus the soft core."""
        return max(0.0, self.device.capacity_gates - self.core_area_gates)

    @property
    def region_gates(self) -> float:
        """Gates per partial-reconfiguration region (0.0 when monolithic)."""
        if self.fabric_regions <= 0:
            return 0.0
        return self.capacity_gates / self.fabric_regions

    @property
    def devices(self) -> tuple[DeviceSpec, ...]:
        """Placement-facing device list: the CPU plus one fabric carrying
        the whole kernel budget (:attr:`capacity_gates`).

        Partial-reconfiguration regions are a run-time residency concept
        (:class:`repro.dynamic.fabric.FabricState`), not separate placement
        targets, so ``fabric_regions`` does not change this list.  Callers
        that want more targets (CGRA grids, split fabrics) pass their own
        device list to :func:`repro.partition.partition`.
        """
        return (
            cpu_device(self.cpu_clock_mhz),
            fabric_device(0, self.capacity_gates, self.device.max_clock_mhz,
                          self.device.bram_bytes),
        )

    def with_regions(self, regions: int) -> "Platform":
        """This platform with the fabric split into *regions* PR regions."""
        from dataclasses import replace

        if regions < 0:
            raise ValueError(
                f"fabric_regions must be >= 0, got {regions} "
                "(0 = monolithic fabric)"
            )
        return replace(
            self,
            name=f"{self.name} [{regions} PR regions]" if regions else self.name,
            fabric_regions=regions,
        )


MIPS_40MHZ = Platform(name="MIPS-40MHz + Virtex-II", cpu_clock_mhz=40.0)
MIPS_200MHZ = Platform(name="MIPS-200MHz + Virtex-II", cpu_clock_mhz=200.0)
MIPS_400MHZ = Platform(name="MIPS-400MHz + Virtex-II", cpu_clock_mhz=400.0)

#: soft cores: no hardware divider (bit-serial divide), two-cycle multiply
#: via fabric MULT blocks; the memory system is the same on-chip SRAM bus.
_SOFTCORE_CPI = CpiModel(mult=2, div=34)

#: MicroBlaze-class soft core on the same Virtex-II: ~85 MHz, ~28 k
#: equivalent gates of fabric, and worse energy per cycle than an ASIC core
#: (LUT-based datapaths toggle far more capacitance per operation).
SOFTCORE_85MHZ = Platform(
    name="SoftCore-85MHz (MicroBlaze-style, in-fabric) + Virtex-II",
    cpu_clock_mhz=85.0,
    cpi=_SOFTCORE_CPI,
    cpu_power=CpuPowerModel(active_mw_per_mhz=2.4, base_mw=20.0, idle_fraction=0.6),
    core="soft",
    core_area_gates=28_000.0,
)

#: Nios/picoblaze-class economy configuration: half the clock, smaller core.
SOFTCORE_50MHZ = Platform(
    name="SoftCore-50MHz (economy, in-fabric) + Virtex-II",
    cpu_clock_mhz=50.0,
    cpi=_SOFTCORE_CPI,
    cpu_power=CpuPowerModel(active_mw_per_mhz=2.0, base_mw=15.0, idle_fraction=0.6),
    core="soft",
    core_area_gates=16_000.0,
)

SOFT_CORES = [SOFTCORE_85MHZ, SOFTCORE_50MHZ]

#: CLI platform registry: the short names `python -m repro dynamic --platform`
#: accepts
NAMED_PLATFORMS: dict[str, Platform] = {
    "mips40": MIPS_40MHZ,
    "mips200": MIPS_200MHZ,
    "mips400": MIPS_400MHZ,
    "softcore85": SOFTCORE_85MHZ,
    "softcore50": SOFTCORE_50MHZ,
}
