"""The dynamic partition controller: online decisions, honest accounting.

The controller is the "warp CAD" of the modeled system.  It consumes the
periodic samples of a binary's recorded sampled run (cumulative per-site
counters, replayed by :meth:`repro.stages.SampleStream.play`), and

* **accounts** each sampling interval's wall-clock time and energy under the
  hardware configuration that was active *during* that interval: cycles of
  loops currently in hardware run at the kernel's clock, everything else at
  the CPU's, plus invocation overheads,
* **re-partitions** at a configurable cadence using *only* information the
  on-chip profiler has seen so far: hot loop headers are lifted through the
  existing ``repro.decompile`` -> ``repro.synth`` pipeline, placed greedily
  subject to the FPGA capacity left next to a soft core, and evicted again
  once they cool down,
* **charges** the costs the static flow never pays: on-chip
  decompilation/CAD cycles per lifted kernel, reconfiguration stalls, and
  per-placement data-migration time for localized kernels.

Deployment-story extensions (all config-selectable, all off by default so
the PR 3 single-scenario numbers stay reproducible):

* **concurrent on-chip CAD** (``DynamicConfig.concurrent_cad``) -- warp runs
  CAD on a separate lean processor, so the application never stalls for it:
  a re-partition decision's kernels arrive ``cad_latency_samples`` sampling
  intervals later, CAD cycles are recorded but never billed, and only the
  reconfiguration/migration stall is charged when the bitstream lands,
* **partial reconfiguration** (``Platform.fabric_regions``) -- the fabric is
  split into regions; kernels occupy whole regions and reconfiguration is
  charged per *changed region* instead of per kernel (see
  :mod:`repro.dynamic.fabric`),
* **multi-application sharing** -- several controllers (one per running
  application) may hold placements on one shared :class:`FabricState`;
  ``max_fabric_share`` caps any one application's slice,
* **phase-adaptive sampling** (``adaptive_sampling``) -- once placement is
  stable the sample interval coarsens geometrically (warp's profiler
  duty-cycling) and snaps back to the base interval on any change.

Everything is deterministic: the same binary, platform and config always
produce the same timeline, so dynamic-vs-static tables are reproducible.

A sample costs one C-level pass over the text (the interval's steps and
cycles) plus, per loop site priced -- each resident, each re-partition
candidate -- work in proportion to its body's index runs, at most once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import mul, sub

from repro import obs, stages
from repro.binary.image import Executable
from repro.decompile.decompiler import DecompilationOptions, decompile
from repro.dynamic.fabric import FabricState
from repro.dynamic.profiler import DECAY, OnlineProfiler, ProfilerConfig
from repro.partition.estimator import (
    invocation_cycles,
    kernel_fpga_cycles,
    kernel_hw_seconds,
    migration_cycles,
)
from repro.partition.profiles import LoopEntry, LoopProfile, loop_index
from repro.platform.platform import Platform
from repro.synth.synthesizer import HwKernel, SynthesisOptions, Synthesizer

#: CPU cycles charged per lifted kernel for on-chip decompile+CAD.
#: Real warp CAD takes on the order of seconds; the benchmark traces
#: here run for milliseconds, so the defaults are scaled to the trace
#: length -- the *shape* (warm-up cost, then convergence) is what the
#: study reproduces, not the absolute CAD seconds.
CAD_CYCLES_BASE = 8_000
#: additional CAD cycles per 1000 gates of synthesized hardware
CAD_CYCLES_PER_KGATE = 250.0
#: placed kernels whose hotness share drops below this are evicted
EVICT_FRACTION = 0.002
#: minimum online-estimated local speedup to place a kernel
MIN_SPEEDUP = 1.0
#: at most this many kernels resident at once
MAX_KERNELS = 12
#: replace resident kernels of a nest when a different granularity now
#: saves at least this factor more (hysteresis against churn)
UPGRADE_MARGIN = 1.15


@dataclass(frozen=True)
class DynamicConfig:
    """Cadence and cost knobs of the online partitioning system."""

    #: executed instructions between profiler samples
    sample_interval: int = 4_000
    #: samples between re-partition decisions
    repartition_samples: int = 2
    #: CPU stall cycles to (re)configure one kernel region onto the fabric
    reconfig_cycles: int = 3_000
    #: model a CAD co-processor (warp's separate lean processor): lift and
    #: synthesis results arrive ``cad_latency_samples`` sampling intervals
    #: after the decision and the application never stalls for CAD cycles.
    #: Off by default: PR 3's inline-stall accounting.
    concurrent_cad: bool = False
    #: sampling intervals between a re-partition decision and its kernels
    #: arriving, when ``concurrent_cad`` is on; while a CAD job is in
    #: flight, no new decisions are taken (one co-processor)
    cad_latency_samples: int = 2
    #: at most this share of the fabric's capacity may be held by this
    #: application (the arbitration knob for multi-application fabrics)
    max_fabric_share: float = 1.0
    #: phase-adaptive sampling: coarsen the sample interval geometrically
    #: once placement is stable, reset to ``sample_interval`` on any change
    adaptive_sampling: bool = False
    #: change-free samples before the interval doubles (adaptive mode)
    settle_samples: int = 4
    #: ceiling on the adaptive interval, as a multiple of sample_interval
    max_interval_factor: int = 8
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)

    def __post_init__(self):
        for name, low, why in (
            ("sample_interval", 1, " (a non-positive interval would disable"
                                   " online profiling entirely)"),
            ("repartition_samples", 1, ""),
            ("reconfig_cycles", 0, " (a negative stall would give cycles"
                                   " back on every placement)"),
            ("cad_latency_samples", 1, ""),
            ("settle_samples", 1, ""),
            ("max_interval_factor", 1, ""),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}{why}")
        if not 0.0 < self.max_fabric_share <= 1.0:
            raise ValueError(
                f"max_fabric_share must be in (0, 1], got "
                f"{self.max_fabric_share}"
            )


@dataclass
class RepartitionEvent:
    """One re-partition decision (or arrival) and what it cost."""

    sample: int
    placed: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    cad_cycles: int = 0
    reconfig_cycles: int = 0
    migration_cycles: int = 0
    area_used: float = 0.0
    #: fabric regions rewritten by this event's placements (one per kernel
    #: on a monolithic fabric)
    regions_changed: int = 0
    #: True when CAD ran on the co-processor: ``cad_cycles`` are recorded
    #: for reporting but never billed to application time
    concurrent: bool = False

    @property
    def overhead_cycles(self) -> int:
        return self.cad_cycles + self.reconfig_cycles + self.migration_cycles

    @property
    def charged_cycles(self) -> int:
        """Cycles actually billed to the application's timeline."""
        if self.concurrent:
            return self.reconfig_cycles + self.migration_cycles
        return self.overhead_cycles


@dataclass
class IntervalStats:
    """Accounting of one sampling interval."""

    index: int
    steps: int
    cycles: int               # software cycles executed in the interval
    moved_cycles: int         # of which: cycles covered by resident kernels
    overhead_cycles: int      # CAD/reconfig/migration charged in the interval
    wall_seconds: float       # dynamic-system wall clock
    sw_only_seconds: float    # the same work, all-software
    fpga_seconds: float
    energy_mj: float
    sw_energy_mj: float
    resident: list[str] = field(default_factory=list)


@dataclass
class DynamicTimeline:
    """The whole run: per-interval stats, decisions, and totals."""

    intervals: list[IntervalStats] = field(default_factory=list)
    events: list[RepartitionEvent] = field(default_factory=list)
    final_resident: list[str] = field(default_factory=list)
    area_used: float = 0.0

    @property
    def dynamic_seconds(self) -> float:
        return sum(interval.wall_seconds for interval in self.intervals)

    @property
    def software_seconds(self) -> float:
        return sum(interval.sw_only_seconds for interval in self.intervals)

    @property
    def overhead_seconds(self) -> float:
        wall = self.dynamic_seconds
        if wall <= 0.0:
            return 0.0
        cycles = sum(interval.overhead_cycles for interval in self.intervals)
        total_cycles = sum(interval.cycles for interval in self.intervals)
        if total_cycles <= 0:
            return 0.0
        # overhead cycles were charged at CPU clock inside wall_seconds
        sw = self.software_seconds
        return cycles * (sw / total_cycles)

    @property
    def dynamic_energy_mj(self) -> float:
        return sum(interval.energy_mj for interval in self.intervals)

    @property
    def software_energy_mj(self) -> float:
        return sum(interval.sw_energy_mj for interval in self.intervals)

    @property
    def speedup(self) -> float:
        wall = self.dynamic_seconds
        return self.software_seconds / wall if wall > 0 else 1.0

    @property
    def energy_savings(self) -> float:
        sw = self.software_energy_mj
        if sw <= 0.0:
            return 0.0
        return 1.0 - self.dynamic_energy_mj / sw

    def warm_window(self) -> list[IntervalStats]:
        """The steady-state window: the longest contiguous overhead-free run
        of intervals after the first configuration change (ties resolved
        toward the latest run, i.e. the most-settled configuration).  Falls
        back to the last interval when the controller never stopped
        adapting, and to the whole run when nothing was ever placed."""
        intervals = self.intervals
        if not intervals:
            return []
        first_change = next(
            (i for i, interval in enumerate(intervals) if interval.overhead_cycles),
            None,
        )
        if first_change is None:
            return list(intervals)   # all-software run: already steady
        best: tuple[int, int] | None = None   # (length, start)
        start: int | None = None
        for i in range(first_change + 1, len(intervals)):
            if intervals[i].overhead_cycles:
                start = None
                continue
            if start is None:
                start = i
            length = i - start + 1
            if best is None or length >= best[0]:
                best = (length, start)
        if best is None:
            return intervals[-1:]
        length, begin = best
        return intervals[begin:begin + length]

    @property
    def warm_speedup(self) -> float:
        """Speedup over the steady-state suffix of the run."""
        window = self.warm_window()
        wall = sum(interval.wall_seconds for interval in window)
        sw = sum(interval.sw_only_seconds for interval in window)
        return sw / wall if wall > 0 else 1.0


@dataclass(eq=False)
class LoopSite:
    """One liftable loop of the running binary: its loop-index entry
    (:class:`~repro.partition.profiles.LoopEntry`, shared by every
    controller and the static profile) plus this controller's state."""

    entry: LoopEntry
    #: the body's index runs ``(a, b, costs[a:b])`` under this CPI model
    runs: tuple[tuple[int, int, list[int]], ...]
    back_branch_sites: list[int]
    back_jump_sites: list[int]
    #: this site plus every site overlapping it, in site-table order
    family: list[LoopSite] = field(default_factory=list, repr=False)
    kernel: HwKernel | None = None
    synth_failed: bool = False
    cad_charged: bool = False
    #: ``(sample, value)`` memos of :meth:`~DynamicPartitionController._site_state`
    #: and :meth:`~DynamicPartitionController._site_seconds`
    state: tuple | None = None
    seconds: tuple | None = None

    @property
    def header_address(self) -> int:
        return self.entry.header_address

    @property
    def body_indices(self) -> frozenset[int]:
        return self.entry.body

    @property
    def name(self) -> str:
        if self.kernel is not None:
            return self.kernel.name
        return f"{self.entry.function.name}@{self.header_address:#x}"


@dataclass
class PlannedPlacement:
    """One placement a re-partition decision committed to.

    In inline-CAD mode the plan is applied in the same sample it was made;
    with a concurrent CAD co-processor it is applied
    ``cad_latency_samples`` samples later (and re-validated against the
    fabric, which may have moved under a multi-application workload).
    """

    site: LoopSite
    evict: list[int]          # resident header addresses to displace first
    cad_cycles: int           # 0 when this kernel's CAD already ran earlier


class DynamicPartitionController:
    """Consumes sampled counters; produces a :class:`DynamicTimeline`.

    *sites* is the binary's :class:`~repro.stages.SiteView` under the
    platform's CPI model -- ``branch_edges``, ``jump_edges`` and
    ``site_costs``, the only things the controller and its profiler read
    of the binary besides the samples.
    """

    def __init__(
        self,
        sites: stages.SiteView,
        exe: Executable,
        platform: Platform,
        config: DynamicConfig | None = None,
        synthesis_options: SynthesisOptions | None = None,
        decompile_options: DecompilationOptions | None = None,
        fabric: FabricState | None = None,
        name: str = "app",
    ):
        self.exe = exe
        self.platform = platform
        self.config = config or DynamicConfig()
        self.name = name
        self.synthesis_options = synthesis_options or SynthesisOptions(
            device=platform.device
        )
        self.decompile_options = decompile_options
        self.profiler = OnlineProfiler(sites, self.config.profiler)
        self.timeline = DynamicTimeline()
        #: the fabric ledger; pass one FabricState to several controllers to
        #: model applications time-sharing a single FPGA
        self.fabric = fabric if fabric is not None else FabricState(platform)

        self._costs = sites.site_costs
        self._branch_edges = sites.branch_edges
        self._jump_edges = sites.jump_edges
        self._text_len = len(self._costs)
        self._taken_penalty = platform.cpi.taken_penalty
        #: whole-text steps and cycles as of the previous sample
        self._steps_total = self._cycles_total = 0
        self._samples = 0
        self._carry_overhead = 0          # cycles charged to the next interval
        self._resident: dict[int, LoopSite] = {}   # header address -> site
        #: decayed per-interval back-edge activity of *resident* sites; the
        #: guard against evicting a kernel the capacity-bounded profiler
        #: table crowded out while its loop is still iterating
        self._recent_heat: dict[int, float] = {}
        #: in-flight concurrent-CAD job: (activation sample, plan)
        self._pending: tuple[int, list[PlannedPlacement]] | None = None
        self._base_interval = self.config.sample_interval
        self._interval = self.config.sample_interval
        self._stable_samples = 0
        self._sites: dict[int, LoopSite] | None = None   # lazy on-chip CAD
        self._synthesize = stages.kernels(
            exe, decompile_options, Synthesizer(self.synthesis_options)
        )
        self._unrecoverable = False

    # -- on-chip CAD --------------------------------------------------------

    def _ensure_sites(self) -> dict[int, LoopSite]:
        """Decompile the running binary once (the on-chip CAD's first job)
        and give each loop of its loop index a site, by header address.
        The program and its index come from the stage memo, so the static
        half of the dynamic flow reuses them instead of decompiling again."""
        if self._sites is not None:
            return self._sites
        sites = self._sites = {}
        with obs.span("cad.decompile", app=self.name):
            program = stages.decompiled(self.exe, self.decompile_options, decompile)
        if program.failures:
            # same policy as the static flow: indirect jumps defeat CDFG
            # recovery, the application stays all-software
            self._unrecoverable = True
            return sites
        text_base = self.exe.text_base
        costs = self._costs

        def back_edges(edges: dict[int, tuple[int, int]], entry: LoopEntry) -> list[int]:
            """The sites of *edges* that enter the header from the body."""
            return [
                index for index, (src, dst) in edges.items()
                if dst == entry.header_address and (src - text_base) >> 2 in entry.body
            ]

        for entry in stages.loop_index(self.exe, program, loop_index):
            sites[entry.header_address] = LoopSite(
                entry,
                runs=tuple((a, b, costs[a:b]) for a, b in entry.runs),
                back_branch_sites=back_edges(self._branch_edges, entry),
                back_jump_sites=back_edges(self._jump_edges, entry),
            )
        for site in sites.values():
            site.family = [sites[address] for address in site.entry.family]
        return sites

    def _ensure_kernel(self, site: LoopSite) -> HwKernel | None:
        if site.kernel is not None or site.synth_failed:
            return site.kernel
        with obs.span("cad.synthesize", app=self.name, site=site.name):
            site.kernel = self._synthesize(site.entry.function, site.entry.loop)
        site.synth_failed = site.kernel is None
        return site.kernel

    # -- online profile arithmetic ------------------------------------------

    def _site_state(
        self, site: LoopSite, counts: list[int], taken: list[int]
    ) -> tuple[int, ...]:
        """*site*'s counters since the run started -- software cycles,
        back-edge iterations, header count, then its block counts --
        computed once per sample with C-level reductions over its runs."""
        memo = site.state
        if memo is not None and memo[0] == self._samples:
            return memo[1]
        cycles = taken_total = 0
        for a, b, run_costs in site.runs:
            cycles += sum(map(mul, counts[a:b], run_costs))
            taken_total += sum(taken[a:b])
        state = (
            cycles + self._taken_penalty * taken_total,
            sum(map(taken.__getitem__, site.back_branch_sites))
            + sum(map(counts.__getitem__, site.back_jump_sites)),
            counts[site.entry.header_index],
            *map(counts.__getitem__, site.entry.block_starts.values()),
        )
        site.state = (self._samples, state)
        return state

    def _site_profile(
        self, site: LoopSite, state: tuple, base: tuple | None = None
    ) -> LoopProfile:
        """Loop profile of the counter window from *base*, an earlier
        :meth:`_site_state` (``None``: the run's start), to *state*."""
        if base is not None:
            state = map(sub, state, base)
        cycles, iterations, header_count, *blocks = state
        return site.entry.profile(
            cycles, iterations, max(0, header_count - iterations), blocks
        )

    # -- interval energy ----------------------------------------------------

    def _interval_energy_mj(
        self, cpu_seconds: float, fpga_seconds: float,
        fpga_dynamic_mj: float = 0.0,
    ) -> float:
        """Energy of one accounted slice under the current configuration.

        Shared by :meth:`on_sample` and :meth:`finish` so the two can never
        drift: CPU active power for the CPU-side seconds, CPU idle power
        while waiting on the fabric, kernel dynamic energy, and the
        fabric's static burn over the slice's whole wall time whenever this
        application holds configured kernels.  An empty fabric is
        power-gated; on a shared fabric the static burn is apportioned by
        area share so concurrent applications never double-bill one fabric.
        """
        platform = self.platform
        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        idle_mw = platform.cpu_power.idle_mw(platform.cpu_clock_mhz)
        wall_seconds = cpu_seconds + fpga_seconds
        fpga_static_mj = (
            platform.fpga_power.static_mw * wall_seconds
            * self.fabric.static_share(self)
        )
        return (
            active_mw * cpu_seconds
            + idle_mw * fpga_seconds
            + fpga_dynamic_mj
            + fpga_static_mj
        )

    # -- the sampling callback ----------------------------------------------

    def on_sample(self, counts: list[int], taken: list[int]) -> int | None:
        """Account the interval just finished, then maybe re-partition.

        Returns the next sample interval when phase-adaptive sampling is
        enabled (:meth:`repro.stages.SampleStream.replay` spaces the next
        sample by it), ``None`` otherwise.
        """
        platform = self.platform
        cpu_hz = platform.cpu_clock_mhz * 1e6
        text_len = self._text_len   # counters past the text stay out
        self._samples += 1

        steps_total = sum(counts) - sum(counts[text_len:])
        cycles_total = sum(map(mul, counts, self._costs)) + self._taken_penalty \
            * (sum(taken) - sum(taken[text_len:]))
        steps = steps_total - self._steps_total
        cycles = cycles_total - self._cycles_total
        self._steps_total, self._cycles_total = steps_total, cycles_total

        # age decayed state once per base-interval-worth of *executed*
        # instructions: under adaptive sampling the chunk is a multiple of
        # the base interval, except the final (halt) sample, which may be
        # partial -- deriving periods from the interval's own step count
        # keeps aging a function of executed instructions there too
        periods = max(1, steps // self._base_interval)
        recent_decay = DECAY ** periods

        moved_cycles = 0
        fpga_seconds = 0.0
        fpga_dynamic_mj = 0.0
        invoke_cycles = 0.0
        for address, site in self._resident.items():
            before = site.state[1]   # every resident has the previous sample's
            profile = self._site_profile(
                site, self._site_state(site, counts, taken), before
            )
            heat = self._recent_heat.get(address, 0.0) * recent_decay
            self._recent_heat[address] = heat + profile.iterations
            loop_cycles = profile.sw_cycles
            if loop_cycles <= 0:
                continue
            moved_cycles += loop_cycles
            kernel = site.kernel
            # FPGA-busy seconds for the window's iterations; migration was
            # charged when the kernel was placed (see _apply_plan)
            busy = kernel_fpga_cycles(kernel, profile) / (kernel.clock_mhz * 1e6)
            fpga_seconds += busy
            invoke_cycles += invocation_cycles(platform, profile)
            dynamic_mw = platform.fpga_power.power_mw(
                kernel.area_gates, kernel.clock_mhz
            ) - platform.fpga_power.static_mw
            fpga_dynamic_mj += dynamic_mw * busy

        overhead_cycles = self._carry_overhead
        self._carry_overhead = 0
        cpu_cycles = cycles - moved_cycles + invoke_cycles + overhead_cycles
        cpu_seconds = cpu_cycles / cpu_hz
        wall_seconds = cpu_seconds + fpga_seconds
        sw_only_seconds = cycles / cpu_hz

        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        energy_mj = self._interval_energy_mj(cpu_seconds, fpga_seconds, fpga_dynamic_mj)
        sw_energy_mj = active_mw * sw_only_seconds

        self.timeline.intervals.append(IntervalStats(
            index=len(self.timeline.intervals),
            steps=steps,
            cycles=cycles,
            moved_cycles=moved_cycles,
            overhead_cycles=int(overhead_cycles),
            wall_seconds=wall_seconds,
            sw_only_seconds=sw_only_seconds,
            fpga_seconds=fpga_seconds,
            energy_mj=energy_mj,
            sw_energy_mj=sw_energy_mj,
            resident=[site.name for site in self._resident.values()],
        ))

        self.profiler.sample(counts, taken, decay_periods=periods)

        changed = False
        if self._pending is not None and self._samples >= self._pending[0]:
            changed = self._activate_pending()
        if (self._pending is None
                and self._samples % self.config.repartition_samples == 0):
            started = time.monotonic()
            changed = self._repartition(counts, taken) or changed
            if obs.metrics_enabled():
                obs.histogram("dynamic.repartition_seconds").observe(
                    max(time.monotonic() - started, 1e-9)
                )
                obs.counter("dynamic.repartitions_total").inc()
        # kernels placed since the accounting open their next window here
        for site in self._resident.values():
            self._site_state(site, counts, taken)
        return self._adapt_interval(changed)

    def _adapt_interval(self, changed: bool) -> int | None:
        """Phase-adaptive sampling: coarsen while stable, reset on change."""
        config = self.config
        if not config.adaptive_sampling:
            return None
        base = self._base_interval
        if changed:
            self._stable_samples = 0
            self._interval = base
            return self._interval
        self._stable_samples += 1
        ceiling = base * config.max_interval_factor
        if self._stable_samples >= config.settle_samples and self._interval < ceiling:
            self._interval = min(self._interval * 2, ceiling)
            self._stable_samples = 0
        return self._interval

    # -- re-partitioning ----------------------------------------------------

    def _site_heat(self, site: LoopSite) -> float:
        """Nest-aware hotness: every hot back-edge target inside the site's
        body counts toward it (an outer loop is as hot as its inner loops)."""
        text_base = self.exe.text_base
        body = site.entry.body
        return sum(
            score
            for address, score in self.profiler.hotness.items()
            if (address - text_base) >> 2 in body
        )

    def _effective_heat(self, address: int, site: LoopSite) -> float:
        """Table hotness of the nest, floored by the site's own recent
        back-edge activity.  The profiler table holds only ``table_size``
        entries, so a resident kernel can be crowded out by hotter loops
        and read as stone-cold (heat 0.0) while its loop is still
        iterating every interval -- evicting on table hotness alone threw
        away profitable kernels.  Residents are few (``MAX_KERNELS``), so
        tracking their own interval deltas is hardware-plausible."""
        return max(self._site_heat(site), self._recent_heat.get(address, 0.0))

    def _family_best(
        self, site: LoopSite, counts: list[int], taken: list[int]
    ) -> tuple[LoopSite, float] | None:
        """Pick the lift granularity for a hot loop nest: among the nest's
        members (the site plus everything overlapping it), the one whose
        online-estimated time saving is largest.  This mirrors the static
        90-10 partitioner's family step -- e.g. an outer loop that absorbs
        its inner loop's invocation overheads usually beats the inner loop
        alone.  Returns (best site, saved seconds) or ``None``."""
        best: tuple[LoopSite, float] | None = None
        for member in site.family:
            if self._ensure_kernel(member) is None:
                continue
            sw_seconds, hw_seconds = self._site_seconds(member, counts, taken)
            if hw_seconds <= 0 or sw_seconds / hw_seconds <= MIN_SPEEDUP:
                continue
            saved = sw_seconds - hw_seconds
            if best is None or saved > best[1]:
                best = (member, saved)
        return best

    def _site_seconds(
        self, site: LoopSite, counts: list[int], taken: list[int]
    ) -> tuple[float, float]:
        """(software, hardware) seconds for the work *site* has done so far
        (cumulative counters), once per sample; ``(0.0, 0.0)`` while it has
        no kernel or has not iterated, so it saves nothing."""
        if site.kernel is None:
            return 0.0, 0.0
        memo = site.seconds
        if memo is not None and memo[0] == self._samples:
            return memo[1]
        state = self._site_state(site, counts, taken)
        seconds = 0.0, 0.0
        if state[0] > 0 and state[1] > 0:   # cycles and iterations
            seconds = (state[0] / (self.platform.cpu_clock_mhz * 1e6),
                       kernel_hw_seconds(self.platform, site.kernel,
                                         self._site_profile(site, state)))
        site.seconds = (self._samples, seconds)
        return seconds

    def _evict(self, address: int, event: RepartitionEvent) -> None:
        """Remove one resident kernel everywhere it is tracked."""
        site = self._resident.pop(address)
        self.fabric.evict(self, address)
        self._recent_heat.pop(address, None)
        event.evicted.append(site.name)
        obs.counter("dynamic.evictions_total").inc()
        self._count_fabric("fabric.evictions_total")

    def _count_fabric(self, counter: str) -> None:
        """The ``fabric.*`` metrics of one change to the live fabric."""
        if obs.metrics_enabled():
            obs.counter(counter).inc()
            obs.gauge("fabric.area_gates").set(self.fabric.area_used())
            obs.gauge("fabric.peak_area_gates").set_max(
                self.fabric.peak_area_gates
            )

    def _repartition(self, counts: list[int], taken: list[int]) -> bool:
        config = self.config
        hot = self.profiler.hot_targets()
        if not hot and not self._resident:
            return False
        self._ensure_sites()   # populate the site index (on-chip CAD)
        if self._unrecoverable:
            return False
        event = RepartitionEvent(sample=self._samples)

        # 1. evict kernels whose whole nest cooled down (frees fabric).
        #    Applied immediately even with a CAD co-processor: turning a
        #    kernel off needs no CAD.
        total_weight = self.profiler.total_weight()
        evict_below = EVICT_FRACTION * total_weight
        for address in list(self._resident):
            site = self._resident[address]
            table_heat = self._site_heat(site)
            effective = max(table_heat, self._recent_heat.get(address, 0.0))
            if effective < evict_below:
                self._evict(address, event)
            elif table_heat < evict_below:
                # the recent-heat floor just saved a kernel the profiler
                # table had crowded out -- the case _effective_heat exists
                # for; count it so the guard's value shows up in reports
                obs.counter("dynamic.eviction_guard_saves_total").inc()

        # 2. plan placements, hottest first, online-estimated-profitable
        #    only; a nest already covered by resident kernels is revisited
        #    in case a different granularity has become the better lift
        #    (e.g. the outer loop's back-edge had not executed yet when the
        #    inner loops were first placed)
        plan = self._plan(hot, counts, taken)

        if not config.concurrent_cad:
            self._apply_plan(plan, event)
            return self._commit(event)
        changed = self._commit(event)   # the evictions, which cost no stall
        if plan:
            # the co-processor starts lifting now; results land later
            self._pending = (self._samples + config.cad_latency_samples, plan)
            changed = True
        return changed

    def _admits(self, fabric: FabricState, resident: dict[int, LoopSite],
                kernel: HwKernel, evict: list[int]) -> bool:
        """The admission rule, one for planning and applying alike: once
        *evict* leaves *resident* (this application's kernels on
        *fabric*), *kernel* must keep the count under ``MAX_KERNELS``, fit
        the free units, and keep this application within its
        ``max_fabric_share``."""
        if len(resident) - len(evict) >= MAX_KERNELS:
            return False
        need = fabric.units_for(kernel)
        freed = sum(fabric.units_of(self, address) for address in evict)
        if need > fabric.free_units() + freed:
            return False
        share_cap = self.config.max_fabric_share * fabric.total_units
        return fabric.owner_units(self) - freed + need <= share_cap

    def _plan(
        self, hot: list[tuple[int, float]], counts: list[int], taken: list[int]
    ) -> list[PlannedPlacement]:
        """Decide placements against a private copy of the fabric ledger.

        The copy makes the decision logic identical whether the plan is
        applied in the same sample (inline CAD) or ``cad_latency_samples``
        later (concurrent CAD): each accepted placement lands on the copy
        so later candidates see its effect, while the live fabric changes
        only in :meth:`_apply_plan`.
        """
        ledger = self.fabric.copy()
        planned: dict[int, LoopSite] = dict(self._resident)
        plan: list[PlannedPlacement] = []
        for address, _score in hot:
            if len(planned) >= MAX_KERNELS:
                break
            hot_site = self._sites.get(address)
            if hot_site is None:
                continue
            choice = self._family_best(hot_site, counts, taken)
            if choice is None:
                continue
            site, saved = choice
            if site.header_address in planned:
                continue
            kernel = site.kernel
            to_evict = [
                resident_address
                for resident_address, resident in planned.items()
                if resident.header_address in site.entry.family
            ]
            if to_evict:
                # granularity upgrade: only replace the nest's resident
                # kernels when the new choice clearly saves more
                resident_saved = sum(
                    sw - hw for sw, hw in (
                        self._site_seconds(planned[a], counts, taken)
                        for a in to_evict
                    )
                )
                if saved <= resident_saved * UPGRADE_MARGIN:
                    continue
            fits = self._admits(ledger, planned, kernel, to_evict)
            if not fits:
                # try evicting colder unrelated nests to make room
                heat = self._effective_heat(site.header_address, site)
                by_heat = sorted(
                    (item for item in planned.items()
                     if item[0] not in to_evict),
                    key=lambda kv: self._effective_heat(kv[0], kv[1]),
                )
                for resident_address, resident in by_heat:
                    if self._effective_heat(resident_address, resident) >= heat:
                        break
                    to_evict.append(resident_address)
                    fits = self._admits(ledger, planned, kernel, to_evict)
                    if fits:
                        break
                if not fits:
                    continue   # no fit even after evictions: leave as-is
            cad_cycles = 0
            if not site.cad_charged:
                site.cad_charged = True
                cad_cycles = CAD_CYCLES_BASE + int(
                    CAD_CYCLES_PER_KGATE * kernel.area_gates / 1000.0
                )
            for resident_address in to_evict:
                del planned[resident_address]
                ledger.evict(self, resident_address)
            ledger.place(self, site.header_address, kernel)
            planned[site.header_address] = site
            plan.append(PlannedPlacement(
                site=site, evict=to_evict, cad_cycles=cad_cycles
            ))
        return plan

    def _apply_plan(
        self, plan: list[PlannedPlacement], event: RepartitionEvent
    ) -> None:
        """Apply planned placements; re-validates against the live fabric
        (a concurrent-CAD result can be stale under multi-app sharing --
        stale entries are dropped *whole*: their displacement evictions
        must not run either, or a result that no longer fits would destroy
        the working kernels it meant to replace)."""
        fabric = self.fabric
        for placement in plan:
            site = placement.site
            if site.header_address in self._resident:
                continue
            evict = [address for address in placement.evict
                     if address in self._resident]
            kernel = site.kernel
            if not self._admits(fabric, self._resident, kernel, evict):
                continue
            for address in evict:
                self._evict(address, event)
            regions = fabric.place(self, site.header_address, kernel)
            self._resident[site.header_address] = site
            event.placed.append(site.name)
            obs.counter("dynamic.lifts_total").inc()
            self._count_fabric("fabric.placements_total")
            event.regions_changed += regions
            # charge the overheads the static flow never pays
            event.cad_cycles += placement.cad_cycles
            event.reconfig_cycles += self.config.reconfig_cycles * regions
            event.migration_cycles += int(migration_cycles(self.platform, kernel))

    def _activate_pending(self) -> bool:
        """A concurrent-CAD job finished: configure its kernels now.

        Only the reconfiguration/migration stall is billed; the CAD cycles
        ran on the co-processor and are recorded for reporting only.
        """
        _activate_at, plan = self._pending
        self._pending = None
        event = RepartitionEvent(sample=self._samples, concurrent=True)
        self._apply_plan(plan, event)
        return self._commit(event)

    def _commit(self, event: RepartitionEvent) -> bool:
        """Record *event* if it placed or evicted anything and carry its
        billed stall into the next interval; returns whether it did."""
        if not (event.placed or event.evicted):
            return False
        event.area_used = self.fabric.area_used(self)
        self.timeline.events.append(event)
        self._carry_overhead += event.charged_cycles
        return True

    # -- wrap-up ------------------------------------------------------------

    def finish(self) -> DynamicTimeline:
        """Flush trailing overhead and return the completed timeline."""
        if self._carry_overhead and self.timeline.intervals:
            last = self.timeline.intervals[-1]
            extra = self._carry_overhead
            self._carry_overhead = 0
            last.overhead_cycles += int(extra)
            extra_seconds = extra / (self.platform.cpu_clock_mhz * 1e6)
            last.wall_seconds += extra_seconds
            last.energy_mj += self._interval_energy_mj(extra_seconds, 0.0)
        # CAD results that never arrived cost nothing and change nothing
        self._pending = None
        self.timeline.final_resident = [
            site.name for site in self._resident.values()
        ]
        self.timeline.area_used = self.fabric.area_used(self)
        return self.timeline
