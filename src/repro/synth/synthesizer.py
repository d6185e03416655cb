"""The synthesis tool driver: decompiled loop/region -> HwKernel.

Ties the pieces together for one hardware region:

1. take the loop's body blocks from the recovered CDFG,
2. (optionally) re-strength-reduce multiplications the decompiler promoted,
   when the multiplier budget is exhausted -- the "synthesis decides"
   flexibility strength promotion exists to enable,
3. schedule (list scheduling), bind, estimate area and clock,
4. estimate pipelined execution time via the initiation interval,
5. emit VHDL, on the first read of :attr:`HwKernel.vhdl`.

Memory localization (the paper's partitioning step 2) is decided by the
caller from the alias footprints: localized regions use dual-ported BRAM at
2-cycle latency, everything else pays the shared-bus penalty.

A :class:`Synthesizer` builds each body block's DFG, op costs, schedule
and binding once per memory and resource setting, so nested loops share
their inner blocks.  Only the VHDL reads which of a block's values live
out of it, so a function's liveness is worked out when the first of its
kernels' VHDL is read, once for all of them.  The function's CFG must
not change after its loops are synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

from repro.binary.image import Executable
from repro.decompile.cdfg import Dfg, build_dfg
from repro.decompile.dataflow import NaturalLoop, liveness
from repro.decompile.decompiler import DecompiledFunction
from repro.decompile.microop import Imm, Loc, MicroOp, Opcode
from repro.errors import SynthesisError
from repro.synth.binding import BindingResult, bind
from repro.synth.fpga import DEFAULT_DEVICE, FpgaDevice, OpCost, TechnologyModel
from repro.synth.pipeline import initiation_interval
from repro.synth.scheduling import ResourceConstraints, Schedule, list_schedule
from repro.synth.vhdl import emit_vhdl


@dataclass(frozen=True)
class SynthesisOptions:
    device: FpgaDevice = DEFAULT_DEVICE
    constraints: ResourceConstraints = field(default_factory=ResourceConstraints)
    pipeline: bool = True
    localized_memory: bool = True
    #: allow the tool to strength-reduce promoted multiplies back into
    #: shift/add chains when multipliers are oversubscribed
    adaptive_strength: bool = True


@dataclass
class HwKernel:
    """One synthesized hardware region: its area, clock and schedule.

    What it costs to run for a profile is the kernel time model's answer
    (:func:`repro.partition.estimator.kernel_cycles`)."""

    name: str
    header_address: int
    area_gates: float
    clock_mhz: float
    schedule_length: int
    ii: int
    localized: bool
    bram_bytes: int
    iterations_multiplier: int  # reroll factor recovered by the decompiler
    pipelined: bool
    #: the VHDL, or what emits it on the first read of :attr:`vhdl`
    _vhdl: str | _KernelVhdl = field(default="", repr=False, compare=False)
    #: per-body-block schedule length (block start address -> cycles), used
    #: by the evaluator to weight multi-block loops with profiled counts
    block_schedules: dict[int, int] = field(default_factory=dict)

    @property
    def vhdl(self) -> str:
        """The kernel's RT-level VHDL, emitted on first read."""
        if not isinstance(self._vhdl, str):
            self._vhdl = self._vhdl()
        return self._vhdl


class _Liveness:
    """A function's per-block live-out sets, worked out on first use."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self._live_out: list | None = None

    def live_out(self, index: int) -> set[Loc]:
        if self._live_out is None:
            self._live_out = liveness(self.cfg)[1]
        return self._live_out[index]


@dataclass(frozen=True)
class _KernelVhdl:
    """What a kernel's VHDL is emitted from: the parts of the datapath
    block's DFG and schedule the emitter reads (not the edges), with
    every value the block defines as a candidate output until the
    function's liveness keeps the ones live out of the block."""

    entity: str
    ops: list[MicroOp]
    inputs: set[Loc]
    defined: set[Loc]
    start_cycle: dict[int, int]
    length: int
    index: int
    function: _Liveness
    guard_comment: str

    def __call__(self) -> str:
        outputs = self.defined & self.function.live_out(self.index)
        return emit_vhdl(
            self.entity, Dfg(ops=self.ops, inputs=self.inputs, outputs=outputs),
            Schedule(start_cycle=self.start_cycle, length=self.length),
            guard_comment=self.guard_comment,
        )


class Synthesizer:
    def __init__(self, options: SynthesisOptions | None = None):
        self.options = options or SynthesisOptions()
        self.tech = TechnologyModel()
        #: (cfg, liveness, blocks) of the function last synthesized from.
        #: A function's loops are synthesized one after another; they share
        #: its liveness, and nested loops share their inner blocks
        self._function: tuple = (None, None, {})

    def _blocks(
        self, cfg, indices: list[int], localized: bool, constraints: ResourceConstraints
    ) -> list[tuple[Dfg, list[OpCost], Schedule, BindingResult]]:
        """The strength-adapted DFG, op costs, schedule and binding of each
        block of *indices*, built once per block, memory localization and
        number of memory ports (*constraints* are the options' constraints
        with at most ``mem`` changed).  They are shared between the
        function's kernels, which only read them."""
        if self._function[0] is not cfg:
            self._function = (cfg, _Liveness(cfg), {})
        built = self._function[2]
        tech = self.tech
        blocks = []
        for index in indices:
            # kernels vary only the memory ports of the options' constraints
            key = (index, localized, constraints.mem)
            block = built.get(key)
            if block is None:
                dfg = self._adapt_strength(build_dfg(cfg.blocks[index]))
                costs = tech.op_costs(dfg.ops, localized)
                schedule = list_schedule(
                    dfg, costs, constraints,
                    tech.chain_budget_of(costs, self.options.device),
                )
                binding = bind(dfg, schedule, costs, tech)
                block = built[key] = (dfg, costs, schedule, binding)
            blocks.append(block)
        return blocks

    # ------------------------------------------------------------------

    def synthesize_loop(
        self,
        func: DecompiledFunction,
        loop: NaturalLoop,
        exe: Executable | None = None,
        name: str | None = None,
    ) -> HwKernel:
        cfg = func.cfg
        header = cfg.blocks[loop.header]
        header_address = header.start
        options = self.options

        # memory localization: every access resolved to symbols that fit BRAM
        footprint = func.loop_footprints.get(header_address)
        localized = bool(options.localized_memory)
        bram_bytes = 0
        if footprint is None or footprint.has_dynamic:
            localized = False
        elif exe is not None:
            bram_bytes = _footprint_bytes(exe, footprint.symbols)
            if bram_bytes > options.device.bram_bytes:
                localized = False

        # localized data banks into one dual-ported BRAM per symbol, so the
        # schedule gets 2 ports per distinct array (capped by device BRAMs)
        constraints = options.constraints
        if localized and footprint is not None and footprint.symbols:
            ports = min(8, 2 * len(footprint.symbols))
            if ports != constraints.mem:
                constraints = replace(constraints, mem=ports)

        body_indices = sorted(loop.body)
        dfgs, costs, schedules, bindings = zip(
            *self._blocks(cfg, body_indices, localized, constraints)
        )
        clock = self.tech.clock_mhz_of(chain(*costs), options.device)

        # area: blocks execute mutually exclusively, so functional units are
        # shared across blocks -- charge the max per class, not the sum
        unit_area = _shared_unit_area(bindings)
        register_area = max((b.register_gates for b in bindings), default=0.0)
        mux_area = sum(b.mux_gates for b in bindings)
        controller_area = self.tech.controller_gates(
            sum(max(1, s.length) for s in schedules)
        )
        area = unit_area + register_area + mux_area + controller_area

        # pipelining applies to the canonical {header, latch} loop shape
        single_latch = len(loop.body) == 2 and loop.header in loop.body
        pipelined = bool(options.pipeline and single_latch)
        if pipelined:
            latch_index = next(i for i in body_indices if i != loop.header)
            latch_pos = body_indices.index(latch_index)
            estimate = initiation_interval(
                dfgs[latch_pos], costs[latch_pos], constraints
            )
            ii = estimate.ii
            length = schedules[latch_pos].length + 1  # +1: guard evaluation
        else:
            ii = sum(max(1, s.length) for s in schedules)
            length = ii

        reroll = cfg.reroll_factors.get(header_address, 1)
        kernel_name = name or f"{func.name}_loop_{header_address:x}"
        # the latch (or largest) block carries the datapath the VHDL shows
        best = max(range(len(dfgs)), key=lambda i: len(dfgs[i].ops))
        dfg, schedule = dfgs[best], schedules[best]
        vhdl = _KernelVhdl(
            _sanitize(kernel_name), dfg.ops, dfg.inputs, dfg.outputs,
            schedule.start_cycle, schedule.length, body_indices[best],
            self._function[1], f"natural loop header block {loop.header}",
        )
        block_schedules = {
            cfg.blocks[index].start: max(1, schedule.length)
            for index, schedule in zip(body_indices, schedules)
        }

        return HwKernel(
            name=kernel_name,
            header_address=header_address,
            area_gates=area,
            clock_mhz=clock,
            schedule_length=max(1, length),
            ii=max(1, ii),
            localized=localized,
            bram_bytes=bram_bytes,
            iterations_multiplier=reroll,
            pipelined=pipelined,
            _vhdl=vhdl,
            block_schedules=block_schedules,
        )

    # ------------------------------------------------------------------

    def _adapt_strength(self, dfg: Dfg) -> Dfg:
        """Re-reduce promoted multiplies when multipliers are oversubscribed.

        This is the decision the paper says strength promotion exists to
        enable: with the multiplication recovered, the synthesis tool can
        choose a multiplier *or* a shift/add expansion depending on the
        resource budget.
        """
        if not self.options.adaptive_strength:
            return dfg
        mul_budget = self.options.constraints.mul
        total_muls = 0
        for op in dfg.ops:
            if op.opcode in _MULTIPLIES:
                total_muls += 1
        if total_muls <= mul_budget:
            return dfg
        from repro.compiler.passes.strength import decompose_multiplier

        mul_nodes = [
            index
            for index, op in enumerate(dfg.ops)
            if op.opcode is Opcode.MUL and isinstance(op.b, Imm)
        ]
        # reduce constant multiplies with cheap expansions until muls fit
        for index in mul_nodes:
            if total_muls <= mul_budget:
                break
            op = dfg.ops[index]
            value = op.b.value & 0xFFFF_FFFF
            terms = decompose_multiplier(value) if value <= 0x7FFF_FFFF else None
            if terms is not None and len(terms) <= 2:
                # a two-term shift/add tree is cheaper than a multiplier;
                # model it as one ADD of two wired shifts
                dfg.ops[index] = op.clone(opcode=Opcode.ADD)
                total_muls -= 1
        return dfg


_MULTIPLIES = (Opcode.MUL, Opcode.MULHI, Opcode.MULHIU)


def _shared_unit_area(bindings) -> float:
    per_class: dict[str, float] = {}
    for binding in bindings:
        class_area: dict[str, float] = {}
        for unit in binding.units:
            class_area[unit.unit_class] = class_area.get(unit.unit_class, 0.0) + unit.area_gates
        for klass, area in class_area.items():
            per_class[klass] = max(per_class.get(klass, 0.0), area)
    return sum(per_class.values())


def _footprint_bytes(exe: Executable, symbols: frozenset[str]) -> int:
    data_symbols = sorted(
        (s for s in exe.symbols.values() if not s.is_text),
        key=lambda s: s.address,
    )
    total = 0
    for index, sym in enumerate(data_symbols):
        if sym.name not in symbols:
            continue
        end = (
            data_symbols[index + 1].address
            if index + 1 < len(data_symbols)
            else exe.data_end
        )
        total += max(0, end - sym.address)
    return total


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)

