"""Functional + cycle-level MIPS-I simulator (threaded + superblock dispatch).

Design notes:

* The text section is decoded **once, at construction**, into a flat
  table of per-instruction *handlers*: zero-argument closures with their
  operand registers, immediates and (for control transfers) target
  *indices* bound, each returning the index of the next instruction.
  The threaded hot loop is then just

      counts[index] += 1
      index = handlers[index]()

  The handlers are not written by hand: each comes from the handler
  factory of its *shape* (mnemonic plus which operand fields are zero),
  which the code generator (:mod:`repro.sim.superblock.codegen`) emits
  from the same per-instruction templates its units use, compiles once
  per process and binds per ``Cpu``.  So the simulator holds two copies
  of the MIPS-I semantics: those templates and the independent
  reference interpreter (:mod:`repro.sim.reference`).
* On top of that table the default **superblock** engine
  (:mod:`repro.sim.superblock`) compiles the program into generated
  Python -- one function per innermost loop (a *region*, which keeps
  registers in locals across iterations), and one per other basic block
  the dispatch loop can be handed (with unconditional ``j``/``jal``
  chains fused into their targets), ``compile()``d in a few batches of
  bounded source size -- so the dispatch loop pays one call per loop
  entry, block or chain instead of per instruction, and every
  observation point folds each counter into the per-instruction
  counters.  Both dispatch loops hand regions an instruction allowance
  they run whole iterations under.  Both single-step a slot with no
  generated function (a block that runs at most once, or a dynamic jump
  into the middle of a block) through the handlers; the superblock loop
  also falls back to them for the last few instructions of a *max_steps*
  budget, and the sampled loop for chunk tails.  Select with ``Cpu(exe, engine="threaded"|"superblock")``.
* **Flat memory windows.**  Construction installs two flat windows in
  :class:`~repro.sim.memory.Memory`: a 64 KiB stack window ending at
  ``0x8000_0000`` and a power-of-two data window starting at the
  page-aligned ``data_base`` and covering the data section.  Generated
  code serves ``lw``/``sw``/``lbu``/``sb`` from those buffers inline
  (behind one entry guard per base register where it can) and falls back
  to the ``Memory`` methods, or to the threaded handlers, outside them.
  The buffers' pages are the ``Memory`` pages, so ``Cpu.memory``,
  :meth:`Cpu.read_word_global` and the threaded handlers see every inline
  write.  Word views use native byte order, so construction requires a
  little-endian host.
* Statistics are *derived*, not collected: the loop maintains one
  per-instruction execution counter; branch handlers bump a per-site
  taken counter.  ``steps``, ``cycles``, ``pc_counts``, ``mix`` and the
  static part of ``edge_counts`` all fall out of those arrays in a single
  O(text) pass at exit.  Only register-indirect jumps (``jr``/``jalr``)
  record their (dynamic) edges directly.
* Timing uses a simple per-class CPI model (:class:`CpiModel`).  Absolute
  accuracy is not the point -- the paper's hypothetical platform is evaluated
  through *ratios* (speedup, energy savings) and the CPI model only needs to
  be a reasonable in-order five-stage approximation.
* ``break`` halts the machine cleanly (the compiler's ``_start`` stub ends
  with one).  ``syscall`` is reserved and raises, keeping benchmarks I/O-free.
* A **periodic sampling hook** supports online (run-time) profiling: pass
  ``on_sample``/``sample_interval`` to :meth:`Cpu.run` and the dispatch loop
  executes in chunks of *sample_interval* instructions, invoking the callback
  between chunks with the live per-site counter arrays.  The chunked loop
  is a dispatch loop of its own, so a run without a callback pays nothing
  for it.  The stage memo records one such run per binary
  (:func:`repro.stages.sample_stream`), and the warp-style dynamic
  partitioner (:mod:`repro.dynamic`) replays that recording.
* When *profile* is enabled the simulator records per-address execution
  counts and taken-edge counts.  These are exactly the "profiling results"
  the paper's partitioner consumes.

``tests/sim/test_threaded.py`` checks this engine differentially against
the straight-line reference interpreter in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from types import FunctionType

from repro import obs
from repro.binary.image import Executable
from repro.binary.loader import load_into_memory
from repro.errors import SimulationError
from repro.isa.instructions import (
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_HILO,
    CLASS_JUMP,
    CLASS_LOAD,
    CLASS_MULT,
    CLASS_SHIFT,
    CLASS_STORE,
    SPECS,
)
from repro.sim.memory import Memory

STACK_TOP = 0x7FFF_FFF0

#: the flat stack window: the 64 KiB ending at 0x8000_0000, which holds
#: every frame the benchmark programs build (deeper stacks spill over to
#: the sparse pages below it)
STACK_WINDOW_BYTES = 1 << 16
_STACK_WINDOW_BASE = 0x8000_0000 - STACK_WINDOW_BYTES

__all__ = [
    "CLASS_ALU", "CLASS_SHIFT", "CLASS_LOAD", "CLASS_STORE", "CLASS_BRANCH",
    "CLASS_JUMP", "CLASS_MULT", "CLASS_DIV", "CLASS_HILO",
    "CpiModel", "Cpu", "RunResult", "run_executable", "STACK_TOP",
    "STACK_WINDOW_BYTES",
]

#: mnemonic -> timing class, derived from the ISA spec table.
_MNEMONIC_CLASS = {mnem: spec.klass for mnem, spec in SPECS.items()}


def _install_windows(exe: Executable, memory: Memory):
    """Install the stack and data windows in *memory*.

    Returns ``(stack, data)``, each a ``(base, buffer)`` pair.  ``data``
    is ``None`` when the data section's window would overlap the stack
    window or leave the 32-bit space; its accesses then all take the
    ``Memory`` path.
    """
    stack = (_STACK_WINDOW_BASE,
             memory.install_window(_STACK_WINDOW_BASE, STACK_WINDOW_BYTES))
    start = exe.data_base & ~0xFFF
    size = 0x1000
    while start + size < exe.data_end:
        size <<= 1
    if start + size <= _STACK_WINDOW_BASE or (
            start >= 0x8000_0000 and start + size <= 0x1_0000_0000):
        return stack, (start, memory.install_window(start, size))
    return stack, None


class _Halt(Exception):
    """Raised by ``break`` to leave the dispatch loop, with the
    instruction *index* of the ``break`` as its only argument, so a loop
    that only tracks unit entries still reports the precise halt pc."""


@dataclass(frozen=True)
class CpiModel:
    """Cycles per instruction class for an in-order five-stage MIPS core.

    Memory costs model the paper-era embedded platform: data lives in
    on-chip SRAM reached over the system bus (no data cache), so loads
    average 4 cycles and stores 2.  This matches the kind of MIPS system
    the warp-processing work evaluated against and is the main reason
    hardware kernels with localized block RAM win big.
    """

    alu: int = 1
    shift: int = 1
    load: int = 4
    store: int = 2
    branch: int = 1
    taken_penalty: int = 1
    jump: int = 2
    mult: int = 4
    div: int = 20
    hilo: int = 1

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"{spec.name} must be an int >= 0, got {value!r} (a "
                    f"negative or fractional cost would make RunResult.cycles "
                    f"negative or non-integral)"
                )

    def cycles_for(self, klass: str) -> int:
        return getattr(self, klass)


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    steps: int
    cycles: int
    halted: bool
    exit_pc: int
    #: taken conditional branches (each costs ``CpiModel.taken_penalty``)
    taken: int = 0
    mix: Counter = field(default_factory=Counter)
    pc_counts: dict[int, int] = field(default_factory=dict)
    edge_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.steps if self.steps else 0.0

    def recost(self, cpi: CpiModel) -> "RunResult":
        """This run's statistics under another CPI model, without re-running.

        Cycles depend on the CPI model only through the per-class counts in
        ``mix`` and the ``taken`` total, so the result is exact: field for
        field what a fresh profiled run under *cpi* returns.  The count
        dictionaries are shared with this run, not copied.
        """
        if self.steps and not self.mix:
            raise ValueError("re-costing needs a profiled run (mix is empty)")
        cycles = sum(count * cpi.cycles_for(klass) for klass, count in self.mix.items())
        return replace(self, cycles=cycles + cpi.taken_penalty * self.taken)


class Cpu:
    """MIPS-I threaded-code interpreter over an :class:`Executable` image."""

    def __init__(
        self,
        exe: Executable,
        memory: Memory | None = None,
        cpi: CpiModel | None = None,
        profile: bool = False,
        engine: str = "superblock",
    ):
        if engine not in ("superblock", "threaded"):
            raise ValueError(
                f"unknown engine {engine!r}; expected 'superblock' or 'threaded'"
            )
        if sys.byteorder != "little":
            raise SimulationError(
                "the simulator needs a little-endian host: generated code "
                "reads memory through native-order word views"
            )
        self.exe = exe
        self.memory = memory if memory is not None else Memory()
        self._windows = _install_windows(exe, self.memory)
        self._cpi = cpi if cpi is not None else CpiModel()
        self._profile = profile
        self._engine = engine
        load_into_memory(exe, self.memory)
        started = time.perf_counter()
        self._decoded = exe.instructions
        #: seconds this construction spent decoding, until a run reports them
        self._decode_seconds: float | None = time.perf_counter() - started
        self.regs = [0] * 32
        self.pc = exe.entry
        self.regs[29] = STACK_TOP  # $sp
        # mutable cells shared with the handlers and the generated code
        self._hilo = [0, 0]
        self._taken = [0] * len(self._decoded)
        self._dyn_edges: dict[tuple[int, int], int] = {}
        self._build_table()
        if engine == "superblock":
            # deferred import, as in _build_table
            from repro.sim.superblock import SuperblockTable

            self._sb = SuperblockTable(self)
        else:
            self._sb = None

    @property
    def hi(self) -> int:
        """The HI register, as the last instruction executed left it."""
        return self._hilo[0]

    @property
    def lo(self) -> int:
        """The LO register, as the last instruction executed left it."""
        return self._hilo[1]

    # The handler table bakes cycle costs and profile hooks in at build
    # time, so these are constructor-only: assigning them later would
    # silently leave a stale table behind.
    @property
    def cpi(self) -> CpiModel:
        return self._cpi

    @property
    def profile(self) -> bool:
        return self._profile

    @property
    def engine(self) -> str:
        """Dispatch engine: ``"superblock"`` (default) or ``"threaded"``."""
        return self._engine

    @property
    def superblocks(self) -> list[tuple[int, int]]:
        """The superblock partition as (start index, length) pairs.

        Only meaningful on the superblock engine; every decoded instruction
        belongs to exactly one block and blocks end only at control
        transfers or immediately before another block's leader.
        """
        if self._sb is None:
            raise SimulationError("superblocks require engine='superblock'")
        return self._sb.blocks

    # Static control-transfer sites, exposed for online profilers: maps of
    # instruction index -> (source pc, target pc).  Branch edges count via
    # the per-site taken array; jump edges via the execution counters.
    @property
    def branch_edges(self) -> dict[int, tuple[int, int]]:
        return self._branch_edges

    @property
    def jump_edges(self) -> dict[int, tuple[int, int]]:
        return self._jump_edges

    @property
    def site_costs(self) -> list[int]:
        """Per-instruction-index cycle cost (without taken penalties)."""
        return self._costs

    @property
    def site_classes(self) -> list[str]:
        """Per-instruction-index timing class: the :class:`CpiModel` field
        that prices it, so ``site_costs[i] == cpi.cycles_for(site_classes[i])``."""
        return self._klasses

    # -- helpers -----------------------------------------------------------

    def read_word_global(self, symbol: str, index: int = 0) -> int:
        """Read a word from a data symbol (test/verification convenience)."""
        address = self.exe.symbols[symbol].address + 4 * index
        return self.memory.read_u32(address)

    def read_word_global_signed(self, symbol: str, index: int = 0) -> int:
        value = self.read_word_global(symbol, index)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    # -- handler table -----------------------------------------------------

    def _build_table(self) -> None:
        """Build the handler/cost/class tables of the decoded text.

        Each handler is a zero-argument closure that performs one
        instruction and returns the *index* of the next one, made by its
        shape's factory (:func:`repro.sim.superblock.codegen.handler_factory`)
        from the code generator's templates.  Straight-line successors and
        static branch/jump targets are resolved to indices here, so the
        dispatch loop never converts pc -> index; only the
        register-indirect jumps (``jr``/``jalr``) do, validating their
        dynamic target.
        """
        # deferred import: keeps the code generator off ``import repro``
        from repro.sim.superblock.codegen import handler_factory

        memory = self.memory
        text_base = self.exe.text_base
        text_len = len(self._decoded)
        #: what handlers and generated units read, by their source names
        self._ns = {
            "R": self.regs, "T": self._taken, "HL": self._hilo, "DE": self._dyn_edges,
            "r8": memory.read_u8, "r16": memory.read_u16, "r32": memory.read_u32,
            "w8": memory.write_u8, "w16": memory.write_u16, "w32": memory.write_u32,
            "Halt": _Halt, "Err": SimulationError,
        }
        bound = dict(self._ns, B=text_base, L=text_len)
        profile = self.profile
        #: shape -> this Cpu's handler maker
        makers: dict[tuple, object] = {}

        def escape(bad_pc: int):
            def h():
                raise SimulationError(f"pc outside text section: 0x{bad_pc:08x}")
            return h

        # Escape slots appended after the text: slot text_len catches
        # fall-through past the end; further slots serve as the "taken"
        # continuation of any static branch/jump whose target lies outside
        # the text section (executing one faults, as the next fetch would;
        # if the step budget runs out first, the run exceeds max_steps on
        # every engine alike).  One slot per bad pc.
        extra_escapes: list = []
        escape_slots: dict[int, int] = {}
        #: index -> the slot a branch or j/jal transfers to
        targets: dict[int, int] = {}

        handlers = []
        klasses = [_MNEMONIC_CLASS[instr.mnemonic] for instr in self._decoded]
        cycles = {klass: self.cpi.cycles_for(klass) for klass in set(klasses)}
        costs = [cycles[klass] for klass in klasses]
        #: index -> static (src, dst) edge; count = taken[i] for branches,
        #: counts[i] for j/jal (which are always taken)
        branch_edges: dict[int, tuple[int, int]] = {}
        jump_edges: dict[int, tuple[int, int]] = {}

        for index, instr in enumerate(self._decoded):
            pc = text_base + (index << 2)
            m = instr.mnemonic
            klass = klasses[index]

            t_idx = None
            if klass == CLASS_BRANCH or m == "j" or m == "jal":
                t_pc = (pc + 4 + (instr.imm << 2) if klass == CLASS_BRANCH
                        else ((pc + 4) & 0xF000_0000) | (instr.target << 2))
                t_idx = (t_pc - text_base) >> 2
                if not 0 <= t_idx < text_len:
                    t_idx = escape_slots.get(t_pc)
                    if t_idx is None:
                        extra_escapes.append(escape(t_pc))
                        t_idx = escape_slots[t_pc] = text_len + len(extra_escapes)
                elif klass == CLASS_BRANCH:
                    branch_edges[index] = (pc, t_pc)
                else:
                    jump_edges[index] = (pc, t_pc)
                targets[index] = t_idx

            shape = (m, not instr.rs, not instr.rt, not instr.rd,
                     not instr.imm, not instr.shamt)
            make = makers.get(shape)
            if make is None:
                make = makers[shape] = FunctionType(handler_factory(shape, profile), bound)
            handlers.append(make(instr, index, pc, t_idx))

        # fall-through past the last instruction lands here
        handlers.append(escape(text_base + (text_len << 2)))
        handlers.extend(extra_escapes)

        self._handlers = handlers
        self._costs = costs
        self._klasses = klasses
        self._branch_edges = branch_edges
        self._jump_edges = jump_edges
        self._targets = targets

    # -- execution ---------------------------------------------------------

    def run(
        self,
        max_steps: int = 100_000_000,
        sample_interval: int = 0,
        on_sample=None,
    ) -> RunResult:
        """Run until ``break`` or *max_steps*; return statistics.

        When *on_sample* is given and *sample_interval* is positive, the
        dispatch loop runs in chunks of *sample_interval* instructions and
        ``on_sample(counts, taken)`` is called between chunks (and once more
        when the program halts) with the **live** cumulative counter arrays
        -- callbacks must copy anything they want to keep.
        ``counts[i]``/``taken[i]`` are the execution/branch-taken counters
        of instruction index ``i`` (address ``text_base + 4*i``).  Chunk
        boundaries land on exactly the same instruction counts on both
        dispatch engines.  The callback's return value is ignored.
        A *sample_interval* of 0 means no callback.  A negative or
        non-integer *max_steps* or *sample_interval* raises ``ValueError``.

        ``regs``, ``hi``, ``lo`` and memory always hold the state the
        last instruction executed left.  ``pc`` is set when the run halts
        or exceeds *max_steps*; after any other error (a memory fault, a
        jump outside the text, ``syscall``) it still holds the pc this
        run started from.
        """
        for name, value in (("max_steps", max_steps),
                            ("sample_interval", sample_interval)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {value!r}")
        text_base = self.exe.text_base
        text_len = len(self._decoded)
        taken = self._taken
        taken[:] = [0] * text_len
        self._dyn_edges.clear()
        counts = [0] * len(self._handlers)

        pc = self.pc
        index = (pc - text_base) >> 2
        if pc & 3 or not 0 <= index < text_len:
            raise SimulationError(f"pc outside text section: 0x{pc:08x}")

        run_started = time.monotonic()
        if on_sample is not None and sample_interval > 0:
            index, halted = self._run_chunked(
                index, counts, max_steps, sample_interval, on_sample
            )
        elif self._sb is not None:
            index, halted = self._run_superblock(index, counts, max_steps)
        else:
            index, halted = self._run_threaded(index, counts, max_steps)

        pc = text_base + (index << 2)
        self.pc = pc
        if not halted:
            raise SimulationError(f"exceeded max_steps={max_steps} (pc=0x{pc:08x})")

        result = self._gather(counts)
        if obs.metrics_enabled():
            self._observe_run(result, time.monotonic() - run_started)
        return result

    def _observe_run(self, result: RunResult, wall_seconds: float) -> None:
        """Fold one finished run into the process metrics registry.

        Called only when telemetry is on, and only at run end: every
        figure is derived from counter state the dispatch loops maintain
        anyway (``bcounts`` reset per run, cumulative table stats read
        through a watermark), so the hot paths carry zero extra work.
        The first run also reports what construction spent decoding,
        building unit source and compiling it
        (``engine.construct.*_seconds``).
        """
        obs.counter("engine.runs_total").inc()
        obs.counter(f"engine.runs.{self._engine}").inc()
        obs.counter("engine.instructions_total").inc(result.steps)
        obs.counter("engine.cycles_total").inc(result.cycles)
        if wall_seconds > 0:
            obs.histogram("engine.run_seconds").observe(wall_seconds)
        if self._decode_seconds is not None:
            obs.histogram("engine.construct.decode_seconds").observe(
                self._decode_seconds)
            self._decode_seconds = None
        sb = self._sb
        if sb is None:
            return
        in_blocks = sb.instructions_in_blocks()
        obs.counter("engine.instructions_in_blocks").inc(in_blocks)
        obs.counter("engine.instructions_in_regions").inc(
            sb.instructions_in_regions())
        obs.counter("engine.instructions_stepped").inc(
            max(0, result.steps - in_blocks)
        )
        delta = sb.consume_stats()
        obs.counter("engine.codegen_units_total").inc(delta["codegen_units"])
        obs.counter("engine.codegen_lines_total").inc(delta["codegen_lines"])
        obs.counter("engine.unit_guard_misses_total").inc(delta["guard_misses"])
        for part in ("source", "compile"):
            seconds = delta[f"{part}_seconds"]
            if seconds > 0:
                obs.histogram(f"engine.construct.{part}_seconds").observe(seconds)

    def _run_threaded(
        self, index: int, counts: list[int], max_steps: int,
    ) -> tuple[int, bool]:
        """One closure call per instruction; unchunked (sampling runs go
        through :meth:`_run_chunked`)."""
        handlers = self._handlers
        halted = False
        try:
            for _ in repeat(None, max_steps):
                counts[index] += 1
                index = handlers[index]()
        except _Halt:
            halted = True
        return index, halted

    def _run_superblock(
        self, index: int, counts: list[int], max_steps: int,
    ) -> tuple[int, bool]:
        """One generated-function call per unit (block or fused j-chain)
        or per loop-region entry.

        Unchunked only (sampling runs go through :meth:`_run_chunked`,
        which single-steps chunk tails through the threaded handlers so
        boundaries land on the exact instruction).  Per-unit entry
        counters are folded into *counts* at every observation point,
        never mid-spree.  A slot with no generated function (a dynamic
        jump into the middle of a block) is single-stepped through the
        threaded handlers, one step per call, until a slot with one comes
        up, as :meth:`_run_chunked` does, so a run generates no code.

        Budget-free dispatch sprees: a spree of *k* calls charges each
        call ``call_bound`` instructions, the most a unit or one region
        iteration executes, and hands the rest of the budget to the
        regions as their allowance (``sb.allowance``), which each region
        call spends on its further iterations.  So ``k * call_bound``
        plus the allowance cannot overshoot *max_steps*, and the hot
        loop carries no budget arithmetic at all.  Half the budget goes
        to the calls, half to the allowance.  A halting program finishes
        inside the first spree, so a run pays one fold.  A runaway one
        folds, re-derives the executed count and sprees again until less
        than two calls' worth of budget is left, then finishes with an
        exact single-stepped tail, so *max_steps* semantics stay
        bit-identical with the threaded loop.
        """
        sb = self._sb
        sb.reset()
        fns = sb.fns
        bound = sb.call_bound
        allowance = sb.allowance
        handlers = self._handlers
        halted = False
        try:
            remaining = max_steps
            while remaining >= 2 * bound:
                calls = remaining // (2 * bound)
                allowance[0] = remaining - calls * bound
                for _ in repeat(None, calls):
                    fn = fns[index]
                    if fn is None:
                        counts[index] += 1
                        index = handlers[index]()
                    else:
                        index = fn()
                sb.fold_into(counts)
                remaining = max_steps - sum(counts)
            for _ in repeat(None, remaining):
                counts[index] += 1
                index = handlers[index]()
        except _Halt as halt:
            halted = True
            index = halt.args[0]
        sb.fold_into(counts)
        return index, halted

    def _run_chunked(
        self, index: int, counts: list[int], max_steps: int,
        interval: int, on_sample,
    ) -> tuple[int, bool]:
        """Fixed chunks of *interval* instructions, calling *on_sample*
        after each and once more at the halt.

        The superblock loop runs a unit only when it fits in the chunk's
        remaining budget and single-steps the tail through the threaded
        handlers, so a boundary lands on the exact instruction; the unit
        entry counters are folded into *counts* before every sample.
        A region gets the chunk's budget as its allowance and runs whole
        iterations while one more cannot overshoot it; it hands back the
        allowance minus what it ran, plus the ``sizes`` entry charged for
        the call, so the budget stays exact.
        Resuming mid-block after a boundary also single-steps, until a
        slot with a generated function comes up, so a sampled run
        generates no code after construction.
        """
        handlers = self._handlers
        taken = self._taken
        sb = self._sb
        if sb is not None:
            sb.reset()
            fns = sb.fns
            sizes = sb.sizes
            allowance = sb.allowance
        halted = False
        remaining = max_steps
        try:
            while remaining > 0:
                budget = min(interval, remaining)
                remaining -= budget
                if sb is None:
                    for _ in repeat(None, budget):
                        counts[index] += 1
                        index = handlers[index]()
                else:
                    while budget > 0:
                        fn = fns[index]
                        if fn is None:
                            counts[index] += 1
                            index = handlers[index]()
                            budget -= 1
                            continue
                        n = sizes[index]
                        if n > budget:
                            for _ in repeat(None, budget):
                                counts[index] += 1
                                index = handlers[index]()
                            break
                        allowance[0] = budget
                        index = fn()
                        budget = allowance[0] - n
                    sb.fold_into(counts)
                on_sample(counts, taken)
        except _Halt as halt:
            halted = True
            index = halt.args[0]
            if sb is not None:
                sb.fold_into(counts)
            on_sample(counts, taken)
        return index, halted

    def _gather(self, counts: list[int]) -> RunResult:
        """Derive the RunResult statistics from the raw counter arrays."""
        costs = self._costs
        taken = self._taken
        profile = self.profile
        text_base = self.exe.text_base
        steps = 0
        cycles = 0
        mix: Counter = Counter()
        pc_counts: dict[int, int] = {}
        text_len = len(costs)
        if profile:
            klasses = self._klasses
            for i in range(text_len):
                c = counts[i]
                if c:
                    steps += c
                    cycles += c * costs[i]
                    pc_counts[text_base + (i << 2)] = c
                    mix[klasses[i]] += c
        else:
            for i in range(text_len):
                c = counts[i]
                if c:
                    steps += c
                    cycles += c * costs[i]
        taken_total = sum(taken)
        cycles += self.cpi.taken_penalty * taken_total

        edge_counts: dict[tuple[int, int], int] = {}
        if profile:
            for i, key in self._branch_edges.items():
                t = taken[i]
                if t:
                    edge_counts[key] = t
            for i, key in self._jump_edges.items():
                c = counts[i]
                if c:
                    edge_counts[key] = c
            edge_counts.update(self._dyn_edges)

        return RunResult(
            steps=steps,
            cycles=cycles,
            halted=True,
            exit_pc=self.pc,
            taken=taken_total,
            mix=mix,
            pc_counts=pc_counts,
            edge_counts=edge_counts,
        )


def run_executable(
    exe: Executable,
    profile: bool = False,
    max_steps: int = 100_000_000,
    cpi: CpiModel | None = None,
    engine: str = "superblock",
) -> tuple[Cpu, RunResult]:
    """Convenience: build a CPU for *exe*, run to halt, return (cpu, result)."""
    cpu = Cpu(exe, cpi=cpi, profile=profile, engine=engine)
    result = cpu.run(max_steps=max_steps)
    return cpu, result
