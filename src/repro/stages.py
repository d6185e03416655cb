"""In-process, content-keyed memo of the flow's upstream stages.

The paper's platform studies (Table 2 at 40/200/400 MHz, the hard/soft
core grid of Table 5) change only how one binary is *costed*, so its
compile, profiled simulation, decompilation and per-loop synthesis are
the same on every platform.  This memo computes each of them once:

* compile is keyed by ``(source, CompilerOptions)``.  Under it, the
  compiler keeps its own memo of syntax trees keyed by the source text
  (:func:`repro.compiler.driver.clear_parses`, cleared with this one), so
  the -O0 to -O3 builds of one source parse it once.  It lives in the
  driver, inside the timed compile, because the compiler must load none
  of the stages downstream of it.  Every build shares the tree: the IR
  generator only reads it, and -O3's unroller
  (:func:`~repro.compiler.passes.ast_unroll.unrolled`) copies the path to
  each loop it rewrites instead of editing it.  Only a process that
  builds one source with several option sets reads a memoised tree;
  elsewhere the memo just holds up to :data:`MEMORY_CAP` of them;
* everything downstream is keyed by the binary's content digest
  (:attr:`~repro.binary.image.Executable.digest`, a hash of
  ``exe.to_bytes()`` cached on the immutable image) and lives in one
  per-binary entry: the profiled run per ``max_steps``, the
  :class:`~repro.decompile.decompiler.DecompiledProgram` per
  ``DecompilationOptions``, each program's loop index
  (:func:`repro.partition.profiles.loop_index`, shared by the static
  profile and the dynamic controller), the loop profile summaries
  (:func:`repro.partition.profiles.summarize_loops`) per (program, run)
  pair, and each loop's kernel -- or ``None`` where synthesis failed --
  per (decompile options, ``SynthesisOptions``, loop).

A profiled run serves every CPI model through
:meth:`~repro.sim.cpu.RunResult.recost`, which is exact, and its loop
summaries serve every CPI model through
:meth:`~repro.partition.profiles.LoopSummary.price`, which is exact too.

The dynamic flow's sampled run is memoised too, as a :class:`SampleStream`
per ``(max_steps, sample_interval)``: the counters that changed at each
fixed-interval sample, the binary's static site tables (branch and jump
edges, each site's instruction class) and the run's result, which also
becomes the binary's profiled run.  Every dynamic consumer replays that
stream instead of simulating: a controller reads nothing of the simulator
but the counters, the edge maps and the per-site costs, which the
recorded classes give under any CPI model; fixed chunk boundaries are
counted in instructions, independent of the platform and the consumer;
and phase-adaptive chunks are multiples of the base interval, so they end
on recorded boundaries too -- an adaptive consumer just skips samples.
A run that raises records nothing.

Equal binaries share one entry, however they were built.  Each
``Executable`` object is serialized and hashed once, on its first lookup,
so a memo hit costs dictionary lookups: a flow whose binary is already
memoised serializes nothing, and what it still pays is the per-platform
work -- re-costing the run, pricing the loop summaries, building the
candidates and partitioning.

The parse, compile and per-binary memos are LRUs bounded by
:data:`MEMORY_CAP` entries each (:mod:`repro.utils.lru`), and so are each
binary's sets of loop indexes and loop summaries.
The memo is always on and per process, and it is the only artifact cache:
nothing persists between sessions.  Memoised artifacts are shared between
flows, so nothing downstream may mutate them.

A miss calls through the stage function its caller hands in -- the
caller's module-level name, resolved at call time -- so rebinding that
name (as the per-layer tracer does) still sees every real computation.
With telemetry on, each lookup counts on
``flow.stage.<compile|simulate|sample|decompile|profile|synth>.hits_total`` or
``.misses_total``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from typing import Callable, Generator

from repro import obs
from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, clear_parses
from repro.decompile.decompiler import DecompilationOptions, DecompiledProgram
from repro.errors import SimulationError, SynthesisError
from repro.sim.cpu import CpiModel, Cpu, RunResult, run_executable
from repro.synth.synthesizer import HwKernel, Synthesizer
from repro.utils.lru import MEMORY_CAP, touch as _touch

__all__ = [
    "MEMORY_CAP", "SampleStream", "SiteView", "clear", "compiled", "decompiled",
    "kernels", "loop_index", "loop_summaries", "profiled_run",
    "sample_stream", "size",
]


@dataclass(frozen=True)
class SiteView:
    """A binary's static site tables under one CPI model: all that the
    online profiler and the dynamic controller read of the binary besides
    the sampled counters."""

    branch_edges: dict[int, tuple[int, int]]
    jump_edges: dict[int, tuple[int, int]]
    site_costs: list[int]


@dataclass
class SampleStream:
    """One fixed-interval sampled run of a binary, recorded for replay.

    ``samples`` holds one entry per sample of the recorded run: the
    ``counts`` and ``taken`` counters that changed since the sample before,
    as ``(count indices, count values, taken indices, taken values)``
    arrays.  The last entry is the sample taken when the program halted.
    """

    branch_edges: dict[int, tuple[int, int]]
    jump_edges: dict[int, tuple[int, int]]
    site_classes: tuple[str, ...]
    counters: int                  # len(counts) of each sample
    interval: int                  # instructions between samples
    samples: list[tuple[array, array, array, array]]
    run: RunResult                 # the recorded run; re-cost it per platform

    def site_costs(self, cpi: CpiModel) -> list[int]:
        return [cpi.cycles_for(klass) for klass in self.site_classes]

    def sites(self, cpi: CpiModel) -> SiteView:
        return SiteView(self.branch_edges, self.jump_edges, self.site_costs(cpi))

    def play(self) -> Generator[tuple[list[int], list[int]], int | None, RunResult]:
        """The sampled run, replayed: a generator of ``(counts, taken)``.

        Yields the live cumulative counter lists -- the same lists each
        time, so a consumer must copy what it keeps -- holding the values
        the simulator held at each sample.  ``send()`` a positive multiple
        of :attr:`interval` to set how many instructions later the next
        sample falls; a falsy value keeps the current spacing.  The halt
        sample is always delivered, so a chunk cut short by the halt ends
        there as on the simulator.  Returns the recorded run.
        """
        counts = [0] * self.counters
        taken = [0] * len(self.site_classes)
        last = len(self.samples) - 1
        stride = 1
        skip = 0
        for position, (count_index, count_value, taken_index, taken_value) \
                in enumerate(self.samples):
            for i, value in zip(count_index, count_value):
                counts[i] = value
            for i, value in zip(taken_index, taken_value):
                taken[i] = value
            if skip and position < last:
                skip -= 1
                continue
            sent = yield counts, taken
            if sent:
                stride = self._stride(sent)
            skip = stride - 1
        return self.run

    def _stride(self, interval) -> int:
        """Recorded samples per chunk of *interval* instructions."""
        if not isinstance(interval, int) or isinstance(interval, bool) \
                or interval < 1 or interval % self.interval:
            raise SimulationError(
                "sample-interval override must be a positive multiple of "
                f"{self.interval}, got {interval!r}"
            )
        return interval // self.interval

    def replay(
        self, on_sample: Callable[[list[int], list[int]], int | None]
    ) -> RunResult:
        """Drive :meth:`play` with *on_sample*: each return value sets the
        next sample's spacing.  Returns the recorded run."""
        player = self.play()
        try:
            sample = next(player)
            while True:
                sample = player.send(on_sample(*sample))
        except StopIteration as stop:
            return stop.value


def _changes(now: list[int], before: list[int]) -> tuple[array, array]:
    """Indices where *now* differs from *before*, and *now*'s values there."""
    index = array("I", compress(count(), map(ne, now, before)))
    return index, array("q", map(now.__getitem__, index))


def _record(exe: Executable, max_steps: int, interval: int) -> SampleStream:
    """Simulate *exe* in fixed chunks of *interval* instructions and record
    each sample's changed counters."""
    if interval < 1:
        raise SimulationError(
            f"a sampled run needs a positive sample_interval, got {interval}"
        )
    samples: list[tuple[array, array, array, array]] = []
    before = None   # the previous sample's (counts, taken)

    def record(counts: list[int], taken: list[int]) -> None:
        nonlocal before
        base = before or ([0] * len(counts), [0] * len(taken))
        samples.append(_changes(counts, base[0]) + _changes(taken, base[1]))
        before = counts[:], taken[:]

    cpu = Cpu(exe, profile=True)
    run = cpu.run(max_steps=max_steps, sample_interval=interval, on_sample=record)
    return SampleStream(
        branch_edges=cpu.branch_edges,
        jump_edges=cpu.jump_edges,
        site_classes=tuple(cpu.site_classes),
        counters=len(before[0]),
        interval=interval,
        samples=samples,
        run=run,
    )


@dataclass
class _Binary:
    """Every memoised artifact of one executable."""

    runs: dict = field(default_factory=dict)      # max_steps -> RunResult
    programs: dict = field(default_factory=dict)  # options -> DecompiledProgram
    kernels: dict = field(default_factory=dict)   # (..., loop) -> HwKernel | None
    streams: dict = field(default_factory=dict)   # (max_steps, interval) -> SampleStream
    #: program id -> (program, loop index)
    indexes: OrderedDict = field(default_factory=OrderedDict)
    #: (program, run counts) ids -> (program, pc_counts, edge_counts, summaries)
    summaries: OrderedDict = field(default_factory=OrderedDict)


_COMPILED: "OrderedDict[tuple, Executable]" = OrderedDict()
_BINARIES: "OrderedDict[str, _Binary]" = OrderedDict()


def clear() -> None:
    """Forget every memoised artifact, the compiler's parses included."""
    clear_parses()
    _COMPILED.clear()
    _BINARIES.clear()


def size() -> int:
    """How many binaries the memo currently holds."""
    return len(_BINARIES)


def _count(stage: str, hit: bool) -> None:
    if obs.metrics_enabled():
        obs.counter(f"flow.stage.{stage}.hits_total").inc(int(hit))
        obs.counter(f"flow.stage.{stage}.misses_total").inc(int(not hit))


def _binary(exe: Executable) -> _Binary:
    return _touch(_BINARIES, exe.digest, _Binary)


def compiled(
    source: str,
    options: CompilerOptions,
    compile_source: Callable[[str, CompilerOptions], Executable],
) -> Executable:
    """The binary of *source* under *options*."""
    key = (source, options)
    _count("compile", key in _COMPILED)
    return _touch(_COMPILED, key, lambda: compile_source(source, options))


def profiled_run(exe: Executable, cpi: CpiModel, max_steps: int) -> RunResult:
    """A profiled run of *exe* to halt, costed under *cpi*."""
    runs = _binary(exe).runs
    run = runs.get(max_steps)
    _count("simulate", run is not None)
    if run is not None:
        return run.recost(cpi)
    _, run = run_executable(exe, profile=True, max_steps=max_steps, cpi=cpi)
    runs[max_steps] = run
    return run


def sample_stream(exe: Executable, max_steps: int, sample_interval: int) -> SampleStream:
    """The fixed-interval sampled run of *exe*, recorded on first use.

    Recording also seeds the binary's profiled run for *max_steps*, since
    chunking changes no statistic.  A run that raises (e.g. past
    *max_steps*) stores nothing.
    """
    binary = _binary(exe)
    key = (max_steps, sample_interval)
    stream = binary.streams.get(key)
    _count("sample", stream is not None)
    if stream is None:
        stream = binary.streams[key] = _record(exe, max_steps, sample_interval)
        binary.runs.setdefault(max_steps, stream.run)
    return stream


def decompiled(
    exe: Executable,
    options: DecompilationOptions | None,
    decompile: Callable[..., DecompiledProgram],
) -> DecompiledProgram:
    """*exe* decompiled with *options* (``None``: the full pass set)."""
    programs = _binary(exe).programs
    key = options or DecompilationOptions()
    program = programs.get(key)
    _count("decompile", program is not None)
    if program is None:
        program = programs[key] = decompile(exe, options)
    return program


def loop_index(
    exe: Executable,
    program: DecompiledProgram,
    build: Callable[[Executable, DecompiledProgram], tuple],
) -> tuple:
    """``build(exe, program)``, the loop index of *program*, once per
    program object; the entry holds the program, so (as in
    :func:`loop_summaries`) no other program can take over its id."""
    return _touch(_binary(exe).indexes, id(program),
                  lambda: (program, build(exe, program)))[1]


def loop_summaries(
    exe: Executable,
    program: DecompiledProgram,
    run: RunResult,
    summarize: Callable[[Executable, DecompiledProgram, RunResult], tuple],
) -> tuple:
    """``summarize(exe, program, run)``: the CPU-model-free loop summaries
    of *program* under the profiled *run*, computed once per pair.

    The pair is keyed by identity -- the program object and the run's count
    dictionaries, which :meth:`~repro.sim.cpu.RunResult.recost` shares
    between the platforms of one run.  The entry holds those objects, so
    no other program or run can take over their ids while it lives, and a
    program or run built outside the memo gets its own entry.
    """
    key = (id(program), id(run.pc_counts), id(run.edge_counts))
    memo = _binary(exe).summaries
    _count("profile", key in memo)
    return _touch(memo, key, lambda: (
        program, run.pc_counts, run.edge_counts, summarize(exe, program, run)
    ))[3]


def kernels(
    exe: Executable,
    decompile_options: DecompilationOptions | None,
    synthesizer: Synthesizer,
) -> Callable:
    """A ``(function, loop) -> HwKernel | None`` synthesizer for the loops
    of ``decompiled(exe, decompile_options, ...)``; ``None`` marks a loop
    whose synthesis raised :class:`~repro.errors.SynthesisError`."""
    memo = _binary(exe).kernels
    prefix = (decompile_options or DecompilationOptions(), synthesizer.options)

    def synthesize(func, loop) -> HwKernel | None:
        key = prefix + (func.name, func.cfg.blocks[loop.header].start)
        hit = key in memo
        _count("synth", hit)
        if hit:
            return memo[key]
        try:
            kernel = synthesizer.synthesize_loop(func, loop, exe)
        except SynthesisError:
            kernel = None
        memo[key] = kernel
        return kernel

    return synthesize
