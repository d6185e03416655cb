"""In-process, content-keyed memo of the flow's upstream stages.

The paper's platform studies (Table 2 at 40/200/400 MHz, the hard/soft
core grid of Table 5) change only how one binary is *costed*, so its
compile, profiled simulation, decompilation and per-loop synthesis are
the same on every platform.  This memo computes each of them once:

* compile is keyed by ``(source, CompilerOptions)``;
* everything downstream is keyed by a digest of ``exe.to_bytes()`` and
  lives in one per-binary entry: the profiled run per ``max_steps``, the
  :class:`~repro.decompile.decompiler.DecompiledProgram` per
  ``DecompilationOptions``, and each loop's kernel -- or ``None`` where
  synthesis failed -- per (decompile options, ``SynthesisOptions``, loop).

A profiled run serves every CPI model through
:meth:`~repro.sim.cpu.RunResult.recost`, which is exact.

The dynamic flow's sampled run is memoised too, as a :class:`SampleStream`
per ``(max_steps, sample_interval)``: the counters that changed at each
sample, the binary's static site tables (branch and jump edges, each
site's instruction class) and the run's result, which also becomes the
binary's profiled run.  Replaying the stream into a controller on another
platform is exact, because fixed-interval chunk boundaries are counted in
instructions -- independent of the platform and of the controller -- and
the controller reads nothing of the simulator but the counters, the edge
maps and the per-site costs, which the recorded classes give under any CPI
model.  Two paths stay live: phase-adaptive sampling, where ``on_sample``
sizes the next chunk, and the multi-application round-robin of
:mod:`repro.dynamic.multi`, which drives each application's
:meth:`~repro.sim.cpu.Cpu.run_sampled` generator itself.  A run that
raises records nothing.

Both memos are LRUs bounded by :data:`MEMORY_CAP` entries each.
The memo is always on and per process; ``REPRO_CACHE`` governs only the
on-disk report cache (:mod:`repro.flow_cache`).  Memoised artifacts are
shared between flows, so nothing downstream may mutate them.

A miss calls through the stage function its caller hands in -- the
caller's module-level name, resolved at call time -- so rebinding that
name (as the per-layer tracer does) still sees every real computation.
With telemetry on, each lookup counts on
``flow.stage.<compile|simulate|sample|decompile|synth>.hits_total`` or
``.misses_total``.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from typing import Callable

from repro import obs
from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions
from repro.decompile.decompiler import DecompilationOptions, DecompiledProgram
from repro.errors import SynthesisError
from repro.sim.cpu import CpiModel, Cpu, RunResult, run_executable
from repro.synth.synthesizer import HwKernel, Synthesizer

__all__ = [
    "MEMORY_CAP", "SampleStream", "SiteView", "clear", "compiled", "decompiled",
    "kernels", "profiled_run", "recorded_sampled_run", "sample_stream", "size",
]


@dataclass(frozen=True)
class SiteView:
    """A binary's static site tables under one CPI model: the part of a
    :class:`~repro.sim.cpu.Cpu` that an ``on_sample`` consumer reads."""

    branch_edges: dict[int, tuple[int, int]]
    jump_edges: dict[int, tuple[int, int]]
    site_costs: list[int]


@dataclass
class SampleStream:
    """One fixed-interval sampled run of a binary, recorded for replay.

    ``samples`` holds one entry per ``on_sample`` call: the ``counts`` and
    ``taken`` counters that changed since the call before, as
    ``(count indices, count values, taken indices, taken values)`` arrays.
    """

    branch_edges: dict[int, tuple[int, int]]
    jump_edges: dict[int, tuple[int, int]]
    site_classes: tuple[str, ...]
    counters: int                  # len(counts) handed to on_sample
    samples: list[tuple[array, array, array, array]]
    run: RunResult                 # the recorded run; re-cost it per platform

    def site_costs(self, cpi: CpiModel) -> list[int]:
        return [cpi.cycles_for(klass) for klass in self.site_classes]

    def sites(self, cpi: CpiModel) -> SiteView:
        return SiteView(self.branch_edges, self.jump_edges, self.site_costs(cpi))

    def replay(self, on_sample: Callable[[list[int], list[int]], object]) -> None:
        """Call *on_sample* with the same live counter lists, holding the
        same values, as the recorded run did at each of its samples."""
        counts = [0] * self.counters
        taken = [0] * len(self.site_classes)
        for count_index, count_value, taken_index, taken_value in self.samples:
            for i, value in zip(count_index, count_value):
                counts[i] = value
            for i, value in zip(taken_index, taken_value):
                taken[i] = value
            on_sample(counts, taken)


def _changes(now: list[int], before: list[int]) -> tuple[array, array]:
    """Indices where *now* differs from *before*, and *now*'s values there."""
    index = array("I", compress(count(), map(ne, now, before)))
    return index, array("q", map(now.__getitem__, index))


class _Recorder:
    """An ``on_sample`` wrapper that records each sample's changed counters
    and keeps the sample interval fixed."""

    def __init__(self, on_sample: Callable):
        self._on_sample = on_sample
        self._counts: list[int] = []
        self._taken: list[int] = []
        self.samples: list[tuple[array, array, array, array]] = []
        self.counters = 0

    def __call__(self, counts: list[int], taken: list[int]) -> None:
        if not self.samples:
            self.counters = len(counts)
            self._counts = [0] * len(counts)
            self._taken = [0] * len(taken)
        self.samples.append(
            _changes(counts, self._counts) + _changes(taken, self._taken)
        )
        self._counts = counts[:]
        self._taken = taken[:]
        self._on_sample(counts, taken)


@dataclass
class _Binary:
    """Every memoised artifact of one executable."""

    runs: dict = field(default_factory=dict)      # max_steps -> RunResult
    programs: dict = field(default_factory=dict)  # options -> DecompiledProgram
    kernels: dict = field(default_factory=dict)   # (..., loop) -> HwKernel | None
    streams: dict = field(default_factory=dict)   # (max_steps, interval) -> SampleStream


#: entries each memo keeps.  Bounded: fuzzers create hundreds of distinct
#: programs per process, and each binary's entry pins its artifacts
MEMORY_CAP = 32
_COMPILED: "OrderedDict[tuple, Executable]" = OrderedDict()
_BINARIES: "OrderedDict[str, _Binary]" = OrderedDict()


def clear() -> None:
    """Forget every memoised artifact."""
    _COMPILED.clear()
    _BINARIES.clear()


def size() -> int:
    """How many binaries the memo currently holds."""
    return len(_BINARIES)


def _count(stage: str, hit: bool) -> None:
    if obs.metrics_enabled():
        obs.counter(f"flow.stage.{stage}.hits_total").inc(int(hit))
        obs.counter(f"flow.stage.{stage}.misses_total").inc(int(not hit))


def _touch(memo: OrderedDict, key, make: Callable):
    """``memo[key]`` as most recently used, inserting ``make()`` on a miss."""
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
        return value
    value = memo[key] = make()
    while len(memo) > MEMORY_CAP:
        memo.popitem(last=False)
    return value


def _binary(exe: Executable) -> _Binary:
    digest = hashlib.blake2b(exe.to_bytes(), digest_size=16).hexdigest()
    return _touch(_BINARIES, digest, _Binary)


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


def sample_stream(
    exe: Executable, max_steps: int, sample_interval: int
) -> SampleStream | None:
    """The recorded fixed-interval sampled run of *exe*, if there is one."""
    stream = _binary(exe).streams.get((max_steps, sample_interval))
    _count("sample", stream is not None)
    return stream


def recorded_sampled_run(
    cpu: Cpu,
    max_steps: int,
    sample_interval: int,
    on_sample: Callable[[list[int], list[int]], object],
) -> RunResult:
    """Run *cpu* -- built with ``profile=True`` -- in fixed chunks of
    *sample_interval* instructions, feeding *on_sample*, and record the run
    for :func:`sample_stream` of ``cpu.exe``.

    *on_sample*'s return value is ignored: the chunks stay fixed, so the
    samples do not depend on the consumer.  The run also becomes the
    binary's profiled run for *max_steps*, since chunking changes no
    statistic.  Nothing is recorded if the run raises.
    """
    recorder = _Recorder(on_sample)
    run = cpu.run(
        max_steps=max_steps, sample_interval=sample_interval, on_sample=recorder
    )
    binary = _binary(cpu.exe)
    binary.streams[(max_steps, sample_interval)] = SampleStream(
        branch_edges=cpu.branch_edges,
        jump_edges=cpu.jump_edges,
        site_classes=tuple(cpu.site_classes),
        counters=recorder.counters,
        samples=recorder.samples,
        run=run,
    )
    binary.runs.setdefault(max_steps, run)
    return run


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
