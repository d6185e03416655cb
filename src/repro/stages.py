"""In-process, content-keyed memo of the flow's upstream stages.

The paper's platform studies (Table 2 at 40/200/400 MHz, the hard/soft
core grid of Table 5) change only how one binary is *costed*, so its
compile, profiled simulation, decompilation and per-loop synthesis are
the same on every platform.  This memo computes each of them once:

* compile is keyed by ``(source, CompilerOptions)``;
* everything downstream is keyed by a digest of ``exe.to_bytes()`` (the
  content :func:`repro.sim.superblock.persist.trace_key` hashes too) and
  lives in one per-binary entry: the profiled run per ``max_steps``, the
  :class:`~repro.decompile.decompiler.DecompiledProgram` per
  ``DecompilationOptions``, and each loop's kernel -- or ``None`` where
  synthesis failed -- per (decompile options, ``SynthesisOptions``, loop).

A profiled run serves every CPI model through
:meth:`~repro.sim.cpu.RunResult.recost`, which is exact.  Both memos are
LRUs bounded by the trace memo's :data:`~repro.sim.superblock.persist.MEMORY_CAP`.
The memo is always on and per process; ``REPRO_CACHE`` governs only the
on-disk report cache (:mod:`repro.flow_cache`).  Memoised artifacts are
shared between flows, so nothing downstream may mutate them.

A miss calls through the stage function its caller hands in -- the
caller's module-level name, resolved at call time -- so rebinding that
name (as the per-layer tracer does) still sees every real computation.
With telemetry on, each lookup counts on
``flow.stage.<compile|simulate|decompile|synth>.hits_total`` or
``.misses_total``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions
from repro.decompile.decompiler import DecompilationOptions, DecompiledProgram
from repro.errors import SynthesisError
from repro.sim.cpu import CpiModel, RunResult, run_executable
from repro.sim.superblock.persist import MEMORY_CAP
from repro.synth.synthesizer import HwKernel, Synthesizer

__all__ = ["clear", "compiled", "decompiled", "kernels", "profiled_run", "size"]


@dataclass
class _Binary:
    """Every memoised artifact of one executable."""

    runs: dict = field(default_factory=dict)      # max_steps -> RunResult
    programs: dict = field(default_factory=dict)  # options -> DecompiledProgram
    kernels: dict = field(default_factory=dict)   # (..., loop) -> HwKernel | None


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
