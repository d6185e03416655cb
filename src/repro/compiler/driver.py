"""Compiler driver: source -> (optimized IR) -> instruction records ->
executable.

:func:`compile_source` hands the code generator's instruction records
straight to the assembler's back end: a compile never prints assembly text
nor lexes it.  :func:`compile_to_asm` renders the same records as text.

Optimization levels mirror the gcc levels the paper sweeps (section 4):

====== ==========================================================
Level  Passes
====== ==========================================================
-O0    none (all locals in stack slots, naive code)
-O1    mem2reg, constant folding/propagation, copy propagation,
       DCE, control-flow cleanup, immediate folding
-O2    -O1 + local CSE, loop-invariant code motion, strength
       reduction (constant multiply -> shift/add; the input to the
       decompiler's strength *promotion*)
-O3    -O2 + loop unrolling (the input to loop *rerolling*)
====== ==========================================================

Individual passes can be toggled through :class:`CompilerOptions` for the
ablation experiments.

The cleanup passes (folding, copy propagation, DCE, control-flow cleanup)
iterate to a fixed point after each transforming pass.  The fixpoint is
change-driven: per function, across all of its fixpoints, the driver
remembers which cleanup passes last returned "no change" and skips them
until some pass -- a cleanup pass, or LICM, CSE, strength reduction or
immediate folding reporting a change -- changes the function.  A pass that
returns False leaves the function untouched (``tests/compiler/
test_passes.py`` checks this on every function of the benchmark suite), so
a skipped call is exactly a call that would have returned False, and the
output is the same as running every pass in every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.binary.image import Executable
from repro.compiler import ir
from repro.compiler.codegen import generate_records
from repro.compiler.irgen import generate_ir
from repro.compiler.parser import parse
from repro.compiler.passes import (
    eliminate_dead_code,
    fold_constants,
    fold_immediates,
    hoist_loop_invariants,
    local_cse,
    promote_slots,
    propagate_copies,
    reduce_strength,
    simplify_control_flow,
    unroll_loops,
)
from repro.isa.assembler import assemble_records, render

_MAX_FIXPOINT_ROUNDS = 12


@dataclass(frozen=True)
class CompilerOptions:
    """Per-compilation switches (one gcc-style level plus ablation toggles)."""

    opt_level: int = 1
    mem2reg: bool = True
    fold: bool = True
    cse: bool = False
    licm: bool = False
    strength_reduce: bool = False
    unroll: bool = False
    unroll_factor: int = 4

    @classmethod
    def from_level(cls, level: int, **overrides) -> "CompilerOptions":
        if level <= 0:
            options = cls(opt_level=0, mem2reg=False, fold=False)
        elif level == 1:
            options = cls(opt_level=1)
        elif level == 2:
            options = cls(opt_level=2, cse=True, licm=True, strength_reduce=True)
        else:
            options = cls(
                opt_level=3, cse=True, licm=True, strength_reduce=True, unroll=True
            )
        if overrides:
            options = replace(options, **overrides)
        return options


_CLEANUP_PASSES = (
    fold_constants,
    propagate_copies,
    eliminate_dead_code,
    simplify_control_flow,
)


def _run_fixpoint(func: ir.Function, clean: set) -> None:
    """Iterate the cleanup passes to a fixed point.

    *clean* holds the passes whose last run returned False; none of them
    can change the function again until some pass does, so they are
    skipped as if they had returned False again.
    """
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for cleanup in _CLEANUP_PASSES:
            if cleanup in clean:
                continue
            if cleanup(func):
                clean.clear()
                changed = True
            else:
                clean.add(cleanup)
        if not changed:
            break


def _run(transform, func: ir.Function, clean: set) -> None:
    """Run a non-cleanup pass; if it changes the function, no pass is clean."""
    if transform(func):
        clean.clear()


def optimize_module(module: ir.Module, options: CompilerOptions) -> None:
    """Run the configured pass pipeline over every function in place."""
    for func in module.functions.values():
        clean: set = set()
        if options.mem2reg:
            promote_slots(func)
        if options.fold:
            _run_fixpoint(func, clean)
        if options.licm:
            _run(hoist_loop_invariants, func, clean)
            _run_fixpoint(func, clean)
        if options.cse:
            _run(local_cse, func, clean)
            _run_fixpoint(func, clean)
        if options.strength_reduce:
            _run(reduce_strength, func, clean)
            _run_fixpoint(func, clean)
        if options.fold:
            _run(fold_immediates, func, clean)
            if eliminate_dead_code not in clean:
                eliminate_dead_code(func)


def _generate(source: str, options: CompilerOptions) -> list:
    """Parse, lower and optimize *source*; its instruction records."""
    unit = parse(source)
    if options.unroll:
        unroll_loops(unit, options.unroll_factor)
    module, jump_tables = generate_ir(unit)
    optimize_module(module, options)
    return generate_records(module, jump_tables)


def compile_to_asm(source: str, options: CompilerOptions | None = None) -> str:
    """Compile mini-C *source* to MIPS assembly text: the records
    :func:`compile_source` assembles, rendered."""
    return render(_generate(source, options or CompilerOptions()))


def compile_source(
    source: str,
    options: CompilerOptions | None = None,
    opt_level: int | None = None,
) -> Executable:
    """Compile mini-C *source* all the way to an executable image.

    Either pass a full :class:`CompilerOptions`, or just ``opt_level`` for
    the standard gcc-style levels.
    """
    if options is None:
        options = CompilerOptions.from_level(opt_level if opt_level is not None else 1)
    return assemble_records(_generate(source, options))
