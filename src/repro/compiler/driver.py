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

Each source is parsed once per process: :func:`compile_source` looks its
syntax tree up in a memo keyed by the source text (an LRU bounded like
the stage memo, :data:`repro.utils.lru.MEMORY_CAP`; :func:`clear_parses`
and :func:`repro.stages.clear` empty it).  Every level shares the tree,
so no pass may mutate it: -O3 unrolls a copy-on-write view of it
(:func:`~repro.compiler.passes.ast_unroll.unrolled`).

The cleanup passes (folding, copy propagation, DCE, control-flow cleanup)
iterate to a fixed point after each transforming pass.  The fixpoint is
change-driven: per function, across all of its fixpoints, the driver
keeps the set of cleanup passes that have no work, skips them, and puts
a pass back to work only when a change can give it some.  A pass that
returns False leaves the function untouched (``tests/compiler/
test_passes.py`` checks this on every function of the benchmark suite),
so a pass that returned False is clean until the function changes.  A
change by CSE, strength reduction or immediate folding puts every cleanup
pass back to work; a change by a cleanup pass or by LICM puts back only
the passes :data:`_GIVES_WORK_TO` names, because

* **folding -> all four.**  Folding turns operations into constants and
  copies (work for folding, whose constants are the single-definition
  ``Const`` registers it found at its start, and for copy propagation),
  drops uses (DCE) and turns constant branches into jumps or nothing
  (control-flow cleanup).
* **copy propagation -> folding and DCE.**  It only renames the
  registers that instructions read: a renamed operand may now be a
  constant (folding) and the old register may have lost its last use
  (DCE).  Control-flow cleanup reads labels, jumps, branch targets and
  reachability, never operands.  Copy propagation gives itself no work:
  a copy's source is renamed before the copy becomes available, so no
  chain of copies is left for a second run to shorten.
* **DCE -> control-flow cleanup.**  DCE deletes pure definitions of
  registers that have no uses left (every pure definition of such a
  register dies together; a ``Call`` keeps its definition) and stores to
  slots that are never loaded.  So no register that is still read loses
  or gains a definition, and the single-definition constants folding
  sees among read registers stay the same; an available copy that a
  deleted definition used to end was a copy of an unread register, or
  its own copy instruction was deleted too, so copy propagation has no
  new work.  DCE runs its worklist to a fixed point, so it gives itself
  none.  A block it empties can leave a label followed by a jump, which
  is control-flow cleanup's work.
* **control-flow cleanup -> folding, copy propagation and DCE.**
  Deleting unreachable blocks removes definitions (folding) and uses
  (DCE); deleting a label or a jump joins two blocks, so a copy can
  reach further (copy propagation).  It loops to its own fixed point.
* **LICM -> copy propagation and control-flow cleanup.**  LICM moves
  instructions, unchanged, from a loop to its preheader: every
  definition, use and operand stays as it was, so folding and DCE find
  what they found before.  A moved copy or definition changes which
  copies are available where (copy propagation), and a loop block it
  empties can leave a label followed by a jump (control-flow cleanup).

``tests/compiler/test_cleanup_schedule.py`` reruns every skipped call on
a copy of the function and checks that it finds nothing, so the output
is the same as running every pass in every round.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.binary.image import Executable
from repro.compiler import ast_nodes as ast
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
    unrolled,
)
from repro.errors import ConfigError
from repro.isa.assembler import assemble_records, render
from repro.utils.lru import touch

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

    def __post_init__(self) -> None:
        if self.unroll_factor < 1:
            raise ConfigError(
                f"unroll factor must be at least 1, got {self.unroll_factor}")

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

_ALL_CLEANUP = frozenset(_CLEANUP_PASSES)

#: pass -> the cleanup passes its change can give work (the reasons are in
#: the module docstring); any other pass's change gives all four work
_GIVES_WORK_TO = {
    fold_constants: _ALL_CLEANUP,
    propagate_copies: frozenset({fold_constants, eliminate_dead_code}),
    eliminate_dead_code: frozenset({simplify_control_flow}),
    simplify_control_flow: frozenset(
        {fold_constants, propagate_copies, eliminate_dead_code}),
    hoist_loop_invariants: frozenset({propagate_copies, simplify_control_flow}),
}


def _run_fixpoint(func: ir.Function, clean: set) -> None:
    """Iterate the cleanup passes to a fixed point.

    *clean* holds the passes that have no work: each one ran since the
    last change that can give it work, so it is skipped as if it had
    returned False again.
    """
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for cleanup in _CLEANUP_PASSES:
            if cleanup in clean:
                continue
            clean.add(cleanup)
            if cleanup(func):
                clean -= _GIVES_WORK_TO[cleanup]
                changed = True
        if not changed:
            break


def _run(transform, func: ir.Function, clean: set) -> None:
    """Run a non-cleanup pass; if it changes the function, the cleanup
    passes it can give work are no longer clean."""
    if transform(func):
        clean -= _GIVES_WORK_TO.get(transform, _ALL_CLEANUP)


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


#: source text -> its syntax tree, shared by every compile of the source
_PARSED: "OrderedDict[str, ast.TranslationUnit]" = OrderedDict()


def clear_parses() -> None:
    """Forget every memoised syntax tree."""
    _PARSED.clear()


def _generate(source: str, options: CompilerOptions) -> list:
    """Parse, lower and optimize *source*; its instruction records."""
    unit = touch(_PARSED, source, lambda: parse(source))
    if options.unroll:
        unit, _ = unrolled(unit, options.unroll_factor)
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
