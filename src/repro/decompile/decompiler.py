"""The decompilation pipeline driver.

Runs the full paper flow per function: lift -> CFG recovery (may fail on
indirect jumps) -> constant propagation / copy propagation / DCE rounds ->
stack operation removal -> strength promotion -> loop rerolling -> operator
size reduction -> control structure recovery -> alias footprints.

Every pass is individually switchable through
:class:`DecompilationOptions` so the ablation benchmarks can measure what
each recovery technique contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.binary.image import Executable
from repro.errors import DecompilationError, IndirectJumpError
from repro.decompile.alias import Footprint, loop_footprints
from repro.decompile.cfg import (
    ControlFlowGraph,
    OpListMemo,
    build_cfg,
    prune_unreachable,
)
from repro.decompile.dataflow import (
    NaturalLoop,
    dominator_tree,
    dominators,
    immediate_dominators,
    natural_loops,
    ops_use_def,
)
from repro.decompile.lift import lift_function
from repro.decompile.passes import (
    eliminate_dead_code,
    promote_strength,
    propagate_constants,
    propagate_copies,
    reduce_operator_sizes,
    remove_stack_operations,
    reroll_loops,
)
from repro.decompile.passes.constprop import transfer_steps
from repro.decompile.structure import StructureReport, recover_structure


@dataclass(frozen=True)
class DecompilationOptions:
    """Pass toggles (all on = the paper's full flow)."""

    constant_propagation: bool = True
    copy_propagation: bool = True
    dead_code_elimination: bool = True
    stack_removal: bool = True
    strength_promotion: bool = True
    loop_rerolling: bool = True
    size_reduction: bool = True
    #: resolve switch jump tables instead of failing (extension; off by
    #: default so the baseline reproduces the paper's two EEMBC failures)
    recover_jump_tables: bool = False
    #: cap on constant/copy propagation + DCE iterations per cleanup round
    rounds: int = 3

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise DecompilationError(f"rounds must be >= 1, got {self.rounds}")

    @classmethod
    def none(cls) -> "DecompilationOptions":
        """Raw lifting only (the ablation baseline)."""
        return cls(
            constant_propagation=False,
            copy_propagation=False,
            dead_code_elimination=False,
            stack_removal=False,
            strength_promotion=False,
            loop_rerolling=False,
            size_reduction=False,
        )


@dataclass
class RecoveryFailure:
    """One function whose CDFG could not be recovered."""

    function: str
    address: int
    reason: str


@dataclass
class PassStats:
    """Aggregated per-function pass statistics."""

    lifted_ops: int = 0
    final_ops: int = 0
    moves_recovered: int = 0
    constants_folded: int = 0
    dead_ops_removed: int = 0
    stack_ops_removed: int = 0
    muls_promoted: int = 0
    loops_rerolled: int = 0
    reroll_ops_removed: int = 0
    ops_narrowed: int = 0
    bits_saved: int = 0


@dataclass
class DecompiledFunction:
    """One successfully recovered function."""

    name: str
    entry: int
    cfg: ControlFlowGraph
    structure: StructureReport
    loops: list[NaturalLoop]
    loop_footprints: dict[int, Footprint]  # loop header address -> footprint
    stats: PassStats


@dataclass
class DecompiledProgram:
    """The decompiler's output for one binary."""

    exe: Executable
    functions: dict[str, DecompiledFunction] = field(default_factory=dict)
    functions_by_entry: dict[int, DecompiledFunction] = field(default_factory=dict)
    failures: list[RecoveryFailure] = field(default_factory=list)
    _total_stats: PassStats | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def recovered(self) -> bool:
        """True if every function's CDFG was recovered."""
        return not self.failures

    def total_stats(self) -> PassStats:
        """Every function's :class:`PassStats`, summed: a fresh copy of a
        total computed on the first call, so the program must be complete
        by then."""
        if self._total_stats is None:
            total = PassStats()
            for func in self.functions.values():
                for attr in vars(total):
                    setattr(total, attr, getattr(total, attr) + getattr(func.stats, attr))
            self._total_stats = total
        return PassStats(**vars(self._total_stats))


class Decompiler:
    """Binary -> :class:`DecompiledProgram`."""

    def __init__(self, exe: Executable, options: DecompilationOptions | None = None):
        self.exe = exe
        self.options = options or DecompilationOptions()

    def run(self) -> DecompiledProgram:
        program = DecompiledProgram(exe=self.exe)
        for symbol in self.exe.function_symbols():
            if symbol.name == "_start":
                continue
            try:
                func = self._decompile_function(symbol.name)
            except IndirectJumpError as error:
                program.failures.append(
                    RecoveryFailure(symbol.name, error.address, "indirect jump")
                )
                continue
            except DecompilationError as error:
                program.failures.append(
                    RecoveryFailure(symbol.name, symbol.address, str(error))
                )
                continue
            program.functions[func.name] = func
            program.functions_by_entry[func.entry] = func
        if not program.functions and not program.failures:
            raise DecompilationError("binary contains no function symbols")
        return program

    # ------------------------------------------------------------------

    def _decompile_function(self, name: str) -> DecompiledFunction:
        start, end = self.exe.function_bounds(name)
        word_lo = (start - self.exe.text_base) // 4
        word_hi = (end - self.exe.text_base) // 4
        instrs = self.exe.instructions[word_lo:word_hi]
        ops = lift_function(instrs, start)
        stats = PassStats(lifted_ops=len(ops))

        cfg = build_cfg(
            ops, start, name,
            exe=self.exe,
            recover_jump_tables=self.options.recover_jump_tables,
        )
        prune_unreachable(cfg)
        options = self.options

        def cleanup_round(propagate: bool = True) -> bool:
            """Propagate and clean up; True if the last iteration changed
            nothing, i.e. the CFG is a fixpoint of the cleanup passes.

            Each iteration runs a pass only where an earlier pass may have
            given it work; a skipped pass would have changed nothing.

            * Constant propagation runs in the first iteration (unless
              *propagate* is false) and after that only when the last
              propagation folded a branch or an ``x & 0``/``x * 0``.  Short
              of those it is idempotent (see
              :mod:`~repro.decompile.passes.constprop`), and neither copy
              propagation nor DCE creates a constant operand or a
              ``MOVE #imm``: a copy is forwarded only within its block,
              where source and copy hold the same state, and DCE deletes
              only ops whose result no use reads.
            * Copy propagation is block-local and idempotent on a block, so
              it runs only over blocks whose op list it has not seen.
            * After the first iteration, DCE runs only if propagation
              changed some block: otherwise the CFG is the one DCE and
              ``prune_unreachable`` left last time, DCE's own fixpoint
              (pruning drops only blocks no path reaches, which feed no
              live set).  Only a folded branch moves an edge, so only then
              can a later iteration find a block to prune.

            That needs every one of these passes to replace a changed
            block's op list (and a changed op) instead of editing it, so a
            block whose list object is one a pass left holds the same ops;
            the same rule lets the round reuse transfer steps and use/def
            sets.  Strength promotion and rerolling do edit in place, so
            these memos live for one round only.
            """
            steps_of = OpListMemo(transfer_steps)
            use_def_of = OpListMemo(ops_use_def)
            copied: dict[int, list] = {}
            propagate = propagate and options.constant_propagation
            for iteration in range(options.rounds):
                before = [block.ops for block in cfg.blocks]
                changed = folded = 0
                if propagate:
                    cp = propagate_constants(cfg, steps_of)
                    stats.moves_recovered += cp.moves_recovered
                    stats.constants_folded += cp.ops_folded
                    changed += cp.total
                    folded = cp.branches_folded
                    propagate = folded > 0 or cp.zero_products > 0
                if options.copy_propagation:
                    changed += propagate_copies(cfg, copied)
                if options.dead_code_elimination and (iteration == 0 or any(
                        block.ops is not ops for block, ops in zip(cfg.blocks, before))):
                    removed = eliminate_dead_code(cfg, use_def_of)
                    stats.dead_ops_removed += removed
                    changed += removed
                if iteration == 0 or folded:
                    prune_unreachable(cfg)
                if not changed:
                    return True
            return False

        # A cleanup round started at a fixpoint changes nothing (constant
        # propagation's uncounted MOVE #imm -> CONST rewrites are already
        # done by then), so after a pass that changed nothing it is skipped.
        # After strength promotion or rerolling from a fixpoint, the round
        # skips constant propagation too: neither pass gives it anything to
        # rewrite.
        # * Promotion's MUL reads a location holding an opaque term (a
        #   block input, a load or a non-affine result) and an immediate
        #   other than 0 or 1.  At the fixpoint that location is not
        #   constant, or the ops reading the term would have been rewritten.
        # * Rerolling creates no CONST, MOVE or immediate operand.  A rename
        #   moves a latch-local value to another location over its whole
        #   live range, so each kept use reads the same definition; a
        #   dropped ``MOVE D, X`` hands D's uses to the op defining X, which
        #   is no CONST, or X would have been constant at the MOVE.  Keeping
        #   one of U segments with the same transfer f on every location
        #   live across the back edge applies f once per trip instead of U
        #   times, and a header state that f keeps, f^U keeps too: the
        #   fixpoint before rerolling already had every constant of the one
        #   after it.
        at_fixpoint = cleanup_round()
        if options.stack_removal:
            sr = remove_stack_operations(cfg)
            stats.stack_ops_removed += sr.total
            if sr.total or not at_fixpoint:
                at_fixpoint = cleanup_round()
        if options.strength_promotion:
            promo = promote_strength(cfg)
            stats.muls_promoted += promo.muls_recovered
            if promo.muls_recovered or not at_fixpoint:
                at_fixpoint = cleanup_round(propagate=not at_fixpoint)
        if options.loop_rerolling:
            rr = reroll_loops(cfg)
            stats.loops_rerolled += rr.loops_rerolled
            stats.reroll_ops_removed += rr.ops_removed
            if rr.loops_rerolled or rr.rewrites or not at_fixpoint:
                cleanup_round(propagate=not at_fixpoint)
        if options.size_reduction:
            sz = reduce_operator_sizes(cfg)
            stats.ops_narrowed += sz.ops_narrowed
            stats.bits_saved += sz.bits_saved

        stats.final_ops = cfg.op_count()
        tree = dominator_tree(cfg)
        loops = natural_loops(cfg, dominators(cfg, tree))
        structure = recover_structure(cfg, loops)
        footprints = loop_footprints(
            self.exe, cfg, loops, immediate_dominators(cfg, tree)
        )
        return DecompiledFunction(
            name=name,
            entry=start,
            cfg=cfg,
            structure=structure,
            loops=loops,
            loop_footprints=footprints,
            stats=stats,
        )


def decompile(
    exe: Executable, options: DecompilationOptions | None = None
) -> DecompiledProgram:
    """Decompile *exe* with the given (default: full) pass configuration."""
    return Decompiler(exe, options).run()
