"""Compiler optimization passes.

Each pass is a function ``pass_fn(func: ir.Function) -> bool`` returning
whether it changed anything (so the driver can iterate to a fixed point).
AST-level transforms (loop unrolling) live in :mod:`ast_unroll` and run
before IR generation.
"""

from repro.compiler.passes.mem2reg import promote_slots
from repro.compiler.passes.constfold import fold_constants, propagate_copies
from repro.compiler.passes.dce import eliminate_dead_code
from repro.compiler.passes.cleanup import simplify_control_flow
from repro.compiler.passes.imm_fold import fold_immediates
from repro.compiler.passes.cse import local_cse
from repro.compiler.passes.licm import hoist_loop_invariants
from repro.compiler.passes.strength import reduce_strength
from repro.compiler.passes.ast_unroll import unrolled

__all__ = [
    "eliminate_dead_code",
    "fold_constants",
    "fold_immediates",
    "hoist_loop_invariants",
    "local_cse",
    "promote_slots",
    "propagate_copies",
    "reduce_strength",
    "simplify_control_flow",
    "unrolled",
]
