"""Superblock dispatch: the simulator's compiled execution tier.

The threaded-code interpreter in :mod:`repro.sim.cpu` pays one closure
call per *instruction*.  This package compiles the program into
generated Python, one function per innermost loop, basic block or fused
j-chain, so the dispatch loop pays one call per loop entry or unit:

* :mod:`~repro.sim.superblock.leaders` -- block formation (leader
  discovery over decoded text + data-section jump tables), the
  dispatch roots and the innermost loops of the unit graph;
* :mod:`~repro.sim.superblock.codegen` -- the code generator:
  block-local register JIT, literal propagation, multi-segment units,
  inline loads and stores on the flat memory windows behind one entry
  guard per base register, and loop regions that keep registers and
  counters in locals across iterations;
* :mod:`~repro.sim.superblock.dispatch` -- :class:`SuperblockTable`,
  regions and units for the dispatch entries only, the size-bounded
  compile batches, the slot table the dispatch loops index, and the fold
  of every entry counter.

Exact statistics are the invariant throughout: per-unit entry counters
fold into the per-instruction ``counts`` array at every observation
point, so the block tier is bit-identical to the reference interpreter
-- :mod:`tests.sim.test_differential` enforces it.
"""

from repro.sim.superblock.dispatch import SuperblockTable
from repro.sim.superblock.leaders import BRANCHES, CONTROL_TRANSFERS, find_leaders

__all__ = [
    "BRANCHES",
    "CONTROL_TRANSFERS",
    "SuperblockTable",
    "find_leaders",
]
