"""CDFG creation, step 1: control-flow graph recovery from lifted micro-ops.

Register-indirect jumps (``jr`` through anything but $ra, or ``jalr``) make
the successor set statically unknowable without value-set analysis, so CFG
recovery raises :class:`IndirectJumpError` -- reproducing the paper's two
EEMBC failures.  Everything else (two-way branches, direct jumps, calls,
returns) recovers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DecompilationError, IndirectJumpError
from repro.decompile.microop import MicroOp, Opcode
from repro.utils import graph


@dataclass
class MicroBlock:
    """A basic block of micro-ops."""

    index: int
    start: int  # address of the first op
    ops: list[MicroOp] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def terminator(self) -> MicroOp | None:
        if self.ops and self.ops[-1].is_terminator():
            return self.ops[-1]
        return None

    def __str__(self) -> str:
        header = f"block{self.index} @{self.start:#x} -> {self.succs}"
        return "\n".join([header] + [f"  {op}" for op in self.ops])


@dataclass
class ControlFlowGraph:
    """CFG of one recovered function."""

    name: str
    entry: int
    blocks: list[MicroBlock]
    #: addresses of call targets seen inside this function
    call_targets: list[int] = field(default_factory=list)
    #: loop-header address -> recovered unroll factor (set by loop rerolling)
    reroll_factors: dict[int, int] = field(default_factory=dict)

    @property
    def block_by_start(self) -> dict[int, int]:
        """Block start address -> block index, built anew on each read."""
        return {block.start: block.index for block in self.blocks}

    @property
    def entry_index(self) -> int:
        """The index of the entry block (found without building
        :attr:`block_by_start`: the entry is normally the first block)."""
        for block in self.blocks:
            if block.start == self.entry:
                return block.index
        raise KeyError(self.entry)

    def op_count(self) -> int:
        return sum(len(block.ops) for block in self.blocks)

    def dump(self) -> str:
        return "\n".join(str(block) for block in self.blocks)

    def all_ops(self):
        for block in self.blocks:
            yield from block.ops


class OpListMemo:
    """``compute(ops)`` for a block's op list, worked out once per list object.

    Sound only while no op list, and no op in one, changes in place: the
    cleanup passes (constant and copy propagation, dead-code elimination)
    give a changed block a new list and a changed op a new op.  An entry
    holds its list, so the id it is keyed by is not reused while it lasts.
    """

    __slots__ = ("_compute", "_entries")

    def __init__(self, compute):
        self._compute = compute
        self._entries: dict[int, tuple[list[MicroOp], object]] = {}

    def __call__(self, ops: list[MicroOp]):
        entry = self._entries.get(id(ops))
        if entry is None:
            entry = self._entries[id(ops)] = (ops, self._compute(ops))
        return entry[1]


def build_cfg(
    ops: list[MicroOp],
    entry: int,
    name: str = "",
    exe=None,
    recover_jump_tables: bool = False,
) -> ControlFlowGraph:
    """Partition lifted *ops* into basic blocks and connect edges.

    *ops* must be the lifted body of a single function, sorted by pc, with
    the function entry at address *entry*.  With *recover_jump_tables* and
    an executable image, indirect jumps through resolvable jump tables
    become multi-way terminators; otherwise (the paper's configuration)
    any indirect jump aborts recovery.
    """
    if not ops:
        raise DecompilationError(f"function {name!r} has no instructions")

    addresses = {op.pc for op in ops}
    lo = min(addresses)
    hi = max(addresses) + 4

    # indirect jumps: resolve via jump-table analysis when allowed, else
    # fail fast -- CDFG recovery is impossible (paper section 4)
    for index, op in enumerate(ops):
        if op.opcode is Opcode.IJUMP and not op.table_targets:
            targets = None
            if recover_jump_tables and exe is not None:
                from repro.decompile.jumptables import resolve_jump_table

                targets = resolve_jump_table(ops, index, exe, lo, hi)
            if not targets:
                raise IndirectJumpError(op.pc, name or None)
            op.table_targets = targets

    # leaders: entry, every branch/jump target, every op after a terminator
    leaders: set[int] = {entry}
    call_targets: list[int] = []
    for op in ops:
        if op.opcode is Opcode.IJUMP:
            leaders.update(op.table_targets)
            leaders.add(op.pc + 4)
        elif op.opcode is Opcode.BRANCH:
            if not lo <= op.target < hi:
                raise DecompilationError(
                    f"branch at {op.pc:#x} targets {op.target:#x} outside {name!r}"
                )
            leaders.add(op.target)
            leaders.add(op.pc + 4)
        elif op.opcode is Opcode.JUMP:
            if not lo <= op.target < hi:
                raise DecompilationError(
                    f"jump at {op.pc:#x} targets {op.target:#x} outside {name!r}"
                )
            leaders.add(op.target)
            leaders.add(op.pc + 4)
        elif op.opcode in (Opcode.RETURN, Opcode.HALT):
            leaders.add(op.pc + 4)
        elif op.opcode is Opcode.CALL:
            call_targets.append(op.target)

    # slice ops into blocks at leader addresses
    blocks: list[MicroBlock] = []
    current: MicroBlock | None = None
    for op in ops:
        if op.pc in leaders and (current is None or not current.ops or current.ops[-1].pc != op.pc):
            current = MicroBlock(index=len(blocks), start=op.pc)
            blocks.append(current)
        if current is None:  # first op is always a leader (entry)
            current = MicroBlock(index=0, start=op.pc)
            blocks.append(current)
        current.ops.append(op)

    start_to_index = {block.start: block.index for block in blocks}

    for position, block in enumerate(blocks):
        term = block.terminator
        succs: list[int] = []
        if term is None:
            if position + 1 < len(blocks):
                succs.append(position + 1)
        elif term.opcode is Opcode.BRANCH:
            succs.append(_lookup(start_to_index, term.target, term.pc, name))
            fall = term.pc + 4
            if fall in start_to_index:
                succs.append(start_to_index[fall])
        elif term.opcode is Opcode.JUMP:
            succs.append(_lookup(start_to_index, term.target, term.pc, name))
        elif term.opcode is Opcode.IJUMP:
            for target in term.table_targets:
                index = _lookup(start_to_index, target, term.pc, name)
                if index not in succs:
                    succs.append(index)
        # RETURN / HALT: no successors
        block.succs = succs
    for block in blocks:
        for succ in block.succs:
            blocks[succ].preds.append(block.index)

    if entry not in start_to_index:
        raise DecompilationError(f"entry {entry:#x} is not a block leader in {name!r}")

    return ControlFlowGraph(name=name, entry=entry, blocks=blocks, call_targets=call_targets)


def _lookup(start_to_index: dict[int, int], target: int, pc: int, name: str) -> int:
    index = start_to_index.get(target)
    if index is None:
        raise DecompilationError(
            f"control transfer at {pc:#x} targets {target:#x}, "
            f"which is not a block leader in {name!r}"
        )
    return index


def prune_unreachable(cfg: ControlFlowGraph) -> bool:
    """Drop unreachable blocks (e.g. dead epilogue paths); renumber the rest."""
    succs = [block.succs for block in cfg.blocks]
    keep = set(graph.reverse_postorder(succs, cfg.entry_index))
    if len(keep) == len(cfg.blocks):
        return False
    remap: dict[int, int] = {}
    new_blocks: list[MicroBlock] = []
    for block in cfg.blocks:
        if block.index in keep:
            remap[block.index] = len(new_blocks)
            new_blocks.append(block)
    for block in new_blocks:
        block.index = remap[block.index]
        block.succs = [remap[s] for s in block.succs if s in remap]
        block.preds = [remap[p] for p in block.preds if p in remap]
    cfg.blocks = new_blocks
    return True
