"""Control structure recovery: loops and if statements from the CFG.

Paper section 2: "Control structure recovery analyzes the CDFG and
determines high-level control structures, such as loops and if statements."

Loops come from natural-loop detection (back edges to dominators) and are
classified as pre-test (while), post-test (do-while) or general.  Two-way
branches outside loop control are classified as if-then / if-then-else by
checking that both arms converge at the branch block's immediate
postdominator, its parent in the postdominator tree.  A branch without
one (its arms meet only at the virtual exit, or it reaches no exit) is
unstructured.  The per-function :class:`StructureReport` feeds experiment
T4 (construct recovery statistics), and :func:`render_pseudocode` produces
readable pseudo-C for the inspection example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.dataflow import NaturalLoop, natural_loops
from repro.decompile.microop import Opcode
from repro.utils import graph


# ---------------------------------------------------------------------------
# postdominators (dominators of the reversed CFG with a virtual exit)
# ---------------------------------------------------------------------------


def _postdominator_tree(cfg: ControlFlowGraph) -> graph.Tree:
    blocks = cfg.blocks
    return graph.postdominator_tree(
        [block.succs for block in blocks], [block.preds for block in blocks]
    )


def postdominators(cfg: ControlFlowGraph) -> list[set[int]]:
    """pdom[i] = set of blocks postdominating block i (including itself):
    its dominators in the reversed CFG, where a virtual exit flows to every
    block without successors.  A block that reaches no exit is
    postdominated only by itself."""
    return graph.dominator_sets(*_postdominator_tree(cfg))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class LoopInfo:
    loop: NaturalLoop
    kind: str  # 'while' | 'dowhile' | 'general'
    header_address: int
    blocks: int


@dataclass
class BranchInfo:
    block: int
    address: int
    kind: str  # 'if-then' | 'if-then-else' | 'loop-control' | 'unstructured'


@dataclass
class StructureReport:
    loops: list[LoopInfo] = field(default_factory=list)
    branches: list[BranchInfo] = field(default_factory=list)

    @property
    def loops_total(self) -> int:
        return len(self.loops)

    @property
    def loops_classified(self) -> int:
        return sum(1 for info in self.loops if info.kind != "general")

    @property
    def ifs_total(self) -> int:
        return sum(1 for info in self.branches if info.kind != "loop-control")

    @property
    def ifs_recovered(self) -> int:
        return sum(
            1 for info in self.branches if info.kind in ("if-then", "if-then-else")
        )


def recover_structure(
    cfg: ControlFlowGraph, loops: list[NaturalLoop] | None = None
) -> StructureReport:
    """Classify *cfg*'s loops and branches; *loops* is
    ``natural_loops(cfg)``, computed here when not given."""
    report = StructureReport()
    if loops is None:
        loops = natural_loops(cfg)
    loop_control_blocks: set[int] = set()
    for loop in loops:
        loop_control_blocks.add(loop.header)
        loop_control_blocks.update(loop.latches)

    for loop in loops:
        header = cfg.blocks[loop.header]
        header_term = header.terminator
        latch_is_header = loop.latches == [loop.header]
        if latch_is_header and header_term is not None and header_term.opcode is Opcode.BRANCH:
            kind = "dowhile"
        elif header_term is not None and header_term.opcode is Opcode.BRANCH and any(
            succ not in loop.body for succ in header.succs
        ):
            kind = "while"
        elif any(
            cfg.blocks[latch].terminator is not None
            and cfg.blocks[latch].terminator.opcode is Opcode.BRANCH
            for latch in loop.latches
        ):
            kind = "dowhile"
        else:
            kind = "general"
        report.loops.append(
            LoopInfo(
                loop=loop,
                kind=kind,
                header_address=header.start,
                blocks=len(loop.body),
            )
        )

    ipdom, order = _postdominator_tree(cfg)
    pdom = graph.dominator_sets(ipdom, order)
    for block in cfg.blocks:
        term = block.terminator
        if term is None or term.opcode is not Opcode.BRANCH:
            continue
        if block.index in loop_control_blocks:
            report.branches.append(BranchInfo(block.index, term.pc, "loop-control"))
            continue
        join = ipdom[block.index]
        if join is None:
            report.branches.append(BranchInfo(block.index, term.pc, "unstructured"))
            continue
        succs = block.succs
        if join in succs:
            report.branches.append(BranchInfo(block.index, term.pc, "if-then"))
        elif all(join in pdom[s] for s in succs):
            report.branches.append(BranchInfo(block.index, term.pc, "if-then-else"))
        else:
            report.branches.append(BranchInfo(block.index, term.pc, "unstructured"))
    return report


# ---------------------------------------------------------------------------
# pseudo-C rendering (inspection aid)
# ---------------------------------------------------------------------------


def render_pseudocode(cfg: ControlFlowGraph, report: StructureReport | None = None) -> str:
    """Best-effort readable rendering of the recovered structure.

    Recognized loops render as ``while``/``do`` comments around their block
    ranges; everything else renders block by block.  This is an inspection
    aid, not a C backend: micro-ops print in three-address form.
    """
    report = report or recover_structure(cfg)
    loop_kind_by_header = {info.loop.header: info.kind for info in report.loops}
    branch_kind_by_block = {info.block: info.kind for info in report.branches}
    lines: list[str] = [f"function {cfg.name}() {{"]
    for block in cfg.blocks:
        annotations = []
        if block.index in loop_kind_by_header:
            annotations.append(f"{loop_kind_by_header[block.index]} loop header")
        if block.index in branch_kind_by_block:
            annotations.append(branch_kind_by_block[block.index])
        suffix = f"   // {', '.join(annotations)}" if annotations else ""
        lines.append(f"  L{block.index}: @{block.start:#x}{suffix}")
        for op in block.ops:
            lines.append(f"    {op}")
    lines.append("}")
    return "\n".join(lines)
