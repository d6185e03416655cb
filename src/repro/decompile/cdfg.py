"""The CDFG: control-flow graph + per-block data-flow graphs.

This is the representation handed to behavioral synthesis.  Each basic
block's straight-line micro-ops become a DFG whose edges carry

* register dataflow (def -> use),
* memory ordering (store -> later load/store, load -> later store), relaxed
  when two absolute addresses provably cannot overlap -- this is where the
  decompiler's recovered high-level information (absolute addresses from
  constant propagation, access widths from size reduction) directly buys
  hardware parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.microop import ALU_OPS, Imm, Loc, MicroOp, Opcode


@dataclass
class DfgEdge:
    src: int
    dst: int
    kind: str  # 'data' | 'mem'


@dataclass
class Dfg:
    """Data-flow graph of one basic block (terminator excluded)."""

    ops: list[MicroOp]
    edges: list[DfgEdge] = field(default_factory=list)
    inputs: set[Loc] = field(default_factory=set)
    outputs: set[Loc] = field(default_factory=set)

    _adjacency: tuple = field(default=(None, 0, [], []), init=False, repr=False,
                              compare=False)

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """(predecessors, successors) of every node, in edge order.

        Built once, and again only when :attr:`edges` was replaced or
        appended to since, so a caller that asks per node pays one pass over
        the edges in all.  The lists are shared: read them, never edit them.
        """
        edges, count, preds, succs = self._adjacency
        if edges is not self.edges or count != len(edges):
            edges = self.edges
            preds = [[] for _ in self.ops]
            succs = [[] for _ in self.ops]
            for edge in edges:
                preds[edge.dst].append(edge.src)
                succs[edge.src].append(edge.dst)
            self._adjacency = (edges, len(edges), preds, succs)
        return preds, succs

    def preds(self, node: int) -> list[int]:
        return self.adjacency()[0][node]

    def succs(self, node: int) -> list[int]:
        return self.adjacency()[1][node]


def _mem_range(op: MicroOp) -> tuple[int, int] | None:
    """(start, end) byte range for an absolute-addressed access, else None."""
    base = op.a if op.opcode is Opcode.LOAD else op.b
    if isinstance(base, Imm):
        start = (base.value + op.offset) & 0xFFFF_FFFF
        return start, start + op.size
    return None


def _may_alias(a: MicroOp, b: MicroOp) -> bool:
    range_a, range_b = _mem_range(a), _mem_range(b)
    if range_a is not None and range_b is not None:
        return range_a[0] < range_b[1] and range_b[0] < range_a[1]
    return True  # at least one dynamic address: assume aliasing


def build_dfg(block: MicroBlock, live_out: set[Loc] | None = None) -> Dfg:
    """Build the DFG for *block* (drops the terminator; it becomes the FSM's
    next-state logic, not a datapath node)."""
    ops = [op for op in block.ops if not op.is_terminator()]
    dfg = Dfg(ops=ops)
    edges, inputs = dfg.edges, dfg.inputs
    last_def: dict[Loc, int] = {}
    stores: list[int] = []
    loads_since: list[int] = []

    for index, op in enumerate(ops):
        for loc in op.uses():
            src = last_def.get(loc)
            if src is None:
                inputs.add(loc)
            else:
                edges.append(DfgEdge(src, index, "data"))
        code = op.opcode
        if code is Opcode.LOAD:
            for store_index in stores:
                if _may_alias(ops[store_index], op):
                    edges.append(DfgEdge(store_index, index, "mem"))
            loads_since.append(index)
        elif code is Opcode.STORE:
            for other in stores:
                if _may_alias(ops[other], op):
                    edges.append(DfgEdge(other, index, "mem"))
            for load_index in loads_since:
                if _may_alias(ops[load_index], op):
                    edges.append(DfgEdge(load_index, index, "mem"))
            stores.append(index)
        for loc in op.defs():
            last_def[loc] = index

    if live_out is None:
        dfg.outputs = set(last_def)
    else:
        dfg.outputs = {loc for loc in last_def if loc in live_out}
    return dfg


@dataclass
class Cdfg:
    """Control/data flow graph of one function."""

    cfg: ControlFlowGraph
    dfgs: dict[int, Dfg] = field(default_factory=dict)

    @classmethod
    def from_cfg(cls, cfg: ControlFlowGraph, live_out: list[set[Loc]] | None = None) -> "Cdfg":
        cdfg = cls(cfg=cfg)
        for block in cfg.blocks:
            out = live_out[block.index] if live_out is not None else None
            cdfg.dfgs[block.index] = build_dfg(block, out)
        return cdfg

    def op_count(self) -> int:
        return sum(len(dfg.ops) for dfg in self.dfgs.values())
