"""Alias analysis on recovered memory accesses (paper section 3, step 2).

The partitioner's second step pulls regions that "access the same memory
locations as the loops in the hardware partition" into the FPGA so the data
can move into on-chip block RAM.  To answer that question this module
summarizes each loop's memory footprint:

* absolute addresses (recovered by constant propagation) resolve to data
  symbols -> ``global:<symbol>``,
* stack-frame traffic that survived stack removal -> ``stack``,
* anything through an unresolved register -> ``dynamic`` (assumed to alias
  everything, the conservative answer a binary-level tool must give).

Access descriptors also carry the stride with respect to the loop's
induction variable, recovered with the same symbolic machinery as loop
rerolling -- this is the "memory access pattern" information the paper says
loop unrolling obscures and rerolling restores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.image import Executable
from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.dataflow import NaturalLoop, immediate_dominators
from repro.decompile.microop import ALU_OPS, Imm, Loc, MicroOp, Opcode, SP, ZERO


@dataclass(frozen=True)
class MemoryAccess:
    """One static memory access inside a region."""

    region: str      # 'global:<sym>' | 'stack' | 'dynamic'
    symbol: str | None
    offset: int      # byte offset within the region (absolute accesses)
    size: int
    is_store: bool
    stride: int | None = None  # bytes per loop iteration, if affine in i


@dataclass(frozen=True)
class Footprint:
    """Summary of a region's memory behaviour: its accesses, and the data
    symbols they resolve to (computed once, when the footprint is built;
    readers share the set, so it is frozen)."""

    accesses: tuple[MemoryAccess, ...] = ()
    symbols: frozenset[str] = frozenset()

    @property
    def has_dynamic(self) -> bool:
        return any(a.region == "dynamic" for a in self.accesses)

    @property
    def loads(self) -> list[MemoryAccess]:
        return [a for a in self.accesses if not a.is_store]

    @property
    def stores(self) -> list[MemoryAccess]:
        return [a for a in self.accesses if a.is_store]

    def overlaps(self, other: "Footprint") -> bool:
        """Conservative may-alias between two footprints."""
        if not self.accesses or not other.accesses:
            return False
        if self.has_dynamic or other.has_dynamic:
            return True
        return bool(self.symbols & other.symbols)


def _resolve_symbol(exe: Executable, address: int) -> tuple[str | None, int]:
    """Map an absolute address to (symbol, offset-within-symbol)."""
    best: tuple[str, int] | None = None
    for sym in exe.symbols.values():
        if sym.is_text:
            continue
        if sym.address <= address:
            if best is None or sym.address > best[1]:
                best = (sym.name, sym.address)
    if best is None:
        return None, address
    return best[0], address - best[1]


class _Dominance:
    """What :func:`_entry_env` needs of one function for every loop: the
    immediate dominators, and how many blocks define each location."""

    def __init__(self, cfg: ControlFlowGraph, idom: dict[int, int | None]):
        self.idom = idom
        self.block_defs: list[set[str]] = []
        self.defining_blocks: dict[str, int] = {}
        for block in cfg.blocks:
            names = {loc.name for op in block.ops for loc in op.defs()}
            self.block_defs.append(names)
            for name in names:
                self.defining_blocks[name] = self.defining_blocks.get(name, 0) + 1


def _entry_env(
    cfg: ControlFlowGraph, loop: NaturalLoop, dominance: _Dominance
) -> dict[str, dict]:
    """Symbolic affine environment at the loop header, built by executing
    the blocks on the dominator chain from the function entry.

    A location redefined anywhere outside the chain (including inside the
    loop body) is *invalidated*: its reads stay opaque leaves.  Everything
    else on the chain has exactly one reaching definition at the header, so
    its affine value is sound.  This is what lets the analysis look through
    a loop-invariant base computed in the preheader (``r = &data + 4*i``)
    and still attribute body accesses to ``data``.
    """
    idom = dominance.idom
    chain: list[int] = []
    node = idom[loop.header]
    while node is not None:
        chain.append(node)
        node = idom[node]
    chain.reverse()

    # a location is defined outside the chain when more blocks define it
    # than chain blocks do
    on_chain: dict[str, int] = {}
    for index in set(chain):
        for name in dominance.block_defs[index]:
            on_chain[name] = on_chain.get(name, 0) + 1
    invalidated = {
        name for name, blocks in dominance.defining_blocks.items()
        if blocks > on_chain.get(name, 0)
    }

    env: dict[str, dict] = {}
    for index in chain:
        for op in cfg.blocks[index].ops:
            _affine_step(op, env, invalidated)
    return {name: value for name, value in env.items() if name not in invalidated}


def _affine_step(op: MicroOp, env: dict[str, dict], invalidated: set[str]) -> None:
    """One op of affine abstract execution (helper for :func:`_entry_env`)."""

    def value_of(operand):
        if isinstance(operand, Imm):
            return {"__const__": operand.value}
        if operand == ZERO:
            return {"__const__": 0}
        name = operand.name
        if name in invalidated or name not in env:
            return {name: 1, "__const__": 0}
        return env[name]

    code = op.opcode
    if code is Opcode.CONST:
        env[op.dst.name] = {"__const__": op.a.value}
    elif code is Opcode.MOVE:
        env[op.dst.name] = value_of(op.a)
    elif code is Opcode.ADD:
        a, b = value_of(op.a), value_of(op.b)
        out = dict(a)
        for key, coeff in b.items():
            out[key] = out.get(key, 0) + coeff
        env[op.dst.name] = out
    elif code is Opcode.SUB:
        a, b = value_of(op.a), value_of(op.b)
        out = dict(a)
        for key, coeff in b.items():
            out[key] = out.get(key, 0) - coeff
        env[op.dst.name] = out
    elif code is Opcode.SHL and isinstance(op.b, Imm):
        env[op.dst.name] = {
            key: coeff << (op.b.value & 31)
            for key, coeff in value_of(op.a).items()
        }
    elif op.dst is not None:
        env[op.dst.name] = {f"__opaque_{op.pc:x}__": 1, "__const__": 0}
    elif code is Opcode.CALL:
        for loc in op.defs():
            env[loc.name] = {f"__call_{op.pc:x}_{loc.name}__": 1, "__const__": 0}


def _affine_addresses(
    blocks_ops: list[MicroOp],
    induction_names: set[str],
    seed_env: dict[str, dict] | None = None,
) -> dict[int, tuple[int, int | None]]:
    """For each LOAD/STORE op index: (constant base term, stride per
    induction increment or None), from block-local affine analysis.

    The constant term is the key to symbol resolution: an address of the
    form ``data_base + 4*i - 4*j`` carries ``data_base`` in its constant
    term even though the register operand is fully dynamic.  C pointer
    arithmetic stays within an object, so attributing the access to the
    symbol containing the constant matches what a binary-level alias
    analysis can soundly assume at object granularity.
    """
    # value = {leaf_name: coeff} + const
    env: dict[str, dict] = dict(seed_env) if seed_env else {}
    # locations the block itself redefines must not read the stale seed
    block_defs = {loc.name for op in blocks_ops for loc in op.defs()}
    for name in block_defs:
        env.pop(name, None)
    results: dict[int, tuple[int, int | None]] = {}

    def value_of(operand):
        if isinstance(operand, Imm):
            return {"__const__": operand.value}
        if operand == ZERO:
            return {"__const__": 0}
        name = operand.name
        if name in env:
            return env[name]
        return {name: 1, "__const__": 0}

    def combine(a, b, sign=1):
        out = dict(a)
        for key, coeff in b.items():
            out[key] = out.get(key, 0) + sign * coeff
        return out

    for index, op in enumerate(blocks_ops):
        code = op.opcode
        if code is Opcode.CONST:
            env[op.dst.name] = {"__const__": op.a.value}
        elif code is Opcode.MOVE:
            env[op.dst.name] = value_of(op.a)
        elif code is Opcode.ADD:
            env[op.dst.name] = combine(value_of(op.a), value_of(op.b))
        elif code is Opcode.SUB:
            env[op.dst.name] = combine(value_of(op.a), value_of(op.b), sign=-1)
        elif code is Opcode.SHL and isinstance(op.b, Imm):
            shifted = {
                key: coeff << (op.b.value & 31)
                for key, coeff in value_of(op.a).items()
            }
            env[op.dst.name] = shifted
        elif code in (Opcode.LOAD, Opcode.STORE):
            base = op.a if code is Opcode.LOAD else op.b
            addr = value_of(base)
            const = (addr.get("__const__", 0) + op.offset) & 0xFFFF_FFFF
            stride = 0
            stride_derivable = True
            for key, coeff in addr.items():
                if key == "__const__":
                    continue
                if key in induction_names:
                    stride += coeff
                elif coeff != 0:
                    stride_derivable = False  # unknown non-induction offset
            results[index] = (const, stride if stride_derivable else None)
            if code is Opcode.LOAD:
                env[op.dst.name] = {f"__load{index}__": 1, "__const__": 0}
        elif code in ALU_OPS and op.dst is not None:
            env[op.dst.name] = {f"__opaque{index}__": 1, "__const__": 0}
        elif op.dst is not None:
            env[op.dst.name] = {f"__opaque{index}__": 1, "__const__": 0}
    return results


def _induction_names(cfg: ControlFlowGraph, loop: NaturalLoop) -> set[str]:
    names: set[str] = set()
    for index in loop.body:
        for op in cfg.blocks[index].ops:
            if (
                op.opcode is Opcode.ADD
                and op.dst is not None
                and op.a == op.dst
                and isinstance(op.b, Imm)
            ):
                names.add(op.dst.name)
    return names


def loop_footprints(
    exe: Executable,
    cfg: ControlFlowGraph,
    loops: list[NaturalLoop],
    idom: dict[int, int | None] | None = None,
) -> dict[int, Footprint]:
    """Memory footprint of each of one function's natural *loops*, by
    header address.  The dominator tree is worked out once for all the
    loops; *idom* is ``immediate_dominators(cfg)``, for a caller that
    already has it."""
    dominance = _Dominance(cfg, immediate_dominators(cfg) if idom is None else idom)
    return {
        cfg.blocks[loop.header].start: _footprint(exe, cfg, loop, dominance)
        for loop in loops
    }


def _footprint(
    exe: Executable, cfg: ControlFlowGraph, loop: NaturalLoop, dominance: _Dominance
) -> Footprint:
    """Memory footprint of one natural loop."""
    accesses: list[MemoryAccess] = []
    induction = _induction_names(cfg, loop)
    data_lo, data_hi = exe.data_base, exe.data_end
    seed_env = _entry_env(cfg, loop, dominance)
    for index in sorted(loop.body):
        block = cfg.blocks[index]
        ops = block.ops
        affine = _affine_addresses(ops, induction, seed_env)
        step = _induction_step(ops, induction)
        for pos, op in enumerate(ops):
            if op.opcode not in (Opcode.LOAD, Opcode.STORE):
                continue
            base = op.a if op.opcode is Opcode.LOAD else op.b
            const, stride_units = affine.get(pos, (0, None))
            stride = (
                stride_units * step
                if (stride_units is not None and step)
                else stride_units
            )
            is_store = op.opcode is Opcode.STORE
            if base == SP:
                accesses.append(
                    MemoryAccess("stack", None, op.offset, op.size, is_store, stride)
                )
            elif data_lo - 4096 <= const < data_hi:
                # a[i-2] style windows put the affine constant slightly
                # before the object; the induction offset brings the real
                # address back in range, so clamp for symbol resolution
                symbol, sym_offset = _resolve_symbol(exe, max(const, data_lo))
                if const < data_lo and symbol is not None:
                    sym_offset = const - exe.symbols[symbol].address
                region = f"global:{symbol}" if symbol else "dynamic"
                accesses.append(
                    MemoryAccess(region, symbol, sym_offset, op.size, is_store, stride)
                )
            else:
                # no resolvable base object: conservative dynamic access
                accesses.append(
                    MemoryAccess("dynamic", None, 0, op.size, is_store, stride)
                )
    return Footprint(
        tuple(accesses),
        frozenset(a.symbol for a in accesses if a.symbol is not None),
    )


def _induction_step(ops: list[MicroOp], induction: set[str]) -> int:
    for op in ops:
        if (
            op.opcode is Opcode.ADD
            and op.dst is not None
            and op.dst.name in induction
            and op.a == op.dst
            and isinstance(op.b, Imm)
        ):
            value = op.b.value & 0xFFFF_FFFF
            return value - 0x1_0000_0000 if value & 0x8000_0000 else value
    return 0
