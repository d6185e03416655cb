"""Loop rerolling: detect unrolled loops and roll them back (paper sec. 2).

Loop unrolling obscures memory access patterns, multiplies resource
requirements and bloats the binary -- all bad for synthesis.  This pass
detects the canonical unrolled shape a compiler emits

    main:      for (i; i + (U-1)*c <cmp> N;)  { T; T; ...; T }   (U copies)
    remainder: for (;  i           <cmp> N;)  { T }

and rewrites the main loop body to a single copy of ``T``.

Soundness: rolling the main loop alone is *not* semantics-preserving (the
lookahead guard now runs every iteration, so the main loop exits earlier and
leaves more work behind).  It is only correct because the remainder loop
picks up exactly the leftover iterations.  The pass therefore verifies the
whole structure before rewriting:

1. the main-loop body splits at ``i += c`` increments into U segments whose
   symbolic transfer functions (writes to relevant locations + ordered
   memory stores) are identical,
2. the main loop's exit path reaches a remainder loop whose body has the
   same transfer function,
3. the main guard equals the remainder guard with ``i`` shifted by
   ``(U-1)*c``, and neither guard reads anything a segment writes besides
   ``i``.

Under these conditions main'+remainder is extensionally equal to
main+remainder (checked end-to-end by the CDFG interpreter tests).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.dataflow import liveness, natural_loops
from repro.decompile.microop import (
    ALU_OPS,
    Imm,
    Loc,
    MicroOp,
    NEGATED_COND,
    Opcode,
    ZERO,
)

_MASK = 0xFFFF_FFFF

# ---------------------------------------------------------------------------
# symbolic expressions (hashable nested tuples)
# ---------------------------------------------------------------------------
# ("c", value) | ("in", loc_name) | ("add+", expr, const)
# | (op_name, a, b) | ("ld", addr, size, signed, store_seq)


def _const(value: int):
    return ("c", value & _MASK)


def _add_const(expr, value: int):
    value &= _MASK
    if value == 0:
        return expr
    if expr[0] == "c":
        return _const(expr[1] + value)
    if expr[0] == "add+":
        return _add_const(expr[1], (expr[2] + value) & _MASK)
    return ("add+", expr, value)


def _binop(op: str, a, b):
    if op == "add":
        if b[0] == "c":
            return _add_const(a, b[1])
        if a[0] == "c":
            return _add_const(b, a[1])
    if op == "sub" and b[0] == "c":
        return _add_const(a, -b[1])
    return (op, a, b)


def _subst_shift(expr, loc_name: str, delta: int):
    """expr with leaf in(loc_name) replaced by in(loc_name) + delta."""
    kind = expr[0]
    if kind == "c":
        return expr
    if kind == "in":
        if expr[1] == loc_name:
            return _add_const(expr, delta)
        return expr
    if kind == "add+":
        return _add_const(_subst_shift(expr[1], loc_name, delta), expr[2])
    if kind == "ld":
        return ("ld", _subst_shift(expr[1], loc_name, delta), expr[2], expr[3], expr[4])
    op, a, b = expr
    return _binop(op, _subst_shift(a, loc_name, delta), _subst_shift(b, loc_name, delta))


def _leaves(expr, out: set[str]) -> None:
    kind = expr[0]
    if kind == "in":
        out.add(expr[1])
    elif kind == "add+":
        _leaves(expr[1], out)
    elif kind == "ld":
        _leaves(expr[1], out)
    elif kind != "c":
        _leaves(expr[1], out)
        _leaves(expr[2], out)


@dataclass
class _Transfer:
    """Symbolic effect of a straight-line op sequence."""

    writes: dict[str, object] = field(default_factory=dict)  # loc name -> expr
    stores: list[tuple] = field(default_factory=list)  # (addr, size, value)
    reads: set[str] = field(default_factory=set)  # external in-leaves
    ok: bool = True


def _symbolic_exec(ops: list[MicroOp]) -> _Transfer:
    transfer = _Transfer()
    env: dict[str, object] = {}

    def value_of(operand):
        if isinstance(operand, Imm):
            return _const(operand.value)
        if operand == ZERO:
            return _const(0)
        name = operand.name
        if name in env:
            return env[name]
        transfer.reads.add(name)
        return ("in", name)

    for op in ops:
        code = op.opcode
        if code is Opcode.CONST:
            env[op.dst.name] = _const(op.a.value)
        elif code is Opcode.MOVE:
            env[op.dst.name] = value_of(op.a)
        elif code in ALU_OPS:
            env[op.dst.name] = _binop(code.value, value_of(op.a), value_of(op.b))
        elif code is Opcode.LOAD:
            addr = _add_const(value_of(op.a), op.offset)
            env[op.dst.name] = ("ld", addr, op.size, op.signed, len(transfer.stores))
        elif code is Opcode.STORE:
            addr = _add_const(value_of(op.b), op.offset)
            transfer.stores.append((addr, op.size, value_of(op.a)))
        else:
            transfer.ok = False
            return transfer
    transfer.writes = env
    return transfer


# ---------------------------------------------------------------------------
# rotation-chain canonicalization
# ---------------------------------------------------------------------------
#
# Register allocation threads loop-carried variables through rotating
# registers inside an unrolled body:
#
#     r20 = add r9, #1 ; ... ; r19 = add r20, #1 ; ... ; r9 = r17
#
# Two local, always-semantics-preserving rewrites normalize this back to
# repeated self-updates (``r9 = add r9, #1``):
#
# * copy collapse: for a trailing ``MOVE D, X`` where X is block-local and
#   dead afterwards, rename X to D over X's live range and drop the move,
# * operand threading: for ``D = f(Y, ...)`` where Y is block-local, dead
#   after this op, and D is untouched over Y's live range, rename Y to D.
#
# Renames only touch block-internal names, so the symbolic transfer
# functions used for matching are unaffected except where it matters: the
# induction variable becomes a single name.


def _canonicalize_rotations(
    ops: list[MicroOp], live_out: set[Loc]
) -> tuple[list[MicroOp], int]:
    """The rewritten op list and the number of renames applied."""
    index = _Positions(list(ops))
    ops = index.ops
    rewrites = 0
    budget = 4 * len(ops) + 16
    changed = True
    while changed and budget > 0:
        changed = False
        budget -= 1
        # rule 1: copy collapse (scan from the end)
        for p in range(len(ops) - 1, -1, -1):
            op = ops[p]
            if op is None or op.opcode is not Opcode.MOVE or op.a.__class__ is not Loc:
                continue
            dst, src = op.dst, op.a
            if dst is src or src is ZERO:
                continue
            if not index.dead_after(src, p, live_out):
                continue
            q = index.last_def_before(src, p)
            if q is None or ops[q].dst is not src:
                continue  # no def, or an implicit one (a CALL clobber)
            if index.accessed_between(dst, q + 1, p):
                continue
            index.rename(src, dst, q, p)
            index.delete(p)
            rewrites += 1
            changed = True
            break
        if changed:
            continue
        # rule 2: operand threading
        for q in range(len(ops) - 1, -1, -1):
            op = ops[q]
            if op is None or op.opcode not in ALU_OPS or op.dst is None:
                continue
            dst = op.dst
            if dst is op.a or dst is op.b:
                # the op reads its own destination: renaming any other
                # operand to dst would clobber that read
                continue
            for operand in (op.a, op.b):
                if operand.__class__ is not Loc or operand is dst or operand is ZERO:
                    continue
                if not index.dead_after(operand, q, live_out):
                    continue
                qd = index.last_def_before(operand, q)
                if qd is None or ops[qd].dst is not operand:
                    continue  # no def, or an implicit one (a CALL clobber)
                if index.accessed_between(dst, qd + 1, q):
                    continue
                index.rename(operand, dst, qd, q + 1)
                rewrites += 1
                changed = True
                break
            if changed:
                break
    return [op for op in ops if op is not None], rewrites


class _Positions:
    """Sorted def and use positions per location over an op list, kept
    exact through renames and deletions.  A deleted op leaves a ``None``
    hole, so the positions of the others never shift; a use list holds a
    position twice when the op reads the location through both operands."""

    def __init__(self, ops: list[MicroOp]):
        self.ops: list[MicroOp | None] = ops
        self.defs: dict[Loc, list[int]] = {}
        self.uses: dict[Loc, list[int]] = {}
        for pos, op in enumerate(ops):
            for loc in op.uses():
                self.uses.setdefault(loc, []).append(pos)
            for loc in op.defs():
                self.defs.setdefault(loc, []).append(pos)

    def last_def_before(self, loc: Loc, pos: int) -> int | None:
        defs = self.defs.get(loc, ())
        i = bisect_left(defs, pos)
        return defs[i - 1] if i else None

    def dead_after(self, loc: Loc, pos: int, live_out: set[Loc]) -> bool:
        """Is the value of *loc* defined at/before *pos* dead after *pos*?

        The value dies at the next redefinition; uses up to and including
        the redefining op (which may read the old value) count as consumers.
        """
        defs = self.defs.get(loc, ())
        i = bisect_right(defs, pos)
        horizon = defs[i] if i < len(defs) else None
        uses = self.uses.get(loc, ())
        j = bisect_right(uses, pos)
        if j < len(uses) and (horizon is None or uses[j] <= horizon):
            return False
        return not (horizon is None and loc in live_out)

    def accessed_between(self, loc: Loc, start: int, end: int) -> bool:
        for positions in (self.uses.get(loc, ()), self.defs.get(loc, ())):
            i = bisect_left(positions, start)
            if i < len(positions) and positions[i] < end:
                return True
        return False

    def rename(self, old: Loc, new: Loc, start: int, end: int) -> None:
        """Rename the value defined at *start* from *old* to *new*.

        At the defining position only the destination is renamed -- source
        operands there still refer to the *previous* value of ``old``
        (consider ``r = load [r]``: the base is the old value).  Later
        positions rename uses, whose reaching definition is the renamed one.
        """
        op = self.ops[start]
        if op.dst is old:
            op.dst = new
            self._move(self.defs, old, new, start)
        for pos in range(start + 1, end):
            op = self.ops[pos]
            if op is None:
                continue
            if op.dst is old:
                op.dst = new
                self._move(self.defs, old, new, pos)
            if op.a is old:
                op.a = new
                self._move(self.uses, old, new, pos)
            if op.b is old:
                op.b = new
                self._move(self.uses, old, new, pos)

    def delete(self, pos: int) -> None:
        op = self.ops[pos]
        for loc in op.uses():
            self.uses[loc].remove(pos)
        for loc in op.defs():
            self.defs[loc].remove(pos)
        self.ops[pos] = None

    @staticmethod
    def _move(table: dict[Loc, list[int]], old: Loc, new: Loc, pos: int) -> None:
        table[old].remove(pos)
        insort(table.setdefault(new, []), pos)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


@dataclass
class RerollStats:
    loops_rerolled: int = 0
    ops_removed: int = 0
    #: header address -> unroll factor recovered
    factors: dict[int, int] = field(default_factory=dict)
    #: rotation-chain renames, applied even where rerolling then fails
    rewrites: int = 0


def reroll_loops(cfg: ControlFlowGraph) -> RerollStats:
    stats = RerollStats()
    loops = natural_loops(cfg)
    if not loops:
        return stats
    _, live_out = liveness(cfg)
    headers = {loop.header for loop in loops}

    for loop in loops:
        if len(loop.body) != 2:
            continue  # need the header + single straight-line latch shape
        header = cfg.blocks[loop.header]
        latch_index = next(iter(loop.body - {loop.header}))
        latch = cfg.blocks[latch_index]
        result = _try_reroll(cfg, loop.header, header, latch, live_out, headers, loops, stats)
        if result is not None:
            removed, factor = result
            stats.loops_rerolled += 1
            stats.ops_removed += removed
            stats.factors[header.start] = factor
            cfg.reroll_factors[header.start] = factor
    return stats


def _try_reroll(
    cfg: ControlFlowGraph,
    header_index: int,
    header: MicroBlock,
    latch: MicroBlock,
    live_out,
    headers: set[int],
    loops,
    stats: RerollStats,
) -> tuple[int, int] | None:
    term = latch.terminator
    if term is None or term.opcode is not Opcode.JUMP or term.target != header.start:
        return None
    head_term = header.terminator
    if head_term is None or head_term.opcode is not Opcode.BRANCH:
        return None
    # normalize rotating register chains so increments become self-updates
    body_ops, rewrites = _canonicalize_rotations(latch.ops[:-1], live_out[latch.index])
    stats.rewrites += rewrites
    latch.ops = body_ops + [term]

    # 1. find the induction increments and split into segments
    split = _split_segments(body_ops)
    if split is None:
        return None
    induction, step, segments = split
    factor = len(segments)

    # 2. segment transfer functions must be identical
    transfers = [_symbolic_exec(segment) for segment in segments]
    if not all(t.ok for t in transfers):
        return None
    relevant = {loc.name for loc in live_out[latch.index]}
    for t in transfers:
        relevant |= t.reads
    base = transfers[0]
    for other in transfers[1:]:
        if not _same_transfer(base, other, relevant):
            return None

    # 3. locate the remainder loop along the main loop's exit path
    exit_index = _exit_successor(cfg, header_index, header, latch)
    if exit_index is None:
        return None
    remainder = _find_remainder_loop(cfg, exit_index, headers, loops)
    if remainder is None:
        return None
    rem_header_index, rem_latch_index = remainder
    rem_header = cfg.blocks[rem_header_index]
    rem_latch = cfg.blocks[rem_latch_index]
    rem_term = rem_latch.terminator
    if rem_term is None or rem_term.opcode is not Opcode.JUMP:
        return None
    rem_ops, rewrites = _canonicalize_rotations(rem_latch.ops[:-1], live_out[rem_latch.index])
    stats.rewrites += rewrites
    rem_latch.ops = rem_ops + [rem_term]
    rem_transfer = _symbolic_exec(rem_latch.ops[:-1])
    if not rem_transfer.ok:
        return None
    rem_relevant = set(relevant) | rem_transfer.reads
    if not _same_transfer(base, rem_transfer, rem_relevant):
        return None

    # 4. guards must align: main guard == remainder guard with i -> i+(U-1)c
    main_guard = _guard_condition(cfg, header, in_loop_target=latch.index)
    rem_guard = _guard_condition(cfg, rem_header, in_loop_target=rem_latch_index)
    if main_guard is None or rem_guard is None:
        return None
    if main_guard[0] != rem_guard[0]:
        return None
    lookahead = (factor - 1) * step
    shifted = (
        rem_guard[0],
        _subst_shift(rem_guard[1], induction.name, lookahead),
        _subst_shift(rem_guard[2], induction.name, lookahead),
    )
    if shifted != main_guard:
        return None
    # guards may read only the induction variable among segment-written locs
    guard_leaves: set[str] = set()
    _leaves(main_guard[1], guard_leaves)
    _leaves(main_guard[2], guard_leaves)
    written = set(base.writes) & relevant
    if (guard_leaves - {induction.name}) & written:
        return None
    # header itself must not write anything relevant (scratch only)
    header_writes = {
        loc.name for op in header.ops for loc in op.defs()
    }
    if header_writes & relevant:
        return None

    # 5. rewrite: keep only the first segment
    removed = sum(len(s) for s in segments[1:])
    latch.ops = list(segments[0]) + [term]
    return removed, factor


def _split_segments(
    ops: list[MicroOp],
) -> tuple[Loc, int, list[list[MicroOp]]] | None:
    """Split at ``L = L + #c`` increments; all increments must agree."""
    candidates: dict[str, list[int]] = {}
    for pos, op in enumerate(ops):
        if (
            op.opcode is Opcode.ADD
            and op.dst is not None
            and op.a == op.dst
            and isinstance(op.b, Imm)
        ):
            candidates.setdefault(op.dst.name, []).append(pos)
    for name, positions in candidates.items():
        if len(positions) < 2:
            continue
        steps = {ops[pos].b.value for pos in positions}
        if len(steps) != 1:
            continue
        if positions[-1] != len(ops) - 1:
            continue  # trailing non-segment ops would break the pattern
        segments: list[list[MicroOp]] = []
        start = 0
        valid = True
        for pos in positions:
            segment = ops[start : pos + 1]
            if not segment:
                valid = False
                break
            # no other increment of the same variable inside the segment
            segments.append(segment)
            start = pos + 1
        if valid and len(segments) >= 2:
            induction = ops[positions[0]].dst
            step = next(iter(steps))
            step = step - 0x1_0000_0000 if step & 0x8000_0000 else step
            if step <= 0:
                continue
            return induction, step, segments
    return None


def _same_transfer(a: _Transfer, b: _Transfer, relevant: set[str]) -> bool:
    if a.stores != b.stores:
        return False
    a_writes = {k: v for k, v in a.writes.items() if k in relevant}
    b_writes = {k: v for k, v in b.writes.items() if k in relevant}
    return a_writes == b_writes


def _exit_successor(
    cfg: ControlFlowGraph, header_index: int, header: MicroBlock, latch: MicroBlock
) -> int | None:
    outs = [s for s in header.succs if s not in (latch.index, header_index)]
    if len(outs) != 1:
        return None
    return outs[0]


def _find_remainder_loop(
    cfg: ControlFlowGraph, start_index: int, headers: set[int], loops
) -> tuple[int, int] | None:
    """Follow (near-)empty blocks from *start_index* to the next loop header;
    return (header, latch) if that loop has the two-block shape."""
    index = start_index
    for _ in range(4):
        if index in headers:
            for loop in loops:
                if loop.header == index and len(loop.body) == 2:
                    latch = next(iter(loop.body - {loop.header}))
                    return index, latch
            return None
        block = cfg.blocks[index]
        meaningful = [op for op in block.ops if op.opcode is not Opcode.JUMP]
        if meaningful:
            return None
        if len(block.succs) != 1:
            return None
        index = block.succs[0]
    return None


def _guard_condition(
    cfg: ControlFlowGraph, header: MicroBlock, in_loop_target: int
) -> tuple | None:
    """(cond, a_expr, b_expr) such that cond true <=> stay in the loop."""
    term = header.terminator
    if term is None or term.opcode is not Opcode.BRANCH:
        return None
    transfer = _symbolic_exec(header.ops[:-1])
    if not transfer.ok:
        return None
    env = transfer.writes

    def value_of(operand):
        if isinstance(operand, Imm):
            return _const(operand.value)
        if operand == ZERO:
            return _const(0)
        return env.get(operand.name, ("in", operand.name))

    cond = term.cond
    a_expr = value_of(term.a)
    b_expr = value_of(term.b)
    taken_index = cfg.block_by_start.get(term.target)
    if taken_index == in_loop_target:
        return (cond, a_expr, b_expr)
    return (NEGATED_COND[cond], a_expr, b_expr)
