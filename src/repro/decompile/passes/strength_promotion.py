"""Strength promotion: shift/add multiply expansions -> MUL nodes.

Compilers strength-reduce constant multiplications into shift/add/sub
series.  Good for a fixed CPU; bad for synthesis, where the extra adders and
shifters may exhaust resources while hardware multipliers sit idle (paper
section 2).  The synthesis tool should make the implementation choice, so
this pass recovers the multiplication.

Method: a block-local *affine value analysis*.  Every location's value is
tracked as ``coeff * term + const`` where ``term`` stands for an opaque base
value (a load result, a block input, ...).  Shifts by constants multiply the
coefficient, adds/subs combine like terms.  When an operation's result is
``c * x`` with a non-trivial ``c`` produced by two or more chained ops, and
some live location still holds ``x`` itself, the operation is replaced by
``MUL dst, x_loc, #c``.  Intermediate chain ops die in the next DCE round if
nothing else consumes them.

The rewrite is locally sound by construction (the replacement computes the
same value modulo 2^32), which the CDFG-vs-simulator equivalence tests
confirm end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.microop import Imm, Loc, MicroOp, Opcode, ZERO

_MASK = 0xFFFF_FFFF


@dataclass(frozen=True)
class _Affine:
    """value = coeff * term + const (mod 2**32); term None => constant."""

    term: int | None
    coeff: int
    const: int
    cost: int = 0  # number of ALU ops that built this value


@dataclass
class PromotionStats:
    muls_recovered: int = 0
    chain_ops_subsumed: int = 0


def _is_trivial_coeff(coeff: int) -> bool:
    """Coefficients a single wire/shift implements (no promotion value)."""
    coeff &= _MASK
    return coeff == 0 or coeff == 1 or (coeff & (coeff - 1)) == 0


def promote_strength(cfg: ControlFlowGraph) -> PromotionStats:
    stats = PromotionStats()
    for block in cfg.blocks:
        _promote_block(block.ops, stats)
    return stats


def _promote_block(ops: list[MicroOp], stats: PromotionStats) -> None:
    affine: dict[Loc, _Affine] = {}
    # term -> locs currently holding 1*term+0, in insertion order so the
    # holder chosen below never depends on hash order
    homes: dict[int, dict[Loc, None]] = {}
    next_term = [0]

    def fresh_term(loc: Loc) -> _Affine:
        term = next_term[0]
        next_term[0] += 1
        value = _Affine(term, 1, 0)
        affine[loc] = value
        homes.setdefault(term, {})[loc] = None
        return value

    def value_of(operand) -> _Affine:
        if isinstance(operand, Imm):
            return _Affine(None, 0, operand.value & _MASK)
        if operand == ZERO:
            return _Affine(None, 0, 0)
        existing = affine.get(operand)
        if existing is None:
            return fresh_term(operand)
        return existing

    def set_def(loc: Loc, value: _Affine | None) -> None:
        old = affine.pop(loc, None)
        if old is not None and old.term is not None and old.coeff == 1 and old.const == 0:
            homes.get(old.term, {}).pop(loc, None)
        if value is None:
            value = fresh_term(loc)
            return
        affine[loc] = value
        if value.term is not None and value.coeff == 1 and value.const == 0:
            homes.setdefault(value.term, {})[loc] = None

    for index, op in enumerate(ops):
        code = op.opcode
        new_value: _Affine | None = None

        if code is Opcode.CONST:
            new_value = _Affine(None, 0, op.a.value & _MASK)
        elif code is Opcode.MOVE and isinstance(op.a, Loc):
            new_value = value_of(op.a)
        elif code in (Opcode.ADD, Opcode.SUB):
            a, b = value_of(op.a), value_of(op.b)
            new_value = _combine(a, b, negate_b=(code is Opcode.SUB))
        elif code is Opcode.SHL and isinstance(op.b, Imm):
            a = value_of(op.a)
            shift = op.b.value & 31
            new_value = _Affine(
                a.term,
                (a.coeff << shift) & _MASK,
                (a.const << shift) & _MASK,
                a.cost + 1,
            )
        elif code is Opcode.MUL and isinstance(op.b, Imm):
            a = value_of(op.a)
            factor = op.b.value & _MASK
            new_value = _Affine(
                a.term,
                (a.coeff * factor) & _MASK,
                (a.const * factor) & _MASK,
                a.cost,  # already a multiply: nothing to promote
            )

        if (
            new_value is not None
            and new_value.term is not None
            and new_value.cost >= 2
            and code in (Opcode.ADD, Opcode.SUB, Opcode.SHL)
            and op.dst is not None
        ):
            found = _find_multiplicand(affine, homes, new_value, op.dst)
            if found is not None:
                source, factor = found
                ops[index] = MicroOp(
                    Opcode.MUL,
                    dst=op.dst,
                    a=source,
                    b=Imm(factor),
                    pc=op.pc,
                )
                stats.muls_recovered += 1
                stats.chain_ops_subsumed += new_value.cost

        if op.dst is not None:
            # promotion does not change the tracked affine value
            if new_value is not None:
                set_def(op.dst, new_value)
            else:
                set_def(op.dst, None)
        else:
            for loc in op.defs():
                set_def(loc, None)


def _find_multiplicand(
    affine: dict[Loc, _Affine],
    homes: dict[int, dict[Loc, None]],
    value: _Affine,
    dst: Loc,
) -> tuple[Loc, int] | None:
    """Find a live location L and factor f with value == f * affine(L).

    Prefers an exact holder of the base term (``1*t+0``); otherwise scans for
    any location whose affine value divides the target, which recovers e.g.
    ``7*(i+1)`` from a holder of ``i+1``.  Returns None when the factor would
    be trivial (0/1/power of two -- a wire or a single shift is already the
    best hardware).
    """
    if value.const == 0 and not _is_trivial_coeff(value.coeff):
        holders = homes.get(value.term, {})
        if holders:
            source = dst if dst in holders else next(iter(holders))
            return source, value.coeff
    for loc, candidate in affine.items():
        if candidate.term != value.term or candidate.coeff == 0:
            continue
        if value.coeff % candidate.coeff != 0:
            continue
        factor = value.coeff // candidate.coeff
        if (factor * candidate.const) & _MASK != value.const:
            continue
        if _is_trivial_coeff(factor):
            return None  # expressible, but not worth a multiplier
        return loc, factor & _MASK
    return None


def _combine(a: _Affine, b: _Affine, negate_b: bool) -> _Affine | None:
    b_coeff = (-b.coeff) & _MASK if negate_b else b.coeff
    b_const = (-b.const) & _MASK if negate_b else b.const
    cost = a.cost + b.cost + 1
    if a.term is None and b.term is None:
        return _Affine(None, 0, (a.const + b_const) & _MASK, cost)
    if a.term is None:
        return _Affine(b.term, b_coeff, (a.const + b_const) & _MASK, cost)
    if b.term is None:
        return _Affine(a.term, a.coeff, (a.const + b_const) & _MASK, cost)
    if a.term == b.term:
        return _Affine(a.term, (a.coeff + b_coeff) & _MASK, (a.const + b_const) & _MASK, cost)
    return None  # two different bases: not affine in one variable
